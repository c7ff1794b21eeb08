"""Finite meet-closed families of fibered projections and their filter machinery.

A FiniteLattice is an explicit list of projections closed under meet and join,
always containing the zero and identity operators, with the order relation and
the meet/join tables precomputed. Quasipoints (maximal filter bases) of such a
lattice are exactly the up-sets of its atoms, which turns the maximality
clause of the filter-base definition into an exhaustively checkable statement:
adding any non-member to an up-set of an atom forces a zero meet.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    Ambiguous,
    ClosureExplosion,
    EmptyFilter,
    NotMember,
    StoneworkError,
)
from .matrix_algebra import (
    FiberedOperator,
    identity,
    require_projection,
    zero_operator,
)
from .numerics import DEFAULT_TOL, Tolerance, stacked_join, stacked_meet

#: Node-matching distance at the default tolerance; nodes match within tol.eps.
DEDUP_EPS = DEFAULT_TOL.eps
#: Array entries per temporary in every blocked loop of this module.
_CHUNK = 1 << 20


class FiniteLattice:
    """Explicit finite projection lattice with precomputed order and tables."""

    def __init__(self, elements: list[FiberedOperator], tol: Tolerance = DEFAULT_TOL):
        self.elements = list(elements)
        self.tol = tol
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        stack = np.stack([e.values for e in self.elements])  # (k, m, n, n)
        k = len(stack)
        self._stack = stack
        # leq[i, j]: e_i e_j = e_i, i.e. i <= j; built a block of rows at a time
        self.leq = np.empty((k, k), dtype=bool)
        step = max(1, _CHUNK // max(1, stack.size))
        for s in range(0, k, step):
            blk = stack[s : s + step]
            diff = np.einsum("imab,jmbc->ijmac", blk, stack) - blk[:, None]
            self.leq[s : s + step] = np.max(np.abs(diff), axis=(2, 3, 4)) <= self.tol.eps
        eye = np.broadcast_to(np.eye(self.n, dtype=np.complex128), stack[0].shape)
        zero, one = _near(np.stack([np.zeros_like(eye), eye]), stack, self.tol.eps)
        if min(zero, one) < 0:
            raise StoneworkError("lattice is missing its zero or unit element")
        self.zero_index, self.one_index = int(zero), int(one)
        self.meet_table = _extrema_table(self.leq)
        self.join_table = _extrema_table(self.leq.T)
        # atoms: nonzero nodes with nothing but zero and themselves below them
        below = self.leq & ~np.eye(k, dtype=bool)
        below[self.zero_index] = False
        atoms = np.flatnonzero(~below.any(axis=0))
        self._atoms = [int(i) for i in atoms if i != self.zero_index]

    # -- queries ----------------------------------------------------------

    def __len__(self):
        return len(self.elements)

    @property
    def space(self):
        return self.elements[0].space

    @property
    def n(self):
        return self.elements[0].n

    def index_of(self, op: FiberedOperator) -> int:
        if op.values.shape == self._stack.shape[1:]:
            i = _near(op.values[None], self._stack, self.tol.eps)[0]
            if i >= 0:
                return int(i)
        raise NotMember("operator is not a node of this lattice")

    def atoms(self) -> list[int]:
        """Nonzero nodes with no node other than zero strictly below them."""
        return list(self._atoms)

    def up_set(self, i: int) -> frozenset:
        return frozenset(int(j) for j in np.nonzero(self.leq[i])[0])


class Filter:
    """A subset of lattice nodes forming a filter base (no zero, downward directed)."""

    __slots__ = ("lattice", "members")

    def __init__(self, lattice: FiniteLattice, members):
        self.lattice = lattice
        self.members = frozenset(int(i) for i in members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Filter)
            and self.lattice is other.lattice
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.lattice), self.members))

    def min_member(self) -> int:
        """The member below every other member (exists for any finite filter base)."""
        if not self.members:
            raise EmptyFilter("filter has no members")
        leq = self.lattice.leq
        for i in self.members:
            if all(leq[i, j] for j in self.members):
                return i
        raise StoneworkError("member set is not downward directed")

    def __repr__(self):
        return f"Filter({sorted(self.members)})"


def _extrema_table(leq: np.ndarray) -> np.ndarray:
    """meet_table when fed the order, join_table when fed its transpose.

    The common lower bounds of i and j are exactly the nodes below their meet,
    so entry (i, j) is the node whose down-set (column of ``leq``) equals the
    intersection of the down-sets of i and j. The down-sets are packed into
    bit rows and sorted once; each block of rows is intersected with every row
    and looked up with one binary search. An intersection that is no node's
    down-set, or two nodes with one down-set, mean the family is not a lattice.
    """
    k = len(leq)
    down = np.packbits(np.ascontiguousarray(leq.T), axis=1)  # row c: the nodes below c
    void = f"V{down.shape[1]}"  # a packed row as one sortable key
    order = np.argsort(down.view(void).ravel(), kind="stable")
    keys = down[order].view(void).ravel()
    shared = (keys[1:] == keys[:-1]).any()
    table = np.empty((k, k), dtype=np.intp)
    step = max(1, _CHUNK // down.size)
    for s in range(0, k, step):
        inter = (down[s : s + step, None] & down[None]).view(void)[..., 0]
        pos = np.minimum(np.searchsorted(keys, inter), k - 1)
        if shared or not (keys[pos] == inter).all():
            raise StoneworkError(
                "order tables are inconsistent; the element family is not closed"
            )
        table[s : s + step] = order[pos]
    return table


def _near(cands: np.ndarray, nodes: np.ndarray, eps: float) -> np.ndarray:
    """For each of one or more candidates, the index of the first node within
    eps of it in max-abs distance, or -1 when there is none; compared in
    chunks of bounded size."""
    c, k, size = len(cands), len(nodes), cands[0].size
    out = np.full(c, -1, dtype=np.intp)
    if k == 0:
        return out
    flat_c = cands.reshape(c, size)
    flat_n = nodes.reshape(k, size)
    step = max(1, _CHUNK // (k * max(1, size)))
    for s in range(0, c, step):
        dist = np.abs(flat_c[s : s + step, None] - flat_n[None]).max(axis=2, initial=0.0)
        hit = dist <= eps
        out[s : s + step] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    return out


def meet_closure(
    generators: list[FiberedOperator],
    cap: int = 4096,
    tol: Tolerance = DEFAULT_TOL,
) -> FiniteLattice:
    """Smallest family containing the generators, zero and one, closed under
    meet and join. Raises ClosureExplosion past ``cap``.

    Nodes are numbered in discovery order: zero, one, the generators, then for
    each node i and each earlier node j in ascending order, meet(i, j) followed
    by join(i, j). A candidate within tol.eps (max-abs) of a node already
    present is that node and is dropped, so the lowest-index match wins. Each
    node gets its meets and joins with all earlier nodes from one batched
    eigensolve each.
    """
    if not generators:
        raise ValueError("need at least one generator")
    space = generators[0].space
    n = generators[0].n
    for g in generators:
        require_projection(g, tol, "generator")
        if g.space != space or g.n != n:
            raise StoneworkError("generators have mixed shapes")

    elems: list[FiberedOperator] = []
    stack = np.empty((16, space.points, n, n), dtype=np.complex128)  # node values

    def add(op: FiberedOperator) -> bool:
        """Append op unless a node within tol.eps is already present."""
        nonlocal stack
        if _near(op.values[None], stack[: len(elems)], tol.eps)[0] >= 0:
            return False
        if len(elems) == len(stack):
            stack = np.concatenate([stack, np.empty_like(stack)])
        stack[len(elems)] = op.values
        elems.append(op)
        if len(elems) > cap:
            raise ClosureExplosion(f"closure exceeded cap of {cap} elements")
        return True

    for op in (zero_operator(space, n), identity(space, n), *generators):
        add(op)

    # Nodes 0 and 1 are zero and one (when n > 0); meets and joins with the
    # bounds add nothing new, so node i pairs with nodes 2..i-1.
    i = 3
    while i < len(elems):
        p, q = stack[i], stack[2:i]
        cands = np.stack([stacked_meet(p, q, tol), stacked_join(p, q, tol)], axis=1)
        cands = cands.reshape(-1, *p.shape)
        # one vectorized pass drops the candidates that match a known node; the
        # few left go through add in order, which matches them against the
        # nodes this pass has already appended
        for c in np.flatnonzero(_near(cands, stack[: len(elems)], tol.eps) < 0):
            op = FiberedOperator(space, cands[c])
            if add(op):
                require_projection(op, tol, "closure node")
        i += 1
    return FiniteLattice(elems, tol)


def enumerate_quasipoints(lattice: FiniteLattice) -> list[Filter]:
    """All maximal filter bases of the lattice: the up-sets of its atoms."""
    return [Filter(lattice, lattice.up_set(t)) for t in lattice.atoms()]


def trunk(b: Filter, e: int) -> Filter:
    """The members of a filter sitting below a designated member."""
    if e not in b.members:
        raise NotMember(f"element {e} is not a member of the filter")
    leq = b.lattice.leq
    return Filter(b.lattice, {i for i in b.members if leq[i, e]})


def extend_trunk(lattice: FiniteLattice, t: Filter) -> Filter:
    """The unique quasipoint containing a trunk, when there is only one.

    The trunk's minimum determines the candidates: the quasipoints containing
    the trunk are the up-sets of the atoms below that minimum. With several
    candidates the extension is ambiguous.
    """
    if t.lattice is not lattice:
        raise NotMember("trunk belongs to a different lattice")
    low = t.min_member()
    if low == lattice.zero_index:
        raise EmptyFilter("trunk contains the zero element")
    cands = [a for a in lattice.atoms() if lattice.leq[a, low]]
    if len(cands) == 1:
        return Filter(lattice, lattice.up_set(cands[0]))
    raise Ambiguous(
        f"{len(cands)} quasipoints contain the trunk; its minimum is not an atom"
    )


def stone_base_set(lattice: FiniteLattice, a: int) -> frozenset:
    """The base set of the Stone topology at a node: quasipoints containing it."""
    if not (0 <= a < len(lattice)):
        raise NotMember(f"no lattice node {a}")
    return frozenset(
        Filter(lattice, lattice.up_set(t)) for t in lattice.atoms() if lattice.leq[t, a]
    )


def isolated_points(lattice: FiniteLattice) -> frozenset:
    """Quasipoints that are alone in some base set; all of them, for finite lattices."""
    out = set()
    for t in lattice.atoms():
        b = Filter(lattice, lattice.up_set(t))
        for a in range(len(lattice)):
            bs = stone_base_set(lattice, a)
            if bs == {b}:
                out.add(b)
                break
    return frozenset(out)


# -- exhaustive Def-style validation ------------------------------------------


def is_filter_base(lattice: FiniteLattice, members) -> bool:
    """No zero, and every pair of members dominates some member through its meet."""
    idx = np.fromiter((int(i) for i in members), dtype=np.intp)
    if idx.size == 0 or lattice.zero_index in idx:
        return False
    meets = lattice.meet_table[np.ix_(idx, idx)].ravel()
    covered = lattice.leq[np.ix_(idx, meets)].any(axis=0)
    return bool(covered.all())


def is_quasipoint(lattice: FiniteLattice, members) -> bool:
    """Filter base that cannot be extended by any non-member: the maximality
    clause checked exhaustively over the whole lattice."""
    base = frozenset(int(i) for i in members)
    if not is_filter_base(lattice, base):
        return False
    for x in range(len(lattice)):
        if x in base:
            continue
        if is_filter_base(lattice, base | {x}):
            return False
    return True
