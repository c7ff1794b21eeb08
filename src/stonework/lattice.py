"""Finite meet-closed families of fibered projections and their filter machinery.

A FiniteLattice is an explicit list of projections closed under meet and join,
always containing the zero and identity operators, with the order relation and
the meet table precomputed. Filter bases are defined through meets alone, so
no join table is kept: a finite family with a top in which every pair has a
meet is a lattice, and the join of i and j is the meet of their common upper
bounds. Quasipoints (maximal filter bases) of such a lattice are exactly the
up-sets of its atoms, which turns the maximality clause of the filter-base
definition into an exhaustively checkable statement: adding any non-member to
an up-set of an atom forces a zero meet.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    Ambiguous,
    ClosureExplosion,
    EmptyFilter,
    NotMember,
    NotProjection,
    StoneworkError,
)
from .matrix_algebra import FiberedOperator, require_projection
from .numerics import DEFAULT_TOL, Tolerance, is_projection, stacked_join, stacked_meet

#: Node-matching distance at the default tolerance; nodes match within tol.eps.
DEDUP_EPS = DEFAULT_TOL.eps
#: Array entries per temporary in every blocked loop of this module.
_CHUNK = 1 << 20
#: Up to this many compared entries (candidates x nodes x entries per node)
#: _near compares every pair, which costs less than building its key window.
_DENSE = 1 << 13
#: Bytes the order and meet tables of a closure may take: one intp table and
#: one of bools, 9 k^2 bytes for k nodes on 64 bits (151 MB at k = 4096).
_TABLE_BUDGET = 1 << 29


class FiniteLattice:
    """Explicit finite projection lattice with precomputed order and tables."""

    def __init__(self, elements: list[FiberedOperator], tol: Tolerance = DEFAULT_TOL):
        self.elements = list(elements)
        self.tol = tol
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        stack = np.stack([e.values for e in self.elements])  # (k, m, n, n)
        _require_fibers(stack.shape[-1])
        k = len(stack)
        self._stack = stack
        self.leq = _order(stack, self.tol.eps)
        zero, one = _near(_bounds(stack.shape[1:]), stack, self.tol.eps)
        if min(zero, one) < 0:
            raise StoneworkError("lattice is missing its zero or unit element")
        self.zero_index, self.one_index = int(zero), int(one)
        self.meet_table = _extrema_table(self.leq)
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
        if self.members and not 0 <= min(self.members) <= max(self.members) < len(lattice):
            raise NotMember(f"filter members must be lattice nodes 0..{len(lattice) - 1}")

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
        m = np.fromiter(self.members, dtype=np.intp, count=len(self.members))
        low = self.lattice.leq[np.ix_(m, m)].all(axis=1)
        if not low.any():
            raise StoneworkError("member set is not downward directed")
        return int(m[low.argmax()])

    def __repr__(self):
        return f"Filter({sorted(self.members)})"


def _bounds(shape) -> np.ndarray:
    """The values of the zero and the identity operator of a (m, n, n) shape."""
    bounds = np.zeros((2, *shape), dtype=np.complex128)
    bounds[1] = np.eye(shape[-1])
    return bounds


def _require_fibers(n: int):
    if n == 0:
        raise StoneworkError("fibers of size n = 0 hold no projection lattice; need n >= 1")


def _order(stack: np.ndarray, eps: float) -> np.ndarray:
    """leq[i, j] = (max|e_i e_j - e_i| <= eps) for a (k, m, n, n) node stack.

    The order of a direct sum of matrix algebras is the product of its fiber
    orders, and a fiber takes few distinct values. One sort of the node
    fibers' bytes, each led by the index of its fiber, ranks the distinct
    (fiber, value) pairs. Row r of the flat table ``below`` holds the test of
    rank r against each value of its fiber, run once per pair in blocks of at
    most _CHUNK entries, and leq ANDs over the fibers one entry of each row.
    """
    k, m, n = stack.shape[:3]
    # void keys sort as unsigned bytes, so a big-endian fiber index in front
    # makes the ranks run fiber by fiber
    keys = np.empty((m, k, 8 + 16 * n * n), dtype=np.uint8)
    keys[..., :8] = np.arange(m, dtype=">u8").view(np.uint8).reshape(m, 1, 8)
    keys[..., 8:] = stack.transpose(1, 0, 2, 3).reshape(m, k, -1).view(np.uint8)
    keys = keys.view(f"V{keys.shape[-1]}").ravel()
    order = keys.argsort()
    new = np.ones(k * m, dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    rank = np.empty(k * m, dtype=np.intp)  # of each node fiber
    rank[order] = new.cumsum() - 1
    fiber, node = np.divmod(order[new], k)  # of each rank
    per = np.bincount(fiber, minlength=m)
    first, count = (per.cumsum() - per)[fiber], per[fiber]  # of each rank's fiber
    ends = count.cumsum()  # row r spans ends[r] - count[r] .. ends[r]
    vals = np.ascontiguousarray(stack[node, fiber].transpose(1, 2, 0))  # (n, n, ranks)
    below = np.empty(int(ends[-1]), dtype=bool)
    step = max(1, _CHUNK // (n * n))
    for s in range(0, len(below), step):
        at = np.arange(s, min(s + step, len(below)))
        r = np.searchsorted(ends, at, "right")
        col = at - ends[r] + count[r] + first[r]
        below[s : s + step] = _below(vals.take(r, axis=2), vals.take(col, axis=2), eps)
    rank = rank.reshape(m, k)
    row, col = (ends - count)[rank], (np.arange(len(fiber)) - first)[rank]
    leq = np.empty((k, k), dtype=bool)
    step = max(1, _CHUNK // (k * m))
    for s in range(0, k, step):
        leq[s : s + step] = below[row[:, s : s + step, None] + col[:, None]].all(axis=0)
    return leq


def _below(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """max|p q - p| <= eps for pairs stacked on the last axis. Each product
    sums over its middle index in the order an einsum over all node pairs and
    fibers does, so the two agree bit for bit."""
    return np.abs(np.einsum("abp,bcp->acp", p, q) - p).max(axis=(0, 1)) <= eps


def _extrema_table(leq: np.ndarray) -> np.ndarray:
    """The meet table of the order ``leq``, and the lattice check.

    The common lower bounds of i and j are exactly the nodes below their meet,
    so entry (i, j) is the node whose down-set (column of ``leq``) equals the
    intersection of the down-sets of i and j. The down-sets are packed into
    bit rows and sorted once; each block of rows is intersected with every row
    and looked up with one binary search. An intersection that is no node's
    down-set, or two nodes with one down-set, mean the family is not a lattice.
    When every pair has a meet and there is a top, every pair has a join too
    (the meet of its common upper bounds), so the transpose needs no pass of
    its own. Transitivity of ``leq`` is assumed, not checked.
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


@functools.lru_cache(maxsize=16)
def _key_weights(length: int):
    """The key weights w for rows of ``length`` = L float64 parts, sum(w),
    gamma_L sum(w) and L eta. gamma_L = L u / (1 - L u) bounds the rounding of
    a dot product of L terms in any order (u the unit roundoff), and eta, the
    smallest subnormal, bounds the underflow of one product."""
    w = 1.5 + np.cos(0.7548776662466927 * np.arange(length))
    w.setflags(write=False)
    u = np.finfo(np.float64).eps / 2
    wsum = float(w.sum())
    return w, wsum, wsum * length * u / (1 - length * u), length * float(np.nextafter(0.0, 1.0))


def _near(cands: np.ndarray, nodes: np.ndarray, eps: float) -> np.ndarray:
    """For each of one or more candidates, the index of the first node within
    eps of it in max-abs distance, or -1 when there is none.

    A sort-and-sweep broad phase picks the pairs to compare. Each row, viewed
    as its L real and imaginary parts r, gets the key w.r for fixed positive
    weights w. A node within eps of a candidate differs from it by at most
    eps (1 + 4u) in each part (the computed modulus rounds down by at most
    3u), so their computed keys differ by at most

        rho = eps (1 + 4u) sum(w) + gamma_L sum(w) B + L eta,

    where B, the sum of |largest| and |smallest| part of the candidates and
    of the nodes, bounds max|r_c| + max|r_x|. A candidate's window is its
    key +- R with R = 2 (eps sum(w) + gamma_L sum(w) B + L eta) >= 1.9 rho.
    Rounding key +- R errs by at most u (|key| + R) <= u sum(w) B (1 +
    gamma_L) + u R, under the spare 0.9 rho since gamma_L >= 2u. Identical
    rows need not get identical keys, so the pad stays at eps = 0. Only the
    pairs inside windows get the exact max-abs test, in blocks of at most
    _CHUNK entries, and the lowest passing node index wins. Up to _DENSE
    compared entries, and when the radius is not finite, every candidate is
    tested against every node instead.
    """
    c, k, size = len(cands), len(nodes), cands[0].size
    out = np.full(c, -1, dtype=np.intp)
    if k == 0:
        return out
    flat_c, flat_x = cands.reshape(c, size), nodes.reshape(k, size)
    if c * k * size > _DENSE and (found := _near_keyed(flat_c, flat_x, eps)) is not None:
        return found
    step = max(1, _CHUNK // (k * max(1, size)))
    for s in range(0, c, step):
        dist = np.abs(flat_c[s : s + step, None] - flat_x[None]).max(axis=2, initial=0.0)
        hit = dist <= eps
        out[s : s + step] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    return out


def _near_keyed(flat_c: np.ndarray, flat_x: np.ndarray, eps: float) -> np.ndarray | None:
    """_near through the key window of each candidate; None when the radius
    is not finite."""
    c, k, size = len(flat_c), len(flat_x), flat_c.shape[1]
    w, wsum, gamma_wsum, tiny = _key_weights(2 * size)
    rc, rx = flat_c.view(np.float64), flat_x.view(np.float64)
    bound = sum(abs(float(v)) for v in (rc.max(), rc.min(), rx.max(), rx.min()))
    radius = 2 * (eps * wsum + gamma_wsum * bound + tiny)
    if not math.isfinite(radius + 2 * wsum * bound):  # a key may overflow
        return None
    key_x = rx @ w
    order = np.argsort(key_x, kind="stable")
    keys, key_c = key_x[order], rc @ w
    lo = np.searchsorted(keys, key_c - radius, "left")
    hi = np.searchsorted(keys, key_c + radius, "right")
    ends = (hi - lo).cumsum()
    total = int(ends[-1])
    shift = hi - ends  # pair p of candidate i sits at sorted position p + shift[i]
    best = np.full(c, k, dtype=np.intp)
    step = max(1, _CHUNK // size)
    for s in range(0, total, step):
        pair = np.arange(s, min(s + step, total))
        ci = np.searchsorted(ends, pair, "right")
        xi = order[pair + shift[ci]]
        hit = np.abs(flat_c[ci] - flat_x[xi]).max(axis=1, initial=0.0) <= eps
        np.minimum.at(best, ci, np.where(hit, xi, k))
    return np.where(best < k, best, -1)


class _FiberMemo:
    """Meets and joins of single fibers, each distinct pair eigensolved once.

    The projection lattice of a direct sum of matrix algebras is the product
    of its fiber lattices: a fibered meet or join is the meet or join of each
    fiber pair on its own. Each node fiber gets as id the flat position of
    the first node fiber with the same bytes, and the unordered pair of ids
    keys the row of ``solved`` that holds its meet and join.
    ``stacked_meet`` and ``stacked_join`` solve one matrix at a time and give
    the same bits with their arguments swapped, so a remembered fiber is bit
    for bit what a fresh solve gives. Both tables are dicts over the distinct
    fiber values and pairs, filled and read a whole block at a time.
    """

    def __init__(self, m: int, n: int, tol: Tolerance):
        self.tol = tol
        self._void = np.dtype((np.void, 16 * n * n))  # a fiber's bytes as one key
        self._first: dict[bytes, int] = {}  # fiber bytes -> id
        self.node_ids = np.empty((0, m), dtype=np.intp)  # per node fiber
        # pair key lo << 32 | hi -> row; ids are flat positions in the node
        # stack, below 2**31 for any stack that fits in memory
        self._rows: dict[int, int] = {}
        self.solved = np.empty((0, 2, n, n), dtype=np.complex128)  # meet, join

    def meet_join(self, stack: np.ndarray, known: int, blocks):
        """For each block (i, lo, hi) of node pairs (i, j), lo <= j < hi <= i
        < known, the meet and the join (axis 1) of each of their fibers (axis
        2), as (hi - lo, 2, m, n, n) arrays, where ``stack`` holds the nodes.
        Pairs not seen before are solved in blocks of at most _CHUNK entries."""
        m, n = stack.shape[1:3]
        fibers = stack.reshape(-1, n, n)
        if len(self.node_ids) < known:  # number the fibers of the new nodes
            start = len(self.node_ids)
            new = fibers[start * m : known * m].reshape(-1, n * n).view(self._void)[:, 0].tolist()
            ids = map(self._first.setdefault, new, range(start * m, known * m))
            ids = np.fromiter(ids, dtype=np.intp, count=len(new)).reshape(-1, m)
            self.node_ids = np.concatenate([self.node_ids, ids])
        keys = []
        for i, lo, hi in blocks:
            a, b = self.node_ids[i], self.node_ids[lo:hi]
            keys.append(np.minimum(a, b) << 32 | np.maximum(a, b))
        flat = np.concatenate(keys, axis=None).tolist()
        if fresh := set(flat).difference(self._rows):
            fresh = np.array(sorted(fresh))
            step = max(1, _CHUNK // fibers[0].size)
            solved = [self.solved]
            for s in range(0, len(fresh), step):
                pair = fresh[s : s + step]
                p, q = fibers[pair >> 32], fibers[pair & 0xFFFFFFFF]
                solved.append(np.empty((len(pair), *self.solved.shape[1:]), dtype=np.complex128))
                solved[-1][:, 0] = stacked_meet(p, q, self.tol)
                solved[-1][:, 1] = stacked_join(p, q, self.tol)
            self._rows.update(zip(fresh.tolist(), range(len(self.solved), len(self.solved) + len(fresh))))
            self.solved = np.concatenate(solved)
        rows = np.fromiter(map(self._rows.__getitem__, flat), dtype=np.intp, count=len(flat))
        at = 0
        for k in keys:
            yield self.solved[rows[at : at + k.size].reshape(k.shape)[:, None], _MEET_JOIN]
            at += k.size


#: Picks the meet (row 0) and the join (row 1) of each solved pair.
_MEET_JOIN = np.array([[0], [1]])


def meet_closure(
    generators: list[FiberedOperator],
    cap: int = 4096,
    tol: Tolerance = DEFAULT_TOL,
) -> FiniteLattice:
    """Smallest family containing the generators, zero and one, closed under
    meet and join. Raises ClosureExplosion past ``cap``, or once the order and
    meet tables of the nodes would outgrow _TABLE_BUDGET bytes.

    Nodes are numbered in discovery order: zero, one, the generators, then for
    each node i and each earlier node j in ascending order, meet(i, j) followed
    by join(i, j). A candidate within tol.eps (max-abs) of a node already
    present is that node and is dropped, so the lowest-index match wins.
    Meets and joins come from a _FiberMemo, which eigensolves each distinct
    pair of fiber values once; the bytes of every node stay unchanged.
    """
    if not generators:
        raise ValueError("need at least one generator")
    space = generators[0].space
    n = generators[0].n
    if any(g.space != space or g.n != n for g in generators):
        raise StoneworkError("generators have mixed shapes")
    _require_fibers(n)
    gens = np.stack([g.values for g in generators])
    if not is_projection(gens, tol):
        raise NotProjection(f"generator is not a fiberwise projection at eps={tol.eps}")

    elems: list[FiberedOperator] = []
    stack = np.empty((16, space.points, n, n), dtype=np.complex128)  # node values
    pair_bytes = np.dtype(np.intp).itemsize + 1  # one entry of each k x k table

    def add(op: FiberedOperator):
        nonlocal stack
        if len(elems) == len(stack):
            stack = np.concatenate([stack, np.empty_like(stack)])
        stack[len(elems)] = op.values
        elems.append(op)
        if len(elems) > cap:
            raise ClosureExplosion(f"closure exceeded cap of {cap} elements")
        if len(elems) ** 2 * pair_bytes > _TABLE_BUDGET:
            raise ClosureExplosion(f"closure reached {len(elems)} nodes, whose tables "
                                   f"outgrow the table budget of {_TABLE_BUDGET} bytes")

    def admit(cands: np.ndarray, make, what: str = ""):
        """Append, in order, ``make(c)`` for each candidate c that no node is
        within tol.eps of when its turn comes: one pass against the nodes so
        far, then one against each node appended. A node appended as ``what``
        must be a projection."""
        todo = np.flatnonzero(_near(cands, stack[: len(elems)], tol.eps) < 0)
        while len(todo):
            op = make(todo[0])
            add(op)
            if what:
                require_projection(op, tol, what)
            todo = todo[1:]
            if len(todo):
                todo = todo[_near(cands[todo], stack[len(elems) - 1 : len(elems)], tol.eps) < 0]

    # zero and one differ (n >= 1 and eps < 1e-3); the generators are matched
    # against them and each other
    for bound in _bounds(gens.shape[1:]):
        add(FiberedOperator(space, bound))
    admit(gens, generators.__getitem__)
    memo = _FiberMemo(space.points, n, tol)

    # Meets and joins with the bounds add nothing new, so node i pairs with
    # nodes 2..i-1. Each round takes the pairs from (i, j) on among the nodes
    # known now, up to ``step`` of them, solves what is new in one go and
    # then matches node by node, as if each node's pairs were done alone.
    step = max(1, _CHUNK // stack[0].size)  # node pairs at once
    i, j = 3, 2
    while i < len(elems):
        known, left, blocks = len(elems), step, []
        while i < known and left:
            stop = min(i, j + left)
            blocks.append((i, j, stop))
            left -= stop - j
            i, j = (i + 1, 2) if stop == i else (i, stop)
        for cands in memo.meet_join(stack, known, blocks):
            cands = cands.reshape(-1, *stack.shape[1:])
            admit(cands, lambda c: FiberedOperator(space, cands[c]), "closure node")
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
    """Quasipoints that are alone in some base set; all of them, for finite
    lattices. Atom t's quasipoint is alone in a's when t is the only atom below a."""
    atoms = lattice.atoms()
    rows = lattice.leq[atoms]
    alone = rows[:, rows.sum(axis=0) == 1].any(axis=1)
    return frozenset(Filter(lattice, lattice.up_set(t)) for t, a in zip(atoms, alone) if a)


# -- exhaustive Def-style validation ------------------------------------------


def is_filter_base(lattice: FiniteLattice, members) -> bool:
    """No zero, and every pair of members dominates some member through its meet."""
    idx = np.fromiter(Filter(lattice, members).members, dtype=np.intp)
    if idx.size == 0 or lattice.zero_index in idx:
        return False
    above = lattice.leq[idx].any(axis=0)  # the nodes at or above some member
    return bool(above[lattice.meet_table[np.ix_(idx, idx)]].all())


def is_quasipoint(lattice: FiniteLattice, members) -> bool:
    """Filter base that no non-member extends, checked for all of them at once:
    pairs of members are covered already and meet(x, x) = x, so a non-member x
    extends it exactly when x is not zero and the meet of x with each member
    lies at or above some member or x itself."""
    idx = np.fromiter(Filter(lattice, members).members, dtype=np.intp)
    if not is_filter_base(lattice, idx):
        return False
    rest = np.ones(len(lattice), dtype=bool)  # the nonzero non-members
    rest[idx] = rest[lattice.zero_index] = False
    xs = np.flatnonzero(rest)
    meets = lattice.meet_table[np.ix_(xs, idx)]
    covered = lattice.leq[idx].any(axis=0)[meets] | lattice.leq[xs[:, None], meets]
    return not covered.all(axis=1).any()
