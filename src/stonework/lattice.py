"""Finite meet-closed families of fibered projections and their filter machinery.

A FiniteLattice is an explicit array of projections closed under meet and join,
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

from .center import StoneSpace
from .errors import (
    Ambiguous,
    ClosureExplosion,
    DimensionMismatch,
    EmptyFilter,
    NotMember,
    StoneworkError,
)
from .matrix_algebra import FiberedOperator, require_projection
from .numerics import DEFAULT_TOL, Tolerance, stacked_meet_join

#: Node-matching distance at the default tolerance; nodes match within tol.eps.
DEDUP_EPS = DEFAULT_TOL.eps
#: Array entries per temporary in the blocked loops of this module, but for
#: the exact test on the pairs in the key windows (_PAIR_BLOCK).
_CHUNK = 1 << 20
#: Candidate entries (2 m n^2 per node pair) per round of meet_closure. A
#: round's temporaries hold ints, m per candidate; only rounds admitted
#: through _admitted gather values, of their candidates and of the nodes.
#: On a 2-CPU VM, when the closure still kept its nodes' values as it went,
#: 2^16 took 0.92, 0.93 and 0.88 of the time of 2^14 on the 65-, 513- and
#: 1,025-node closures of one line per fiber and 0.95 on the Boolean m = 10;
#: 2^18 took 0.93, 0.94, 0.81 and 0.96 but added 5.9 MB to the peak RSS of
#: `quasipoints` on the Boolean m = 8, where 2^16 added 0.1 MB.
_ROUND = _CHUNK >> 4
#: Up to this many compared entries (candidates x rows x entries per row)
#: _near and _eps_classes compare every pair, which costs less than building
#: the key windows.
_DENSE = 1 << 13
#: Compared entries per block of the exact test on the pairs in the key
#: windows (_window_pairs), which _near and _eps_classes run. Blocks of 2^12
#: (64 KiB temporaries), 2^14 and 2^16 entries gave the same closure times,
#: within 6%, and the same `quasipoints` peak RSS, within 0.3 MB, on the
#: 65-node closure and on P, Q over 400 fibers of size 4, whose 3,803 fiber
#: values are classed through the key windows.
_PAIR_BLOCK = 1 << 12
#: Bytes the order and meet tables of a closure may take: one intp table and
#: one of bools, 9 k^2 bytes for k nodes on 64 bits (151 MB at k = 4096).
_TABLE_BUDGET = 1 << 29


class FiniteLattice:
    """Explicit finite projection lattice with precomputed order and tables.

    ``nodes`` holds the values of its k nodes as one read-only (k, m, n, n)
    array, node i at ``nodes[i]``; a node with a fiber that is not a
    projection within tol.eps raises NotProjection. ``meets``, which
    meet_closure hands over, holds the node that the meet of each pair (i,
    j), 2 <= j < i, matched in the closure, in closure order (pair (i, j) at
    (i - 2)(i - 3)/2 + j - 2), with node 0 the zero and node 1 the identity.
    _meet_table builds the meet table from it, or searches the table without
    it or when it does not name one node for each pair, and checks it either
    way.
    """

    def __init__(
        self, nodes: np.ndarray, tol: Tolerance = DEFAULT_TOL, meets: np.ndarray | None = None
    ):
        nodes = np.array(nodes, dtype=np.complex128)
        if nodes.ndim != 4 or nodes.shape[2] != nodes.shape[3]:
            raise DimensionMismatch(f"expected nodes of shape (k, m, n, n), got {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise ValueError("node entries must be finite")
        _require_fibers(nodes.shape[-1])
        if len(nodes) > _node_limit():
            raise StoneworkError(f"{len(nodes)} nodes outgrow the table budget of {_TABLE_BUDGET} bytes")
        require_projection(nodes, tol, "lattice node")
        nodes.setflags(write=False)
        self.nodes, self.tol = nodes, tol
        self.space = StoneSpace(nodes.shape[1])
        zero, one = _near(_bounds(nodes.shape[1:]), nodes, tol.eps)
        if min(zero, one) < 0:
            raise StoneworkError("lattice is missing its zero or unit element")
        self.zero_index, self.one_index = int(zero), int(one)
        self.leq = _order(nodes, tol.eps)
        # built after _order returns, so the table and _order's temporaries
        # are never held together
        self.meet_table = _meet_table(self.leq, meets)
        # atoms: nonzero nodes with nothing but zero and themselves below them
        below = self.leq & ~np.eye(len(nodes), dtype=bool)
        below[self.zero_index] = False
        atoms = np.flatnonzero(~below.any(axis=0))
        self._atoms = [int(i) for i in atoms if i != self.zero_index]

    def __len__(self):
        return len(self.nodes)

    @property
    def n(self):
        return self.nodes.shape[-1]

    @property
    def elements(self) -> list[FiberedOperator]:
        """The nodes as operators, node i at ``elements[i]``; the benchmark's tracer reads these."""
        return [FiberedOperator(self.space, v) for v in self.nodes]

    def atoms(self) -> list[int]:
        """Nonzero nodes with no node other than zero strictly below them."""
        return list(self._atoms)

    def up_set(self, i: int) -> frozenset:
        if not 0 <= i < len(self.nodes):
            raise NotMember(f"no lattice node {i}")
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


def _node_limit() -> int:
    """The most nodes whose order and meet tables fit in _TABLE_BUDGET bytes."""
    return math.isqrt(_TABLE_BUDGET // (np.dtype(np.intp).itemsize + 1))


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


def _meet_table(leq: np.ndarray, meets: np.ndarray | None = None) -> np.ndarray:
    """The meet table T of the order ``leq``, and the lattice check.

    The common lower bounds of i and j are exactly the nodes below their
    meet, so T[i, j] is the node whose down-set (column of ``leq``) is the
    intersection of the down-sets of i and j. The candidate table comes from
    ``meets`` when a closure recorded them (see FiniteLattice) and they name
    one node of 0..k-1 for each pair, else from the search: the down-sets,
    packed into bits and zero padded to whole 64-bit words, are sorted once
    (_sorted_rows), and each block's intersections are looked up with one
    binary search. Either candidate passes one check, in blocks of at most
    _CHUNK bytes:
    - ``leq`` is reflexive;
    - the down-set of T[i, j] is the intersection of those of i and j,
      compared as words;
    - leq[i, j] gives T[i, j] = i, which finds every i <= j <= l with
      i !<= l, as ``(leq @ leq > 0) & ~leq`` would. Two nodes with one
      down-set lie below each other, and T gives both pairs one entry, so
      they fail it too.
    A recorded table that fails gives way to the search, and a searched one
    that fails means the family is not a lattice. When every pair has a meet
    and there is a top, every pair has a join too (the meet of its common
    upper bounds), so the transpose needs no pass of its own.
    """
    k = len(leq)
    down = np.zeros((k, -(-k // 64) * 8), dtype=np.uint8)
    down[:, : -(-k // 8)] = np.packbits(np.ascontiguousarray(leq.T), axis=1)
    down = down.view(np.uint64)
    table = np.empty((k, k), dtype=np.intp)
    pairs = (k - 2) * (k - 3) // 2
    searched = meets is None or np.shape(meets) != (pairs,) or not ((meets >= 0) & (meets < k)).all()
    order = None
    if not searched:
        # zero meets every node in zero, the identity meets j in j and i
        # meets itself in i; the closure recorded the rest
        table[:, 1] = table[1] = np.arange(k)
        table[:, 0] = table[0] = 0
        sub = table[2:, 2:]
        low = np.tri(k - 2, k=-1, dtype=bool)
        sub[low] = sub.T[low] = meets
        np.fill_diagonal(sub, np.arange(2, k))
        del low
    reflexive = leq.diagonal().all()
    step = max(1, _CHUNK // down.nbytes)
    s = 0
    while s < k:
        inter = down[s : s + step, None] & down[None]
        if searched:
            if order is None:
                order, keys = _sorted_rows(down)
            pos = np.searchsorted(keys, inter.view(keys.dtype)[..., 0])
            table[s : s + step] = order[np.minimum(pos, k - 1)]
        meet = table[s : s + step]
        if (reflexive and np.array_equal(down[meet], inter)
                and not (leq[s : s + step] & (meet != np.arange(s, s + len(meet))[:, None])).any()):
            s += step
        elif searched:
            raise StoneworkError("order tables are inconsistent; the element family is not closed")
        else:
            searched, s = True, 0
    return table


def _sorted_rows(rows: np.ndarray):
    """The order that sorts the rows of a 2-D array by their bytes, and the
    sorted rows as one void key each: the one sort of _meet_table's search."""
    keys = rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


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
    _PAIR_BLOCK entries, and the lowest passing node index wins. Up to _DENSE
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
    if (windows := _key_windows(flat_c, flat_x, eps)) is None:
        return None
    c, k = len(flat_c), len(flat_x)
    best = np.full(c, k, dtype=np.intp)
    for ci, xi, hit in _window_pairs(flat_c, flat_x, windows, eps):
        np.minimum.at(best, ci, np.where(hit, xi, k))
    return np.where(best < k, best, -1)


def _key_windows(flat_c: np.ndarray, flat_x: np.ndarray, eps: float):
    """The key window of each candidate row among the rows of ``flat_x`` (see
    _near): the sorted order of the row keys, and the start and the end of
    each window in it. None when the radius is not finite."""
    w, wsum, gamma_wsum, tiny = _key_weights(2 * flat_c.shape[1])
    rc, rx = flat_c.view(np.float64), flat_x.view(np.float64)
    bound = sum(abs(float(v)) for v in (rc.max(), rc.min(), rx.max(), rx.min()))
    radius = 2 * (eps * wsum + gamma_wsum * bound + tiny)
    if not math.isfinite(radius + 2 * wsum * bound):  # a key may overflow
        return None
    key_x = rx @ w
    order = np.argsort(key_x, kind="stable")
    keys, key_c = key_x[order], rc @ w
    lo = np.searchsorted(keys, key_c - radius, "left")
    return order, lo, np.searchsorted(keys, key_c + radius, "right")


def _window_pairs(flat_c: np.ndarray, flat_x: np.ndarray, windows, eps: float):
    """The pairs (candidate ci, row xi) inside the key windows, with the exact
    test ``hit`` of each, in blocks of at most _PAIR_BLOCK compared entries."""
    order, lo, hi = windows
    ends = (hi - lo).cumsum()
    total = int(ends[-1])
    shift = hi - ends  # pair p of candidate i sits at sorted position p + shift[i]
    step = max(1, _PAIR_BLOCK // flat_c.shape[1])
    for s in range(0, total, step):
        pair = np.arange(s, min(s + step, total))
        ci = np.searchsorted(ends, pair, "right")
        xi = order[pair + shift[ci]]
        yield ci, xi, np.abs(flat_c[ci] - flat_x[xi]).max(axis=1, initial=0.0) <= eps


def _eps_classes(values: np.ndarray, known: np.ndarray, eps: float) -> np.ndarray | None:
    """The eps class of each of the stacked ``values``, given ``known``, the
    classes of its first len(known) values; None when no classes fit, or when
    the keys of the windows below would overflow.

    The classes fit when two values lie within eps of each other (max-abs)
    exactly when they share a class: each class is a clique, and no value
    lies within eps of a value of another class. A non-finite value, which
    is within eps of nothing, not even itself, and an eps chain a ~ b ~ c
    with a !~ c, leave no classes that fit. Each new value takes the class
    of the lowest value within eps of it, or a new class when that is
    itself, and the test of each new value against every value then checks
    the classes: all at once up to _DENSE compared entries, else through
    _near's key windows, whose hits, kept from one walk, must be as many as
    the new value's class holds and all of them in its class.
    """
    s, v = len(known), len(values)
    flat = values.reshape(v, -1)
    new = flat[s:]
    if dense := len(new) * v * flat.shape[1] <= _DENSE:
        near = np.abs(new[:, None] - flat[None]).max(axis=2) <= eps
        low = near.argmax(axis=1)
    elif (windows := _key_windows(new, flat, eps)) is None:  # not finite
        return None
    else:
        # every finite value lies in its own window, so there is a hit
        hits = [(ci[hit], xi[hit]) for ci, xi, hit in _window_pairs(new, flat, windows, eps)]
        ci, xi = (np.concatenate(part) for part in zip(*hits))
        low = np.arange(s, v)
        np.minimum.at(low, ci, xi)
    # a class is named by its lowest value, and a new value that is its own
    # lowest match names a new one; the checks below reject the names that
    # any other lowest match leaves wrong
    cls = np.concatenate([known, low])
    cls[s:] = cls[low]
    if dense:
        return cls if (near == (cls[s:, None] == cls)).all() else None
    if (cls[xi] != cls[s + ci]).any() or (np.bincount(cls)[cls[s:]] != np.bincount(ci, minlength=v - s)).any():
        return None
    return cls


def _admitted(cands: np.ndarray, nodes: np.ndarray, eps: float) -> np.ndarray:
    """The candidates, by ascending index, that a scan in candidate order
    appends to ``nodes``: each candidate that no node and no candidate
    appended before it lies within eps of (max-abs) when its turn comes.

    One _near pass against ``nodes`` leaves the survivors. Of these, a later
    byte-identical copy is dropped; a row with a non-finite entry matches
    nothing, not even its own copy, and stays. One _near pass of the
    survivors against each other then settles most of them: a survivor whose
    first match is itself (or nothing) is appended, and one whose first
    match is an appended survivor is dropped. The rest sit in chains a ~ b ~
    c with a !~ c. Each of them that an appended survivor before it matches
    is dropped, and the others take the same pass again among themselves;
    the first of them is always appended, so the passes end.
    """
    todo = np.flatnonzero(_near(cands, nodes, eps) < 0)
    if len(todo) < 2:
        return todo
    rows = cands[todo].reshape(len(todo), -1)
    first = {}  # the first survivor with each row's bytes
    copy = np.array([first.setdefault(r.tobytes(), p) != p for p, r in enumerate(rows)])
    if copy.any():
        copy &= np.isfinite(rows).all(axis=1)
        todo, rows = todo[~copy], rows[~copy]
    appended = np.zeros(len(todo), dtype=bool)
    rest = np.arange(len(todo))  # survivors not yet settled
    while len(rest):
        part = rows[rest]
        first = _near(part, part, eps)  # positions in rest
        new = (first < 0) | (first == np.arange(len(rest)))
        chained = ~new & ~new[first]
        appended[rest[new]] = True
        rest, added = rest[chained], rest[new]
        if len(rest):
            hit = _near(rows[rest], rows[added], eps)
            rest = rest[(hit < 0) | (added[hit] > rest)]
    return todo[appended]


class _FiberMemo:
    """The fiber values of a closure, each meet and join of two of them
    eigensolved once, and the eps classes that admit candidates by lookup.

    The projection lattice of a direct sum of matrix algebras is the product
    of its fiber lattices: a fibered meet or join is the meet or join of each
    fiber pair on its own. Each distinct fiber value, of a generator, zero,
    one or a solved meet or join, gets as id its row of ``values`` through
    one dict from its bytes, and its eps class (_eps_classes) when it first
    appears; meet_closure, not the memo, checks that each fiber of the
    nodes it appends is a projection. A candidate is the row of its m fiber
    ids, and ``node_ids`` holds those of the nodes. The unordered pair of
    ids keys the ids of its meet and join. ``stacked_meet_join`` solves one
    matrix at a time and gives the same bits with its arguments swapped, so
    a remembered fiber is bit for bit what a fresh solve gives. The pair
    keys are kept as one sorted array: a round of node pairs builds its keys
    in one expression and looks them up with one binary search.

    Node distance is a max over fibers, so while the classes fit, a
    candidate lies within eps of a node exactly when each of its fibers has
    the class of the node's: ``admitted`` keeps one dict from the nodes'
    rows of classes to their indices, appends a candidate whose row is not
    in it yet, and reports the node each candidate matched, which is how
    meet_closure records the meet table. Once an eps chain or a non-finite
    value leaves no classes that fit (``cls`` is None), it runs _admitted on
    the values of the candidates and of the nodes instead, which reports no
    matches.
    """

    def __init__(self, m: int, n: int, tol: Tolerance):
        self.tol = tol
        self._ids = {}  # fiber bytes -> id
        self.values = np.empty((0, n, n), dtype=np.complex128)  # value of each id
        self.cls = np.empty(0, dtype=np.intp)  # eps class of each id, or None
        self.node_ids = np.empty((0, m), dtype=np.intp)  # the closure's nodes
        self._rows = {}  # the bytes of each node's row of classes -> node index
        # pair keys lo << 32 | hi, sorted, and the ids of the meet and the join
        # of each. ids number distinct fiber values, below 2**31 for any table
        # that fits in memory, so the sentinel key at the end exceeds them all
        # and a binary search never runs past it
        self._keys = np.array([_SENTINEL], dtype=np.intp)
        self._meet = self._join = np.array([-1], dtype=np.intp)

    def number(self, fibers: np.ndarray) -> np.ndarray:
        """The ids of the fibers of a (..., n, n) stack, as an array of shape
        (...). New bytes get the next ids in order of first appearance; their
        values join ``values`` and get their classes."""
        start = len(self._ids)
        flat = fibers.reshape(-1, *fibers.shape[-2:])
        ids = [self._ids.setdefault(f.tobytes(), len(self._ids)) for f in flat]
        if len(self._ids) > start:
            at = {i: p for p, i in enumerate(ids) if i >= start}  # a position of each new id
            self.values = np.concatenate([self.values, flat[list(at.values())]])
            if self.cls is not None:
                self.cls = _eps_classes(self.values, self.cls, self.tol.eps)
        return np.array(ids, dtype=np.intp).reshape(fibers.shape[:-2])

    def meet_join(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The fiber ids of the meet and the join of each node pair (i[p],
        j[p]), at rows 2p and 2p + 1 of one (2 len(i), m) array. The distinct
        fiber pairs not seen before are solved in one ``stacked_meet_join``
        call: at most m per node pair."""
        a, b = self.node_ids[i], self.node_ids[j]
        keys = np.minimum(a, b) << 32 | np.maximum(a, b)
        at = self._keys.searchsorted(keys)
        if (miss := self._keys[at] != keys).any():
            fresh = np.sort(keys[miss])
            fresh = fresh[np.concatenate([[True], fresh[1:] != fresh[:-1]])]
            p, q = self.values[fresh >> 32], self.values[fresh & 0xFFFFFFFF]
            meet, join = self.number(stacked_meet_join(p, q, self.tol)).reshape(2, -1)
            self._keys = np.concatenate([self._keys, fresh])
            order = self._keys.argsort(kind="stable")
            self._keys = self._keys[order]
            self._meet = np.concatenate([self._meet, meet])[order]
            self._join = np.concatenate([self._join, join])[order]
            at = self._keys.searchsorted(keys)
        ids = np.empty((len(keys), 2, keys.shape[1]), dtype=np.intp)
        ids[:, 0], ids[:, 1] = self._meet[at], self._join[at]
        return ids.reshape(-1, keys.shape[1])

    def admitted(self, ids: np.ndarray):
        """The candidates, as rows of fiber ids, that a scan in candidate
        order appends to the nodes, by ascending index, recorded as nodes,
        and the node index each candidate matched: while the classes fit,
        each candidate whose row of classes no node and no candidate before
        it has is appended, and a candidate matches the node with its row.
        Through _admitted no match is reported (None)."""
        if self.cls is None:
            new = _admitted(self.values[ids], self.values[self.node_ids], self.tol.eps)
            matched = None
        else:
            index, rows = self._rows, np.ascontiguousarray(self.cls[ids])
            start = len(index)
            matched = np.array(
                [index.setdefault(r, len(index)) for r in rows.view(f"V{rows[0].nbytes}").ravel().tolist()],
                dtype=np.intp,
            )
            # nodes are numbered in order of appearance, so each appended
            # candidate is where the running maximum first reaches its index
            new = np.searchsorted(np.maximum.accumulate(matched), np.arange(start, len(index)))
        self.node_ids = np.concatenate([self.node_ids, ids[new]])
        return new, matched


#: Ends the sorted pair keys of a _FiberMemo, above every key.
_SENTINEL = np.iinfo(np.intp).max


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
    pair of fiber values once; the bytes of every node stay unchanged. The
    pairs go in rounds: a run of consecutive pairs among the nodes known at
    the start of the round, at most _ROUND candidate entries. The memo gives
    a round's meets and joins as rows of fiber ids and admits them at once
    through their eps classes, or, once no classes fit, through _admitted on
    their values. The memo's rows of fiber ids are the only record of the
    nodes; the lattice gathers their values once, at the end. Each
    admission checks every fiber of the nodes it appends for being a
    projection, up to the node past the cap or the table budget, which it
    does not check. While every admission goes through the classes, the
    closure keeps the node that each pair's meet matched, as int32 in pair
    order, and hands them to the lattice, which checks them in place of
    searching its meet table (FiniteLattice, _meet_table).
    """
    if not generators:
        raise ValueError("need at least one generator")
    space = generators[0].space
    n = generators[0].n
    if any(g.space != space or g.n != n for g in generators):
        raise StoneworkError("generators have mixed shapes")
    _require_fibers(n)
    gens = np.stack([g.values for g in generators])
    require_projection(gens, tol, "generator")

    limit = min(cap, _node_limit())
    memo = _FiberMemo(space.points, n, tol)

    def admit(ids: np.ndarray):
        """Append, in order, the candidates (rows of fiber ids) that no node
        and no candidate appended before them is within tol.eps of. Every
        fiber of the appended nodes must be a projection; the node that
        outgrows ``cap`` or the table budget stops the closure, after the
        check of the nodes appended before it. Returns the number of nodes
        and the node each candidate matched, or None (_FiberMemo.admitted)."""
        start = len(memo.node_ids)
        new, matched = memo.admitted(ids)
        new = new[: max(limit - start + 1, 1)]
        k = start + len(new)
        require_projection(memo.values[ids[new[: len(new) - (k > limit)]]], tol, "closure node")
        if k > cap:
            raise ClosureExplosion(f"closure exceeded cap of {cap} elements")
        if k > limit:
            raise ClosureExplosion(f"closure reached {k} nodes, whose tables "
                                   f"outgrow the table budget of {_TABLE_BUDGET} bytes")
        return k, matched

    # zero and one differ (n >= 1 and eps < 1e-3); the generators are matched
    # against them and each other
    k, matched = admit(memo.number(np.concatenate([_bounds(gens.shape[1:]), gens])))
    # the node each pair's meet matched, a round at a time, while every
    # admission goes through the classes (once one does not, none does)
    meets = None if matched is None else []

    # Meets and joins with the bounds add nothing new, so node i pairs with
    # nodes 2..i-1, and pair (i, j) comes at index (i - 2)(i - 3)/2 + j - 2 of
    # the closure order. Each round takes the next pairs in that order among
    # the nodes known at its start, so its meets and joins are the candidates
    # a scan pair by pair would meet next, in the same order.
    per_round = max(1, _ROUND // (2 * gens[0].size))  # node pairs
    done = 0
    while (left := (k - 2) * (k - 3) // 2 - done) > 0:
        t = np.arange(done, done + min(left, per_round))
        u = np.arange(k - 2)
        first = u * (u - 1) // 2  # index of pair (u + 2, 2)
        i = np.searchsorted(first, t, "right") - 1
        k, matched = admit(memo.meet_join(i + 2, t - first[i] + 2))
        if matched is None:
            meets = None
        else:
            meets.append(matched[::2].astype(np.int32))
        done += len(t)
    if meets is not None:
        meets = np.concatenate([np.empty(0, dtype=np.int32), *meets])
    return FiniteLattice(memo.values[memo.node_ids], tol, meets)


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


def is_quasipoint(lattice: FiniteLattice, members) -> bool:
    """Filter base that no non-member extends. A filter base has no zero, and
    every pair of its members dominates some member through its meet. The
    non-members are checked all at once: pairs of members are covered already
    and meet(x, x) = x, so a non-member x extends it exactly when x is not
    zero and the meet of x with each member lies at or above some member or
    x itself."""
    idx = np.fromiter(Filter(lattice, members).members, dtype=np.intp)
    if idx.size == 0 or lattice.zero_index in idx:
        return False
    above = lattice.leq[idx].any(axis=0)  # the nodes at or above some member
    meets = lattice.meet_table[:, idx]  # of every node with each member
    if not above[meets[idx]].all():
        return False
    rest = np.ones(len(lattice), dtype=bool)  # the nonzero non-members
    rest[idx] = rest[lattice.zero_index] = False
    xs = np.flatnonzero(rest)
    covered = above[meets[xs]] | lattice.leq[xs[:, None], meets[xs]]
    return not covered.all(axis=1).any()
