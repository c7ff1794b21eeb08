"""Finite lattices: closure, quasipoint enumeration, trunks, Stone base sets."""

import itertools
import math
import tracemalloc
import types

import numpy as np
import pytest

from conftest import fibered_join, index_of
from stonework import center as ct

from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework import verify as vf
from stonework.errors import (
    Ambiguous,
    ClosureExplosion,
    EmptyFilter,
    NotMember,
    NotProjection,
    StoneworkError,
)
from stonework.numerics import DEFAULT_TOL, Tolerance, max_abs
from stonework.rng import SplitMix64


def diag_projection(space, *subsets):
    return ma.diagonal_sum_projection([ct.char_fn(space, s) for s in subsets])


def line_op(space, vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    fib = np.outer(v, np.conj(v))
    return ma.FiberedOperator(space, np.stack([fib for _ in space]))


def boolean_lattice(atoms):
    space = ct.StoneSpace(atoms)
    gens = [ma.central_operator(ct.char_fn(space, [k]), 1) for k in space]
    return lt.meet_closure(gens, cap=2 ** atoms + 2)


def reference_closure(generators, tol=DEFAULT_TOL):
    """Oracle: the closure as a plain per-pair scan. Node i is paired with
    every earlier node j in ascending order, one fibered meet and then one
    fibered join per pair, and each candidate is compared with every node in
    turn (``reference_near``), so the first node within tol.eps wins. Returns
    the nodes as one (k, m, n, n) stack."""
    space, n = generators[0].space, generators[0].n
    elems, values = [], np.empty((0, space.points, n, n), dtype=complex)

    def add(op):
        nonlocal values
        i = reference_near(op.values[None], values, tol.eps)[0]
        if i >= 0:
            return i
        elems.append(op)
        values = np.concatenate([values, op.values[None]])
        return len(elems) - 1

    bounds = {add(ma.zero_operator(space, n)), add(ma.identity(space, n))}
    for g in generators:
        add(g)
    i = 0
    while i < len(elems):
        for j in range(i):
            if i in bounds or j in bounds:
                continue
            add(ma.fibered_meet(elems[i], elems[j], tol))
            add(fibered_join(elems[i], elems[j], tol))
        i += 1
    return values


def reference_near(cands, nodes, eps):
    """Oracle: for each candidate, the index of the first node within eps of
    it in max-abs distance, or -1; every candidate against every node."""
    c, k, size = len(cands), len(nodes), cands[0].size
    out = np.full(c, -1, dtype=np.intp)
    if k == 0:
        return out
    flat_c = cands.reshape(c, size)
    flat_n = nodes.reshape(k, size)
    step = max(1, lt._CHUNK // (k * max(1, size)))
    for s in range(0, c, step):
        dist = np.abs(flat_c[s : s + step, None] - flat_n[None]).max(axis=2, initial=0.0)
        hit = dist <= eps
        out[s : s + step] = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    return out


def reference_maxima(leq):
    """Oracle: is_max[c, i, j] says c is a maximum of the common lower bounds
    of i and j, for all pairs at once. cands[c, i, j] says c <= i and c <= j;
    candidate c is a maximum when no candidate d fails d <= c, which one
    uint32 tensordot counts."""
    k = leq.shape[0]
    cands = leq[:, :, None] & leq[:, None, :]
    not_leq = (~leq).astype(np.uint32)
    counts = np.tensordot(not_leq, cands.astype(np.uint32).reshape(k, -1), axes=([0], [0]))
    return cands & ~(counts.reshape(k, k, k) > 0)


def reference_extrema_table(leq):
    """Oracle: the meet table of an order (the join table of its transpose) as
    the unique maximum of the common lower bounds."""
    is_max = reference_maxima(leq)
    assert np.all(is_max.sum(axis=0) == 1)
    return np.argmax(is_max, axis=0)


def reference_is_lattice(leq):
    """Oracle: every pair has a unique meet and a unique join, the check of
    one extrema pass over the order and one over its transpose."""
    return all((reference_maxima(r).sum(axis=0) == 1).all() for r in (leq, leq.T))


def reference_leq(stack, eps):
    """Oracle: the order as one einsum over all node pairs and fibers,
    leq[i, j] = max|e_i e_j - e_i| <= eps, a block of rows at a time."""
    k = len(stack)
    leq = np.empty((k, k), dtype=bool)
    step = max(1, lt._CHUNK // max(1, stack.size))
    for s in range(0, k, step):
        blk = stack[s : s + step]
        diff = np.einsum("imab,jmbc->ijmac", blk, stack) - blk[:, None]
        leq[s : s + step] = np.max(np.abs(diff), axis=(2, 3, 4)) <= eps
    return leq


def reference_atoms(lat):
    """Oracle: the nonzero nodes with nothing but zero and themselves below."""
    k = len(lat)
    return [
        i
        for i in range(k)
        if i != lat.zero_index
        and not any(lat.leq[j, i] for j in range(k) if j not in (i, lat.zero_index))
    ]


def node_stack(*ops):
    """The values of fibered operators stacked as lattice nodes."""
    return np.stack([op.values for op in ops])


def diag_node(space, *diag):
    """One diagonal matrix, the same at every point of the space."""
    return ma.FiberedOperator(space, np.stack([np.diag(diag).astype(complex) for _ in space]))


def projector(*vecs):
    q, _ = np.linalg.qr(np.array(vecs, dtype=complex).T)
    return q @ np.conj(q.T)


def brute_force_quasipoints(lattice):
    """Oracle: every filter base of a finite lattice is contained in the
    up-set of its minimum, so the maximal ones are found by checking every
    up-set of every nonzero element against the definition directly."""
    out = set()
    for i in range(len(lattice)):
        if i == lattice.zero_index:
            continue
        members = lattice.up_set(i)
        if lt.is_quasipoint(lattice, members):
            out.add(frozenset(members))
    return out


def reference_is_filter_base(lattice, members):
    """Oracle: no zero, and each meet of two members checked against every member."""
    idx = np.array(sorted(members), dtype=np.intp)
    if idx.size == 0 or lattice.zero_index in idx:
        return False
    meets = lattice.meet_table[np.ix_(idx, idx)].ravel()
    return bool(lattice.leq[np.ix_(idx, meets)].any(axis=0).all())


def reference_is_quasipoint(lattice, members):
    """Oracle: maximality by trying each non-member in turn."""
    base = frozenset(members)
    if not reference_is_filter_base(lattice, base):
        return False
    for x in range(len(lattice)):
        if x not in base and reference_is_filter_base(lattice, base | {x}):
            return False
    return True


def reference_isolated_points(lattice):
    """Oracle: each atom's quasipoint against the base set of every node."""
    out = set()
    for t in lattice.atoms():
        b = lt.Filter(lattice, lattice.up_set(t))
        for a in range(len(lattice)):
            if lt.stone_base_set(lattice, a) == {b}:
                out.add(b)
                break
    return frozenset(out)


def reference_min_member(f):
    """Oracle: the first member, in iteration order, below every member, or
    None when there is none."""
    for i in f.members:
        if all(f.lattice.leq[i, j] for j in f.members):
            return i
    return None


def test_meet_closure_two_bounds():
    space = ct.StoneSpace(1)
    lat = lt.meet_closure([ma.zero_operator(space, 2), ma.identity(space, 2)])
    assert len(lat) == 2


def test_meet_closure_commuting_pair_is_boolean(rng):
    # two commuting diagonal projections generate at most 16 elements, all of
    # which are products of the generators and their complements
    space = ct.StoneSpace(2)
    p = diag_projection(space, [0], [0, 1])
    q = diag_projection(space, [1], [0])
    lat = lt.meet_closure([p, q])
    assert len(lat) <= 16
    # oracle: closure of {p, q} inside the commutative algebra of diagonal
    # 0/1 matrices: every element is a pointwise Boolean combination
    eye = np.eye(2, dtype=complex)
    atoms = []
    for bp in (p.values, eye - p.values):
        for bq in (q.values, eye - q.values):
            atoms.append(bp * bq)  # diagonal product = meet
    for e in lat.nodes:
        # every lattice node is a sum of some of the four minimal atoms
        best = None
        for bits in range(16):
            acc = np.zeros_like(e)
            for j in range(4):
                if bits >> j & 1:
                    acc = acc + atoms[j]
            acc = np.clip(acc.real, 0, 1).astype(complex)
            if max_abs(acc - e) <= 1e-9:
                best = bits
                break
        assert best is not None


def test_meet_closure_two_lines():
    space = ct.StoneSpace(1)
    p = line_op(space, [1, 0])
    q = line_op(space, [1, 1])
    lat = lt.meet_closure([p, q])
    assert len(lat) == 4  # zero, the two lines, identity


def lines_per_fiber(rng, m):
    """One random line projection at fiber k, zero elsewhere, for each k < m;
    their closure is the Boolean algebra on the m lines plus the identity."""
    gens = []
    for k in range(m):
        fibers = np.zeros((m, 2, 2), dtype=complex)
        fibers[k] = rng.projection(2, 1)
        gens.append(ma.FiberedOperator(ct.StoneSpace(m), fibers))
    return gens


def closure_families(rng):
    """Generator families for the closure oracle, by name."""
    space4 = ct.StoneSpace(4)
    boolean = [ma.central_operator(ct.char_fn(space4, [k]), 2) for k in space4]
    boolean.append(ma.central_operator(ct.char_fn(space4, [0, 2]), 2))
    two_lines = [line_op(ct.StoneSpace(1), [1, 0]), line_op(ct.StoneSpace(1), [1, 1])]
    lines = lines_per_fiber(rng, 4)
    # spanning vectors of each generator at fibers 0 and 1; in this family one
    # pass finds the same new node twice, and another finds a new meet and a
    # new join, so both the in-pass dedup and the candidate order matter
    spans = [
        ([[1, 1j, 0]], [[0, 1, 0], [1j, 1, 0]]),
        ([[-1, 1j, 0], [1j, 1j, 1j]], [[1j, 0, 0], [-1, 1j, -1]]),
        ([[-1, -1, 1], [0, 0, 1j]], [[0, 1j, 1j]]),
        ([[1j, 1j, 1j]], [[0, -1, 0]]),
    ]
    space2 = ct.StoneSpace(2)
    noncommuting = [
        ma.FiberedOperator(space2, np.stack([projector(*f) for f in g])) for g in spans
    ]
    return {
        "boolean": boolean,
        "two_lines": two_lines,
        "line_per_fiber": lines,
        "noncommuting_n3": noncommuting,
    }


def pruning_families(rng):
    """Closures large enough for the key window of node matching to prune:
    one line per fiber on six fibers (65 nodes), and the central projections
    of seven points (n = 1), whose closure is the Boolean algebra (128 nodes)."""
    space7 = ct.StoneSpace(7)
    return {
        "line_per_fiber_6": lines_per_fiber(rng, 6),
        "boolean_7": [ma.central_operator(ct.char_fn(space7, [k]), 1) for k in space7],
    }


@pytest.mark.parametrize(
    "name, size",
    # central projections give the Boolean algebra on four fibers; the lines
    # give the same plus the identity, which is not a sum of lines
    [("boolean", 2 ** 4), ("two_lines", 4), ("line_per_fiber", 2 ** 4 + 1),
     ("noncommuting_n3", 24), ("line_per_fiber_6", 2 ** 6 + 1), ("boolean_7", 2 ** 7)],
)
def test_meet_closure_matches_per_pair_scan(rng, monkeypatch, name, size):
    gens = {**closure_families(rng), **pruning_families(rng)}[name]
    monkeypatch.setattr(lt, "_admitted", lambda *args: pytest.fail("the eps classes did not fit"))
    lat = lt.meet_closure(gens, cap=256)
    ref = reference_closure(gens)
    assert len(lat) == len(ref) == size
    assert np.array_equal(lat.nodes, ref)
    assert np.array_equal(lat.leq, lt.FiniteLattice(ref).leq)


@pytest.mark.parametrize(
    "name",
    ["boolean", "two_lines", "line_per_fiber", "noncommuting_n3"]
    + [pytest.param(a, id=f"boolean_{2 ** a}_nodes") for a in range(1, 7)],
)
def test_extrema_tables_match_reference(rng, monkeypatch, name):
    # the closure-oracle families, then the Boolean lattices with 2..64 nodes;
    # a lattice built from its nodes alone runs one search, over the order
    if isinstance(name, int):
        lat = boolean_lattice(name)
    else:
        lat = lt.meet_closure(closure_families(rng)[name], cap=256)
    searches = count_searches(monkeypatch)
    lat = lt.FiniteLattice(lat.nodes)
    # the rows it sorts are the down-sets, the columns of the order
    assert len(searches) == 1
    assert np.array_equal(np.unpackbits(searches[0].view(np.uint8), axis=1)[:, : len(lat)], lat.leq.T)
    assert np.array_equal(lat.leq, reference_leq(lat.nodes, lat.tol.eps))
    assert np.array_equal(lat.meet_table, reference_extrema_table(lat.leq))
    assert lat.atoms() == reference_atoms(lat)
    assert (lat.zero_index, lat.one_index) == (0, 1)


def count_searches(monkeypatch):
    """The list that each search of _meet_table, from here on, appends the
    down-sets it sorts to (its one sort, _sorted_rows)."""
    real, searches = lt._sorted_rows, []
    monkeypatch.setattr(lt, "_sorted_rows", lambda rows: searches.append(rows) or real(rows))
    return searches


def check_lattice_verdict(nodes):
    """FiniteLattice raises exactly when the order of ``nodes`` fails the
    meet pass or the join pass of the oracle; True when it is a lattice."""
    leq = reference_leq(nodes, DEFAULT_TOL.eps)
    if reference_is_lattice(leq):
        assert np.array_equal(lt.FiniteLattice(nodes).meet_table, reference_extrema_table(leq))
        return True
    with pytest.raises(StoneworkError, match="order tables are inconsistent"):
        lt.FiniteLattice(nodes)
    return False


@pytest.mark.parametrize("atoms", [4, 5, 6])
def test_meet_pass_rejects_what_both_passes_reject_on_sub_families(atoms):
    # sub-families of the Boolean lattice with 16..64 nodes that keep zero
    # and one: a family with a top whose pairs all have meets is a lattice
    lat = boolean_lattice(atoms)
    gen = np.random.default_rng(atoms)
    verdicts = []
    for _ in range(150):
        keep = gen.random(len(lat)) < gen.uniform(0.1, 0.9)
        keep[[lat.zero_index, lat.one_index]] = True
        verdicts.append(check_lattice_verdict(lat.nodes[keep]))
    assert 0 < sum(verdicts) < len(verdicts)


def test_meet_pass_rejects_what_both_passes_reject_on_random_posets():
    # a random poset on 1..9 points plus a bottom and a top, each point x
    # the central projection onto its down-set, whose order is inclusion
    gen = np.random.default_rng(5)
    verdicts = []
    for _ in range(300):
        k = int(gen.integers(1, 10))
        rel = np.triu(gen.random((k, k)) < gen.uniform(0.1, 0.6), 1) | np.eye(k, dtype=bool)
        for mid in range(k):  # Warshall's transitive closure
            rel |= rel[:, mid, None] & rel[mid]
        downs = np.concatenate([np.zeros((1, k), bool), np.ones((1, k), bool), rel.T])
        verdicts.append(check_lattice_verdict(downs.astype(complex).reshape(k + 2, k, 1, 1)))
    assert 0 < sum(verdicts) < len(verdicts)


def test_tables_reject_non_lattice_family():
    # e1 and e2 have the two incomparable upper bounds e1+e2+e3 and e1+e2+e4
    # and no least one, so this family is not a lattice
    space = ct.StoneSpace(1)
    diags = [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)]
    with pytest.raises(StoneworkError, match="order tables are inconsistent"):
        lt.FiniteLattice(node_stack(*(diag_node(space, *d) for d in diags)))


def test_tables_reject_repeated_node():
    space = ct.StoneSpace(1)
    p = line_op(space, [1, 1])
    with pytest.raises(StoneworkError, match="order tables are inconsistent"):
        lt.FiniteLattice(node_stack(ma.zero_operator(space, 2), ma.identity(space, 2), p, p))


def test_tables_reject_an_order_that_is_not_reflexive():
    # a node that is not idempotent within eps is not below itself. With
    # zero and one, 0.5 I shares zero's down-set {0}; below diag(1, 1, 0.5)
    # lie zero, e1 and e2, a down-set no other node has, and every two
    # down-sets meet in a down-set, so only the reflexivity test rejects
    # their orders. FiniteLattice rejects such nodes before its meet
    # table; the test still guards _meet_table, since _below's einsum and
    # is_projection's matmul may round differently at the eps boundary
    space = ct.StoneSpace(1)
    half = ma.FiberedOperator(space, 0.5 * np.eye(2, dtype=complex)[None])
    diags = [(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0.5)]
    for stack in (node_stack(ma.zero_operator(space, 2), ma.identity(space, 2), half),
                  node_stack(*(diag_node(space, *d) for d in diags))):
        leq, _ = lt._order(stack, DEFAULT_TOL.eps)
        assert not leq.diagonal().all()
        with pytest.raises(StoneworkError, match="order tables are inconsistent"):
            lt._meet_table(leq)
        with pytest.raises(NotProjection, match="lattice node"):
            lt.FiniteLattice(stack)
        # the bounds are looked for first
        with pytest.raises(StoneworkError, match="missing its zero or unit"):
            lt.FiniteLattice(stack[1:])


def test_tables_reject_non_transitive_order():
    # nodes 0 (bottom), 1 (top), a, b, c, m with a <= b <= c, b <= m <= b and
    # m <= c, but not a <= c: every pair of down-sets meets in a down-set and
    # no two nodes share one, so only the transitivity test can reject it
    bottom, top, a, b, c, m = range(6)
    downs = [{bottom}, set(range(6)), {bottom, a}, {bottom, a, b, m}, {bottom, b, c, m}, {bottom, b, m}]
    assert all(x & y in downs for x in downs for y in downs)
    assert len({frozenset(d) for d in downs}) == len(downs)
    leq = np.array([[i in d for d in downs] for i in range(6)])
    with pytest.raises(StoneworkError, match="order tables are inconsistent"):
        lt._meet_table(leq)


def recorded_meets(table):
    """The entries of a meet table that meet_closure records: T[i, j] for
    2 <= j < i, in closure order."""
    return np.array([table[i, j] for i in range(2, len(table)) for j in range(2, i)], dtype=np.int32)


def table_from_meets(k, meets):
    """Oracle: the meet table of k nodes built from recorded meets, with node
    0 meeting every node in 0, node 1 meeting j in j and i meeting itself in i."""
    pairs = [(i, j) for i in range(2, k) for j in range(2, i)]
    rest = dict(zip(pairs, meets))

    def entry(i, j):
        if 0 in (i, j):
            return 0
        if 1 in (i, j) or i == j:
            return j if i == 1 else i
        return rest[max(i, j), min(i, j)]

    return np.array([[entry(i, j) for j in range(k)] for i in range(k)], dtype=np.intp)


@pytest.mark.parametrize("eps", [0.0, 1e-13, 1e-9, 1e-4])
@pytest.mark.parametrize("name", ["line_per_fiber_6", "boolean_7", "noncommuting_n3", "boolean"])
def test_closure_hands_the_searched_meet_table(rng, monkeypatch, name, eps):
    # a closure admitted through the classes records the node each pair's
    # meet matched, and the lattice keeps that table without a search: it is
    # the table the search finds, and the one FiniteLattice builds from the
    # nodes alone. Random lines and their meets are no exact projections, so
    # at eps 0 their closures stop at the generators
    tol = Tolerance(eps)
    gens = {**closure_families(rng), **pruning_families(rng)}[name]
    if not all(g.is_projection(tol) for g in gens):
        assert eps == 0 and name != "boolean_7"
        with pytest.raises(NotProjection, match="generator"):
            lt.meet_closure(gens, cap=256, tol=tol)
        return
    searches = count_searches(monkeypatch)
    lat = lt.meet_closure(gens, cap=256, tol=tol)
    assert not searches, "the closure's meets were searched"
    assert np.array_equal(lat.meet_table, reference_extrema_table(lat.leq))
    assert np.array_equal(lat.meet_table, lt.FiniteLattice(lat.nodes, tol).meet_table)
    assert lat.meet_table.dtype == np.int32


def test_corrupted_recorded_meet_falls_back_to_the_search(rng, monkeypatch):
    lat = lt.meet_closure(pruning_families(rng)["line_per_fiber_6"], cap=256)
    k, meets = len(lat), recorded_meets(lat.meet_table)
    searches = count_searches(monkeypatch)
    assert np.array_equal(lt._meet_table(lat.leq, meets), lat.meet_table)
    # any array-like is read as an array: the list of the same meets too
    assert np.array_equal(lt.FiniteLattice(lat.nodes, meets=meets.tolist()).meet_table, lat.meet_table)
    assert not searches

    def changed(at, node):
        bad = meets.copy()
        bad[at] = node
        return bad

    pairs = [(i, j) for i in range(2, k) for j in range(2, i)]
    apart = next(p for p, (i, j) in enumerate(pairs) if not (lat.leq[i, j] or lat.leq[j, i]))
    bads = [changed(at, (meets[at] + 1) % k) for at in (0, len(meets) // 2, len(meets) - 1)]
    # the wrong length, a node past the last, and the meet of two incomparable
    # nodes named from the end, a negative index to the same down-set
    bads += [meets[:-1], np.append(meets, meets[:1]), changed(len(meets) // 2, k), changed(apart, meets[apart] - k)]
    bads += [bad.tolist() for bad in bads[-2:]]
    for bad in bads:
        assert np.array_equal(lt._meet_table(lat.leq, bad), lat.meet_table)
        assert np.array_equal(lt.FiniteLattice(lat.nodes, meets=bad).meet_table, lat.meet_table)
    assert len(searches) == 2 * len(bads)


def table_or_raise(leq, meets=None):
    """_meet_table's table, or None when it raises that the order tables
    are inconsistent."""
    try:
        return lt._meet_table(leq, meets)
    except StoneworkError as err:
        assert "order tables are inconsistent" in str(err)
        return None


def check_recorded_verdict(searches, leq, meets, verdicts):
    """_meet_table keeps the table built from ``meets``, without a search,
    exactly when the search returns that table; else it searches once and
    returns what the search returns, or raises as the search does. A
    searched table is the oracle's."""
    found = table_or_raise(leq)
    if found is not None:
        assert np.array_equal(found, reference_extrema_table(leq))
    want = found is not None and np.array_equal(found, table_from_meets(len(leq), meets))
    searches.clear()
    got = table_or_raise(leq, np.asarray(meets, dtype=np.int32))
    assert len(searches) == (not want)
    assert (got is None) == (found is None)
    if found is not None:
        assert np.array_equal(got, found)
    verdicts.add((want, bool(leq.diagonal().all())))


def test_recorded_table_check_is_the_search_verdict(monkeypatch):
    verdicts = set()
    searches = count_searches(monkeypatch)
    # node 0 is not below itself, and its down-set is the only empty one:
    # the order is not reflexive, so both tables raise
    check_recorded_verdict(searches, np.array([[False, True], [False, True]]), [], verdicts)
    assert verdicts == {(False, False)}
    # nodes 2 and 3 are not below themselves and share the down-set {0} with
    # node 0: both tables raise, whatever the meet of 2 and 3
    downs = [{0}, {0, 1, 2, 3}, {0}, {0}]
    leq = np.array([[r in d for d in downs] for r in range(4)])
    for meet in (0, 2, 3):
        check_recorded_verdict(searches, leq, [meet], verdicts)
    # 2 <= 3 <= 4 but not 2 <= 4, and 4 is not below itself: every two
    # down-sets meet in a down-set and none is shared, but the order is
    # neither transitive nor reflexive, so both tables raise
    leq = np.array([[1, 1, 1, 1, 1], [0, 1, 0, 0, 0], [0, 1, 1, 1, 0], [0, 1, 0, 1, 1], [0, 1, 0, 0, 0]], bool)
    check_recorded_verdict(searches, leq, [2, 0, 4], verdicts)
    # posets on 1..7 points below a top, above a bottom (nodes 0 and 1), each
    # point the set of the points below it, ordered by inclusion: with their
    # searched meets, one of them changed, some nodes not below themselves,
    # one node repeated, and random relations with random meets
    gen = np.random.default_rng(11)
    for _ in range(300):
        k = int(gen.integers(1, 8))
        rel = np.triu(gen.random((k, k)) < gen.uniform(0.1, 0.6), 1) | np.eye(k, dtype=bool)
        for mid in range(k):
            rel |= rel[:, mid, None] & rel[mid]
        sets = np.concatenate([np.zeros((1, k), bool), np.ones((1, k), bool), rel.T])
        leq = (sets[:, None] <= sets[None]).all(axis=2)
        size = len(leq)
        found = table_or_raise(leq)
        if found is None:
            meets = gen.integers(0, size, size=(size - 2) * (size - 3) // 2)
        else:
            meets = recorded_meets(found)
        check_recorded_verdict(searches, leq, meets, verdicts)
        if len(meets):
            changed = meets.copy()
            changed[gen.integers(len(meets))] = gen.integers(size)
            check_recorded_verdict(searches, leq, changed, verdicts)
        loose = leq.copy()
        loose[np.diag_indices(size)] = gen.random(size) < 0.7
        check_recorded_verdict(searches, loose, meets, verdicts)
        again = np.append(np.arange(size), gen.integers(2, size))
        twice = table_from_meets(size, meets)[np.ix_(again, again)]
        check_recorded_verdict(searches, leq[np.ix_(again, again)], recorded_meets(twice), verdicts)
        noise = gen.random((size, size)) < gen.uniform(0.2, 0.9)
        check_recorded_verdict(searches, noise, gen.integers(0, size, size=len(meets)), verdicts)
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_node_lookup():
    space = ct.StoneSpace(2)
    p = line_op(space, [1, 0])
    lat = lt.meet_closure([p])
    assert (lat.zero_index, lat.one_index, index_of(lat, p)) == (0, 1, 2)
    # one read-only (k, m, n, n) array; the caller's array stays writable
    assert lat.nodes.shape == (3, 2, 2, 2) and not lat.nodes.flags.writeable
    mine = lat.nodes.copy()
    assert lt.FiniteLattice(mine).nodes is not mine and mine.flags.writeable
    # elements wraps the same rows as operators, in node order
    assert [index_of(lat, e) for e in lat.elements] == [0, 1, 2]
    assert all(e.space == space and np.array_equal(e.values, v) for e, v in zip(lat.elements, lat.nodes))
    with pytest.raises(NotMember):
        index_of(lat, line_op(space, [0, 1]))
    with pytest.raises(NotMember):
        index_of(lat, ma.identity(ct.StoneSpace(1), 2))
    for i in (-1, 3):
        with pytest.raises(NotMember, match=f"no lattice node {i}"):
            lat.up_set(i)
    with pytest.raises(StoneworkError, match="missing its zero or unit element"):
        lt.FiniteLattice(node_stack(p, ma.identity(space, 2)))


def test_nodes_match_within_tol_eps():
    # p is a line projection only to within 1e-7, so at eps 1e-6 its meet and
    # join with q are p and q again; matched at a fixed 1e-9 instead, every
    # round of meets and joins found new nodes until the cap
    space = ct.StoneSpace(1)
    x = np.array([1, 1j, 0]) / np.sqrt(2)
    e = np.random.default_rng(3).standard_normal((3, 3)) * 1e-7
    p = ma.FiberedOperator(space, (np.outer(x, np.conj(x)) + e + e.T)[None])
    q = diag_node(space, 1.0, 1.0, 0.0)
    lat = lt.meet_closure([p, q], cap=64, tol=Tolerance(1e-6))
    assert len(lat) == 4
    assert (index_of(lat, p), index_of(lat, q)) == (2, 3)
    assert lat.meet_table[2, 3] == 2 and lat.leq[2, 3]  # so their join is q


@pytest.fixture
def keyed(monkeypatch):
    """_hits through its key windows at every input size."""
    monkeypatch.setattr(lt, "_DENSE", 0)


def complex_rows(gen, k, size):
    return gen.standard_normal((k, size)) + 1j * gen.standard_normal((k, size))


def check_near(cands, nodes, eps):
    got = lt._near(cands, nodes, eps)
    assert np.array_equal(got, reference_near(cands, nodes, eps))
    return got


@pytest.mark.parametrize("size", [1, 4, 24, 100])
def test_near_exact_duplicates_at_eps_zero(keyed, size):
    # identical rows need not get identical keys: a single row, and rows at
    # other offsets of a stack, go through other summation orders
    gen = np.random.default_rng(size)
    nodes = complex_rows(gen, 40, size)
    nodes[[9, 31]] = nodes[4]  # the duplicates of node 4 must not win
    for offset in range(6):
        stack = np.concatenate([complex_rows(gen, offset, size), nodes])
        cands = stack[gen.permutation(len(stack))]
        got = check_near(cands, stack, 0.0)
        assert np.array_equal(stack[got], cands)
        for c in range(0, len(stack), 7):
            check_near(stack[c : c + 1], stack, 0.0)
        assert set(got) == set(range(len(stack))) - {offset + 9, offset + 31}


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 9e-4])
@pytest.mark.parametrize("size", [1, 8, 96])
def test_near_at_eps_in_key_direction(keyed, eps, size):
    # every entry moved by about eps in modulus along its two key weights,
    # which moves the key by the most a match can: just under eps matches
    # its node, just over matches none
    gen = np.random.default_rng(7)
    nodes = complex_rows(gen, 30, size)
    weights = lt._key_weights(2 * size)[0]
    step = weights[0::2] + 1j * weights[1::2]
    step /= np.abs(step)
    for sign in (1, -1):
        for scale, found in ((1 - 1e-3, True), (1 + 1e-3, False)):
            got = check_near(nodes + sign * scale * eps * step, nodes, eps)
            assert np.array_equal(got, np.arange(30) if found else np.full(30, -1))


def test_near_lowest_index_wins_within_eps(keyed):
    # two nodes within eps of the candidate, the later one nearer and lower
    # in key order: the first node wins
    gen = np.random.default_rng(11)
    base = complex_rows(gen, 1, 6)
    nodes = np.concatenate([complex_rows(gen, 5, 6), base + 0.9e-6, base - 0.1e-6, base])
    assert check_near(base, nodes, 1e-6)[0] == 5
    assert check_near(base, nodes[6:], 1e-6)[0] == 0


def test_near_colliding_keys(keyed, monkeypatch):
    # with equal weights every permutation of one diagonal has one key, so a
    # window holds them all; the exact test still tells them apart
    real = lt._key_weights

    def equal_weights(length):
        w, wsum, gamma_wsum, tiny = real(length)
        return np.ones(length), float(length), gamma_wsum * length / wsum, tiny

    monkeypatch.setattr(lt, "_key_weights", equal_weights)
    diags = [np.diag(d).astype(complex) for d in itertools.product([0, 1], repeat=4)]
    nodes = np.stack(diags)[:, None]  # (16, 1, 4, 4)
    gen = np.random.default_rng(2)
    cands = nodes[gen.integers(0, 16, size=50)]
    for chunk in (1, 5, lt._PAIR_BLOCK):
        monkeypatch.setattr(lt, "_PAIR_BLOCK", chunk)
        got = check_near(cands, nodes, 1e-9)
        assert np.array_equal(nodes[got], cands)
        check_near(cands + 2e-9, nodes, 1e-9)


@pytest.mark.parametrize("chunk", [1, 3, 17, 64])
def test_near_chunk_boundaries(keyed, monkeypatch, chunk):
    # windows of several nodes (clusters of near-duplicates within eps), cut
    # by pair blocks of a few entries each
    gen = np.random.default_rng(chunk)
    centers = complex_rows(gen, 12, 4)
    nodes = np.repeat(centers, 4, axis=0) + 1e-10 * complex_rows(gen, 48, 4)
    cands = np.concatenate([nodes[gen.permutation(48)], complex_rows(gen, 8, 4)])
    monkeypatch.setattr(lt, "_PAIR_BLOCK", chunk)
    got = check_near(cands, nodes, 1e-9)
    assert np.all(got[:48] % 4 == 0) and np.all(got[48:] == -1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_near_non_finite_candidate(monkeypatch, bad):
    lat = boolean_lattice(3)
    nodes = lat.nodes
    cand = nodes[5].copy()
    cand[1, 0, 0] = bad
    for dense in (0, lt._DENSE):
        monkeypatch.setattr(lt, "_DENSE", dense)
        assert check_near(np.stack([cand, nodes[2]]), nodes, 1e-9).tolist() == [-1, 2]
        with pytest.raises(NotMember):
            index_of(lat, types.SimpleNamespace(values=cand))
    # a row whose key overflows still matches its duplicate
    huge = np.concatenate([nodes, np.full((1, *cand.shape), 1e308 + 1e308j)])
    assert check_near(huge[-1:], huge, 0.0)[0] == len(nodes)


def check_hits(cands, rows, eps):
    """_hits against every pair within eps (max-abs), each pair once, its
    blocks by ascending ci. Returns the number of blocks."""
    blocks = [b.tolist() for b in lt._hits(cands, rows, eps)]
    got = [pair for ci, xi in blocks for pair in zip(ci, xi)]
    with np.errstate(invalid="ignore"):  # inf - inf
        dist = np.abs(cands[:, None] - rows[None]).max(axis=2, initial=0.0)
    assert sorted(got) == sorted(map(tuple, np.argwhere(dist <= eps).tolist()))
    assert [ci for ci, _ in got] == sorted(ci for ci, _ in got)
    return len(blocks)


def hit_cases():
    """Candidates and rows of clustered near-duplicates, with exact copies
    among them, at sizes 1, 4 and 12."""
    gen = np.random.default_rng(29)
    for size in (1, 4, 12):
        centers = complex_rows(gen, 6, size)
        rows = np.repeat(centers, 3, axis=0) + 1e-10 * complex_rows(gen, 18, size)
        rows[5] = rows[0]
        cands = np.concatenate([rows[gen.permutation(18)[:9]], complex_rows(gen, 4, size)])
        yield cands + 3e-10 * (gen.random(cands.shape) < 0.5), rows


def test_hits_on_every_pair(monkeypatch):
    # small inputs: every pair in one block, or in a block per candidate
    # when _CHUNK holds less than one candidate's pairs
    for cands, rows in hit_cases():
        for eps in (0.0, 1e-9, 1.0):
            assert check_hits(cands, rows, eps) == 1
        monkeypatch.setattr(lt, "_CHUNK", 1)
        assert check_hits(cands, rows, 1e-9) == len(cands)
        monkeypatch.undo()


@pytest.mark.parametrize("block", [1, 5, lt._PAIR_BLOCK])
def test_hits_through_key_windows(keyed, monkeypatch, block):
    monkeypatch.setattr(lt, "_PAIR_BLOCK", block)
    real, built = lt._key_weights, []
    monkeypatch.setattr(lt, "_key_weights", lambda length: built.append(length) or real(length))
    for cands, rows in hit_cases():
        for eps in (0.0, 1e-9, 1.0):
            check_hits(cands, rows, eps)
    assert len(built) == 9  # every case went through the windows


def test_hits_fall_back_to_every_pair_when_a_key_overflows(keyed, monkeypatch):
    # a 1e308 row would overflow its key: every pair is tested, and the row
    # still hits its own copy; a NaN or infinite row hits nothing
    gen = np.random.default_rng(31)
    rows = complex_rows(gen, 6, 4)
    rows[2] = 1e308
    monkeypatch.setattr(lt, "_CHUNK", 4 * len(rows))
    with np.errstate(over="ignore"):
        assert check_hits(rows[[2, 0, 2, 4]], rows, 1e-9) == 4
    for bad in (np.nan, np.inf):
        rows[2] = bad
        with np.errstate(invalid="ignore"):  # inf - inf
            check_hits(rows[[2, 0, 2, 4]], rows, 1e-9)


@pytest.mark.parametrize("dense", [0, lt._DENSE])
def test_hits_of_empty_stacks(monkeypatch, dense):
    monkeypatch.setattr(lt, "_DENSE", dense)
    rows = complex_rows(np.random.default_rng(37), 5, 4)
    for cands, others in ((rows[:0], rows), (rows, rows[:0]), (rows[:0], rows[:0])):
        check_hits(cands, others, 1e-9)
    assert lt._near(rows[:0], rows, 1e-9).shape == (0,)
    assert lt._near(rows, rows[:0], 1e-9).tolist() == [-1] * 5


def reference_admitted(cands, nodes, eps):
    """Oracle: the candidates a scan appends one at a time, each compared
    (``reference_near``) with the nodes and the candidates appended before it."""
    kept = []
    for c in range(len(cands)):
        if reference_near(cands[c : c + 1], np.concatenate([nodes, cands[kept]]), eps)[0] < 0:
            kept.append(c)
    return kept


def check_admitted(cands, nodes, eps):
    got = lt._admitted(cands, nodes, eps)
    assert got.tolist() == reference_admitted(cands, nodes, eps)
    return got.tolist()


@pytest.mark.parametrize("dense", [0, lt._DENSE])
def test_admitted_keeps_the_first_of_exact_duplicates(monkeypatch, dense):
    # byte-identical copies among the survivors and of the nodes, in shuffled
    # order; -0.0 next to 0.0 is no byte copy but lies at distance 0
    monkeypatch.setattr(lt, "_DENSE", dense)
    gen = np.random.default_rng(3)
    rows = complex_rows(gen, 12, 8).reshape(12, 2, 2, 2)
    nodes = rows[:4]
    cands = rows[gen.integers(0, 12, size=60)]
    signed = np.zeros((1, 2, 2, 2), dtype=complex)
    zero = np.full((1, 2, 2, 2), complex(-0.0, -0.0))
    cands = np.concatenate([cands, zero, signed, zero])
    first = {}
    for c, row in enumerate(cands[:60]):
        first.setdefault(row.tobytes(), c)
    known = {r.tobytes() for r in nodes}
    # each drawn row that is no node at its first copy, then the -0.0 row,
    # whose 0.0 twin and copy drop
    want = sorted(c for b, c in first.items() if b not in known) + [60]
    for eps in (0.0, 1e-9):
        assert check_admitted(cands, nodes, eps) == want


def test_admitted_settles_eps_chains():
    # on a line, with eps 1: b ~ a drops b; c is far from a and b; u lies
    # within eps of b (dropped) and of c (appended), so it drops; v lies
    # within eps of b and u, both dropped, so it is appended, and w ~ v drops
    eps = 1.0
    line = np.array([0.0, 0.9, 2.5, 1.6, 1.4, 1.45]) + 0j
    cands = line.reshape(-1, 1, 1, 1)
    assert check_admitted(cands, cands[:0], eps) == [0, 2, 4]
    # appended a, c and v against the nodes: all match, nothing is appended
    assert check_admitted(cands, cands[[0, 2, 4]], eps) == []


def test_admitted_matches_scan_on_fuzz():
    # clustered points on a line and in C^2, eps 1, against a few nodes:
    # chains of every length, among them a survivor that is appended though
    # it lies within eps of an earlier survivor, which an appended one before
    # that dropped
    gen = np.random.default_rng(17)
    chained = False
    for case in range(300):
        size = 1 + case % 2
        count = int(gen.integers(2, 40))
        points = np.round(gen.uniform(0, count / 3, size=(count, size)) * 4) / 4
        cands = (points + 0j).reshape(count, 1, 1, size)
        nodes = cands[gen.integers(0, count, size=int(gen.integers(0, 3)))] + 0.5
        kept = check_admitted(cands, nodes, 1.0)
        survivors = np.flatnonzero(reference_near(cands, nodes, 1.0) < 0)
        dropped = np.setdiff1d(survivors, kept)
        near = np.abs(cands[kept][:, None] - cands[dropped]).max(axis=(2, 3, 4)) <= 1.0
        chained |= bool((near & (np.array(kept)[:, None] > dropped)).any())
    assert chained


def test_admitted_keeps_non_finite_rows_and_their_copies():
    # a row with a NaN or an infinite entry matches nothing, not even a copy
    # of itself, so each copy is appended
    row = np.array([[[1, 0], [0, 0]]], dtype=complex)
    nan, inf = row.copy(), row.copy()
    nan[0, 0, 1] = np.nan
    inf[0, 1, 1] = np.inf
    cands = np.stack([row, nan, nan, row, inf, inf, nan])
    with np.errstate(invalid="ignore"):  # inf - inf
        assert check_admitted(cands, cands[:0], 1e-9) == [0, 1, 2, 4, 5, 6]
        assert check_admitted(cands, cands[[1, 3]], 0.0) == [1, 2, 4, 5, 6]


def check_classes(values, eps, batches):
    """_eps_classes over growing prefixes of ``values``, each call given the
    classes of the one before, against the within-eps relation. Returns
    whether the classes fit the whole stack: exactly when the relation is an
    equivalence, and then two values share a class exactly when they lie
    within eps of each other."""
    near = np.abs(values[:, None] - values[None]).max(axis=(2, 3)) <= eps
    cls = np.empty(0, dtype=np.intp)
    for end in batches:
        cls = lt._eps_classes(values[:end], cls, eps)
        sub = near[:end, :end]
        equivalence = sub.diagonal().all() and not (sub @ sub.astype(int) > 0)[~sub].any()
        if cls is None:
            assert not equivalence
            return False
        assert equivalence and np.array_equal(cls[:, None] == cls[None], sub)
    return True


@pytest.mark.parametrize("dense", [0, lt._DENSE])
def test_eps_classes_fit_exactly_the_equivalences(monkeypatch, dense):
    # clusters of points on a line and in C, eps 1, whose members lie within
    # 0.9 of each other, added in one to three batches; now and then a point
    # 1.3 from a cluster's center chains it to the members on its side
    monkeypatch.setattr(lt, "_DENSE", dense)
    gen = np.random.default_rng(23)
    fits = set()
    for case in range(200):
        centers = 3 * gen.permutation(8)[: int(gen.integers(1, 5))] * (1 + 1j * (case % 2))
        points = centers[gen.integers(0, len(centers), 12)] + gen.uniform(-0.45, 0.45, 12)
        if case % 3 == 0:
            points[gen.integers(0, 12)] = centers[0] + 1.3
        values = points.reshape(-1, 1, 1)
        cuts = np.sort(gen.integers(1, 12, int(gen.integers(0, 3))))
        fits.add(check_classes(values, 1.0, [*cuts, 12]))
    assert fits == {True, False}
    # 1.5 lies within 1 of as many values as the class of 0.5 holds, 0.5
    # twice, 0 and itself, but one of them is 2.5, of another class
    chain = np.array([0.5, 2.5, 0.0, 0.5, 1.5], dtype=complex).reshape(-1, 1, 1)
    assert not check_classes(chain, 1.0, [3, 5])


@pytest.mark.parametrize("dense", [0, lt._DENSE])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_eps_classes_reject_values_they_cannot_key(monkeypatch, dense, bad):
    # a NaN or infinite entry is within eps of nothing, not even itself; a
    # huge finite one would overflow the keys of the windows, so _hits tests
    # every pair on both paths and gives it a class of its own
    monkeypatch.setattr(lt, "_DENSE", dense)
    values = np.array([0, 1, bad, 1], dtype=complex).reshape(-1, 1, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        classes = lt._eps_classes(values, np.array([0, 1]), 1e-9)
    if bad == 1e308:
        assert classes.tolist() == [0, 1, 2, 1]
    else:
        assert classes is None


def line_at(angle):
    """The projection onto the real line at ``angle`` in C^2."""
    v = np.array([np.cos(angle), np.sin(angle)], dtype=complex)
    return np.outer(v, v)


def check_closure_fallback(monkeypatch, gens, tol=DEFAULT_TOL):
    """meet_closure against the per-pair scan, byte for byte, and the number
    of admissions that went through _admitted, out of all of them. The
    closure hands the lattice its recorded meets only when none did."""
    real, calls, rounds = lt._admitted, [], []
    monkeypatch.setattr(lt, "_admitted", lambda c, x, eps: calls.append(c) or real(c, x, eps))
    real_round = lt._FiberMemo.meet_join
    monkeypatch.setattr(
        lt._FiberMemo, "meet_join", lambda self, i, j: rounds.append(i) or real_round(self, i, j)
    )
    real_table, handed = lt._meet_table, []
    monkeypatch.setattr(lt, "_meet_table", lambda leq, meets: handed.append(meets) or real_table(leq, meets))
    lat = lt.meet_closure(gens, cap=256, tol=tol)
    ref = reference_closure(gens, tol)
    assert lat.nodes.tobytes() == ref.tobytes()
    assert np.array_equal(lat.leq, reference_leq(ref, tol.eps))
    assert len(handed) == 1 and (handed[0] is not None) == (not calls)
    if handed[0] is not None:
        assert np.array_equal(lat.meet_table, reference_extrema_table(lat.leq))
    return len(calls), 1 + len(rounds)


def test_meet_closure_falls_back_on_an_eps_chain(monkeypatch):
    # fiber 0 of the three generators holds the lines at angles 0, t and 2t:
    # each within eps of the next, the outer two apart; fiber 1 keeps the
    # generators apart. No classes fit, so _admitted admits the generators
    # and every round after them
    t = 0.7e-9
    a, b, c = (line_at(s * t) for s in range(3))
    assert max_abs(a - b) <= 1e-9 and max_abs(b - c) <= 1e-9 < max_abs(a - c)
    zero, one = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    space = ct.StoneSpace(2)
    fibers = ([a, zero], [b, one], [c, line_at(1.0)])
    gens = [ma.FiberedOperator(space, np.stack(f)) for f in fibers]
    fallback, admissions = check_closure_fallback(monkeypatch, gens)
    assert fallback == admissions > 1


def test_meet_closure_falls_back_on_twin_generators(monkeypatch):
    # g and its twin differ in bytes but lie within eps: the twin is the node
    # g and is dropped, but its value stays in the memo. It lies within eps of
    # h too, which is apart from g and is a node, so no classes fit
    t = 0.9e-9
    g, twin, h = (line_at(s * t) for s in range(3))
    assert g.tobytes() != twin.tobytes() and max_abs(g - twin) <= 1e-9 < max_abs(g - h)
    space = ct.StoneSpace(1)
    gens = [ma.FiberedOperator(space, f[None]) for f in (g, twin, h, line_at(1.0))]
    fallback, admissions = check_closure_fallback(monkeypatch, gens)
    assert fallback == admissions > 1
    assert len(lt.meet_closure(gens)) == len(lt.meet_closure([gens[0], *gens[2:]]))


def test_meet_closure_settles_chains_over_many_rounds(monkeypatch):
    # the eps chain of the generators on fibers 0-1, as above, and a random
    # line on each of fibers 2-5, in rounds of 3 node pairs: every round is
    # admitted through _admitted, and the nodes are the per-pair scan's
    t = 0.7e-9
    zero, one = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    gen = np.random.default_rng(41)
    u = gen.standard_normal((4, 2)) + 1j * gen.standard_normal((4, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    values = np.zeros((7, 6, 2, 2), dtype=complex)
    values[:3, :2] = ([line_at(0), zero], [line_at(t), one], [line_at(2 * t), line_at(1.0)])
    values[np.arange(3, 7), np.arange(2, 6)] = np.einsum("mi,mj->mij", u, u.conj())
    space = ct.StoneSpace(6)
    gens = [ma.FiberedOperator(space, v) for v in values]
    monkeypatch.setattr(lt, "_ROUND", 3 * 2 * values[0].size)
    fallback, admissions = check_closure_fallback(monkeypatch, gens)
    assert fallback == admissions > 20


def test_meet_closure_classes_signed_zeros_by_value(monkeypatch):
    # at eps 0, 0.0 and -0.0 at one position are different bytes but lie at
    # distance 0: one class, so a generator that differs from another only
    # there is that node, as in the per-pair scan, and no admission needs
    # _admitted
    signed = np.diag([1.0, -0.0]).astype(complex)
    e, f = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    assert signed.tobytes() != e.tobytes() and np.array_equal(signed, e)
    space = ct.StoneSpace(2)
    fibers = ([e, f], [signed, f], [f, signed], [e, e])
    gens = [ma.FiberedOperator(space, np.stack(v)) for v in fibers]
    exact = Tolerance(0.0)
    fallback, admissions = check_closure_fallback(monkeypatch, gens, exact)
    assert fallback == 0 and admissions > 1
    assert len(lt.meet_closure(gens, tol=exact)) == len(reference_closure(gens, exact)) > 5


def complement_lines(rng, m):
    """A random line at fiber k and its complement there, zero elsewhere, for
    each k < m: their closure is the Boolean algebra on these 2m atoms, and
    the eigensolver gives some of its meets and joins in new bytes."""
    gens = []
    for k in range(m):
        line = rng.projection(2, 1)
        for fiber in (line, np.eye(2) - line):
            fibers = np.zeros((m, 2, 2), dtype=complex)
            fibers[k] = fiber
            gens.append(ma.FiberedOperator(ct.StoneSpace(m), fibers))
    return gens


@pytest.mark.parametrize("calls", [2, 3, 5])
@pytest.mark.parametrize("name", ["line_per_fiber_6", "complement_lines_3"])
def test_meet_closure_falls_back_mid_closure(rng, monkeypatch, name, calls):
    # _eps_classes finds no classes that fit from its calls-th call on, so
    # the admissions before that round go through the classes, and that
    # round and the later ones through _admitted, on nodes the classes
    # admitted
    gens = {**pruning_families(rng), "complement_lines_3": complement_lines(rng, 3)}[name]
    assert len(lt.meet_closure(gens)) == 2 ** 6 + (name == "line_per_fiber_6")
    real, seen = lt._eps_classes, []

    def failing(values, known, eps):
        seen.append(1)
        return None if len(seen) >= calls else real(values, known, eps)

    monkeypatch.setattr(lt, "_eps_classes", failing)
    fallback, admissions = check_closure_fallback(monkeypatch, gens)
    assert len(seen) == calls and 0 < fallback < admissions


@pytest.mark.parametrize("cap", [9, 20, 40, 64])
def test_meet_closure_cap_crossed_mid_round(rng, monkeypatch, cap):
    # one line per fiber on six fibers: 8 first nodes, 15 joins in the first
    # round and the rest after. Whatever round the cap falls in, the nodes up
    # to it are the per-pair scan's, and each of their distinct fiber values
    # is checked; a value that only the node past the cap holds is not
    gens = pruning_families(rng)["line_per_fiber_6"]
    ref = reference_closure(gens)
    real, checked = lt.require_projection, []
    monkeypatch.setattr(lt, "require_projection",
                        lambda values, tol, what: checked.append(values.copy()) or real(values, tol, what))
    with pytest.raises(ClosureExplosion, match=f"cap of {cap} elements"):
        lt.meet_closure(gens, cap=cap)
    assert np.array_equal(checked[0], np.stack([g.values for g in gens]))  # the generators
    values = lambda stack: {f.tobytes() for f in stack.reshape(-1, *stack.shape[-2:])}
    assert set().union(*map(values, checked[1:])) == values(ref[:cap])
    assert len(lt.meet_closure(gens, cap=65)) == 65


@pytest.mark.parametrize("pairs", [1, 5, 37])
def test_meet_closure_rounds_split_mid_node(rng, monkeypatch, pairs):
    # rounds of a few node pairs, which start and end inside the run of
    # pairs of one node: the pairs go in closure order, among the nodes known
    # at the start of each round; the nodes and the order are the per-pair
    # scan's, and each distinct unordered pair of fiber values is solved once
    gens = pruning_families(rng)["line_per_fiber_6"]
    monkeypatch.setattr(lt, "_ROUND", pairs * 2 * gens[0].values.size)
    real_round, rounds = lt._FiberMemo.meet_join, []

    def recording(self, i, j):
        rounds.append((i.copy(), j.copy(), len(self.node_ids)))
        return real_round(self, i, j)

    monkeypatch.setattr(lt._FiberMemo, "meet_join", recording)
    real_solve, solved = lt.stacked_meet_join, []

    def counting(p, q, tol):
        solved.extend(tuple(sorted((a.tobytes(), b.tobytes()))) for a, b in zip(p, q))
        return real_solve(p, q, tol)

    monkeypatch.setattr(lt, "stacked_meet_join", counting)
    lat = lt.meet_closure(gens, cap=256)
    ref = reference_closure(gens)
    assert len(lat) == len(ref) == 65
    assert lat.nodes.tobytes() == ref.tobytes()
    assert np.array_equal(lat.leq, reference_leq(ref, DEFAULT_TOL.eps))
    assert max(len(i) for i, _, _ in rounds) == pairs
    assert all(i.max() < known for i, _, known in rounds)
    if pairs > 1:
        assert any(j[0] > 2 and j[-1] < i[-1] - 1 for i, j, _ in rounds)
    i, j = (np.concatenate(x).tolist() for x in list(zip(*rounds))[:2])
    assert list(zip(i, j)) == [(a, b) for a in range(3, 65) for b in range(2, a)]
    assert len(solved) == len(set(solved)) and set(solved) == distinct_fiber_pairs(lat)


@pytest.mark.parametrize("chunk", [1, 50])
def test_meet_closure_blocks_give_identical_nodes(rng, monkeypatch, chunk):
    # rounds of one node pair (or of one or two at chunk 50) and every other
    # blocked loop at its smallest blocks: the same nodes, bit for bit
    families = {**closure_families(rng), **pruning_families(rng)}
    families.pop("boolean_7")
    want = {name: lt.meet_closure(g, cap=256) for name, g in families.items()}
    for name in ("_CHUNK", "_PAIR_BLOCK", "_ROUND"):
        monkeypatch.setattr(lt, name, chunk)
    real_solve, blocks = lt.stacked_meet_join, []
    monkeypatch.setattr(lt, "stacked_meet_join", lambda p, q, tol: blocks.append(q) or real_solve(p, q, tol))
    for name, gens in families.items():
        lat = lt.meet_closure(gens, cap=256)
        # one solve per round, of at most m fresh fiber pairs per node pair
        m, size = gens[0].values.shape[0], gens[0].values.size
        assert max(len(q) for q in blocks) <= m * max(1, chunk // (2 * size))
        blocks.clear()
        assert len(lat) == len(want[name])
        assert lat.nodes.tobytes() == want[name].nodes.tobytes()
        assert np.array_equal(lat.leq, want[name].leq)


def distinct_fiber_pairs(lattice):
    """The distinct unordered pairs (bytes of p_f, bytes of q_f) over the node
    pairs a closure meets and joins: each node i >= 3 with nodes 2..i-1."""
    fibers = [[f.tobytes() for f in e] for e in lattice.nodes]
    return {
        tuple(sorted((fibers[i][f], fibers[j][f])))
        for i in range(3, len(fibers))
        for j in range(2, i)
        for f in range(len(fibers[i]))
    }


def count_solved_meets(monkeypatch):
    """Record the number of fiber pairs whose meet and join each
    stacked_meet_join call solves."""
    real, solved = lt.stacked_meet_join, []

    def counting(p, q, tol):
        solved.append(q.size // q.shape[-1] ** 2)
        return real(p, q, tol)

    monkeypatch.setattr(lt, "stacked_meet_join", counting)
    return solved


def test_meet_closure_solves_each_fiber_pair_once(rng, monkeypatch):
    solved = count_solved_meets(monkeypatch)
    lat = lt.meet_closure(pruning_families(rng)["line_per_fiber_6"], cap=256)
    assert len(lat) == 2 ** 6 + 1
    # 50 distinct pairs among the 11718 fiber pairs of the 1953 node pairs
    assert sum(solved) <= len(distinct_fiber_pairs(lat)) < 100
    # one solve per round of the nodes known so far, not one per node (62)
    assert len(solved) <= 6


def test_meet_closure_keys_fibers_by_exact_bytes(monkeypatch):
    # fibers equal within eps but not in bytes, and -0.0 entries next to 0.0
    # ones, are distinct inputs: each distinct pair of bytes is solved once,
    # none is merged with a near twin, and the nodes match the per-pair scan
    # bit for bit
    p = projector([1, 1j])
    twin = p + 1e-13 * np.array([[1, 1j], [-1j, -1]])
    e = np.diag([1.0, 0.0]).astype(complex)
    signed = np.array([[1, -0.0], [complex(-0.0, -0.0), -0.0]])
    assert max_abs(twin - p) <= DEFAULT_TOL.eps and twin.tobytes() != p.tobytes()
    assert np.array_equal(signed, e) and signed.tobytes() != e.tobytes()
    space = ct.StoneSpace(4)
    gens = [
        ma.FiberedOperator(space, np.stack(f))
        for f in (
            [p, twin, e, signed],
            [twin, p, signed, projector([1, 1])],
            [projector([1, -1]), signed, e, twin],
        )
    ]
    solved = count_solved_meets(monkeypatch)
    lat = lt.meet_closure(gens, cap=256)
    ref = reference_closure(gens)
    assert len(lat) == len(ref) > 8
    assert lat.nodes.tobytes() == ref.tobytes()
    assert np.array_equal(lat.leq, lt.FiniteLattice(ref).leq)
    assert sum(solved) == len(distinct_fiber_pairs(lat))


def test_wide_closure_memory_grows_with_distinct_values():
    # two random lines on 2000 fibers: about 4000 distinct fiber values, for
    # which a dense value-by-value table alone would take 16 M entries
    m = 2000
    gen = np.random.default_rng(5)
    u = gen.standard_normal((2, m, 2)) + 1j * gen.standard_normal((2, m, 2))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    space = ct.StoneSpace(m)
    gens = [ma.FiberedOperator(space, np.einsum("mi,mj->mij", v, v.conj())) for v in u]
    tracemalloc.start()
    try:
        lat = lt.meet_closure(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat) == 4  # zero, one and the two lines: they meet in 0, span C^2
    assert peak < 16_000_000


def order_fuzz(gen, count):
    """Seeded node stacks for the order: m 1..8 fibers of size n 1..3, each
    node fiber drawn from a small per-fiber pool of zero, the identity, a
    coordinate projection (exact at eps = 0), random projections and a 1e-12
    near twin of one, so many fibers repeat exactly; eps is 1e-9, 1e-6 or 0."""
    for case in range(count):
        m, n, k = int(gen.integers(1, 9)), int(gen.integers(1, 4)), int(gen.integers(1, 13))
        eps = (1e-9, 1e-6, 0.0)[case % 3]
        pools = []
        for _ in range(m):
            pool = [np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)]
            pool.append(np.diag(gen.integers(0, 2, n)).astype(complex))
            for _ in range(int(gen.integers(1, 4))):
                v = gen.standard_normal((n, int(gen.integers(1, n + 1)))) * (1 + 1j)
                pool.append(projector(*(v + gen.standard_normal(v.shape)).T))
            noise = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            pool.append(pool[-1] + 1e-12 * (noise + noise.conj().T))
            pools.append(pool)
        stack = np.stack(
            [np.stack([pool[gen.integers(len(pool))] for pool in pools]) for _ in range(k)]
        )
        yield stack, eps


def count_order_pairs(monkeypatch):
    """Record the number of value pairs each per-fiber order test gets."""
    real, pairs = lt._below, []

    def counting(p, q, eps):
        pairs.append(p.shape[-1])
        return real(p, q, eps)

    monkeypatch.setattr(lt, "_below", counting)
    return pairs


def distinct_within_fiber_pairs(stack):
    """The sum over the fibers of (distinct fiber values by bytes) squared."""
    return sum(len({f.tobytes() for f in stack[:, i]}) ** 2 for i in range(stack.shape[1]))


def test_order_matches_einsum_on_fuzz():
    gen = np.random.default_rng(12)
    seen = set()
    for stack, eps in order_fuzz(gen, 240):
        leq, _ = lt._order(stack, eps)
        assert np.array_equal(leq, reference_leq(stack, eps))
        seen.add((eps, bool(leq.all()), bool(leq.any())))
    assert len(seen) >= 6  # both full and partial orders at every eps
    # past 256 fibers a fiber's index takes two bytes of its sort key
    values = np.array([0.0, 1.0, 1.0 + 1e-12, 0.5 + 0.5j], dtype=complex)
    stack = values[gen.integers(0, 4, (9, 300))].reshape(9, 300, 1, 1)
    for eps in (1e-9, 0.0):
        assert np.array_equal(lt._order(stack, eps)[0], reference_leq(stack, eps))


@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_order_keys_fibers_by_exact_bytes(monkeypatch, eps):
    # fibers equal within 1e-9 but not in bytes, and -0.0 entries next to
    # 0.0 ones, are distinct values of their fiber: each pair is tested once
    # and the order is the einsum's bit for bit
    p = projector([1, 1j])
    twin = p + 1e-13 * np.array([[1, 1j], [-1j, -1]])
    e = np.diag([1.0, 0.0]).astype(complex)
    signed = np.array([[1, -0.0], [complex(-0.0, -0.0), -0.0]])
    zero, one = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    stack = np.stack([
        np.stack(f) for f in (
            [zero, zero, zero], [one, one, one], [p, e, twin], [twin, signed, p],
            [p, signed, twin], [twin, one - e, signed], [zero, signed, e],
        )
    ])
    pairs = count_order_pairs(monkeypatch)
    leq, _ = lt._order(stack, eps)
    assert np.array_equal(leq, reference_leq(stack, eps))
    assert sum(pairs) == distinct_within_fiber_pairs(stack) == 4 ** 2 + 5 ** 2 + 6 ** 2
    assert leq[2, 3] == leq[3, 2] == (eps > 0)  # p and twin on fibers 0 and 2
    # nodes 2 and 4 differ only in e and signed on fiber 1, equal as numbers
    assert np.array_equal(leq[2], leq[4]) and np.array_equal(leq[:, 2], leq[:, 4])


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_order_blocks_give_identical_order(rng, monkeypatch, chunk):
    # the pair tests and the gather of leq in many blocks
    lattices = [lt.meet_closure(g, cap=256) for g in closure_families(rng).values()]
    lattices.append(lt.meet_closure(lines_per_fiber(rng, 6), cap=256))
    stacks = [(lat.nodes, DEFAULT_TOL.eps) for lat in lattices]
    stacks += list(order_fuzz(np.random.default_rng(13), 30))
    monkeypatch.setattr(lt, "_CHUNK", chunk)
    pairs, blocked = count_order_pairs(monkeypatch), 0
    for stack, eps in stacks:
        pairs.clear()
        assert np.array_equal(lt._order(stack, eps)[0], reference_leq(stack, eps))
        k, m, n = stack.shape[:3]
        assert max(pairs) <= max(1, chunk // n ** 2)
        blocked += len(pairs) > 1 and k * m > chunk  # both loops ran in blocks
    assert blocked


def test_order_tests_each_distinct_fiber_pair_once(rng, monkeypatch):
    lat = lt.meet_closure(pruning_families(rng)["line_per_fiber_6"], cap=256)
    k, m = len(lat), lat.nodes.shape[1]
    pairs = count_order_pairs(monkeypatch)
    real, checked = lt.require_projection, []
    monkeypatch.setattr(lt, "require_projection",
                        lambda values, tol, what: checked.append(len(values)) or real(values, tol, what))
    rebuilt = lt.FiniteLattice(lat.nodes)
    assert np.array_equal(rebuilt.leq, reference_leq(lat.nodes, DEFAULT_TOL.eps))
    # 4 to 6 distinct values on each fiber: 152 pairs, against the 65 * 65 * 6
    # fiber products of the einsum over all node pairs
    assert sum(pairs) == distinct_within_fiber_pairs(lat.nodes) < 200
    assert sum(pairs) * 100 < k * k * m
    # and the projection check takes each distinct value of a fiber once
    assert checked == [sum(len({f.tobytes() for f in lat.nodes[:, i]}) for i in range(m))]


def test_meet_closure_fails_fast_past_table_budget(monkeypatch):
    per_pair = np.dtype(np.intp).itemsize + 1  # the meet table and the order
    assert math.isqrt(lt._TABLE_BUDGET // per_pair) >= 4096  # the default cap fits
    gens = [ma.central_operator(ct.char_fn(ct.StoneSpace(4), [k]), 1) for k in range(4)]
    monkeypatch.setattr(lt, "_TABLE_BUDGET", per_pair * 16 ** 2)
    nodes = lt.meet_closure(gens).nodes
    assert len(nodes) == 16 and len(lt.FiniteLattice(nodes)) == 16
    monkeypatch.setattr(lt, "_TABLE_BUDGET", per_pair * 16 ** 2 - 1)
    budget = f"table budget of {per_pair * 16 ** 2 - 1} bytes"
    with pytest.raises(ClosureExplosion, match=f"closure reached 16 nodes.*{budget}"):
        lt.meet_closure(gens)
    # the constructor checks the same budget before it builds any table
    monkeypatch.setattr(lt, "_order", lambda *args: pytest.fail("a table was built past the budget"))
    with pytest.raises(StoneworkError, match=f"16 nodes outgrow the {budget}"):
        lt.FiniteLattice(nodes)


def test_zero_size_fibers_raise_stonework_error():
    space = ct.StoneSpace(2)
    with pytest.raises(StoneworkError, match="n = 0"):
        lt.meet_closure([ma.zero_operator(space, 0)])
    with pytest.raises(StoneworkError, match="n = 0"):
        lt.FiniteLattice(node_stack(ma.zero_operator(space, 0)))


def test_meet_closure_checks_generators():
    space = ct.StoneSpace(2)
    line = line_op(space, [1, 1])
    with pytest.raises(NotProjection, match="generator"):
        lt.meet_closure([line, 2 * line])
    with pytest.raises(StoneworkError, match="mixed shapes"):
        lt.meet_closure([line, line_op(ct.StoneSpace(3), [1, 0])])


def halved(solve, half):
    """stacked_meet_join with its meets or its joins halved, which are then
    not idempotent."""

    def solving(p, q, tol):
        out = solve(p, q, tol)
        out[slice(None, len(p)) if half == "meet" else slice(len(p), None)] *= 0.5
        return out

    return solving


def test_meet_closure_rejects_non_projection_node(monkeypatch):
    # a join that is not idempotent must stop the closure when it is appended
    space = ct.StoneSpace(1)
    monkeypatch.setattr(lt, "stacked_meet_join", halved(lt.stacked_meet_join, "join"))
    with pytest.raises(NotProjection, match="closure node"):
        lt.meet_closure([diag_projection(space, [0], []), line_op(space, [1, 1])])


@pytest.mark.parametrize("nodes, error", [(5, NotProjection), (4, ClosureExplosion)])
@pytest.mark.parametrize("limit", ["cap", "budget"])
def test_meet_closure_checks_nodes_in_order_up_to_the_cap(monkeypatch, limit, nodes, error):
    # a halved meet is not idempotent. The first round of the closure appends
    # the meet of its generators, diag(0, 1, 0, 0) halved, as node 4 and their
    # join diag(1, 1, 1, 0) as node 5. With room for 5 nodes, node 4 fails its
    # projection check before node 5 outgrows the cap or the table budget;
    # with room for 4, node 4 outgrows them first and is never checked.
    # (A halved join cannot show this: the first round ends with it.)
    space = ct.StoneSpace(1)
    monkeypatch.setattr(lt, "stacked_meet_join", halved(lt.stacked_meet_join, "meet"))
    cap = nodes if limit == "cap" else 4096
    if limit == "budget":
        monkeypatch.setattr(lt, "_TABLE_BUDGET", (np.dtype(np.intp).itemsize + 1) * nodes ** 2)
    match = {NotProjection: "closure node", ClosureExplosion: limit}[error]
    with pytest.raises(error, match=match):
        lt.meet_closure([diag_node(space, 1, 1, 0, 0), diag_node(space, 0, 1, 1, 0)], cap=cap)


def test_meet_closure_cap():
    with pytest.raises(ClosureExplosion):
        boolean = [
            ma.central_operator(ct.char_fn(ct.StoneSpace(4), [k]), 1) for k in range(4)
        ]
        lt.meet_closure(boolean, cap=5)


@pytest.mark.parametrize("cap", [-9, -1, 0])
def test_meet_closure_cap_below_one(cap):
    # the first admission appends the zero node, which is past any cap below 1
    boolean = [ma.central_operator(ct.char_fn(ct.StoneSpace(4), [k]), 1) for k in range(4)]
    with pytest.raises(ClosureExplosion, match=f"closure exceeded cap of {cap} elements"):
        lt.meet_closure(boolean, cap=cap)


def test_quasipoints_of_boolean_algebras():
    for atoms in (1, 2, 3):
        lat = boolean_lattice(atoms)
        points = lt.enumerate_quasipoints(lat)
        assert len(points) == atoms
        assert {frozenset(b.members) for b in points} == brute_force_quasipoints(lat)


def test_quasipoints_of_two_line_lattice():
    space = ct.StoneSpace(1)
    lat = lt.meet_closure([line_op(space, [1, 0]), line_op(space, [0, 1])])
    points = lt.enumerate_quasipoints(lat)
    assert len(points) == 2
    assert {frozenset(b.members) for b in points} == brute_force_quasipoints(lat)


def test_two_element_lattice_single_quasipoint():
    space = ct.StoneSpace(1)
    lat = lt.meet_closure([ma.identity(space, 2)])
    points = lt.enumerate_quasipoints(lat)
    assert len(points) == 1
    assert points[0].members == {lat.one_index}


def test_quasipoint_axioms_exhaustive():
    lat = boolean_lattice(3)
    for b in lt.enumerate_quasipoints(lat):
        assert lt.is_quasipoint(lat, b.members)
        # upward and meet closure of the member set
        for i in b.members:
            for j in b.members:
                assert lat.meet_table[i, j] in b.members
            for j in range(len(lat)):
                if lat.leq[i, j]:
                    assert j in b.members


def test_trunk_examples():
    lat = boolean_lattice(3)
    b = lt.enumerate_quasipoints(lat)[0]
    atom = b.min_member()
    assert lt.trunk(b, lat.one_index).members == b.members
    assert lt.trunk(b, atom).members == {atom}
    # a middle element: the trunk is the interval [atom, e]
    middles = [e for e in b.members if e not in (atom, lat.one_index)]
    e = middles[0]
    expected = {i for i in b.members if lat.leq[i, e]}
    assert lt.trunk(b, e).members == expected
    with pytest.raises(NotMember):
        lt.trunk(b, lat.zero_index)


def test_extend_trunk_ambiguous():
    lat = boolean_lattice(2)
    with pytest.raises(Ambiguous):
        lt.extend_trunk(lat, lt.Filter(lat, {lat.one_index}))


def test_extend_trunk_unique_through_non_atom():
    # chain lattice 0 < p < 1: the trunk {1} has a unique quasipoint below
    space = ct.StoneSpace(1)
    p = line_op(space, [1, 0])
    lat = lt.meet_closure([p])
    assert len(lat) == 3
    b = lt.extend_trunk(lat, lt.Filter(lat, {lat.one_index}))
    assert b.members == lat.up_set(index_of(lat, p))


def test_stone_base_sets():
    lat = boolean_lattice(3)
    points = set(lt.enumerate_quasipoints(lat))
    assert lt.stone_base_set(lat, lat.one_index) == points
    assert lt.stone_base_set(lat, lat.zero_index) == frozenset()
    for t in lat.atoms():
        assert lt.stone_base_set(lat, t) == {lt.Filter(lat, lat.up_set(t))}
    # base sets respect meets, exactly
    for i in range(len(lat)):
        for j in range(len(lat)):
            assert lt.stone_base_set(lat, lat.meet_table[i, j]) == (
                lt.stone_base_set(lat, i) & lt.stone_base_set(lat, j)
            )
    for outside in (-1, len(lat)):
        with pytest.raises(NotMember):
            lt.stone_base_set(lat, outside)


def test_isolated_points():
    lat3 = boolean_lattice(3)
    assert lt.isolated_points(lat3) == frozenset(lt.enumerate_quasipoints(lat3))
    space = ct.StoneSpace(1)
    lat1 = lt.meet_closure([ma.identity(space, 2)])
    assert lt.isolated_points(lat1) == frozenset(lt.enumerate_quasipoints(lat1))


def test_maximality_rejects_every_extension():
    # Def-style check: adding any non-member to a quasipoint breaks the axioms
    lat = boolean_lattice(3)
    for b in lt.enumerate_quasipoints(lat):
        for x in range(len(lat)):
            if x in b.members:
                continue
            assert not reference_is_filter_base(lat, set(b.members) | {x})


def test_filter_min_member():
    lat = boolean_lattice(3)
    b = lt.enumerate_quasipoints(lat)[1]
    low = b.min_member()
    assert all(lat.leq[low, i] for i in b.members)
    with pytest.raises(EmptyFilter):
        lt.Filter(lat, ()).min_member()


def test_extend_trunk_rejects_foreign_and_zero_trunks():
    lat = boolean_lattice(2)
    other = boolean_lattice(2)
    with pytest.raises(NotMember, match="different lattice"):
        lt.extend_trunk(lat, lt.Filter(other, {other.one_index}))
    with pytest.raises(EmptyFilter, match="zero"):
        lt.extend_trunk(lat, lt.Filter(lat, {lat.zero_index, lat.one_index}))


def test_extrema_tables_past_256_nodes(rng):
    # the 2^8 sums of one line per fiber plus the identity: 257 nodes, so a
    # packed down-set ends in a partly filled byte. Node s (< 256) is the
    # sum over the fibers in bitmask s; the identity gets a ninth bit of its
    # own, so the order is bitmask inclusion and meets are intersections.
    m = 8
    space = ct.StoneSpace(m)
    lines = np.stack([rng.projection(2, 1) for _ in range(m)])
    nodes = []
    for s in range(2 ** m):
        picked = np.array([s >> k & 1 for k in range(m)], dtype=complex)
        nodes.append(lines * picked[:, None, None])
    nodes.append(ma.identity(space, 2).values)
    masks = np.arange(2 ** m + 1)
    masks[-1] = 2 ** (m + 1) - 1
    lat = lt.FiniteLattice(nodes)
    assert len(lat) == 257
    assert np.array_equal(masks[lat.meet_table], masks[:, None] & masks[None, :])
    assert np.array_equal(lat.leq, (masks[:, None] & ~masks[None, :]) == 0)


def filter_layer_lattices(rng):
    """Boolean lattices with 1..6 atoms, the closure-oracle families, the 65
    nodes of one line per fiber on six fibers, and 240 random verify lattices."""
    lattices = [boolean_lattice(a) for a in range(1, 7)]
    lattices += [lt.meet_closure(g, cap=256) for g in closure_families(rng).values()]
    lattices.append(lt.meet_closure(lines_per_fiber(rng, 6), cap=256))
    assert len(lattices[-1]) == 65
    draws = SplitMix64(7)
    lattices += [vf.rand_lattice(draws, DEFAULT_TOL) for _ in range(240)]
    return lattices


def member_sets(lattice, gen):
    """The up-set of every node, and, from each node i and a random node j,
    the up-set with zero added, {i}, {i, j} and up(i) | up(j) (not directed
    when i and j are incomparable), plus a few random subsets."""
    k = len(lattice)
    sets = []
    for i, j in zip(range(k), gen.integers(0, k, size=k)):
        up = lattice.up_set(i)
        sets += [up, up | {lattice.zero_index}, {i}, {i, int(j)}, up | lattice.up_set(j)]
    sets += [set(np.flatnonzero(gen.random(k) < 0.5).tolist()) for _ in range(8)]
    return [s for s in sets if s]


def test_filter_layer_matches_loop_oracles(rng):
    gen = np.random.default_rng(5)
    kinds = set()
    for lat in filter_layer_lattices(rng):
        assert lt.isolated_points(lat) == reference_isolated_points(lat)
        for members in member_sets(lat, gen):
            base = reference_is_filter_base(lat, members)
            qp = lt.is_quasipoint(lat, members)
            assert qp == reference_is_quasipoint(lat, members)
            f = lt.Filter(lat, members)
            low = reference_min_member(f)
            if low is None:
                with pytest.raises(StoneworkError, match="not downward directed"):
                    f.min_member()
            else:
                assert f.min_member() == low
            kinds.add((base, qp, low is None))
    # filter bases maximal and not, and non-filter sets with a minimum and without
    assert kinds >= {(True, True, False), (True, False, False), (False, False, False),
                     (False, False, True)}


@pytest.mark.parametrize("bad", [-1, 8, 99])
def test_member_indices_are_range_checked(bad):
    lat = boolean_lattice(3)
    assert len(lat) == 8
    with pytest.raises(NotMember):
        lt.is_quasipoint(lat, [lat.one_index, bad])
    with pytest.raises(NotMember):
        lt.Filter(lat, [bad])
