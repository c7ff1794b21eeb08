"""Finite lattices: closure, quasipoint enumeration, trunks, Stone base sets."""

import numpy as np
import pytest

from stonework import center as ct

from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework.errors import (
    Ambiguous,
    ClosureExplosion,
    NotMember,
    NotProjection,
    StoneworkError,
)
from stonework.numerics import DEFAULT_TOL, Tolerance, max_abs


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
    turn, so the first node within tol.eps wins."""
    space, n = generators[0].space, generators[0].n
    elems = []

    def add(op):
        for i, e in enumerate(elems):
            if max_abs(e.values - op.values) <= tol.eps:
                return i
        elems.append(op)
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
            add(ma.fibered_join(elems[i], elems[j], tol))
        i += 1
    return elems


def reference_extrema_table(leq):
    """Oracle: the meet table of an order (the join table of its transpose) as
    the unique maximum of the common lower bounds, for all pairs at once.
    cands[c, i, j] says c <= i and c <= j; candidate c is the maximum when
    no candidate d fails d <= c, which one uint32 tensordot counts."""
    k = leq.shape[0]
    cands = leq[:, :, None] & leq[:, None, :]
    not_leq = (~leq).astype(np.uint32)
    counts = np.tensordot(not_leq, cands.astype(np.uint32).reshape(k, -1), axes=([0], [0]))
    is_max = cands & ~(counts.reshape(k, k, k) > 0)
    assert np.all(is_max.sum(axis=0) == 1)
    return np.argmax(is_max, axis=0)


def reference_atoms(lat):
    """Oracle: the nonzero nodes with nothing but zero and themselves below."""
    k = len(lat)
    return [
        i
        for i in range(k)
        if i != lat.zero_index
        and not any(lat.leq[j, i] for j in range(k) if j not in (i, lat.zero_index))
    ]


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
    for e in lat.elements:
        # every lattice node is a sum of some of the four minimal atoms
        best = None
        for bits in range(16):
            acc = np.zeros_like(e.values)
            for j in range(4):
                if bits >> j & 1:
                    acc = acc + atoms[j]
            acc = np.clip(acc.real, 0, 1).astype(complex)
            if max_abs(acc - e.values) <= 1e-9:
                best = bits
                break
        assert best is not None


def test_meet_closure_two_lines():
    space = ct.StoneSpace(1)
    p = line_op(space, [1, 0])
    q = line_op(space, [1, 1])
    lat = lt.meet_closure([p, q])
    assert len(lat) == 4  # zero, the two lines, identity


def closure_families(rng):
    """Generator families for the closure oracle, by name."""
    space4 = ct.StoneSpace(4)
    boolean = [ma.central_operator(ct.char_fn(space4, [k]), 2) for k in space4]
    boolean.append(ma.central_operator(ct.char_fn(space4, [0, 2]), 2))
    two_lines = [line_op(ct.StoneSpace(1), [1, 0]), line_op(ct.StoneSpace(1), [1, 1])]
    # one random line projection at fiber k, zero elsewhere, for each k
    lines = []
    for k in space4:
        fibers = np.zeros((4, 2, 2), dtype=complex)
        fibers[k] = rng.projection(2, 1)
        lines.append(ma.FiberedOperator(space4, fibers))
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


@pytest.mark.parametrize(
    "name, size",
    # central projections give the Boolean algebra on four fibers; the lines
    # give the same plus the identity, which is not a sum of lines
    [("boolean", 2 ** 4), ("two_lines", 4), ("line_per_fiber", 2 ** 4 + 1),
     ("noncommuting_n3", 24)],
)
def test_meet_closure_matches_per_pair_scan(rng, name, size):
    gens = closure_families(rng)[name]
    lat = lt.meet_closure(gens, cap=256)
    ref = reference_closure(gens)
    assert len(lat) == len(ref) == size
    for e, r in zip(lat.elements, ref):
        assert np.array_equal(e.values, r.values)
    assert np.array_equal(lat.leq, lt.FiniteLattice(ref).leq)


@pytest.mark.parametrize(
    "name",
    ["boolean", "two_lines", "line_per_fiber", "noncommuting_n3"]
    + [pytest.param(a, id=f"boolean_{2 ** a}_nodes") for a in range(1, 7)],
)
def test_extrema_tables_match_reference(rng, name):
    # the closure-oracle families, then the Boolean lattices with 2..64 nodes
    if isinstance(name, int):
        lat = boolean_lattice(name)
    else:
        lat = lt.meet_closure(closure_families(rng)[name], cap=256)
    assert np.array_equal(lat.meet_table, reference_extrema_table(lat.leq))
    assert np.array_equal(lat.join_table, reference_extrema_table(lat.leq.T))
    assert lat.atoms() == reference_atoms(lat)


def test_tables_reject_non_lattice_family():
    # e1 and e2 have the two incomparable upper bounds e1+e2+e3 and e1+e2+e4
    # and no least one, so this family is not a lattice
    space = ct.StoneSpace(1)
    diags = [(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1)]
    with pytest.raises(StoneworkError, match="order tables are inconsistent"):
        lt.FiniteLattice([diag_node(space, *d) for d in diags])


def test_tables_reject_repeated_node():
    space = ct.StoneSpace(1)
    p = line_op(space, [1, 1])
    with pytest.raises(StoneworkError, match="order tables are inconsistent"):
        lt.FiniteLattice([ma.zero_operator(space, 2), ma.identity(space, 2), p, p])


def test_node_lookup():
    space = ct.StoneSpace(2)
    p = line_op(space, [1, 0])
    lat = lt.meet_closure([p])
    assert (lat.zero_index, lat.one_index, lat.index_of(p)) == (0, 1, 2)
    with pytest.raises(NotMember):
        lat.index_of(line_op(space, [0, 1]))
    with pytest.raises(NotMember):
        lat.index_of(ma.identity(ct.StoneSpace(1), 2))
    with pytest.raises(StoneworkError, match="missing its zero or unit element"):
        lt.FiniteLattice([p, ma.identity(space, 2)])


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
    assert (lat.index_of(p), lat.index_of(q)) == (2, 3)
    assert lat.meet_table[2, 3] == 2 and lat.join_table[2, 3] == 3


def test_meet_closure_rejects_non_projection_node(monkeypatch):
    # a join that is not idempotent must stop the closure when it is appended
    space = ct.StoneSpace(1)
    real_join = lt.stacked_join
    monkeypatch.setattr(lt, "stacked_join", lambda p, q, tol: 0.5 * real_join(p, q, tol))
    with pytest.raises(NotProjection, match="closure node"):
        lt.meet_closure([diag_projection(space, [0], []), line_op(space, [1, 1])])


def test_meet_closure_cap():
    with pytest.raises(ClosureExplosion):
        boolean = [
            ma.central_operator(ct.char_fn(ct.StoneSpace(4), [k]), 1) for k in range(4)
        ]
        lt.meet_closure(boolean, cap=5)


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


def test_extend_trunk_round_trip():
    for atoms in (2, 3, 4):
        lat = boolean_lattice(atoms)
        for b in lt.enumerate_quasipoints(lat):
            for e in b.members:
                assert lt.extend_trunk(lat, lt.trunk(b, e)) == b


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
    assert b.members == lat.up_set(lat.index_of(p))


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
            assert not lt.is_filter_base(lat, set(b.members) | {x})


def test_filter_min_member():
    lat = boolean_lattice(3)
    b = lt.enumerate_quasipoints(lat)[1]
    low = b.min_member()
    assert all(lat.leq[low, i] for i in b.members)


def test_extrema_tables_past_256_nodes(rng):
    # the 2^8 sums of one line per fiber plus the identity: 257 nodes, so a
    # packed down-set ends in a partly filled byte. Node s (< 256) is the
    # sum over the fibers in bitmask s; the identity gets a ninth bit of its
    # own, so meets and joins are bitmask intersections and unions.
    m = 8
    space = ct.StoneSpace(m)
    lines = np.stack([rng.projection(2, 1) for _ in range(m)])
    nodes = []
    for s in range(2 ** m):
        picked = np.array([s >> k & 1 for k in range(m)], dtype=complex)
        nodes.append(ma.FiberedOperator(space, lines * picked[:, None, None]))
    nodes.append(ma.identity(space, 2))
    masks = np.arange(2 ** m + 1)
    masks[-1] = 2 ** (m + 1) - 1
    lat = lt.FiniteLattice(nodes)
    assert len(lat) == 257
    assert np.array_equal(masks[lat.meet_table], masks[:, None] & masks[None, :])
    assert np.array_equal(masks[lat.join_table], masks[:, None] | masks[None, :])
