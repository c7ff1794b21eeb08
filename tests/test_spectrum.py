"""Parametrized quasipoints: membership, the center map, actions, germs."""

import warnings

import numpy as np
import pytest

from conftest import index_of
from stonework import center as ct
from stonework import hilbert_module as hm
from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework import spectrum as sp
from stonework import verify as vf
from stonework.errors import (
    EmptyFilter,
    NotAbelian,
    NotMember,
    NotProjection,
    NotUnitary,
)
from stonework.numerics import max_abs
from stonework.rng import SplitMix64


def unit(rng, n):
    v = rng.complex_normals(n)
    return v / np.linalg.norm(v)


def diag_op(space, *diags):
    fibers = np.stack([np.diag(np.asarray(d, dtype=complex)) for d in diags])
    return ma.FiberedOperator(space, fibers)


def subspace_intersection_oracle(b1, b2, eps=1e-9):
    """Independent intersection of two column spans: null space of [B1 | -B2]
    recovers the common vectors."""
    n = b1.shape[0]
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros((n, 0), dtype=complex)
    stacked = np.hstack([b1, -b2])
    u, s, vh = np.linalg.svd(stacked)
    null_dim = int(np.sum(s <= eps * max(1.0, s[0]))) + max(0, stacked.shape[1] - len(s))
    if null_dim == 0:
        return np.zeros((n, 0), dtype=complex)
    null_vecs = vh[-null_dim:].conj().T  # columns (u, w) with B1 u = B2 w
    common = b1 @ null_vecs[: b1.shape[1]]
    q, r = np.linalg.qr(common)
    keep = np.abs(np.diag(r)) > eps
    return q[:, keep]


def test_qp_contains_examples(tol):
    space = ct.StoneSpace(2)
    b = sp.quasipoint(space, 0, [1, 0])
    assert sp.qp_contains(b, ma.identity(space, 2), tol)
    assert not sp.qp_contains(b, ma.zero_operator(space, 2), tol)
    p_fix = diag_op(space, [1, 0], [0, 1])
    p_miss = diag_op(space, [0, 1], [1, 0])
    assert sp.qp_contains(b, p_fix, tol)
    assert not sp.qp_contains(b, p_miss, tol)
    with pytest.raises(NotProjection):
        sp.qp_contains(b, diag_op(space, [0.5, 0], [0, 0]), tol)


def test_quasipoint_line_equality():
    space = ct.StoneSpace(1)
    b1 = sp.quasipoint(space, 0, [1, 0])
    b2 = sp.quasipoint(space, 0, [1j, 0])  # same line, different phase
    b3 = sp.quasipoint(space, 0, [0, 1])
    assert b1 == b2
    assert b1 != b3


@pytest.mark.parametrize(
    "line", [[np.inf, 1], [np.nan, 1], [1, complex(0, -np.inf)]], ids=["inf", "nan", "imag-inf"]
)
def test_quasipoint_rejects_non_finite_line(line):
    with pytest.raises(ValueError, match="must be finite"):
        sp.quasipoint(ct.StoneSpace(1), 0, line)


@pytest.mark.parametrize(
    "line, scaled",
    [
        ([1e200, 1e200], [1, 1]),
        ([2.0**1020 * (1 + 1j), -(2.0**1019)], [1 + 1j, -0.5]),
        ([1e-200, 0], [1, 0]),
        ([3 * 2.0**-1074 * 1j, 2.0**-1074], [1j, 1 / 3]),
        ([5e-324, 0], [1, 0]),
    ],
    ids=["overflow", "overflow-complex", "underflow", "subnormal", "smallest"],
)
def test_quasipoint_line_with_norm_out_of_range(line, scaled):
    """A finite nonzero line whose norm overflows or underflows gives the
    exact unit line of its copy divided by its largest part, without a
    floating-point warning."""
    space = ct.StoneSpace(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = sp.quasipoint(space, 0, line)
    assert b.line.tobytes() == sp.quasipoint(space, 0, scaled).line.tobytes()
    assert hm._norm2(b.line) == 1.0
    with pytest.raises(ValueError, match="nonzero"):
        sp.quasipoint(space, 0, [0, -0.0])


def test_zeta_examples(tol):
    space1 = ct.StoneSpace(1)
    assert sp.zeta(sp.quasipoint(space1, 0, [1, 1])).omega == 0
    space = ct.StoneSpace(3)
    b = sp.quasipoint(space, 1, [0, 1])
    assert sp.zeta(b).omega == 1
    assert sp.qp_contains(b, ma.central_operator(ct.char_fn(space, [1]), 2), tol)
    # surjectivity: a quasipoint over every center point
    for beta in ct.center_quasipoints(space):
        found = sp.quasipoint(space, beta.omega, np.eye(2)[0])
        assert sp.zeta(found) == beta


def test_unitary_act_examples(rng, tol):
    space = ct.StoneSpace(2)
    b = sp.quasipoint(space, 0, [1, 0])
    assert sp.unitary_act(ma.identity(space, 2), b, tol) == b
    swap = ma.FiberedOperator(
        space, np.stack([np.array([[0, 1], [1, 0]], dtype=complex)] * 2)
    )
    assert sp.unitary_act(swap, b, tol) == sp.quasipoint(space, 0, [0, 1])
    with pytest.raises(NotUnitary):
        sp.unitary_act(diag_op(space, [1, 0], [1, 1]), b, tol)


def test_unitary_act_is_group_action(rng, tol):
    space = ct.StoneSpace(2)
    n = 3
    for _ in range(30):
        u = ma.FiberedOperator(space, rng.unitary(space.points, n))
        v = ma.FiberedOperator(space, rng.unitary(space.points, n))
        b = sp.quasipoint(space, rng.integer(0, 1), unit(rng, n))
        assert sp.unitary_act(u @ v, b, tol) == sp.unitary_act(
            u, sp.unitary_act(v, b, tol), tol
        )


def test_unitary_act_membership_equivariance(rng, tol):
    space = ct.StoneSpace(2)
    n = 3
    for _ in range(30):
        u = ma.FiberedOperator(space, rng.unitary(space.points, n))
        b = sp.quasipoint(space, rng.integer(0, 1), unit(rng, n))
        p = ma.FiberedOperator(space, np.stack([rng.projection(n, rng.integer(0, n)) for _ in space]))
        moved = sp.unitary_act(u, b, tol)
        conj = ma.transport(u, p, tol)
        assert sp.qp_contains(b, p, tol) == sp.qp_contains(moved, conj, tol)


def test_trunk_transport(rng, tol):
    # members of the trunk below the initial projection map onto the trunk of
    # the transported quasipoint below the final projection
    space = ct.StoneSpace(3)
    n = 3
    for _ in range(20):
        omega = rng.integer(0, 2)
        x = unit(rng, n)
        b = sp.quasipoint(space, omega, x)
        rows = np.zeros((3, n), dtype=complex)
        for k in space:
            rows[k] = x if k == omega else unit(rng, n)
        a = hm.ModuleElement(space, rows)
        e = hm.abelian_projection(hm.normalize(a, tol), tol)
        u = ma.FiberedOperator(space, rng.unitary(space.points, n))
        theta = u @ e
        moved = sp.Quasipoint(b.omega, theta.values[omega] @ b.line)
        final = theta @ ma.adjoint(theta)
        assert sp.qp_contains(moved, ma.FiberedOperator(space, final.values), tol)
        # sub-members of e are central multiples; their images follow the trunk
        p = ct.char_fn(space, [omega, rng.integer(0, 2)])
        member = e * p
        image = theta @ member @ ma.adjoint(theta)
        assert sp.qp_contains(moved, ma.FiberedOperator(space, image.values), tol)


def test_orbit_witness_examples(tol):
    space = ct.StoneSpace(2)
    b = sp.quasipoint(space, 0, [1, 0])
    same = sp.orbit_witness(b, b, tol)
    assert same.allclose(ma.identity(space, 2), 1e-12)

    b2 = sp.quasipoint(space, 0, [0, 1])
    u = sp.orbit_witness(b, b2, tol)
    assert u is not None
    assert sp.unitary_act(u, b, tol) == b2
    assert max_abs(u.values[1] - np.eye(2)) == 0.0  # identity off the base point

    b3 = sp.quasipoint(space, 1, [1, 0])
    assert sp.orbit_witness(b, b3, tol) is None


def test_orbit_witness_random(rng, tol):
    space = ct.StoneSpace(2)
    n = 4
    for _ in range(50):
        b = sp.quasipoint(space, rng.integer(0, 1), unit(rng, n))
        b2 = sp.quasipoint(space, rng.integer(0, 1), unit(rng, n))
        u = sp.orbit_witness(b, b2, tol)
        if sp.zeta(b) == sp.zeta(b2):
            assert u is not None and u.is_unitary(tol)
            moved = sp.unitary_act(u, b, tol)
            assert abs(np.vdot(moved.line, b2.line)) >= 1.0 - 1e-10
        else:
            assert u is None


def test_orbit_witness_reads_each_frame(rng, tol):
    """At the shared point the witness is the second line's frame times the
    adjoint of the first's, both exactly as complete_to_unitary builds them;
    a quasipoint keeps its frame, read-only."""
    space = ct.StoneSpace(2)
    for _ in range(20):
        b = sp.quasipoint(space, 1, unit(rng, 3))
        b2 = sp.quasipoint(space, 1, unit(rng, 3))
        u = sp.orbit_witness(b, b2, tol)
        frame = sp.complete_to_unitary(b.line)
        assert np.array_equal(u.values[1], sp.complete_to_unitary(b2.line) @ frame.conj().T)
        assert np.array_equal(b.frame, frame) and b.frame is b.frame
        assert not b.frame.flags.writeable


@pytest.mark.parametrize("seed", [0, 3])
def test_orbit_suite_completes_each_line_once(monkeypatch, tol, seed):
    """suite_orbit_parametrization, on the stream run_all forks for it, runs
    Gram-Schmidt at most once per drawn quasipoint (50 of them), and counting
    the calls leaves its result as it was."""
    suite = vf.suite_orbit_parametrization

    def run():
        return suite(SplitMix64(seed).fork(vf.ALL_SUITES.index(suite) + 1), tol)

    expected = run()
    calls = []
    original = sp.complete_to_unitary

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(sp, "complete_to_unitary", counted)
    assert run() == expected and expected.passed
    assert 0 < len(calls) <= 50


def test_germ_eval_examples():
    space = ct.StoneSpace(2)
    beta0 = ct.CenterQuasipoint(space, 0)
    for k in range(3):
        g = sp.germ_eval(hm.basis_vector(space, 3, k), beta0)
        assert np.array_equal(g, np.eye(3, dtype=complex)[k]) and not g.flags.writeable
    # an element supported away from the point has zero germ: some projection
    # in the filter at the point kills it
    a = hm.basis_vector(space, 2, 0) * ct.char_fn(space, [1])
    killer = ct.char_fn(space, [0])
    assert max_abs((a * killer).values) == 0.0
    assert np.array_equal(sp.germ_eval(a, beta0), np.zeros(2, dtype=complex))


def test_germ_equivalence_via_killing_projection():
    # two elements with equal germ at a point differ by something a central
    # projection of the filter annihilates
    space = ct.StoneSpace(2)
    beta0 = ct.CenterQuasipoint(space, 0)
    a = hm.ModuleElement(space, [[1, 2], [5, 6]])
    b = hm.ModuleElement(space, [[1, 2], [7, 8]])
    assert np.array_equal(sp.germ_eval(a, beta0), sp.germ_eval(b, beta0))
    p = ct.char_fn(space, [0])
    assert max_abs(((a - b) * p).values) == 0.0


def test_germ_inverse(tol):
    space = ct.StoneSpace(2)
    beta0 = ct.CenterQuasipoint(space, 0)
    alpha = ct.CenterElement(space, [1.0, 5.0])
    inv = sp.germ_inverse(alpha, beta0, tol)
    assert ct.gelfand_eval(alpha * inv, beta0) == 1.0
    with pytest.raises(ZeroDivisionError):
        sp.germ_inverse(ct.char_fn(space, [1]), beta0, tol)
    # |alpha| at beta lies above eps but below eps * sup|alpha|: one threshold,
    # eps, decides both that the germ is invertible and where to invert
    big = ct.CenterElement(space, [1e3, 5e-7])
    inv = sp.germ_inverse(big, ct.CenterQuasipoint(space, 1), tol)
    assert ct.gelfand_eval(big * inv, ct.CenterQuasipoint(space, 1)) == 1.0


def test_germ_linearity_exact(rng, tol):
    space = ct.StoneSpace(3)
    beta = ct.CenterQuasipoint(space, 2)
    for _ in range(50):
        a = hm.ModuleElement(space, rng.complex_normals(3, 3))
        b = hm.ModuleElement(space, rng.complex_normals(3, 3))
        alpha = ct.CenterElement(space, rng.complex_normals(3))
        assert np.array_equal(
            sp.germ_eval(a + b, beta),
            sp.germ_eval(a, beta) + sp.germ_eval(b, beta),
        )
        assert np.array_equal(
            sp.germ_eval(a * alpha, beta),
            ct.cmul(sp.germ_eval(a, beta), ct.gelfand_eval(alpha, beta)),
        )


def test_germ_submodule_examples(tol):
    space = ct.StoneSpace(2)
    beta = ct.CenterQuasipoint(space, 0)
    full = hm.Submodule(tuple(hm.basis_vector(space, 3, k) for k in range(3)))
    basis = sp.germ_submodule(full, beta, tol)
    assert basis.shape == (3, 3)
    line = hm.Submodule((hm.ModuleElement(space, [[1, 1, 0], [0, 0, 1]]),))
    g = sp.germ_submodule(line, beta, tol)
    assert g.shape == (3, 1)
    expected = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
    assert abs(abs(np.vdot(g[:, 0], expected)) - 1.0) <= 1e-12


def test_germ_intersection_lemma(rng, tol):
    # germ of the fiberwise meet equals the intersection of the germs,
    # checked against the stacked-null-space oracle
    for _ in range(60):
        m = rng.integer(1, 3)
        n = rng.integer(2, 4)
        space = ct.StoneSpace(m)
        beta = ct.CenterQuasipoint(space, rng.integer(0, m - 1))
        m1 = hm.Submodule(
            tuple(hm.ModuleElement(space, rng.complex_normals(m, n)) for _ in range(2))
        )
        m2 = hm.Submodule(
            tuple(hm.ModuleElement(space, rng.complex_normals(m, n)) for _ in range(2))
        )
        p1 = hm.module_projection(m1, tol)
        p2 = hm.module_projection(m2, tol)
        met = hm.submodule_from_projection(ma.fibered_meet(p1, p2, tol), tol)
        lhs = sp.germ_submodule(met, beta, tol)
        oracle = subspace_intersection_oracle(
            sp.germ_submodule(m1, beta, tol), sp.germ_submodule(m2, beta, tol)
        )
        assert lhs.shape[1] == oracle.shape[1]
        assert max_abs(lhs @ np.conj(lhs.T) - oracle @ np.conj(oracle.T)) <= 1e-8


def test_germ_submodule_nonzero_on_support(rng, tol):
    for _ in range(30):
        m = rng.integer(2, 4)
        n = rng.integer(2, 4)
        space = ct.StoneSpace(m)
        mask = ct.char_fn(space, [k for k in space if rng.uniform() < 0.6])
        gen = hm.ModuleElement(space, rng.complex_normals(m, n)) * mask
        sub = hm.Submodule((gen,))
        for k in space:
            beta = ct.CenterQuasipoint(space, k)
            g = sp.germ_submodule(sub, beta, tol)
            assert (g.shape[1] > 0) == (k in sub.support(tol))


def test_extend_filter_examples(tol):
    space = ct.StoneSpace(2)
    lat = lt.meet_closure([ma.identity(space, 2)])
    top_filter = lt.Filter(lat, {lat.one_index})
    b = sp.extend_filter_to_quasipoint(lat, top_filter, tol)
    assert sp.qp_contains(b, ma.identity(space, 2), tol)

    # principal filter of a one-line projection supported at the first point
    gen = ma.FiberedOperator(
        space,
        np.stack(
            [np.diag([1.0, 0.0]).astype(complex), np.zeros((2, 2), dtype=complex)]
        ),
    )
    lat2 = lt.meet_closure([gen])
    f = lt.Filter(lat2, lat2.up_set(index_of(lat2, gen)))
    b2 = sp.extend_filter_to_quasipoint(lat2, f, tol)
    assert b2 == sp.quasipoint(space, 0, [1, 0])

    with pytest.raises(EmptyFilter, match="^cannot extend an empty filter$"):
        sp.extend_filter_to_quasipoint(lat, lt.Filter(lat, set()), tol)
    # a member set holding zero has zero as its minimum, which fixes no line
    with_zero = lt.Filter(lat, {lat.zero_index, lat.one_index})
    with pytest.raises(EmptyFilter, match="^the filter contains the zero projection$"):
        sp.extend_filter_to_quasipoint(lat, with_zero, tol)


def test_extend_filter_random_lattice(rng, tol):
    space = ct.StoneSpace(2)
    n = 2
    for _ in range(20):
        rows1 = np.stack([unit(rng, n) for _ in space])
        rows2 = np.stack([unit(rng, n) for _ in space])
        if any(abs(np.vdot(rows1[k], rows2[k])) > 0.95 for k in space):
            continue
        gens = [
            ma.FiberedOperator(space, np.einsum("mi,mj->mij", r, np.conj(r)))
            for r in (rows1, rows2)
        ]
        lat = lt.meet_closure(gens, cap=64, tol=tol)
        for f in lt.enumerate_quasipoints(lat):
            b = sp.extend_filter_to_quasipoint(lat, f, tol)
            for idx in f.members:
                assert sp.qp_contains(b, ma.FiberedOperator(space, lat.nodes[idx]), tol)
            member = sp.line_projection(b)
            assert ma.is_abelian_projection(member, tol)
            assert sp.qp_contains(b, member, tol)


def test_common_central_reduction_examples(rng, tol):
    space = ct.StoneSpace(3)
    x = unit(rng, 2)
    b = sp.quasipoint(space, 0, x)
    rows = np.stack([x, unit(rng, 2), unit(rng, 2)])
    ea = hm.abelian_projection(hm.ModuleElement(space, rows), tol)
    r_same = sp.common_central_reduction(ea, ea, b, tol)
    assert np.array_equal(r_same.values, np.ones(3, dtype=complex))

    # same line only at the base point and at the third point
    other = unit(rng, 2)
    while abs(np.vdot(rows[1], other)) > 0.9:
        other = unit(rng, 2)
    rows_b = np.stack([x * np.exp(0.7j), other, rows[2] * np.exp(-1.1j)])
    eb = hm.abelian_projection(hm.ModuleElement(space, rows_b), tol)
    r = sp.common_central_reduction(ea, eb, b, tol)
    assert np.array_equal(r.values, np.array([1, 0, 1], dtype=complex))
    assert max_abs(((ea * r) - (eb * r)).values) <= 1e-9

    with pytest.raises(NotAbelian):
        sp.common_central_reduction(ma.identity(space, 2), ea, b, tol)
    misses = hm.abelian_projection(
        hm.ModuleElement(space, np.stack([other, other, other])), tol
    )
    with pytest.raises(NotMember):
        sp.common_central_reduction(ea, misses, b, tol)


def test_common_central_reduction_refuses_marginal_membership(tol):
    # one fiber: eb's line is x turned by 1.2e-9 toward y, so both lines fix x
    # within eps, but their projections differ there by more than eps
    space = ct.StoneSpace(1)
    x, y = np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)
    turned = np.cos(1.2e-9) * x + np.sin(1.2e-9) * y
    ea, eb = (ma.FiberedOperator(space, np.outer(v, v)[None]) for v in (x, turned))
    b = sp.quasipoint(space, 0, x)
    assert sp.qp_contains(b, ea, tol) and sp.qp_contains(b, eb, tol)
    with pytest.raises(NotMember, match="membership holds only marginally"):
        sp.common_central_reduction(ea, eb, b, tol)


def test_filter_and_quasipoint_reprs():
    space = ct.StoneSpace(1)
    lat = lt.meet_closure([ma.FiberedOperator(space, np.diag([1.0, 0.0])[None])])
    assert repr(lt.Filter(lat, {2, 1})) == "Filter([1, 2])"
    assert repr(sp.quasipoint(ct.StoneSpace(2), 1, [0, 1j])) == "Quasipoint(omega=1, line=[0j, 1j])"


def test_quasipoint_serialization():
    space = ct.StoneSpace(2)
    b = sp.quasipoint(space, 1, [0, 1])
    d = sp.quasipoint_to_dict(b)
    assert d == {"omega": 1, "line": [[0.0, 0.0], [1.0, 0.0]]}


def test_membership_is_a_filter(rng, tol):
    # 500 random projections against random quasipoints: membership is upward
    # closed and meet closed, and the witness settles every non-member
    for _ in range(500):
        m = rng.integer(1, 4)
        n = rng.integer(2, 4)
        space = ct.StoneSpace(m)
        b = sp.quasipoint(space, rng.integer(0, m - 1), unit(rng, n))
        p = ma.FiberedOperator(
            space, np.stack([rng.projection(n, rng.integer(0, n)) for _ in space])
        )
        q = ma.FiberedOperator(
            space, np.stack([rng.projection(n, rng.integer(0, n)) for _ in space])
        )
        in_p = sp.qp_contains(b, p, tol)
        in_q = sp.qp_contains(b, q, tol)
        met = ma.fibered_meet(p, q, tol)
        joined = ma.fibered_join(p, q, tol)
        if in_p and in_q:
            assert sp.qp_contains(b, met, tol)
        if in_p:
            assert sp.qp_contains(b, joined, tol)  # upward closure to p v q
        if not in_p:
            w = sp.line_projection(b)
            assert sp.qp_contains(b, w, tol)
            assert max_abs(ma.fibered_meet(p, w, tol).values[b.omega.omega]) <= 1e-7


@pytest.mark.parametrize("gap, same", [(0.5e-10, True), (2e-10, False)], ids=["inside", "outside"])
def test_same_line_boundary(gap, same):
    """Two unit lines are the same when their overlap is at least 1 - LINE_EQ_TOL."""
    space = ct.StoneSpace(1)
    c = 1.0 - gap
    b, b2 = sp.quasipoint(space, 0, [1.0, 0.0]), sp.quasipoint(space, 0, [c, np.sqrt(1.0 - c * c)])
    assert abs(abs(np.vdot(b.line, b2.line)) - c) < 1e-15
    assert b.same_line(b2) == same and (b == b2) == same


@pytest.mark.parametrize("above", [True, False], ids=["above-floor", "below-floor"])
def test_complete_to_unitary_norm_floor(above):
    """A basis vector seeds the next column only when its residual against
    the columns so far has norm above 1e-7. For x = (c, s, 0) the residual of
    e1 has norm about s: above the floor e1 seeds about (s, -1, 0), below it
    e1 is skipped and e2 seeds about (-s, 1, 0)."""
    s = 1e-7 * (1.0 + 1e-3 if above else 1.0 - 1e-3)
    x = np.array([np.sqrt(1.0 - s * s), s, 0.0], dtype=complex)
    u = sp.complete_to_unitary(x)
    assert max_abs(u.conj().T @ u - np.eye(3)) < 1e-12
    assert np.array_equal(u[:, 0], x) and np.array_equal(u[:, 2], [0, 0, 1])
    assert u[1, 1].real == pytest.approx(-1.0 if above else 1.0)
