"""Fibered operators: adjoints, carriers, abelian detection, transport."""

import numpy as np
import pytest

from stonework import center as ct
from stonework import hilbert_module as hm
from stonework import matrix_algebra as ma
from stonework.errors import (
    NotAbelian,
    NotPartialIsometry,
    NotProjection,
    NotSubordinate,
)
from stonework.numerics import max_abs


def rand_op(rng, space, n):
    return ma.FiberedOperator(space, rng.complex_normals(space.points, n, n))


def test_adjoint_hermitian_fixed(rng):
    space = ct.StoneSpace(2)
    h = ma.FiberedOperator(space, rng.hermitian(space.points, 3))
    assert ma.adjoint(h).allclose(h, 1e-12)


def test_adjoint_of_ket_bra():
    space = ct.StoneSpace(2)
    e1 = hm.basis_vector(space, 2, 0)
    e2 = hm.basis_vector(space, 2, 1)
    assert ma.adjoint(hm.ket_bra(e1, e2)).allclose(hm.ket_bra(e2, e1), 0.0)


def test_adjoint_pairing(rng):
    space = ct.StoneSpace(3)
    t = rand_op(rng, space, 4)
    for _ in range(20):
        a = hm.ModuleElement(space, rng.complex_normals(3, 4))
        b = hm.ModuleElement(space, rng.complex_normals(3, 4))
        lhs = hm.inner(t.apply(a), b)
        rhs = hm.inner(a, ma.adjoint(t).apply(b))
        assert max_abs(lhs.values - rhs.values) <= 1e-9


def test_star_law(rng):
    space = ct.StoneSpace(2)
    s = rand_op(rng, space, 3)
    t = rand_op(rng, space, 3)
    assert ma.adjoint(s @ t).allclose(ma.adjoint(t) @ ma.adjoint(s), 1e-12)


def test_central_carrier_examples(rng, tol):
    space = ct.StoneSpace(2)
    assert np.array_equal(
        ma.central_carrier(ma.identity(space, 3), tol).values, np.ones(2, dtype=complex)
    )
    fibers = np.zeros((2, 2, 2), dtype=complex)
    fibers[0] = np.diag([1.0, 0.0])
    p = ma.FiberedOperator(space, fibers)
    assert np.array_equal(ma.central_carrier(p, tol).values, np.array([1, 0], dtype=complex))
    with pytest.raises(NotProjection):
        ma.central_carrier(rand_op(rng, space, 2), tol)


def test_carrier_of_line_projection(rng, tol):
    for _ in range(100):
        m = rng.integer(1, 4)
        n = rng.integer(2, 5)
        space = ct.StoneSpace(m)
        a = hm.normalize(hm.ModuleElement(space, rng.complex_normals(m, n)), tol)
        e = hm.abelian_projection(a, tol)
        assert np.array_equal(
            ma.central_carrier(e, tol).values, hm.inner(a, a).values
        )


def test_is_abelian_projection_examples(rng, tol):
    space1 = ct.StoneSpace(1)
    e = hm.abelian_projection(hm.basis_vector(space1, 2, 0), tol)
    assert ma.is_abelian_projection(e, tol)
    assert not ma.is_abelian_projection(ma.identity(space1, 2), tol)

    space2 = ct.StoneSpace(2)
    fibers = np.zeros((2, 2, 2), dtype=complex)
    fibers[0] = np.diag([1.0, 0.0])
    fibers[1] = np.eye(2)
    mixed = ma.FiberedOperator(space2, fibers)
    assert not ma.is_abelian_projection(mixed, tol)


def test_abelian_generator_examples(tol):
    space = ct.StoneSpace(1)
    p = ma.FiberedOperator(space, [np.diag([1.0, 0.0]).astype(complex)])
    g = ma.abelian_generator(p, tol)
    assert max_abs(g.values[0] - np.array([1.0, 0.0])) <= 1e-12

    half = ma.FiberedOperator(space, [np.full((2, 2), 0.5, dtype=complex)])
    g2 = ma.abelian_generator(half, tol)
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert max_abs(g2.values[0] - expected) <= 1e-9
    # phase convention: first sizeable component is real positive
    assert g2.values[0, 0].imag == 0.0 and g2.values[0, 0].real > 0


def test_abelian_generator_round_trip(rng, tol):
    for _ in range(50):
        m = rng.integer(1, 4)
        n = rng.integer(2, 5)
        space = ct.StoneSpace(m)
        a = hm.normalize(hm.ModuleElement(space, rng.complex_normals(m, n)), tol)
        e = hm.abelian_projection(a, tol)
        g = ma.abelian_generator(e, tol)
        rebuilt = hm.abelian_projection(g, tol)
        assert rebuilt.allclose(e, 1e-9)
        assert np.array_equal(hm.inner(g, g).values, ma.central_carrier(e, tol).values)
    with pytest.raises(NotAbelian):
        ma.abelian_generator(ma.identity(ct.StoneSpace(1), 2), tol)


def test_diagonal_sum_examples(tol):
    space = ct.StoneSpace(2)
    all_one = ma.diagonal_sum_projection([ct.unit(space), ct.unit(space)])
    assert all_one.allclose(ma.identity(space, 2), 0.0)

    op = ma.diagonal_sum_projection([ct.char_fn(space, [0]), ct.zero(space)])
    assert op.is_projection(tol)
    assert np.array_equal(ma.central_carrier(op, tol).values, np.array([1, 0], dtype=complex))

    bad = ma.diagonal_sum_projection(
        [ct.CenterElement(space, [0.5, 1.0]), ct.unit(space)]
    )
    assert not bad.is_projection(tol)


def test_diagonal_sum_matches_scaled_generators(rng, tol):
    # sum of coefficient-scaled canonical line projections equals the diagonal
    space = ct.StoneSpace(3)
    n = 3
    coeffs = [
        ct.char_fn(space, [k for k in space if rng.uniform() < 0.5]) for _ in range(n)
    ]
    diag = ma.diagonal_sum_projection(coeffs)
    total = ma.zero_operator(space, n)
    for k, c in enumerate(coeffs):
        scaled = hm.basis_vector(space, n, k) * c
        total = total + hm.ket_bra(scaled, scaled)
    assert diag.allclose(total, 1e-12)
    joined = np.maximum.reduce([c.values.real for c in coeffs])
    assert np.array_equal(ma.central_carrier(diag, tol).values.real, joined)


def test_transport_hand_example(tol):
    space = ct.StoneSpace(1)
    e1 = hm.basis_vector(space, 2, 0)
    e2 = hm.basis_vector(space, 2, 1)
    theta = hm.ket_bra(e2, e1)  # maps the first line onto the second
    p1 = hm.abelian_projection(e1, tol)
    moved = ma.transport(theta, p1, tol)
    assert moved.allclose(hm.abelian_projection(e2, tol), 1e-12)
    # initial-to-final projection
    initial = ma.adjoint(theta) @ theta
    final = theta @ ma.adjoint(theta)
    assert ma.transport(theta, initial, tol).allclose(final, 1e-12)


def test_transport_unitary_preserves_ranks(rng, tol):
    space = ct.StoneSpace(2)
    n = 3
    u = ma.FiberedOperator(space, rng.unitary(space.points, n))
    p = ma.FiberedOperator(space, np.stack([rng.projection(n, 2) for _ in space]))
    moved = ma.transport(u, p, tol)
    assert ma.fiber_ranks(moved) == ma.fiber_ranks(p)


def test_transport_errors(rng, tol):
    space = ct.StoneSpace(1)
    e1 = hm.basis_vector(space, 2, 0)
    e2 = hm.basis_vector(space, 2, 1)
    theta = hm.ket_bra(e2, e1)
    with pytest.raises(NotSubordinate):
        ma.transport(theta, ma.identity(space, 2), tol)
    with pytest.raises(NotPartialIsometry):
        ma.transport(rand_op(rng, space, 2) * 0.7, ma.identity(space, 2), tol)


def test_transport_respects_meets(rng, tol):
    for _ in range(20):
        space = ct.StoneSpace(2)
        n = 4
        e = ma.FiberedOperator(space, np.stack([rng.projection(n, 3) for _ in space]))
        u = ma.FiberedOperator(space, rng.unitary(space.points, n))
        theta = u @ e
        subs = []
        for _ in range(2):
            fibers = np.zeros((2, n, n), dtype=complex)
            for k in space:
                from stonework.numerics import range_basis

                basis = range_basis(e.values[k], tol)
                keep = [j for j in range(basis.shape[1]) if rng.uniform() < 0.7]
                if keep:
                    picked = basis[:, keep]
                    fibers[k] = picked @ np.conj(picked.T)
            subs.append(ma.FiberedOperator(space, fibers))
        p, q = subs
        lhs = ma.transport(theta, ma.fibered_meet(p, q, tol), tol)
        rhs = ma.fibered_meet(
            ma.transport(theta, p, tol), ma.transport(theta, q, tol), tol
        )
        assert lhs.allclose(rhs, 1e-8)


def test_meet_of_abelian_projections_is_abelian(rng, tol):
    for _ in range(25):
        m = rng.integer(1, 3)
        n = rng.integer(2, 4)
        space = ct.StoneSpace(m)
        a = hm.normalize(hm.ModuleElement(space, rng.complex_normals(m, n)), tol)
        b = hm.normalize(hm.ModuleElement(space, rng.complex_normals(m, n)), tol)
        met = ma.fibered_meet(
            hm.abelian_projection(a, tol), hm.abelian_projection(b, tol), tol
        )
        assert ma.is_abelian_projection(met, tol)


def test_central_operator_and_mul():
    space = ct.StoneSpace(2)
    g = ct.CenterElement(space, [2.0, 3.0])
    op = ma.central_operator(g, 2)
    assert np.array_equal(op.values[0], 2.0 * np.eye(2))
    assert np.array_equal(op.values[1], 3.0 * np.eye(2))
    scaled = ma.identity(space, 2) * g
    assert scaled.allclose(op, 0.0)
