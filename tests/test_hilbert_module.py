"""Module layer: inner products, norms, supports, normalization, line projections."""

import numpy as np
import pytest

from stonework import center as ct
from stonework import hilbert_module as hm

from stonework.errors import DimensionMismatch, NotNormalized
from stonework.numerics import max_abs


def partition_element(n):
    """One characteristic function per point, stacked as components."""
    space = ct.StoneSpace(n)
    return hm.from_components([ct.char_fn(space, [k]) for k in range(n)])


def test_inner_canonical_basis():
    space = ct.StoneSpace(2)
    for j in range(3):
        for k in range(3):
            g = hm.inner(hm.basis_vector(space, 3, j), hm.basis_vector(space, 3, k))
            expected = 1.0 if j == k else 0.0
            assert np.array_equal(g.values, np.full(2, expected, dtype=complex))


def test_inner_partition_orthogonality():
    a = partition_element(4)
    for j in range(4):
        for k in range(4):
            if j != k:
                g = hm.inner(
                    hm.ModuleElement(a.space, a.values[:, [j]]),
                    hm.ModuleElement(a.space, a.values[:, [k]]),
                )
                assert g.sup_norm() == 0.0


def test_inner_fiberwise_sum():
    space = ct.StoneSpace(2)
    a = hm.ModuleElement(space, [[1, 0], [0, 1]])
    b = hm.ModuleElement(space, [[2, 0], [0, 3]])
    assert np.array_equal(hm.inner(a, b).values, np.array([2.0, 3.0], dtype=complex))


def test_inner_sesquilinearity(rng):
    space = ct.StoneSpace(3)
    a = hm.ModuleElement(space, rng.complex_normals(3, 4))
    b = hm.ModuleElement(space, rng.complex_normals(3, 4))
    alpha = ct.CenterElement(space, rng.complex_normals(3))
    conj_sym = np.conj(hm.inner(a, b).values) - hm.inner(b, a).values
    assert max_abs(conj_sym) <= 1e-12
    lin = hm.inner(a, b * alpha).values - (hm.inner(a, b) * alpha).values
    assert max_abs(lin) <= 1e-12


def test_inner_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        hm.inner(
            hm.basis_vector(ct.StoneSpace(2), 2, 0),
            hm.basis_vector(ct.StoneSpace(2), 3, 0),
        )


def test_norm_examples():
    space = ct.StoneSpace(2)
    assert hm.module_norm(hm.basis_vector(space, 3, 1)) == 1.0
    assert hm.module_norm(hm.basis_vector(space, 3, 0) * 2.0) == 2.0


def test_pythagoras_failure_witness():
    # the partition element has norm one; the squared norms of its components
    # sum to the dimension
    for n in (2, 3, 4):
        a = partition_element(n)
        assert hm.module_norm(a) == 1.0
        total = sum(
            hm.module_norm(hm.ModuleElement(a.space, a.values[:, [k]])) ** 2 for k in range(n)
        )
        assert total == float(n)


def test_support_examples(tol):
    space = ct.StoneSpace(2)
    assert hm.support(hm.ModuleElement(space, np.zeros((2, 2))), tol) == frozenset()
    assert hm.support(hm.basis_vector(space, 2, 0), tol) == frozenset({0, 1})
    a = hm.basis_vector(space, 2, 0) * ct.char_fn(space, [0])
    assert hm.support(a, tol) == frozenset({0})


def test_normalize_fixed_points(tol):
    space = ct.StoneSpace(2)
    e1 = hm.basis_vector(space, 2, 0)
    assert np.array_equal(hm.normalize(e1, tol).values, e1.values)
    assert np.array_equal(hm.normalize(e1 * 2.0, tol).values, e1.values)


def test_normalize_fiberwise_division(tol):
    space = ct.StoneSpace(2)
    a = hm.ModuleElement(space, [[3, 0], [0, 4]])
    a_hat = hm.normalize(a, tol)
    assert np.array_equal(a_hat.values, np.array([[1, 0], [0, 1]], dtype=complex))


def test_normalize_gram_exact_and_idempotent(rng, tol):
    for _ in range(100):
        m = rng.integer(1, 4)
        n = rng.integer(2, 5)
        space = ct.StoneSpace(m)
        a = hm.ModuleElement(space, rng.complex_normals(m, n))
        a_hat = hm.normalize(a, tol)
        gram = hm.inner(a_hat, a_hat)
        assert gram.is_projection()
        again = hm.normalize(a_hat, tol)
        assert np.array_equal(again.values, a_hat.values)
        assert hm.support(a_hat, tol) == hm.support(a, tol)


def test_ket_bra_examples():
    space = ct.StoneSpace(2)
    e1 = hm.basis_vector(space, 3, 0)
    e2 = hm.basis_vector(space, 3, 1)
    op = hm.ket_bra(e1, e1)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    for k in range(2):
        assert np.array_equal(op.values[k], expected)
    assert hm.ket_bra(e1, e2).apply(e2).allclose(e1, 0.0)


def test_ket_bra_composition_law(rng):
    space = ct.StoneSpace(3)
    a, b, u, v = (hm.ModuleElement(space, rng.complex_normals(3, 4)) for _ in range(4))
    lhs = hm.ket_bra(b, a) @ hm.ket_bra(v, u)
    rhs = hm.ket_bra(b, u) * hm.inner(a, v)
    assert max_abs(lhs.values - rhs.values) <= 1e-9


def test_abelian_projection_examples(tol):
    space1 = ct.StoneSpace(1)
    e = hm.abelian_projection(hm.basis_vector(space1, 2, 0), tol)
    assert np.array_equal(e.values[0], np.diag([1.0, 0.0]).astype(complex))

    space2 = ct.StoneSpace(2)
    a = hm.from_components([ct.char_fn(space2, [0]), ct.char_fn(space2, [1])])
    e2 = hm.abelian_projection(a, tol)
    assert np.array_equal(e2.values[0], np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(e2.values[1], np.diag([0.0, 1.0]).astype(complex))


def test_abelian_projection_requires_normalization(tol):
    space = ct.StoneSpace(1)
    with pytest.raises(NotNormalized):
        hm.abelian_projection(hm.basis_vector(space, 2, 0) * 2.0, tol)


def test_projection_onto_line_is_unique(rng, tol):
    # any projection with the same range, built by an unrelated construction,
    # coincides with the line projection
    for _ in range(50):
        m = rng.integer(1, 3)
        n = rng.integer(2, 4)
        space = ct.StoneSpace(m)
        a = hm.normalize(hm.ModuleElement(space, rng.complex_normals(m, n)), tol)
        e = hm.abelian_projection(a, tol)
        alt = np.zeros_like(e.values)
        for k in range(m):
            v = a.values[k]
            nrm = np.vdot(v, v).real
            if nrm > 0:
                alt[k] = np.outer(v, np.conj(v)) / nrm
        assert max_abs(alt - e.values) <= 1e-9


def test_gram_projection_converse(rng, tol):
    # when (a|a) is not a projection, the ket-bra of a with itself cannot be one
    space = ct.StoneSpace(2)
    for _ in range(50):
        a = hm.ModuleElement(space, rng.complex_normals(2, 3))
        if hm.inner(a, a).projection_defect() <= 1e-3:
            continue
        assert not hm.ket_bra(a, a).is_projection(tol)


def test_abelian_projection_invariants(rng, tol):
    for _ in range(200):
        m = rng.integer(1, 4)
        n = rng.integer(2, 5)
        space = ct.StoneSpace(m)
        raw = hm.ModuleElement(space, rng.complex_normals(m, n))
        a = hm.normalize(raw, tol)
        e = hm.abelian_projection(a, tol)
        assert e.is_projection(tol)
        assert max_abs(e.apply(a).values - a.values) <= 1e-9
        # outer-product matrix identity at 1e-12
        formula = np.einsum("mi,mj->mij", a.values, np.conj(a.values))
        assert max_abs(formula - e.values) <= 1e-12
