"""Spectral families and observable functions of self-adjoint fibered operators."""

import math

import numpy as np
import pytest

from stonework import center as ct
from stonework import matrix_algebra as ma
from stonework import observables as ob
from stonework import spectrum as sp
from stonework.errors import DimensionMismatch, NotSelfAdjoint
from stonework.numerics import max_abs


def op_from_fibers(*fibers):
    arr = np.stack([np.asarray(f, dtype=complex) for f in fibers])
    return ma.FiberedOperator(ct.StoneSpace(len(fibers)), arr)


def test_spectral_family_zero():
    family = ob.spectral_family(op_from_fibers(np.zeros((2, 2))))
    assert family.values[0].tolist() == [0.0]
    assert np.array_equal(family.cumulative[0][0], np.eye(2, dtype=complex))


def test_spectral_family_diagonal():
    family = ob.spectral_family(op_from_fibers(np.diag([1.0, 2.0])))
    assert family.values[0].tolist() == [1.0, 2.0]
    assert np.array_equal(family.cumulative[0][0], np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(family.cumulative[0][1], np.eye(2, dtype=complex))


def test_spectral_family_monotone_and_top():
    a = op_from_fibers(np.diag([3.0, 1.0, 2.0]), np.diag([5.0, 5.0, 0.0]))
    family = ob.spectral_family(a)
    for k in range(2):
        cums = family.cumulative[k]
        assert np.array_equal(cums[-1], np.eye(3, dtype=complex))
        for i in range(len(cums) - 1):
            prod = cums[i] @ cums[i + 1]
            assert max_abs(prod - cums[i]) <= 1e-9


def test_spectral_family_reconstruction(rng, tol):
    # A = integral of lambda dE_lambda: each fiber is the sum of its step
    # values times the jumps of its cumulative projections
    for _ in range(50):
        m = rng.integer(1, 4)
        n = rng.integer(2, 5)
        space = ct.StoneSpace(m)
        a = ma.FiberedOperator(space, rng.hermitian(space.points, n))
        family = ob.spectral_family(a, tol)
        for k, (values, steps) in enumerate(zip(family.values, family.cumulative)):
            jumps = np.diff(steps, axis=0, prepend=0.0)  # the first step starts at zero
            assert max_abs(np.einsum("r,rij->ij", values, jumps) - a.values[k]) <= 1e-8


def test_spectral_family_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        ob.spectral_family(op_from_fibers([[0, 1], [0, 0]]))


def test_observable_values_two_level():
    a = op_from_fibers(np.diag([1.0, 2.0]))
    space = ct.StoneSpace(1)
    inv = 1 / math.sqrt(2)
    assert ob.observable_value(a, sp.quasipoint(space, 0, [1, 0])) == 1.0
    assert ob.observable_value(a, sp.quasipoint(space, 0, [0, 1])) == 2.0
    assert ob.observable_value(a, sp.quasipoint(space, 0, [inv, inv])) == 2.0


def test_observable_value_rejects_mismatched_quasipoint():
    a = op_from_fibers(np.diag([1.0, 2.0]))
    family = ob.spectral_family(a)
    other_space = sp.quasipoint(ct.StoneSpace(2), 0, [1, 0])
    other_n = sp.quasipoint(ct.StoneSpace(1), 0, [1, 0, 0])
    for b in (other_space, other_n):
        with pytest.raises(DimensionMismatch):
            ob.observable_value(a, b)
    line = np.array([[1, 0]], dtype=complex)
    for omega, lines in (
        ([0], np.array([[1, 0, 0]], dtype=complex)),  # another n
        ([0, 0], np.repeat(line, 3, axis=0)),  # more lines than base points
        ([0, -1], np.repeat(line, 2, axis=0)),  # base points outside 0..m-1
        ([0, 1], np.repeat(line, 2, axis=0)),
    ):
        with pytest.raises(DimensionMismatch):
            ob.observable_values(family, np.array(omega), lines)


def test_observable_central_evaluation():
    # a central operator evaluates through the center map, any line
    space = ct.StoneSpace(2)
    g = ct.CenterElement(space, [3.0, 7.0])
    a = ma.central_operator(g, 3)
    b = sp.quasipoint(space, 1, [1, 1, 0])
    assert ob.observable_value(a, b) == 7.0
    assert ob.observable_value(a, sp.quasipoint(space, 0, [0, 0, 1])) == 3.0


def test_observable_image_constant():
    a = ma.central_operator(ct.unit(ct.StoneSpace(2)) * 4.0, 2)
    family = ob.spectral_family(a)
    assert set(ob.observable_values(family, *ob.eigenline_quasipoints(family)).tolist()) == {4.0}


def test_observable_image_equals_spectrum_on_eigenlines(rng, tol):
    for _ in range(30):
        m = rng.integer(1, 3)
        n = rng.integer(2, 4)
        space = ct.StoneSpace(m)
        a = ma.FiberedOperator(space, rng.hermitian(space.points, n))
        family = ob.spectral_family(a, tol)
        image = ob.observable_values(family, *ob.eigenline_quasipoints(family), tol)
        spectrum = ob.spectrum_values(a, tol)
        assert all(min(abs(v - s) for s in spectrum) <= 1e-8 for v in image)
        assert all(min(abs(v - s) for v in image) <= 1e-7 for s in spectrum)


def test_observable_image_in_spectrum_random_lines(rng, tol):
    for _ in range(200):
        m = rng.integer(1, 4)
        n = rng.integer(2, 5)
        space = ct.StoneSpace(m)
        a = ma.FiberedOperator(space, rng.hermitian(space.points, n))
        v = rng.complex_normals(n)
        b = sp.quasipoint(space, rng.integer(0, m - 1), v / np.linalg.norm(v))
        value = ob.observable_value(a, b, tol)
        spectrum = np.linalg.eigvalsh(a.values[b.omega.omega])
        assert float(np.min(np.abs(spectrum - value))) <= 1e-8


def test_shift_by_central_constant(rng, tol):
    space = ct.StoneSpace(2)
    a = ma.FiberedOperator(space, rng.hermitian(space.points, 3))
    b = sp.quasipoint(space, 0, [1, 0, 0])
    c = 2.5
    shifted = a + ma.central_operator(ct.unit(space) * c, 3)
    assert abs(ob.observable_value(shifted, b, tol) - ob.observable_value(a, b, tol) - c) <= 1e-9


def test_unitary_equivariance(rng, tol):
    space = ct.StoneSpace(2)
    for _ in range(30):
        a = ma.FiberedOperator(space, rng.hermitian(space.points, 3))
        u = ma.FiberedOperator(space, rng.unitary(space.points, 3))
        v = rng.complex_normals(3)
        b = sp.quasipoint(space, rng.integer(0, 1), v / np.linalg.norm(v))
        conj = u @ a @ ma.adjoint(u)
        lhs = ob.observable_value(conj, sp.unitary_act(u, b, tol), tol)
        assert abs(lhs - ob.observable_value(a, b, tol)) <= 1e-9


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-4])
@pytest.mark.parametrize("above", [False, True], ids=["gap-below", "gap-above"])
def test_cluster_rtol_boundary(eps, above):
    """Eigenvalues less than CLUSTER_RTOL * max(1, scale) = 1e-7 apart share
    one step of the spectral family at every eps: diag(0, g) has one step for
    g just below 1e-7 and two for g just above."""
    from stonework.numerics import Tolerance

    g = 1e-7 * (1.0 + 1e-6 if above else 1.0 - 1e-6)
    family = ob.spectral_family(op_from_fibers(np.diag([0.0, g])), Tolerance(eps))
    assert family.values[0].tolist() == ([0.0, g] if above else [0.5 * g])
