"""Spectral families and observable functions of self-adjoint fibered operators."""

import numpy as np
import pytest

from conftest import fiber_steps
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
    values, steps = fiber_steps(ob.spectral_family(op_from_fibers(np.zeros((2, 2)))))
    assert values[0].tolist() == [0.0]
    assert np.array_equal(steps[0][0], np.eye(2, dtype=complex))


def test_spectral_family_diagonal():
    values, steps = fiber_steps(ob.spectral_family(op_from_fibers(np.diag([1.0, 2.0]))))
    assert values[0].tolist() == [1.0, 2.0]
    assert np.array_equal(steps[0][0], np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(steps[0][1], np.eye(2, dtype=complex))


def test_spectral_family_monotone_and_top():
    a = op_from_fibers(np.diag([3.0, 1.0, 2.0]), np.diag([5.0, 5.0, 0.0]))
    _, steps = fiber_steps(ob.spectral_family(a))
    for k in range(2):
        cums = steps[k]
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
        for k, (values, steps) in enumerate(zip(*fiber_steps(family))):
            jumps = np.diff(steps, axis=0, prepend=0.0)  # the first step starts at zero
            assert max_abs(np.einsum("r,rij->ij", values, jumps) - a.values[k]) <= 1e-8


def test_spectral_family_rejects_non_self_adjoint():
    with pytest.raises(NotSelfAdjoint):
        ob.spectral_family(op_from_fibers([[0, 1], [0, 0]]))


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


def test_unitary_act_moves_the_line_with_the_operator():
    # at the eigenline e1 of diag(1, 2, 3) the value is 1, not the top
    # eigenvalue: a unitary_act that left the line in place would read 3
    a = op_from_fibers(np.diag([1.0, 2.0, 3.0]))
    u = op_from_fibers(np.roll(np.eye(3), 1, axis=0))  # e1 -> e2 -> e3 -> e1
    b = sp.quasipoint(a.space, 0, [1, 0, 0])
    moved = sp.unitary_act(u, b)
    assert np.array_equal(moved.line, np.array([0, 1, 0], dtype=complex))
    assert ob.observable_value(a, b) == 1.0
    assert ob.observable_value(u @ a @ ma.adjoint(u), moved) == 1.0


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


@pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-9, 1e-4])
@pytest.mark.parametrize("above", [False, True], ids=["gap-below", "gap-above"])
def test_cluster_rtol_boundary(eps, above):
    """Eigenvalues less than CLUSTER_RTOL * max(1, scale) = 1e-7 apart share
    one step of the spectral family at every eps: diag(0, g) has one step for
    g just below 1e-7 and two for g just above."""
    from stonework.numerics import Tolerance

    g = 1e-7 * (1.0 + 1e-6 if above else 1.0 - 1e-6)
    family = ob.spectral_family(op_from_fibers(np.diag([0.0, g])), Tolerance(eps))
    assert fiber_steps(family)[0][0].tolist() == ([0.0, g] if above else [0.5 * g])
