"""Projection geometry kernel: meets, joins, rank policy."""

import numpy as np
import pytest

from conftest import stacked_join
from stonework import center as ct
from stonework import matrix_algebra as ma
from stonework.errors import NotProjection
from stonework.numerics import (
    Tolerance,
    is_projection,
    max_abs,
    stacked_meet,
)


def line_projector(v):
    v = np.asarray(v, dtype=complex)
    return np.outer(v, np.conj(v)) / np.vdot(v, v).real


def joint_fixed_space_dim(p, q, eps=1e-9):
    """Oracle for the meet: dimension of {v : Pv = v and Qv = v}, found from
    the null space of the stacked system [(I-P); (I-Q)]."""
    n = p.shape[0]
    stacked = np.vstack([np.eye(n) - p, np.eye(n) - q])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(s <= eps * max(1.0, s[0])))


def test_tolerance_guard():
    with pytest.raises(ValueError):
        Tolerance(1e-2)
    Tolerance(0.0)


def test_is_projection_examples():
    assert is_projection(np.zeros((3, 3), dtype=complex))
    # idempotent Hermitian by hand: [[.5,.5],[.5,.5]]^2 = itself
    half = np.full((2, 2), 0.5, dtype=complex)
    assert is_projection(half)
    assert not is_projection(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_is_projection_rejects_non_square():
    # no square matrix, so no projection, whatever its entries
    assert is_projection(np.zeros((2, 3))) is False
    assert is_projection(np.zeros((4, 2, 3), dtype=complex)) is False


def test_empty_stack_is_a_projection():
    # no entries: the largest magnitude is 0, so every check passes
    assert max_abs(np.empty((0, 2, 2), dtype=complex)) == 0.0
    assert is_projection(np.empty((0, 2, 2), dtype=complex))


def test_meet_idempotent_and_orthogonal_lines():
    p = line_projector([1, 0])
    q = line_projector([0, 1])
    assert max_abs(stacked_meet(p, p) - p) <= 1e-12
    assert max_abs(stacked_meet(p, q)) <= 1e-12


def test_meet_of_distinct_lines_is_zero():
    p = line_projector([1, 1])
    q = line_projector([1, 0])
    assert joint_fixed_space_dim(p, q) == 0  # oracle agrees
    assert max_abs(stacked_meet(p, q)) <= 1e-9


def test_meet_rejects_non_projection():
    # the stacked kernel does not check its operands; the fibered meet does
    space = ct.StoneSpace(1)
    half = ma.FiberedOperator(space, [[[0.5, 0.0], [0.0, 1.0]]])
    with pytest.raises(NotProjection):
        ma.fibered_meet(half, ma.identity(space, 2))


def test_join_examples(rng):
    q = line_projector([0, 1])
    assert max_abs(stacked_join(np.zeros((2, 2), dtype=complex), q) - q) <= 1e-12
    p = line_projector([1, 0])
    assert max_abs(stacked_join(p, q) - np.eye(2)) <= 1e-9
    # two random rank-1 projections in C^3 join to rank 2
    for _ in range(20):
        a = rng.projection(3, 1)
        b = rng.projection(3, 1)
        j = stacked_join(a, b)
        assert is_projection(j, Tolerance(1e-8))
        assert np.linalg.matrix_rank(j, tol=0.5) == 2


def test_meet_is_greatest_lower_bound(rng, tol):
    # R <= P, R <= Q, and any projection below both is below the meet
    for _ in range(200):
        n = rng.integer(2, 6)
        p = rng.projection(n, rng.integer(1, n))
        q = rng.projection(n, rng.integer(1, n))
        r = stacked_meet(p, q, tol)
        assert is_projection(r, Tolerance(1e-7))
        assert max_abs(r @ p - r) <= 1e-8
        assert max_abs(r @ q - r) <= 1e-8
        k = np.linalg.matrix_rank(r, tol=0.5)  # r is a projection: its eigenvalues near 0 or 1
        assert joint_fixed_space_dim(p, q) == k
        # sub-range lower bound: compress the meet to a random subspace of it
        if k:
            w, v = np.linalg.eigh(r)
            sub = v[:, -1:]  # a line inside the meet
            low = sub @ np.conj(sub.T)
            assert max_abs(low @ r - low) <= 1e-8


def test_meet_join_unitary_compatibility(rng, tol):
    for _ in range(50):
        n = rng.integer(2, 5)
        p = rng.projection(n, rng.integer(0, n))
        q = rng.projection(n, rng.integer(0, n))
        u = rng.unitary(n)
        conj = lambda x: u @ x @ np.conj(u.T)
        assert max_abs(conj(stacked_meet(p, q, tol)) - stacked_meet(conj(p), conj(q), tol)) <= 1e-8
        assert max_abs(conj(stacked_join(p, q, tol)) - stacked_join(conj(p), conj(q), tol)) <= 1e-8


def test_de_morgan(rng, tol):
    for _ in range(50):
        n = rng.integer(2, 5)
        p = rng.projection(n, rng.integer(0, n))
        q = rng.projection(n, rng.integer(0, n))
        eye = np.eye(n, dtype=complex)
        lhs = stacked_join(p, q, tol)
        rhs = eye - stacked_meet(eye - p, eye - q, tol)
        assert max_abs(lhs - rhs) <= 1e-6
