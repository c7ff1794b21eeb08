"""Spectral families of self-adjoint fibered operators and observable functions.

A spectral family holds, per fiber, the ascending distinct eigenvalue clusters
with their cumulative spectral projections (right-continuous step data: the
step at an eigenvalue includes it). The observable function of a self-adjoint
operator assigns to a quasipoint the smallest eigenvalue whose cumulative
projection already fixes the quasipoint's line; its values sit inside the
union of the fiber spectra, and on central operators it degenerates to plain
evaluation at the base point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotSelfAdjoint
from .hilbert_module import _unitize
from .matrix_algebra import FiberedOperator
from .numerics import DEFAULT_TOL, Tolerance, cluster_eigenvalues, hermitize, max_abs
from .spectrum import Quasipoint, _check_point


@dataclass
class SpectralFamily:
    """Ascending cluster values and cumulative spectral projections (steps)
    of all fibers, fiber after fiber in one flat stack: fiber k owns the steps
    ``first[k]`` up to ``first[k + 1]`` (the stack's end for the last fiber).
    ``vectors`` are the eigenvectors the steps were built from."""

    operator: FiberedOperator
    flat_values: np.ndarray  # shape (steps,)
    flat_steps: np.ndarray   # shape (steps, n, n)
    first: np.ndarray        # shape (m,)
    vectors: np.ndarray      # shape (m, n, n): columns in ascending eigenvalue order


def require_self_adjoint(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL):
    dev = max_abs(a.values - np.conj(np.swapaxes(a.values, 1, 2)))
    if dev > tol.eps:
        raise NotSelfAdjoint(f"operator deviates from self-adjointness by {dev:.3e}")


def spectral_family(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> SpectralFamily:
    """Eigenvalue steps per fiber, clustered at the shared relative tolerance.

    The top cumulative projection is the identity fiber exactly. NoConvergence
    when an eigenvalue is not finite, as when the operator's entries overflow.
    """
    require_self_adjoint(a, tol)
    w, vecs = np.linalg.eigh(hermitize(a.values))
    if not np.isfinite(w).all():
        raise NoConvergence("operator eigenvalues are not finite in float64")
    last, means = cluster_eigenvalues(w, a.norm_max())
    # the steps of all fibers, fiber after fiber, in one stack; slot[k, e] is
    # the row of the step that ends at eigenvalue e of fiber k
    slot = np.cumsum(last.ravel()).reshape(last.shape) - 1
    steps = np.empty((slot[-1, -1] + 1, a.n, a.n), dtype=np.complex128)
    steps[slot[:, -1]] = np.eye(a.n)
    for e in range(1, a.n):
        ends = last[:, e - 1]
        block = vecs[ends][..., :e]
        steps[slot[ends, e - 1]] = hermitize(block @ np.conj(np.swapaxes(block, -1, -2)))
    return SpectralFamily(a, means[last], steps, slot[:, -1] + 1 - last.sum(axis=1), vecs)


def observable_value(a: FiberedOperator, b: Quasipoint, tol: Tolerance = DEFAULT_TOL) -> float:
    """inf of the eigenvalues whose cumulative projection contains the quasipoint."""
    _check_point(b, a)
    return float(observable_values(spectral_family(a, tol), np.array([b.omega.omega]), b.line[None], tol)[0])


def observable_values(
    family: SpectralFamily, omega: np.ndarray, lines: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The observable function at each quasipoint (omega[i], lines[i]): the value
    of the lowest step of its fiber whose projection fixes its line within eps."""
    a, total = family.operator, len(family.flat_values)
    if lines.shape != (len(omega), a.n) or not np.all((omega >= 0) & (omega < a.space.points)):
        raise DimensionMismatch("quasipoint sample does not match the operator's shape")
    # each quasipoint's steps in rank order; an index past its fiber's top
    # step, the identity, which fixes every line, is never the first to fix
    steps = np.minimum(family.first[omega][:, None] + np.arange(a.n), total - 1)
    out = np.empty(len(omega))
    block = max(1, total // a.n)  # temporaries no larger than the family's steps
    for s in range(0, len(omega), block):
        x, idx = lines[s : s + block], steps[s : s + block]
        residual = (family.flat_steps[idx] @ x[:, None, :, None])[..., 0] - x[:, None]
        rank = (np.abs(residual).max(axis=-1) <= tol.eps).argmax(axis=1)
        out[s : s + block] = family.flat_values[idx[np.arange(len(idx)), rank]]
    return out


def eigenline_quasipoints(family: SpectralFamily) -> tuple:
    """Base points (N,) and read-only exact-unit lines (N, n) of the family's
    eigenvectors: row k*n + j is eigenvector j of fiber k."""
    a = family.operator
    lines = _unitize(np.swapaxes(family.vectors, 1, 2)).reshape(-1, a.n)
    lines.setflags(write=False)
    return np.repeat(np.arange(a.space.points), a.n), lines


def spectrum_values(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """All fiber eigenvalues of a self-adjoint operator, ascending."""
    require_self_adjoint(a, tol)
    return np.sort(np.linalg.eigvalsh(hermitize(a.values)).ravel())
