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

from .errors import DimensionMismatch, NotSelfAdjoint
from .hilbert_module import _unitize
from .matrix_algebra import FiberedOperator
from .numerics import DEFAULT_TOL, Tolerance, cluster_eigenvalues, hermitize, max_abs
from .spectrum import Quasipoint, quasipoint


@dataclass
class SpectralFamily:
    """Ascending cluster values and cumulative spectral projections (steps)
    of all fibers, fiber after fiber in one flat stack: fiber k owns the steps
    ``first[k]`` up to ``first[k + 1]`` (the stack's end for the last fiber)."""

    operator: FiberedOperator
    flat_values: np.ndarray  # shape (steps,)
    flat_steps: np.ndarray   # shape (steps, n, n)
    first: np.ndarray        # shape (m,)

    @property
    def values(self) -> list[np.ndarray]:
        """Per fiber, shape (r_k,)."""
        return np.split(self.flat_values, self.first[1:])

    @property
    def cumulative(self) -> list[np.ndarray]:
        """Per fiber, shape (r_k, n, n)."""
        return np.split(self.flat_steps, self.first[1:])

    def reconstruct(self) -> FiberedOperator:
        """Rebuild the operator from its steps."""
        jumps = np.diff(self.flat_steps, axis=0, prepend=0.0)
        jumps[self.first] = self.flat_steps[self.first]  # a fiber's first step starts at zero
        terms = self.flat_values[:, None, None] * jumps
        return FiberedOperator(self.operator.space, np.add.reduceat(terms, self.first))


def require_self_adjoint(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL):
    dev = max_abs(a.values - np.conj(np.swapaxes(a.values, 1, 2)))
    if dev > tol.eps:
        raise NotSelfAdjoint(f"operator deviates from self-adjointness by {dev:.3e}")


def spectral_family(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> SpectralFamily:
    """Eigenvalue steps per fiber, clustered at the shared relative tolerance.

    The top cumulative projection is the identity fiber exactly.
    """
    require_self_adjoint(a, tol)
    w, vecs = np.linalg.eigh(hermitize(a.values))
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
    return SpectralFamily(a, means[last], steps, slot[:, -1] + 1 - last.sum(axis=1))


def observable_value(
    a: FiberedOperator, b: Quasipoint, tol: Tolerance = DEFAULT_TOL
) -> float:
    """inf of the eigenvalues whose cumulative projection contains the quasipoint."""
    return float(observable_values(spectral_family(a, tol), [b], tol)[0])


def observable_values(
    family: SpectralFamily, sample: list[Quasipoint], tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The observable function at each quasipoint of the sample: the value of
    the lowest step of its fiber whose projection fixes its line within eps."""
    a, total = family.operator, len(family.flat_values)
    if any(b.space != a.space or b.n != a.n for b in sample):
        raise DimensionMismatch("quasipoint does not match the operator's shape")
    lines = np.array([b.line for b in sample], dtype=np.complex128).reshape(-1, a.n)
    start = family.first[[b.omega.omega for b in sample]]
    # each quasipoint's steps in rank order; an index past its fiber's top
    # step, the identity, which fixes every line, is never the first to fix
    steps = np.minimum(start[:, None] + np.arange(a.n), total - 1)
    out = np.empty(len(sample))
    block = max(1, total // a.n)  # temporaries no larger than the family's steps
    for s in range(0, len(sample), block):
        x, idx = lines[s : s + block], steps[s : s + block]
        residual = (family.flat_steps[idx] @ x[:, None, :, None])[..., 0] - x[:, None]
        rank = (np.abs(residual).max(axis=-1) <= tol.eps).argmax(axis=1)
        out[s : s + block] = family.flat_values[idx[np.arange(len(idx)), rank]]
    return out


def observable_image(
    a: FiberedOperator, sample: list[Quasipoint], tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """Sorted observable values over a sample of quasipoints."""
    return sorted(set(observable_values(spectral_family(a, tol), sample, tol).tolist()))


def eigenline_quasipoints(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> list[Quasipoint]:
    """One quasipoint per fiber eigenvector; exhausts the observable image."""
    require_self_adjoint(a, tol)
    _, vecs = np.linalg.eigh(hermitize(a.values))
    lines = _unitize(np.swapaxes(vecs, 1, 2))  # lines[k, j]: eigenvector j of fiber k
    return [quasipoint(a.space, k, line) for k in a.space for line in lines[k]]


def spectrum_values(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """All fiber eigenvalues of a self-adjoint operator, ascending."""
    require_self_adjoint(a, tol)
    return np.sort(np.linalg.eigvalsh(hermitize(a.values)).ravel())
