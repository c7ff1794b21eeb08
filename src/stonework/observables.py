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
from .matrix_algebra import FiberedOperator
from .numerics import DEFAULT_TOL, Tolerance, cluster_eigenvalues, hermitize, max_abs
from .spectrum import Quasipoint, quasipoint


@dataclass
class SpectralFamily:
    """Per fiber: ascending cluster values and cumulative spectral projections."""

    operator: FiberedOperator
    values: list[np.ndarray]       # per fiber, shape (r_k,)
    cumulative: list[np.ndarray]   # per fiber, shape (r_k, n, n)

    @property
    def space(self):
        return self.operator.space

    @property
    def n(self):
        return self.operator.n

    def steps(self, omega: int):
        return list(zip(self.values[omega], self.cumulative[omega]))

    def reconstruct(self) -> FiberedOperator:
        """Rebuild the operator from its steps."""
        fibers = np.zeros_like(self.operator.values)
        for k in range(self.space.points):
            prev = np.zeros((self.n, self.n), dtype=np.complex128)
            for lam, cum in self.steps(k):
                fibers[k] += lam * (cum - prev)
                prev = cum
        return FiberedOperator(self.space, fibers)


def require_self_adjoint(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL):
    dev = max_abs(a.values - np.conj(np.swapaxes(a.values, 1, 2)))
    if dev > tol.eps:
        raise NotSelfAdjoint(f"operator deviates from self-adjointness by {dev:.3e}")


def spectral_family(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> SpectralFamily:
    """Eigenvalue steps per fiber, clustered at the shared relative tolerance.

    The top cumulative projection is the identity fiber exactly.
    """
    require_self_adjoint(a, tol)
    scale = a.norm_max()
    eye = np.eye(a.n, dtype=np.complex128)
    values, cumulative = [], []
    for k in a.space:
        w, vecs = np.linalg.eigh(hermitize(a.values[k]))
        clusters = cluster_eigenvalues(w, scale)
        vals = np.array([c[0] for c in clusters])
        cums = np.empty((len(clusters), a.n, a.n), dtype=np.complex128)
        for idx, (_, end) in enumerate(clusters):
            block = vecs[:, :end]
            cums[idx] = hermitize(block @ np.conj(block.T))
        cums[-1] = eye
        values.append(vals)
        cumulative.append(cums)
    return SpectralFamily(a, values, cumulative)


def observable_value(
    a: FiberedOperator, b: Quasipoint, tol: Tolerance = DEFAULT_TOL
) -> float:
    """inf of the eigenvalues whose cumulative projection contains the quasipoint."""
    family = spectral_family(a, tol)
    return observable_value_from_family(family, b, tol)


def observable_value_from_family(
    family: SpectralFamily, b: Quasipoint, tol: Tolerance = DEFAULT_TOL
) -> float:
    if b.space != family.space or b.n != family.n:
        raise DimensionMismatch("quasipoint does not match the operator's shape")
    k = b.omega.omega
    for lam, cum in family.steps(k):
        if max_abs(cum @ b.line - b.line) <= tol.eps:
            return float(lam)
    raise AssertionError("unreachable: the top spectral step is the identity")


def observable_image(
    a: FiberedOperator, sample: list[Quasipoint], tol: Tolerance = DEFAULT_TOL
) -> list[float]:
    """Sorted observable values over a sample of quasipoints."""
    family = spectral_family(a, tol)
    return sorted({observable_value_from_family(family, b, tol) for b in sample})


def eigenline_quasipoints(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> list[Quasipoint]:
    """One quasipoint per fiber eigenvector; exhausts the observable image."""
    require_self_adjoint(a, tol)
    out = []
    for k in a.space:
        _, vecs = np.linalg.eigh(hermitize(a.values[k]))
        for j in range(a.n):
            out.append(quasipoint(a.space, k, vecs[:, j]))
    return out


def spectrum_values(a: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """All fiber eigenvalues of a self-adjoint operator, ascending."""
    require_self_adjoint(a, tol)
    return np.sort(np.linalg.eigvalsh(hermitize(a.values)).ravel())
