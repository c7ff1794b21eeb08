"""Dense complex-matrix kernel: Hermitian eigendecomposition and projection geometry.

Matrices are plain complex ndarrays. Every rank decision goes through a single
eigenvalue threshold ``eps * max(1, scale)`` so that the projection lattice
operations built on top of this module make consistent, scale-invariant calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotHermitian, NotProjection

#: Relative tolerance for clustering near-degenerate eigenvalues.
CLUSTER_RTOL = 1e-7


@dataclass(frozen=True)
class Tolerance:
    """Single knob for every rank / projection decision."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (0.0 <= self.eps < 1e-3):
            raise ValueError(f"eps must lie in [0, 1e-3), got {self.eps}")


DEFAULT_TOL = Tolerance()


def max_abs(a) -> float:
    """Largest entry magnitude; the norm used for all residual checks."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def is_hermitian(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return max_abs(h - np.conj(np.swapaxes(h, -1, -2))) <= tol.eps


def hermitian_eig(h: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Eigenvalues (ascending) and orthonormal eigenvector columns of a Hermitian matrix.

    Raises NotHermitian when the input fails the Hermitian check at ``tol.eps``
    and NoConvergence when the iteration underneath gives up.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise NotHermitian(f"expected a square matrix, got shape {h.shape}")
    if not is_hermitian(h, tol):
        raise NotHermitian(
            f"matrix deviates from its adjoint by {max_abs(h - np.conj(np.swapaxes(h, -1, -2))):.3e}"
        )
    try:
        w, v = np.linalg.eigh(hermitize(h))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w, v


def is_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Hermitian and idempotent within ``tol.eps``."""
    p = np.asarray(p, dtype=np.complex128)
    if p.shape[-1] != p.shape[-2]:
        return False
    if not is_hermitian(p, tol):
        return False
    return max_abs(p @ p - p) <= tol.eps


def require_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL, what: str = "matrix"):
    if not is_projection(p, tol):
        raise NotProjection(f"{what} is not a projection at eps={tol.eps}")


def null_projector(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the null space of a Hermitian PSD matrix.

    Works on a single matrix or a stack; the eigenvalue threshold is
    ``eps * max(1, largest eigenvalue)`` per matrix.
    """
    h = np.asarray(h, dtype=np.complex128)
    w, v = np.linalg.eigh(hermitize(h))
    scale = np.maximum(1.0, np.abs(w[..., -1]))
    mask = w <= tol.eps * scale[..., None]
    sel = v * mask[..., None, :]
    return hermitize(sel @ np.conj(np.swapaxes(v, -1, -2)))


def stacked_meet(p: np.ndarray, q: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fiberwise meet of two stacks of projections, one batched eigh call."""
    eye = np.eye(p.shape[-1], dtype=np.complex128)
    return null_projector((eye - p) + (eye - q), tol)


def stacked_join(p: np.ndarray, q: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    eye = np.eye(p.shape[-1], dtype=np.complex128)
    return eye - null_projector(p + q, tol)


def projection_rank(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a projection, counted from its eigenvalues."""
    require_projection(p, tol)
    w = np.linalg.eigvalsh(hermitize(np.asarray(p, dtype=np.complex128)))
    return int(np.count_nonzero(w > 0.5))


def range_basis(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0 or max_abs(a) == 0.0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > tol.eps * max(1.0, float(s[0]))
    return u[:, keep]


def projector_onto_columns(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``."""
    b = range_basis(a, tol)
    if b.shape[1] == 0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=np.complex128)
    return hermitize(b @ np.conj(b.T))


def cluster_eigenvalues(w: np.ndarray, scale: float):
    """Group ascending eigenvalues whose gaps stay below CLUSTER_RTOL * max(1, scale).

    Returns a list of (value, end_index) pairs where value is the cluster mean
    and end_index is one past the last member, so cumulative projectors can be
    sliced directly out of the eigenvector matrix.
    """
    gap = CLUSTER_RTOL * max(1.0, scale)
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            clusters.append((float(np.mean(w[start:i])), i))
            start = i
    return clusters
