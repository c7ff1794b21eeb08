"""Dense complex-matrix kernel: Hermitian eigendecomposition and projection geometry.

Matrices are plain complex ndarrays. Every rank decision goes through a single
eigenvalue threshold ``eps * max(1, scale)`` so that the projection lattice
operations built on top of this module make consistent, scale-invariant calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    return float(np.abs(a).max())


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def is_hermitian(h: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    return max_abs(h - np.conj(np.swapaxes(h, -1, -2))) <= tol.eps


def is_projection(p: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Hermitian and idempotent within ``tol.eps``."""
    p = np.asarray(p, dtype=np.complex128)
    if p.shape[-1] != p.shape[-2]:
        return False
    if not is_hermitian(p, tol):
        return False
    return max_abs(p @ p - p) <= tol.eps


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


def _complement(p: np.ndarray) -> np.ndarray:
    return np.eye(p.shape[-1], dtype=np.complex128) - p


def _meet_kernel(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(I - p) + (I - q): its null space is the meet of p and q, as that of
    p + q is the complement of their join."""
    return _complement(p) + _complement(q)


def stacked_meet(p: np.ndarray, q: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fiberwise meet of two stacks of projections, one batched eigh call."""
    return null_projector(_meet_kernel(p, q), tol)


def stacked_meet_join(p: np.ndarray, q: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The meets of two (s, n, n) stacks of projections followed by their
    joins, as one (2s, n, n) stack from one batched eigh call. A join is the
    complement of the null space of p + q. eigh and every later step act per
    matrix, so the meets have the bits of stacked_meet."""
    null = null_projector(np.concatenate([_meet_kernel(p, q), p + q]), tol)
    null[len(p):] = _complement(null[len(p):])
    return null


def _left_singular(a: np.ndarray, tol: Tolerance):
    """Left singular vectors and numerical rank (threshold ``eps * max(1,
    largest singular value)``) of a matrix or of each matrix of a stack."""
    a = np.asarray(a, dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    top = np.maximum(1.0, s[..., :1])
    return u, (s > tol.eps * top).sum(axis=-1)


def range_basis(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the column space of ``a``; on a stack, as
    many columns as the largest rank, zero past each matrix's own rank."""
    u, rank = _left_singular(a, tol)
    width = int(rank.max(initial=0))
    return np.where(np.arange(width) < rank[..., None, None], u[..., :width], 0.0)


def projector_onto_columns(a: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``, or of each matrix
    of a stack: one product per distinct rank, over the leading columns."""
    u, rank = _left_singular(a, tol)
    out = np.zeros(u.shape[:-1] + u.shape[-2:-1], dtype=np.complex128)
    for r in set(rank.ravel().tolist()) - {0}:
        b = u[rank == r][..., :r]
        out[rank == r] = hermitize(b @ np.conj(np.swapaxes(b, -1, -2)))
    return out


def cluster_eigenvalues(w: np.ndarray, scale: float):
    """Group ascending eigenvalues (the last axis of one spectrum or a stack)
    whose gaps stay below CLUSTER_RTOL * max(1, scale). Returns ``(last,
    means)``: ``last`` flags the final member of each cluster, whose cumulative
    projector the eigenvectors up to it span; ``means`` holds the cluster mean there.
    """
    gap = CLUSTER_RTOL * max(1.0, scale)
    rows = w.reshape(-1, w.shape[-1])
    last = np.ones(rows.shape, dtype=bool)
    last[:, :-1] = rows[:, 1:] - rows[:, :-1] > gap
    first = np.ones_like(last)
    first[:, 1:] = last[:, :-1]
    idx = np.arange(rows.shape[1])
    length = idx + 1 - np.maximum.accumulate(np.where(first, idx, 0), axis=1)
    means = np.zeros(rows.shape)
    for size in set(length[last].tolist()):
        k, end = np.nonzero(last & (length == size))
        members = rows[k[:, None], end[:, None] + np.arange(1 - size, 1)]
        means[k, end] = np.add.reduce(members, axis=1) / size  # np.mean, bit for bit
    return last.reshape(w.shape), means.reshape(w.shape)
