"""Seedable splitmix64 stream used by every randomized suite.

The stream is fixed by the algorithm below (64-bit state, golden-gamma
increment), so sample sequences are reproducible across implementations:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Floats are drawn as (u64 >> 11) * 2^-53, normals via Box-Muller from one
(u1, u2) pair each. A block call consumes the stream exactly as the same
scalar calls would: ``normals(k)`` is k ``normal()`` draws, and
``complex_normals(*shape)`` fills its entries in C order, re then im.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def fork(self, label: int) -> "SplitMix64":
        """Independent child stream, deterministic in (state, label)."""
        return SplitMix64(_mix(self._state ^ _mix(label & _MASK)))

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant at these ranges)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def normal(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, k: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(k)], dtype=np.float64)

    def complex_normals(self, *shape: int) -> np.ndarray:
        # each (re, im) pair of normals is read as one complex128 entry, bit for bit
        return self.normals(2 * math.prod(shape)).view(np.complex128).reshape(shape)

    def hermitian(self, *shape: int) -> np.ndarray:
        """Hermitian n x n matrices stacked over shape[:-1]; shape[-1] is n."""
        b = self.complex_normals(*shape, shape[-1])
        return 0.5 * (b + np.conj(np.swapaxes(b, -1, -2)))

    def unitary(self, *shape: int) -> np.ndarray:
        """Haar-ish unitaries stacked like ``hermitian``: QR, positive-diagonal phase fix."""
        q, r = np.linalg.qr(self.complex_normals(*shape, shape[-1]))
        d = np.diagonal(r, axis1=-2, axis2=-1).copy()
        d[np.abs(d) == 0.0] = 1.0
        return q * (d / np.abs(d))[..., None, :]

    def projection(self, n: int, rank: int) -> np.ndarray:
        """Random rank-``rank`` orthogonal projection on C^n."""
        if rank <= 0:
            return np.zeros((n, n), dtype=np.complex128)
        if rank >= n:
            return np.eye(n, dtype=np.complex128)
        q, _ = np.linalg.qr(self.complex_normals(n, rank))
        return q @ np.conj(q.T)
