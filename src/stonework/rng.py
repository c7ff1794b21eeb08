"""Seedable splitmix64 stream used by every randomized suite.

The stream is fixed by the algorithm below (64-bit state, golden-gamma
increment), so sample sequences are reproducible across implementations:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

Floats are drawn as (u64 >> 11) * 2^-53, normals via Box-Muller from one
(u1, u2) pair each, sqrt(-2 log u1) * cos(2 pi u2) with u1 = 0 read as 2^-53,
evaluated per entry with Python's ``math``. A block call consumes the stream
exactly as the same scalar calls would: ``normals(k)`` is k ``normal()``
draws, and ``complex_normals(*shape)`` fills its entries in C order, re then
im.

The recipe is counter-based: output i (from 1) of a stream whose state is s
is mix(s + i * gamma mod 2^64). A stream therefore computes its outputs
_BLOCK at a time in one exact numpy uint64 expression; the values are the
ones the scalar recipe gives, and the state the stream reports (and forks
from) is the scalar recipe's state after the draws consumed so far.
"""

from __future__ import annotations

from math import cos, log, pi, prod, sqrt

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 4096
# i * gamma for i = 1 .. _BLOCK; uint64 array arithmetic wraps mod 2^64
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_TWO_PI = 2.0 * pi


def _mix(z):
    """The output function, on a Python int or elementwise on a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def _box_muller(u: list) -> list:
    """One normal per consecutive (u1, u2) pair of the floats ``u``."""
    return [sqrt(-2.0 * log(u1 or 2.0**-53)) * cos(_TWO_PI * u2) for u1, u2 in zip(u[::2], u[1::2])]


class SplitMix64:
    def __init__(self, seed: int):
        # start past the end of an empty block whose successor begins at the
        # seed, so no output is computed until the first draw
        self._base = (seed - _BLOCK * _GAMMA) & _MASK
        self._pos = _BLOCK
        self._u64: list[int] = []
        self._floats: list[float] = []

    @property
    def _state(self) -> int:
        """The recipe's state after the draws consumed so far."""
        return (self._base + self._pos * _GAMMA) & _MASK

    def _refill(self) -> None:
        self._base = (self._base + _BLOCK * _GAMMA) & _MASK
        z = _mix(np.uint64(self._base) + _STEPS)
        self._u64 = z.tolist()
        self._floats = ((z >> 11).astype(np.float64) * 2.0**-53).tolist()
        self._pos = 0

    def _take(self, count: int) -> list[float]:
        """The next ``count`` draws as floats, across blocks."""
        out = self._floats[self._pos : self._pos + count]
        self._pos += len(out)
        while len(out) < count:
            self._refill()
            more = self._floats[: count - len(out)]
            self._pos = len(more)
            out += more
        return out

    def next_u64(self) -> int:
        if self._pos == _BLOCK:
            self._refill()
        self._pos += 1
        return self._u64[self._pos - 1]

    def fork(self, label: int) -> "SplitMix64":
        """Independent child stream, deterministic in (state, label)."""
        return SplitMix64(_mix(self._state ^ _mix(label & _MASK)))

    def uniform(self) -> float:
        return self._take(1)[0]

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias is irrelevant at these ranges)."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)

    def normal(self) -> float:
        return _box_muller(self._take(2))[0]

    def normals(self, k: int) -> np.ndarray:
        # a negative count would slice from the far end of the block
        return np.array(_box_muller(self._take(2 * max(k, 0))), dtype=np.float64)

    def complex_normals(self, *shape: int) -> np.ndarray:
        # each (re, im) pair of normals is read as one complex128 entry, bit for bit
        return self.normals(2 * prod(shape)).view(np.complex128).reshape(shape)

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
