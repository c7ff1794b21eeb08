"""The finite abelian algebra of complex functions on a finite Stone space.

Points of the space are indexed 0..m-1. Elements are complex vectors over the
points; the projections are exactly the {0,1}-valued characteristic functions
and are kept bit-exact so the filter combinatorics downstream stays crisp.
Quasipoints of the projection lattice of an abelian algebra are in bijection
with the points themselves (the maximal filters of the subset algebra), which
is what gelfand_eval evaluates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, NotProjection


def cmul(x, y):
    """Complex multiply via explicit real decomposition.

    numpy's vectorized complex kernel may contract to FMA, which leaves
    one-ulp imaginary dust on products like conj(z)*z and makes array results
    differ bitwise from Python scalar arithmetic. The decomposition matches
    scalar arithmetic exactly, which the exact Boolean and germ laws rely on.
    """
    xr, xi = np.real(x), np.imag(x)
    yr, yi = np.real(y), np.imag(y)
    return (xr * yr - xi * yi) + 1j * (xr * yi + xi * yr)


@dataclass(frozen=True)
class StoneSpace:
    """A finite Stone space: just its number of points."""

    points: int

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("a Stone space needs at least one point")

    def __iter__(self):
        return iter(range(self.points))


@dataclass(frozen=True)
class CenterQuasipoint:
    """A maximal filter of the center's projection lattice = a point of the space."""

    space: StoneSpace
    omega: int

    def __post_init__(self):
        if not (0 <= self.omega < self.space.points):
            raise ValueError(f"point index {self.omega} outside space of {self.space.points}")


class CenterElement:
    """A complex-valued function on the space, one value per point."""

    __slots__ = ("space", "values")

    def __init__(self, space: StoneSpace, values):
        arr = np.array(values, dtype=np.complex128).reshape(space.points)
        if not np.isfinite(arr).all():
            raise ValueError("center element values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("CenterElement is immutable")

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "CenterElement"):
        if self.space != other.space:
            raise DimensionMismatch("center elements live over different spaces")

    def __add__(self, other):
        self._check(other)
        return CenterElement(self.space, self.values + other.values)

    def __mul__(self, other):
        if isinstance(other, CenterElement):
            self._check(other)
            return CenterElement(self.space, cmul(self.values, other.values))
        return CenterElement(self.space, cmul(self.values, complex(other)))

    __rmul__ = __mul__

    def conj(self) -> "CenterElement":
        return CenterElement(self.space, np.conj(self.values))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __call__(self, omega: int) -> complex:
        return complex(self.values[omega])

    # -- Boolean layer ------------------------------------------------------

    def is_projection(self) -> bool:
        """Exact test: every value is exactly 0 or exactly 1."""
        v = self.values
        return bool(np.all((v == 0.0) | (v == 1.0)))

    def projection_defect(self) -> float:
        """Distance of the values from the exact {0,1} set."""
        v = self.values
        return float(np.max(np.minimum(np.abs(v), np.abs(v - 1.0))))

    def support_set(self) -> frozenset:
        return frozenset(int(k) for k in np.nonzero(self.values != 0.0)[0])

    def __repr__(self):
        return f"CenterElement({self.values.tolist()!r})"


def zero(space: StoneSpace) -> CenterElement:
    return CenterElement(space, np.zeros(space.points))


def unit(space: StoneSpace) -> CenterElement:
    return CenterElement(space, np.ones(space.points))


def char_fn(space: StoneSpace, subset: Iterable[int]) -> CenterElement:
    """Characteristic function of a subset of the space; always an exact projection."""
    v = np.zeros(space.points, dtype=np.complex128)
    for k in subset:
        if not (0 <= k < space.points):
            raise ValueError(f"point index {k} outside space of {space.points}")
        v[k] = 1.0
    return CenterElement(space, v)


def center_quasipoints(space: StoneSpace) -> list[CenterQuasipoint]:
    """All quasipoints of the center: exactly one per point of the space.

    The quasipoint at point w is the maximal filter of projections taking the
    value 1 at w, which center_membership evaluates.
    """
    return [CenterQuasipoint(space, k) for k in space]


def gelfand_eval(alpha: CenterElement, beta: CenterQuasipoint) -> complex:
    """Evaluate an element at the point underlying a center quasipoint."""
    if alpha.space != beta.space:
        raise DimensionMismatch("element and quasipoint live over different spaces")
    return alpha(beta.omega)


def center_membership(p: CenterElement, beta: CenterQuasipoint) -> bool:
    """Whether the projection p belongs to the maximal filter at beta."""
    if not p.is_projection():
        raise NotProjection("center filter membership needs an exact {0,1} projection")
    if p.space != beta.space:
        raise DimensionMismatch("projection and quasipoint live over different spaces")
    return bool(p.values[beta.omega] == 1.0)
