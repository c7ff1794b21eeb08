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
from .numerics import DEFAULT_TOL, max_abs


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


class FiberedValue:
    """One complex value per point of the space: a scalar, an n-vector or an
    n x n matrix, as the subclass's ``_axes`` is 0, 1 or 2.

    The values are a read-only copy, checked for shape and finiteness, and the
    object is immutable. Sums, differences and comparisons need operands of
    the same space and shape. Each subclass defines its own ``__mul__`` and
    names its errors: ``_not_finite`` for a NaN or infinite value and
    ``_mismatch`` for operands of another space or shape.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: StoneSpace, values):
        arr = np.array(values, dtype=np.complex128)
        axes = self._axes
        if arr.ndim != axes + 1 or arr.shape[0] != space.points or arr.shape[1:] != arr.shape[1:2] * axes:
            shape = str((space.points,) + ("n",) * axes).replace("'", "")
            raise DimensionMismatch(f"expected shape {shape}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(self._not_finite)
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other: "FiberedValue"):
        if self.space != other.space or self.values.shape != other.values.shape:
            raise DimensionMismatch(self._mismatch)

    def __add__(self, other):
        self._check(other)
        return type(self)(self.space, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.space, self.values - other.values)

    def __rmul__(self, other):
        return self * other

    def allclose(self, other: "FiberedValue", eps: float = DEFAULT_TOL.eps) -> bool:
        self._check(other)
        return max_abs(self.values - other.values) <= eps


class CenterElement(FiberedValue):
    """A complex-valued function on the space, one value per point."""

    __slots__ = ()
    _axes = 0
    _not_finite = "center element values must be finite"
    _mismatch = "center elements live over different spaces"

    def __mul__(self, other):
        if isinstance(other, CenterElement):
            self._check(other)
            return CenterElement(self.space, cmul(self.values, other.values))
        if isinstance(other, FiberedValue):  # a module element or an operator acts on the right
            return NotImplemented
        return CenterElement(self.space, cmul(self.values, complex(other)))

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
