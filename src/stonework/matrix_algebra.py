"""The fibered matrix algebra acting on the Hilbert module.

An operator is one n x n complex matrix per point of the space. Products,
adjoints and projections are all fiberwise; the center sits inside as the
scalar multiples of the identity fiber by a center element. Central carriers,
abelian-projection detection with generator extraction, partial isometries and
range transport complete the layer the Stone-spectrum machinery runs on.
"""

from __future__ import annotations

import numpy as np

from .center import CenterElement, FiberedValue, StoneSpace
from .errors import (
    DimensionMismatch,
    NotPartialIsometry,
    NotProjection,
    NotSubordinate,
)
from .hilbert_module import ModuleElement
from .numerics import (
    DEFAULT_TOL,
    Tolerance,
    hermitize,
    is_projection,
    max_abs,
    stacked_meet,
)


class FiberedOperator(FiberedValue):
    """One square complex matrix per point of the space."""

    __slots__ = ()
    _axes = 2
    _not_finite = "operator entries must be finite"
    _mismatch = "operators have different shapes"

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __matmul__(self, other):
        self._check(other)
        return FiberedOperator(self.space, self.values @ other.values)

    def __mul__(self, alpha):
        """Central multiplication by a center element, or plain scalar scaling."""
        if isinstance(alpha, CenterElement):
            if alpha.space != self.space:
                raise DimensionMismatch("center element lives over a different space")
            return FiberedOperator(self.space, self.values * alpha.values[:, None, None])
        return FiberedOperator(self.space, self.values * alpha)

    def apply(self, a: ModuleElement) -> ModuleElement:
        if a.space != self.space or a.n != self.n:
            raise DimensionMismatch("operator and module element have different shapes")
        return ModuleElement(self.space, np.einsum("mij,mj->mi", self.values, a.values))

    def is_projection(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return is_projection(self.values, tol)

    def is_unitary(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        eye = np.eye(self.n, dtype=np.complex128)
        v = self.values
        vh = np.conj(np.swapaxes(v, 1, 2))
        return max_abs(vh @ v - eye) <= tol.eps and max_abs(v @ vh - eye) <= tol.eps

    def norm_max(self) -> float:
        return max_abs(self.values)


def identity(space: StoneSpace, n: int) -> FiberedOperator:
    return FiberedOperator(space, np.broadcast_to(np.eye(n, dtype=np.complex128), (space.points, n, n)).copy())


def zero_operator(space: StoneSpace, n: int) -> FiberedOperator:
    return FiberedOperator(space, np.zeros((space.points, n, n)))


def central_operator(g: CenterElement, n: int) -> FiberedOperator:
    """The central element g embedded as g times the identity fiber."""
    eye = np.eye(n, dtype=np.complex128)
    return FiberedOperator(g.space, g.values[:, None, None] * eye)


def adjoint(t: FiberedOperator) -> FiberedOperator:
    """Fiberwise conjugate transpose; the pairing adjoint for the module inner product."""
    return FiberedOperator(t.space, np.conj(np.swapaxes(t.values, 1, 2)))


def require_projection(values: np.ndarray, tol: Tolerance = DEFAULT_TOL, what: str = "operator"):
    """Raise NotProjection unless each fiber of the stack is a projection within tol.eps."""
    if not is_projection(values, tol):
        raise NotProjection(f"{what} is not a fiberwise projection at eps={tol.eps}")


def fibered_meet(p: FiberedOperator, q: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> FiberedOperator:
    """Fiberwise projection onto the intersection of the two ranges."""
    p._check(q)
    require_projection(p.values, tol, "left argument")
    require_projection(q.values, tol, "right argument")
    return FiberedOperator(p.space, stacked_meet(p.values, q.values, tol))


def nonzero_fibers(p: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Boolean mask of the fibers with an entry of modulus above eps."""
    return np.max(np.abs(p.values), axis=(1, 2)) > tol.eps


def central_carrier(p: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> CenterElement:
    """Smallest central projection dominating p: flags the fibers where p lives.

    Exact {0,1} values by construction.
    """
    require_projection(p.values, tol)
    return CenterElement(p.space, nonzero_fibers(p, tol).astype(np.complex128))


def fiber_ranks(p: FiberedOperator) -> list[int]:
    """Rank of each fiber of a projection, counted from its eigenvalues."""
    w = np.linalg.eigvalsh(hermitize(p.values))
    return np.count_nonzero(w > 0.5, axis=1).tolist()


def is_abelian_projection(p: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """A projection is abelian exactly when every fiber has rank at most one."""
    require_projection(p.values, tol)
    return all(r <= 1 for r in fiber_ranks(p))


def phase_fix(v: np.ndarray, eps: float = DEFAULT_TOL.eps) -> np.ndarray:
    """Rotate a vector, or each row of a stack, so that its first component of
    modulus > eps is real positive. ``np.hypot`` rounds moduli like the scalar
    ``abs``; numpy's vectorized complex ``abs`` can differ in the last bit."""
    mod = np.hypot(v.real, v.imag)
    first = np.argmax(mod > eps, axis=-1)[..., None]
    x = np.take_along_axis(v, first, axis=-1)
    r = np.take_along_axis(mod, first, axis=-1)
    found = r > eps
    return np.where(found, v * (np.conj(x) / np.where(found, r, 1.0)), v)


def diagonal_sum_projection(coeffs: list[CenterElement]) -> FiberedOperator:
    """Weighted sum of the canonical rank-one projections: the diagonal operator.

    The result is a projection exactly when every coefficient is a projection
    in the center, in which case its central carrier is the pointwise join of
    the coefficients.
    """
    if not coeffs:
        raise ValueError("a diagonal sum needs at least one coefficient")
    space = coeffs[0].space
    for c in coeffs[1:]:
        if c.space != space:
            raise DimensionMismatch("coefficients live over different spaces")
    n = len(coeffs)
    fibers = np.zeros((space.points, n, n), dtype=np.complex128)
    for k, c in enumerate(coeffs):
        fibers[:, k, k] = c.values
    return FiberedOperator(space, fibers)


def leq_projection(p: FiberedOperator, q: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Range inclusion for projections: p <= q iff pq = p within eps."""
    return max_abs((p @ q).values - p.values) <= tol.eps


def transport(theta: FiberedOperator, p: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> FiberedOperator:
    """Conjugate a subordinate projection through a partial isometry.

    For p below the initial projection of theta, the result projects onto the
    image of the range of p under theta.
    """
    theta._check(p)
    initial = adjoint(theta) @ theta
    if not initial.is_projection(tol):
        raise NotPartialIsometry("theta* theta is not a projection")
    require_projection(p.values, tol)
    if not leq_projection(p, initial, tol):
        raise NotSubordinate("projection is not below the initial projection of theta")
    return FiberedOperator(theta.space, hermitize((theta @ p @ adjoint(theta)).values))

