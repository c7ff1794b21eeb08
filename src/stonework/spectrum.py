"""Parametrized quasipoints of the fibered matrix algebra and their calculus.

Every quasipoint of the algebra is abelian and is pinned down by a point of
the base space together with a line in C^n: membership of a projection means
its fiber at that point fixes the line. The center map reads off the point,
unitaries move the line, orbits of the unitary group are exactly the fibers
of the center map, and germs evaluate elements at the point. Lattice filters
extend to such parametrized quasipoints constructively.
"""

from __future__ import annotations

import math

import numpy as np

from .center import CenterElement, CenterQuasipoint, StoneSpace, center_membership, gelfand_eval
from .config import encode
from .errors import (
    DimensionMismatch,
    EmptyFilter,
    NotAbelian,
    NotMember,
    NotProjection,
    NotUnitary,
)
from .hilbert_module import ModuleElement, Submodule, _unitize
from .lattice import FiniteLattice, Filter
from .matrix_algebra import (
    FiberedOperator,
    central_operator,
    identity,
    is_abelian_projection,
    nonzero_fibers,
    phase_fix,
)
from .numerics import DEFAULT_TOL, Tolerance, hermitize, max_abs, range_basis

#: Two lines are the same when their unit vectors overlap at least this much.
LINE_EQ_TOL = 1e-10


class Quasipoint:
    """A quasipoint of the fibered algebra: a base point and a line in C^n."""

    __slots__ = ("omega", "line", "_frame")

    def __init__(self, omega: CenterQuasipoint, line):
        vec = np.array(line, dtype=np.complex128).reshape(-1)
        with np.errstate(over="ignore"):
            nrm = float(np.linalg.norm(vec))
        if not 0.0 < nrm < math.inf:
            # a NaN or inf entry, or a norm that under- or overflows
            if not np.isfinite(vec).all():
                raise ValueError("quasipoint line values must be finite")
            parts = vec.view(np.float64)
            big = float(np.max(np.abs(parts), initial=0.0))
            if big == 0.0:
                raise ValueError("a quasipoint line needs a nonzero vector")
            # real division: 1 / big overflows for a subnormal big
            vec = (parts / big).view(np.complex128)
            nrm = float(np.linalg.norm(vec))
        if abs(nrm - 1.0) > 1e-12:
            vec = vec / nrm
        vec = _unitize(vec)
        vec.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "line", vec)
        object.__setattr__(self, "_frame", None)

    def __setattr__(self, name, value):
        raise AttributeError("Quasipoint is immutable")

    @property
    def frame(self) -> np.ndarray:
        """The unitary ``complete_to_unitary(self.line)``, computed at first use."""
        if self._frame is None:
            u = complete_to_unitary(self.line)
            u.setflags(write=False)
            object.__setattr__(self, "_frame", u)
        return self._frame

    @property
    def space(self) -> StoneSpace:
        return self.omega.space

    @property
    def n(self) -> int:
        return self.line.shape[0]

    def same_line(self, other: "Quasipoint") -> bool:
        return abs(np.vdot(self.line, other.line)) >= 1.0 - LINE_EQ_TOL

    def __eq__(self, other):
        return (
            isinstance(other, Quasipoint)
            and self.omega == other.omega
            and self.n == other.n
            and self.same_line(other)
        )

    def __repr__(self):
        return f"Quasipoint(omega={self.omega.omega}, line={self.line.tolist()!r})"


def quasipoint(space: StoneSpace, omega: int, line) -> Quasipoint:
    return Quasipoint(CenterQuasipoint(space, omega), line)


def _check_point(b: Quasipoint, p: FiberedOperator):
    if b.space != p.space or b.n != p.n:
        raise DimensionMismatch("quasipoint and operator have different shapes")


def qp_contains(b: Quasipoint, p: FiberedOperator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership: the fiber of p at the base point fixes the line."""
    _check_point(b, p)
    if not p.is_projection(tol):
        raise NotProjection("membership is only defined for projections")
    fib = p.values[b.omega.omega]
    return max_abs(fib @ b.line - b.line) <= tol.eps


def line_projection(b: Quasipoint) -> FiberedOperator:
    """The abelian projection onto the line of b at its base point, zero elsewhere."""
    fibers = np.zeros((b.space.points, b.n, b.n), dtype=np.complex128)
    fibers[b.omega.omega] = np.outer(b.line, np.conj(b.line))
    return FiberedOperator(b.space, fibers)


def zeta(b: Quasipoint) -> CenterQuasipoint:
    """The center quasipoint under b: central membership happens through it."""
    return b.omega


def unitary_act(u: FiberedOperator, b: Quasipoint, tol: Tolerance = DEFAULT_TOL) -> Quasipoint:
    """Move the quasipoint by a fiberwise unitary: the line turns accordingly."""
    _check_point(b, u)
    if not u.is_unitary(tol):
        raise NotUnitary("operator is not fiberwise unitary")
    return Quasipoint(b.omega, u.values[b.omega.omega] @ b.line)


def complete_to_unitary(x: np.ndarray) -> np.ndarray:
    """A unitary whose first column is x, completed deterministically from the
    standard basis by Gram-Schmidt."""
    n = x.shape[0]
    cols = [x]
    for k in range(n):
        if len(cols) == n:
            break
        v = np.zeros(n, dtype=np.complex128)
        v[k] = 1.0
        for c in cols:
            v = v - c * np.vdot(c, v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-7:
            v = v / nrm
            for c in cols:
                v = v - c * np.vdot(c, v)
            v = v / float(np.linalg.norm(v))
            cols.append(v)
    return np.stack(cols, axis=1)


def orbit_witness(
    b: Quasipoint, b2: Quasipoint, tol: Tolerance = DEFAULT_TOL
) -> FiberedOperator | None:
    """A unitary moving b to b2, when both sit over the same center quasipoint.

    Returns None when the center quasipoints differ: those orbits never meet.
    The unitary rotates the first line onto the second at the shared base
    point and is the identity on every other fiber.
    """
    if b.space != b2.space or b.n != b2.n:
        raise DimensionMismatch("quasipoints have different shapes")
    if zeta(b) != zeta(b2):
        return None
    fibers = identity(b.space, b.n).values.copy()
    if not b.same_line(b2):
        fibers[b.omega.omega] = b2.frame @ np.conj(b.frame.T)
    return FiberedOperator(b.space, fibers)


# -- germs ---------------------------------------------------------------


def germ_eval(a: ModuleElement, beta: CenterQuasipoint) -> np.ndarray:
    """The germ of a module element at a center quasipoint: evaluation there,
    as a read-only n-vector.

    Two elements share a germ exactly when some central projection in the
    filter at beta equalizes them, which over a finite space means agreement
    at the underlying point.
    """
    if a.space != beta.space:
        raise DimensionMismatch("element and quasipoint live over different spaces")
    return a.values[beta.omega]


def germ_inverse(
    alpha: CenterElement, beta: CenterQuasipoint, tol: Tolerance = DEFAULT_TOL
) -> CenterElement:
    """A center element whose germ at beta inverts the germ of alpha.

    Defined as the reciprocal wherever |alpha| > tol.eps and zero elsewhere.
    One threshold decides both: |alpha(beta)| <= tol.eps is a vanishing germ
    (ZeroDivisionError), and otherwise the product's germ at beta equals one.
    """
    if abs(gelfand_eval(alpha, beta)) <= tol.eps:
        raise ZeroDivisionError("the germ vanishes at beta; no inverse germ")
    mask = np.abs(alpha.values) > tol.eps
    values = np.zeros(alpha.space.points, dtype=np.complex128)
    values[mask] = 1.0 / alpha.values[mask]
    return CenterElement(alpha.space, values)


def germ_submodule(
    m: Submodule, beta: CenterQuasipoint, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the germ of a submodule: the span of the generator
    values at the underlying point, as an (n, k) column matrix."""
    if m.space != beta.space:
        raise DimensionMismatch("submodule and quasipoint live over different spaces")
    stacked = np.stack([g.values[beta.omega] for g in m.generators], axis=1)
    return range_basis(stacked, tol)


# -- filters to parametrized quasipoints ----------------------------------


def extend_filter_to_quasipoint(
    lattice: FiniteLattice, f: Filter, tol: Tolerance = DEFAULT_TOL
) -> Quasipoint:
    """A parametrized quasipoint containing the given finite-lattice filter.

    Constructive choice: take the filter's minimum projection, pick the
    smallest-index fiber where it is nonzero and the phase-fixed top
    eigenvector of that fiber. Every filter member then fixes the line.
    """
    if not f.members:
        raise EmptyFilter("cannot extend an empty filter")
    low = FiberedOperator(lattice.space, lattice.nodes[f.min_member()])
    live = nonzero_fibers(low, tol)
    if not live.any():
        raise EmptyFilter("the filter contains the zero projection")
    omega = int(np.argmax(live))
    w, vecs = np.linalg.eigh(hermitize(low.values[omega]))
    x = phase_fix(vecs[:, -1], tol.eps)
    return quasipoint(lattice.space, omega, x)


def common_central_reduction(
    ea: FiberedOperator,
    eb: FiberedOperator,
    b: Quasipoint,
    tol: Tolerance = DEFAULT_TOL,
) -> CenterElement:
    """A central projection in the filter at zeta(b) equalizing two abelian
    members: the characteristic function of the fibers where their rank-one
    ranges coincide."""
    ea._check(eb)
    if not (is_abelian_projection(ea, tol) and is_abelian_projection(eb, tol)):
        raise NotAbelian("both operators must be abelian projections")
    if not (qp_contains(b, ea, tol) and qp_contains(b, eb, tol)):
        raise NotMember("both operators must belong to the quasipoint")
    flags = (~nonzero_fibers(ea - eb, tol)).astype(np.complex128)
    if flags[b.omega.omega] != 1.0:
        raise NotMember(
            "membership holds only marginally at the base point; fibers differ beyond eps"
        )
    return CenterElement(ea.space, flags)


def quasipoint_to_dict(b: Quasipoint) -> dict:
    """Report serialization: {omega, line} with [re, im] pairs."""
    return {
        "omega": int(b.omega.omega),
        "line": encode(b.line),
    }


def central_membership_consistent(
    b: Quasipoint, p: CenterElement, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Check that central projections embed consistently: the identity-scaled
    projection belongs to b exactly when p takes the value one under zeta(b)."""
    return qp_contains(b, central_operator(p, b.n), tol) == center_membership(p, zeta(b))
