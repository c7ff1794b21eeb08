"""The free Hilbert module over the finite center: vectors of center elements.

An element is one complex n-vector per point of the space (stored as an
(m, n) array, column convention). The inner product is conjugate-linear in the
first slot and takes values in the center. Normalization, supports, ket-bra
operators, the rank-one-per-fiber abelian projections and the support-witness
construction for finitely generated submodules all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .center import CenterElement, StoneSpace, char_fn, cmul
from .errors import DimensionMismatch, NotNormalized, ZeroModule
from .numerics import DEFAULT_TOL, Tolerance, max_abs


class ModuleElement:
    """One complex n-vector per point of the space."""

    __slots__ = ("space", "values")

    def __init__(self, space: StoneSpace, values):
        arr = np.array(values, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != space.points:
            raise DimensionMismatch(
                f"expected shape ({space.points}, n), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("module element values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ModuleElement is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def component(self, k: int) -> CenterElement:
        return CenterElement(self.space, self.values[:, k])

    def fiber(self, omega: int) -> np.ndarray:
        return self.values[omega].copy()

    def _check(self, other: "ModuleElement"):
        if self.space != other.space or self.n != other.n:
            raise DimensionMismatch("module elements have different shapes")

    def __add__(self, other):
        self._check(other)
        return ModuleElement(self.space, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return ModuleElement(self.space, self.values - other.values)

    def __mul__(self, alpha):
        """Right action by a center element (fiberwise scaling) or a scalar."""
        if isinstance(alpha, CenterElement):
            if alpha.space != self.space:
                raise DimensionMismatch("scalar lives over a different space")
            return ModuleElement(self.space, cmul(self.values, alpha.values[:, None]))
        return ModuleElement(self.space, cmul(self.values, complex(alpha)))

    __rmul__ = __mul__

    def allclose(self, other: "ModuleElement", eps: float = DEFAULT_TOL.eps) -> bool:
        self._check(other)
        return max_abs(self.values - other.values) <= eps

    def __repr__(self):
        return f"ModuleElement({self.values.tolist()!r})"


def zero_element(space: StoneSpace, n: int) -> ModuleElement:
    return ModuleElement(space, np.zeros((space.points, n)))


def basis_vector(space: StoneSpace, n: int, k: int) -> ModuleElement:
    """The canonical basis element with the unit of the center in slot k."""
    v = np.zeros((space.points, n), dtype=np.complex128)
    v[:, k] = 1.0
    return ModuleElement(space, v)


def from_components(components: list[CenterElement]) -> ModuleElement:
    space = components[0].space
    return ModuleElement(space, np.stack([c.values for c in components], axis=1))


def inner(a: ModuleElement, b: ModuleElement) -> CenterElement:
    """Center-valued inner product, conjugate-linear in the first slot.

    Computed through the real decomposition so the self product of any
    element has exactly zero imaginary part.
    """
    a._check(b)
    ar, ai = a.values.real, a.values.imag
    br, bi = b.values.real, b.values.imag
    re = np.sum(ar * br + ai * bi, axis=1)
    im = np.sum(ar * bi - ai * br, axis=1)
    return CenterElement(a.space, re + 1j * im)


def module_norm(a: ModuleElement) -> float:
    """sqrt of the sup of the inner product with itself."""
    return math.sqrt(inner(a, a).sup_norm())


def support(a: ModuleElement, tol: Tolerance = DEFAULT_TOL) -> frozenset:
    """Fibers where the element does not vanish, at threshold eps * norm^2."""
    g = inner(a, a).values.real
    thr = tol.eps * float(np.max(g, initial=0.0))
    return frozenset(int(k) for k in np.nonzero(g > thr)[0])


# -- exact unit normalization -------------------------------------------------


def _norm2(row: np.ndarray) -> float:
    # must mirror inner()'s real-part formula exactly, one row at a time
    return float(np.sum(row.real * row.real + row.imag * row.imag))


def _set_part(row: np.ndarray, i: int, imag: bool, x: float):
    row[i] = complex(row[i].real, x) if imag else complex(x, row[i].imag)


#: Parts below this magnitude are never adjusted: closing the unit gap through
#: a near-zero part would move it by ~sqrt(ulp), a 1e-8 direction change that
#: linear residual checks (membership at 1e-9) would see. Larger parts move by
#: at most ~ulp/|part| <= 1e-12.
_RESOLVE_FLOOR = 1e-4


def _resolve_part(w: np.ndarray, i: int, imag: bool):
    """Try to close the exact unit gap by recomputing one real/imag part."""
    old = w[i].imag if imag else w[i].real
    cand = w.copy()
    _set_part(cand, i, imag, 0.0)
    needed = 1.0 - _norm2(cand)
    if needed < 0.0:
        return None
    target = math.copysign(math.sqrt(needed), old if old != 0.0 else 1.0)
    lo = hi = target
    ladder = [target]
    for _ in range(6):
        lo = np.nextafter(lo, -math.inf)
        hi = np.nextafter(hi, math.inf)
        ladder.extend((lo, hi))
    for c in ladder:
        _set_part(cand, i, imag, c)
        if _norm2(cand) == 1.0:
            return cand
    return None


def _unitize(row: np.ndarray) -> np.ndarray:
    """Scale a nonzero fiber to unit length so its computed norm^2 is exactly 1.0.

    Plain division leaves the float sum one ulp off about half the time, so
    after a short divisor ladder one sizeable real/imag part is recomputed to
    close the exact remaining gap; a two-part joint search covers the rest.
    The direction moves by at most ~1e-12.
    """
    r = _norm2(row)
    if r == 1.0:
        return row
    s = math.sqrt(r)
    best, best_err = None, math.inf
    for _ in range(8):
        w = row / s
        rw = _norm2(w)
        if rw == 1.0:
            return w
        if abs(rw - 1.0) < best_err:
            best, best_err = w, abs(rw - 1.0)
        s = np.nextafter(s, math.inf if rw > 1.0 else -math.inf)
    w = best
    parts = sorted(
        (
            (i, imag)
            for i in range(len(w))
            for imag in (False, True)
            if abs(w[i].imag if imag else w[i].real) >= _RESOLVE_FLOOR
        ),
        key=lambda t: abs(w[t[0]].imag if t[1] else w[t[0]].real),
    )
    for (i, imag) in parts:
        hit = _resolve_part(w, i, imag)
        if hit is not None:
            return hit
    # joint search: step the coarsest part by ulps, re-resolving the others
    if len(parts) >= 2:
        i0, im0 = parts[-1]
        x = w[i0].imag if im0 else w[i0].real
        for _ in range(12):
            x = np.nextafter(x, math.inf if _norm2(w) < 1.0 else -math.inf)
            stepped = w.copy()
            _set_part(stepped, i0, im0, x)
            if _norm2(stepped) == 1.0:
                return stepped
            for (i, imag) in parts[:-1]:
                hit = _resolve_part(stepped, i, imag)
                if hit is not None:
                    return hit
    return w


def normalize(a: ModuleElement, tol: Tolerance = DEFAULT_TOL) -> ModuleElement:
    """Fiberwise unit rescaling on the support, zero elsewhere.

    Fibers whose norm^2 already equals 0 or 1 exactly are returned untouched,
    which makes normalization exactly idempotent. The result generates the
    same submodule as the input and its self inner product is the exact
    characteristic function of the support.
    """
    supp = support(a, tol)
    out = np.zeros_like(a.values)
    for k in supp:
        row = a.values[k]
        out[k] = row if _norm2(row) == 1.0 else _unitize(row)
    return ModuleElement(a.space, out)


def ket_bra(r: ModuleElement, s: ModuleElement):
    """The operator b -> r (s|b); fiberwise the outer product of r against s."""
    r._check(s)
    from .matrix_algebra import FiberedOperator

    fibers = np.einsum("mi,mj->mij", r.values, np.conj(s.values))
    return FiberedOperator(r.space, fibers)


def abelian_projection(a: ModuleElement, tol: Tolerance = DEFAULT_TOL):
    """The rank-one-per-fiber projection b -> a (a|b) onto the line through a.

    Requires (a|a) to be a projection already; normalize first otherwise.
    """
    defect = inner(a, a).projection_defect()
    if defect > tol.eps:
        raise NotNormalized(
            f"(a|a) is {defect:.3e} away from a projection; normalize first"
        )
    return ket_bra(a, a)


def decompose(b: ModuleElement, a: ModuleElement, tol: Tolerance = DEFAULT_TOL):
    """Split b = a*alpha + rest with rest orthogonal to the line through a."""
    b._check(a)
    a_hat = normalize(a, tol)
    gram = inner(a, a).values.real
    supp = sorted(support(a, tol))
    coeff = np.zeros(a.space.points, dtype=np.complex128)
    proj_coeff = inner(a_hat, b).values
    for k in supp:
        coeff[k] = proj_coeff[k] / math.sqrt(gram[k])
    alpha = CenterElement(a.space, coeff)
    rest = b - a_hat * CenterElement(a.space, proj_coeff)
    return alpha, rest


@dataclass(frozen=True)
class Submodule:
    """A finitely generated submodule, kept as its tuple of generators."""

    generators: tuple

    def __post_init__(self):
        if not self.generators:
            raise ValueError("a submodule needs at least one generator")
        first = self.generators[0]
        for g in self.generators[1:]:
            first._check(g)

    @property
    def space(self) -> StoneSpace:
        return self.generators[0].space

    @property
    def n(self) -> int:
        return self.generators[0].n

    def support(self, tol: Tolerance = DEFAULT_TOL) -> frozenset:
        out = frozenset()
        for g in self.generators:
            out |= support(g, tol)
        return out


def support_witness(m: Submodule, tol: Tolerance = DEFAULT_TOL) -> ModuleElement:
    """A normalized element of the submodule supported on the whole support.

    Folds the generators left to right through the orthogonal split: adding
    the orthogonal remainder of the next generator can only grow the support,
    and after the last step it equals the union of the generator supports.
    """
    gens = [g for g in m.generators if support(g, tol)]
    if not gens:
        raise ZeroModule("all generators vanish")
    acc = gens[0]
    for g in gens[1:]:
        _, rest = decompose(g, acc, tol)
        acc = acc + rest
    return normalize(acc, tol)


def annihilator(m: Submodule, tol: Tolerance = DEFAULT_TOL) -> CenterElement:
    """Generator of the ideal of center elements killing the submodule.

    This is the characteristic function of the complement of the support; a
    center element annihilates the submodule exactly when it lives on that
    complement.
    """
    supp = m.support(tol)
    return char_fn(m.space, [k for k in m.space if k not in supp])


def module_projection(m: Submodule, tol: Tolerance = DEFAULT_TOL):
    """The projection onto the submodule, built fiberwise from the generators."""
    from .matrix_algebra import FiberedOperator
    from .numerics import projector_onto_columns

    space = m.space
    fibers = np.zeros((space.points, m.n, m.n), dtype=np.complex128)
    stacked = np.stack([g.values for g in m.generators], axis=2)  # (m, n, r)
    for k in space:
        fibers[k] = projector_onto_columns(stacked[k], tol)
    return FiberedOperator(space, fibers)


def submodule_from_projection(p, tol: Tolerance = DEFAULT_TOL) -> Submodule:
    """Generators of the image of a fibered projection: per fiber, an
    orthonormal basis of the range padded with zero columns."""
    from .numerics import range_basis

    space = p.space
    n = p.n
    gens = np.zeros((n, space.points, n), dtype=np.complex128)
    for k in space:
        basis = range_basis(p.values[k], tol)
        gens[: basis.shape[1], k, :] = basis.T
    return Submodule(tuple(ModuleElement(space, gens[j]) for j in range(n)))
