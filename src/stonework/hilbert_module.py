"""The free Hilbert module over the finite center: vectors of center elements.

An element is one complex n-vector per point of the space (stored as an
(m, n) array, column convention). The inner product is conjugate-linear in the
first slot and takes values in the center. Normalization, supports, ket-bra
operators, the rank-one-per-fiber abelian projections and the projections onto
finitely generated submodules all live here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .center import CenterElement, FiberedValue, StoneSpace, cmul
from .errors import DimensionMismatch, NotNormalized
from .numerics import DEFAULT_TOL, Tolerance, projector_onto_columns, range_basis


class ModuleElement(FiberedValue):
    """One complex n-vector per point of the space."""

    __slots__ = ()
    _axes = 1
    _not_finite = "module element values must be finite"
    _mismatch = "module elements have different shapes"

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __mul__(self, alpha):
        """Right action by a center element (fiberwise scaling) or a scalar."""
        if isinstance(alpha, CenterElement):
            if alpha.space != self.space:
                raise DimensionMismatch("scalar lives over a different space")
            return ModuleElement(self.space, cmul(self.values, alpha.values[:, None]))
        return ModuleElement(self.space, cmul(self.values, complex(alpha)))


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


def _norm2(rows: np.ndarray) -> np.ndarray:
    # must mirror inner()'s real-part formula exactly, reducing the last axis
    return np.add.reduce(rows.real * rows.real + rows.imag * rows.imag, axis=-1)


#: Parts below this magnitude are never adjusted: closing the unit gap through
#: a near-zero part would move it by ~sqrt(ulp), a 1e-8 direction change that
#: linear residual checks (membership at 1e-9) would see. Larger parts move by
#: at most ~ulp/|part| <= 1e-12.
_RESOLVE_FLOOR = 1e-4


def _try_part(rows: np.ndarray, parts: np.ndarray):
    """Recompute one real/imag part per row (``parts[k]`` indexes row k seen
    as floats: re, im of entry 0, then of entry 1, ...) so that norm^2 is
    exactly 1.0. Tries the root of the gap with the part's sign, then the
    pairs one to six ulps below and above it. Returns the hit mask and the
    rows at their first hit."""
    k = np.arange(len(rows))
    cands = rows[:, None].repeat(13, axis=1)
    flat = cands.view(np.float64)
    old = flat[k, 0, parts]
    flat[k, :, parts] = 0.0
    needed = 1.0 - _norm2(cands[:, 0])
    root = np.copysign(np.sqrt(np.maximum(needed, 0.0)), old)
    # one ulp down or up is one step of the bit pattern, toward zero or away
    # from it by the root's sign. needed == 0 closes at the root itself, the
    # first value tried; needed < 0 is skipped, since a root of zero and its
    # neighbours (subnormals, whose squares vanish, or NaN) keep norm^2 above 1
    ulps = np.array([0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6])
    steps = np.where(root[:, None] < 0.0, -ulps, ulps)
    flat[k, :, parts] = (root.view(np.int64)[:, None] + steps).view(np.float64)
    hit = _norm2(cands) == 1.0
    return hit.any(axis=1), cands[k, hit.argmax(axis=1)]


def _part_search(rows: np.ndarray) -> np.ndarray:
    """Close the exact unit gap of the rows the divisor ladder left off.

    Each sizeable real/imag part of a row is recomputed in turn, smallest
    first (ties in entry order, real before imaginary). Then, on rows with two
    or more sizeable parts, the coarsest part steps 1 to 12 ulps toward the
    gap, and at each step the stepped row and then its other sizeable parts,
    in the same order, are tried. Every row keeps its first hit in that order,
    and a row nothing closes comes back unchanged.
    """
    out, work = rows.copy(), rows
    size = np.abs(rows.view(np.float64))
    sizeable = size >= _RESOLVE_FLOOR
    order = np.where(sizeable, size, np.inf).argsort(axis=1, kind="stable")
    # the parts a row still tries: order[:, :count]; a closed row tries none
    count = sizeable.sum(axis=1)
    for step in range(13):
        if step:  # the joint search; the stepped part is not recomputed
            sel = (count >= 2).nonzero()[0]
            if sel.size == 0:
                break
            if step == 1:
                work, up = rows.copy(), np.where(_norm2(rows) < 1.0, math.inf, -math.inf)
            at = sel, order[sel, count[sel] - 1]
            work.view(np.float64)[at] = np.nextafter(work.view(np.float64)[at], up[sel])
            hit, closed = _norm2(work[sel]) == 1.0, work[sel]
            out[sel[hit]], count[sel[hit]] = closed[hit], 0
        for rank in range(rows.shape[1] * 2):
            sel = (count > rank + (step > 0)).nonzero()[0]
            if sel.size == 0:
                break
            hit, closed = _try_part(work[sel], order[sel, rank])
            out[sel[hit]], count[sel[hit]] = closed[hit], 0
    return out


#: One row of at most this many entries runs the search in Python floats
#: (``_unitize_row``). Its norm^2 is summed left to right, which is the order
#: numpy's ``add.reduce`` takes for fewer than 8 terms; from 8 terms on numpy
#: sums in unrolled blocks, so longer rows stay on the numpy path.
_ROW_MAX = 7
#: Stacks of at most this many such rows take the Python-float search row by
#: row; larger stacks, such as the eigenlines of many fibers, stay on numpy.
_STACK_MAX = 4

_F64, _U64 = struct.Struct("<d"), struct.Struct("<Q")
_MASK64 = (1 << 64) - 1
_ULPS = (0, -1, 1, -2, 2, -3, 3, -4, 4, -5, 5, -6, 6)


def _bits(x: float) -> int:
    return _U64.unpack(_F64.pack(x))[0]


def _from_bits(b: int) -> float:
    # wraps like the int64 steps of the numpy path
    return _F64.unpack(_U64.pack(b & _MASK64))[0]


def _row_norm2(p: list) -> float:
    """``_norm2`` of one row given as its floats (re, im of entry 0, then of
    entry 1, ...). An explicit loop: ``sum`` compensates on Python 3.12+."""
    acc = 0.0
    for i in range(0, len(p), 2):
        acc += p[i] * p[i] + p[i + 1] * p[i + 1]
    return acc


def _row_scale(p: list, d: float) -> list:
    # numpy divides a complex array by a real one as a product with 1.0 / d
    inv = 1.0 / d
    return [x * inv for x in p]


def _row_try_part(p: list, j: int):
    """``_try_part`` on one row: the row with part j at its first hit, or None."""
    cand = p.copy()
    old, cand[j] = cand[j], 0.0
    needed = 1.0 - _row_norm2(cand)
    if needed < 0.0:
        return None
    root = math.copysign(math.sqrt(needed), old)
    base, sign = _bits(root), (-1 if root < 0.0 else 1)
    for u in _ULPS:
        cand[j] = _from_bits(base + sign * u)
        if _row_norm2(cand) == 1.0:
            return cand
    return None


def _row_part_search(p: list) -> list:
    """The single-part stage of ``_part_search`` on one row, in the same order;
    a row that no single part closes goes to ``_part_search`` itself."""
    size = [abs(x) for x in p]
    order = sorted((j for j in range(len(p)) if size[j] >= _RESOLVE_FLOOR), key=size.__getitem__)
    for j in order:
        hit = _row_try_part(p, j)
        if hit is not None:
            return hit
    return _part_search(np.array([p]).view(np.complex128))[0].view(np.float64).tolist()


def _unitize_row(p: list, r: float) -> list:
    """The search of ``_unitize`` on one row with norm^2 ``r`` (finite,
    nonzero, not 1), in Python floats; bit for bit the numpy path's result."""
    s = math.sqrt(r)
    best = _row_scale(p, s)
    gap = _row_norm2(best) - 1.0
    if gap == 0.0:
        return best
    up, base = gap > 0.0, _bits(s)
    err = abs(gap)
    for i in range(1, 8):
        w = _row_scale(p, _from_bits(base + i if up else base - i))
        gap = _row_norm2(w) - 1.0
        if abs(gap) < err:
            best, err = w, abs(gap)
        if gap == 0.0 or (gap > 0.0) != up:
            break
    return best if err == 0.0 else _row_part_search(best)


def _unitize(rows: np.ndarray) -> np.ndarray:
    """Scale nonzero complex128 rows (the last axis) to unit length so that
    each computed norm^2 is exactly 1.0; rows already there are left untouched.

    Plain division by sqrt(norm^2) leaves the float sum one ulp off about half
    the time. The other rows try a ladder of divisors one ulp apart, from
    sqrt(norm^2) toward the gap, that stops at a hit, where the gap changes
    sign, or at 7 ulps; each keeps its first hit, else its smallest gap, and
    the part search closes the rows left off. The direction moves by ~1e-12.
    Up to ``_STACK_MAX`` rows of at most ``_ROW_MAX`` entries, each with a
    finite nonzero norm^2, run this search but its joint stage row by row in
    Python floats, skipping numpy's per-call cost; the rest takes ``_unitize_stack``.
    """
    n = rows.shape[-1]
    if 0 < rows.size <= _STACK_MAX * n and n <= _ROW_MAX:
        flat = rows.ravel().view(np.float64).tolist()
        ps = [flat[i : i + 2 * n] for i in range(0, len(flat), 2 * n)]
        rs = [_row_norm2(p) for p in ps]
        if all(0.0 < r < math.inf for r in rs):
            if all(r == 1.0 for r in rs):
                return rows
            out = [p if r == 1.0 else _unitize_row(p, r) for p, r in zip(ps, rs)]
            return np.array(out).view(np.complex128).reshape(rows.shape)
    return _unitize_stack(rows)


def _unitize_stack(rows: np.ndarray) -> np.ndarray:
    """``_unitize`` on numpy arrays, every row at once."""
    flat = rows.reshape(-1, rows.shape[-1])
    r = _norm2(flat)
    todo = (r != 1.0).nonzero()[0]
    if todo.size == 0:
        return rows
    out = flat.copy()
    left, s = flat[todo], np.sqrt(r[todo])
    w = left / s[:, None]
    gap = _norm2(w) - 1.0
    if not gap.any():
        out[todo] = w
        return out.reshape(rows.shape)
    # a positive float's neighbours one ulp apart are its next bit patterns
    up = gap[:, None] > 0.0
    ladder = s.view(np.int64)[:, None] + np.where(up, 1, -1) * np.arange(8)
    w = left[:, None] / ladder.view(np.float64)[..., None]
    gap = _norm2(w) - 1.0
    stop = (gap == 0.0) | ((gap > 0.0) != up)
    stop[:, -1] = True
    err = np.where(np.arange(8) <= stop.argmax(axis=1)[:, None], np.abs(gap), np.inf)
    k, best = np.arange(todo.size), err.argmin(axis=1)
    out[todo] = w[k, best]
    off = todo[err[k, best] != 0.0]
    if off.size:
        out[off] = _part_search(out[off])
    return out.reshape(rows.shape)


def normalize(a: ModuleElement, tol: Tolerance = DEFAULT_TOL) -> ModuleElement:
    """Fiberwise unit rescaling on the support, zero elsewhere.

    Fibers whose norm^2 already equals 0 or 1 exactly are returned untouched,
    which makes normalization exactly idempotent. The result generates the
    same submodule as the input and its self inner product is the exact
    characteristic function of the support.
    """
    supp = sorted(support(a, tol))
    out = np.zeros_like(a.values)
    out[supp] = _unitize(a.values[supp])
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


def module_projection(m: Submodule, tol: Tolerance = DEFAULT_TOL):
    """The projection onto the submodule, built fiberwise from the generators."""
    from .matrix_algebra import FiberedOperator

    stacked = np.stack([g.values for g in m.generators], axis=2)  # (m, n, r)
    return FiberedOperator(m.space, projector_onto_columns(stacked, tol))


def submodule_from_projection(p, tol: Tolerance = DEFAULT_TOL) -> Submodule:
    """Generators of the image of a fibered projection: per fiber, an
    orthonormal basis of the range padded with zero columns."""
    basis = range_basis(p.values, tol)  # (m, n, largest rank)
    gens = np.zeros((p.n, p.space.points, p.n), dtype=np.complex128)
    gens[: basis.shape[2]] = np.transpose(basis, (2, 0, 1))
    return Submodule(tuple(ModuleElement(p.space, g) for g in gens))
