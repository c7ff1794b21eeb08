"""Batched fiber operations against their former one-fiber-at-a-time loops.

Each ``reference_*`` function below is the per-fiber loop the batched code
replaced. The batched code must reproduce it bit for bit (``np.array_equal``)
on zero fibers, repeated eigenvalues, rank-deficient generators, single rows
and several fiber dimensions.
"""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import fiber_steps
from stonework import hilbert_module as hm
from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework import observables as ob
from stonework import spectrum as sp
from stonework.center import StoneSpace
from stonework.numerics import (
    CLUSTER_RTOL,
    hermitize,
    max_abs,
    projector_onto_columns,
    range_basis,
)

DIMS = (1, 2, 3, 5, 9)

#: How often the reference part search entered its joint search and how often
#: it gave a row back unclosed, so that tests can show they reach both.
REFERENCE_BRANCHES = Counter()


# -- the per-fiber references ------------------------------------------------


def reference_norm2(row):
    return float(np.sum(row.real * row.real + row.imag * row.imag))


def reference_set_part(row, i, imag, x):
    row[i] = complex(row[i].real, x) if imag else complex(x, row[i].imag)


def reference_resolve_part(w, i, imag):
    """Try to close the exact unit gap by recomputing one real/imag part."""
    old = w[i].imag if imag else w[i].real
    cand = w.copy()
    reference_set_part(cand, i, imag, 0.0)
    needed = 1.0 - reference_norm2(cand)
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
        reference_set_part(cand, i, imag, c)
        if reference_norm2(cand) == 1.0:
            return cand
    return None


def reference_search_parts(w):
    """Close the unit gap of one row the divisor ladder left off by
    recomputing one sizeable part, then by a two-part joint search."""
    def size(part):
        i, imag = part
        return abs(w[i].imag if imag else w[i].real)

    parts = [(i, imag) for i in range(len(w)) for imag in (False, True)]
    parts = sorted((t for t in parts if size(t) >= hm._RESOLVE_FLOOR), key=size)
    for (i, imag) in parts:
        hit = reference_resolve_part(w, i, imag)
        if hit is not None:
            return hit
    # joint search: step the coarsest part by ulps, re-resolving the others
    if len(parts) >= 2:
        REFERENCE_BRANCHES["joint"] += 1
        i0, im0 = parts[-1]
        x = w[i0].imag if im0 else w[i0].real
        for _ in range(12):
            x = np.nextafter(x, math.inf if reference_norm2(w) < 1.0 else -math.inf)
            stepped = w.copy()
            reference_set_part(stepped, i0, im0, x)
            if reference_norm2(stepped) == 1.0:
                return stepped
            for (i, imag) in parts[:-1]:
                hit = reference_resolve_part(stepped, i, imag)
                if hit is not None:
                    return hit
    REFERENCE_BRANCHES["unclosed"] += 1
    return w


def reference_unitize(row):
    r = reference_norm2(row)
    if r == 1.0:
        return row
    s = math.sqrt(r)
    best, best_err = None, math.inf
    for _ in range(8):
        w = row / s
        rw = reference_norm2(w)
        if rw == 1.0:
            return w
        if abs(rw - 1.0) < best_err:
            best, best_err = w, abs(rw - 1.0)
        s = np.nextafter(s, math.inf if rw > 1.0 else -math.inf)
    return reference_search_parts(best)


def reference_observable_value(family, k, line, tol):
    """The per-step loop: the value of the first step of fiber k that fixes the line."""
    values, steps = fiber_steps(family)
    for lam, cum in zip(values[k], steps[k]):
        if max_abs(cum @ line - line) <= tol.eps:
            return float(lam)
    raise AssertionError("unreachable: the top spectral step is the identity")


def reference_phase_fix(v, eps):
    for x in v:
        if abs(x) > eps:
            return v * (np.conj(x) / abs(x))
    return v


def reference_normalize(a, tol):
    out = np.zeros_like(a.values)
    for k in hm.support(a, tol):
        row = a.values[k]
        out[k] = row if reference_norm2(row) == 1.0 else reference_unitize(row)
    return out


def reference_central_carrier(p, tol):
    return np.array(
        [1.0 if max_abs(p.values[k]) > tol.eps else 0.0 for k in p.space],
        dtype=np.complex128,
    )


def reference_clusters(w, scale):
    gap = CLUSTER_RTOL * max(1.0, scale)
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > gap:
            clusters.append((float(np.mean(w[start:i])), i))
            start = i
    return clusters


def reference_spectral_family(a):
    scale = a.norm_max()
    eye = np.eye(a.n, dtype=np.complex128)
    values, cumulative = [], []
    for k in a.space:
        w, vecs = np.linalg.eigh(hermitize(a.values[k]))
        clusters = reference_clusters(w, scale)
        vals = np.array([c[0] for c in clusters])
        cums = np.empty((len(clusters), a.n, a.n), dtype=np.complex128)
        for idx, (_, end) in enumerate(clusters):
            block = vecs[:, :end]
            cums[idx] = hermitize(block @ np.conj(block.T))
        cums[-1] = eye
        values.append(vals)
        cumulative.append(cums)
    return values, cumulative


def reference_eigenlines(a):
    """The lines Quasipoint construction made from each raw eigenvector."""
    lines = []
    for k in a.space:
        _, vecs = np.linalg.eigh(hermitize(a.values[k]))
        for j in range(a.n):
            vec = np.array(vecs[:, j], dtype=np.complex128).reshape(-1)
            nrm = float(np.linalg.norm(vec))
            if abs(nrm - 1.0) > 1e-12:
                vec = vec / nrm
            lines.append(reference_unitize(vec))
    return np.array(lines)


def reference_eigenline_quasipoints(a, tol):
    """The per-object eigenline sample: one Quasipoint per row of the stacked
    ``_unitize``, whose construction runs the norm and ``_unitize`` again."""
    ob.require_self_adjoint(a, tol)
    _, vecs = np.linalg.eigh(hermitize(a.values))
    lines = hm._unitize(np.swapaxes(vecs, 1, 2))  # lines[k, j]: eigenvector j of fiber k
    return [sp.quasipoint(a.space, k, line) for k in a.space for line in lines[k]]


def reference_range_basis(a, tol):
    a = np.asarray(a, dtype=np.complex128)
    if a.size == 0 or max_abs(a) == 0.0:
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > tol.eps * max(1.0, float(s[0]))
    return u[:, keep]


def reference_projector_onto_columns(a, tol):
    b = reference_range_basis(a, tol)
    if b.shape[1] == 0:
        return np.zeros((a.shape[0], a.shape[0]), dtype=np.complex128)
    return hermitize(b @ np.conj(b.T))


def reference_module_projection(m, tol):
    fibers = np.zeros((m.space.points, m.n, m.n), dtype=np.complex128)
    stacked = np.stack([g.values for g in m.generators], axis=2)
    for k in m.space:
        fibers[k] = reference_projector_onto_columns(stacked[k], tol)
    return fibers


def reference_submodule_generators(p, tol):
    gens = np.zeros((p.n, p.space.points, p.n), dtype=np.complex128)
    for k in p.space:
        basis = reference_range_basis(p.values[k], tol)
        gens[: basis.shape[1], k, :] = basis.T
    return gens


# -- inputs --------------------------------------------------------------------


def cnormal(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def rows_with_zeros(gen, m, n):
    """Random rows at mixed scales; about a quarter of them zero, one exactly unit."""
    v = cnormal(gen, (m, n)) * 10.0 ** gen.integers(-3, 4, size=(m, 1))
    v[gen.random(m) < 0.25] = 0.0
    v[0] = 0.0
    v[0, 0] = 1.0
    return v


def near_axis_rows(gen, m, n):
    """Rows with one entry of size about 1 and the others below the part
    search's floor, which leaves it at most two parts to adjust."""
    v = cnormal(gen, (m, n))
    v[:, 1:] *= 1e-5
    return v


def line_projections(gen, m, n):
    """An abelian projection: a random line per fiber, zero on some fibers."""
    u = rows_with_zeros(gen, m, n)
    live = np.any(u != 0, axis=1)
    u[live] /= np.linalg.norm(u[live], axis=1, keepdims=True)
    return ma.FiberedOperator(StoneSpace(m), np.einsum("mi,mj->mij", u, np.conj(u)))


def hermitian_families(gen, m, n):
    """Generic, degenerate (repeated eigenvalues, zero fibers) and projection operators."""
    b = cnormal(gen, (m, n, n))
    generic = 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))
    q, _ = np.linalg.qr(cnormal(gen, (m, n, n)))
    diag = gen.integers(-1, 2, size=(m, n)).astype(float)
    diag[gen.random(m) < 0.3] = 0.0
    degenerate = np.einsum("mij,mj,mkj->mik", q, diag, np.conj(q))
    rank = gen.integers(0, n + 1, size=m)
    proj = np.einsum("mij,mj,mkj->mik", q, (np.arange(n) < rank[:, None]).astype(float), np.conj(q))
    space = StoneSpace(m)
    return [ma.FiberedOperator(space, x) for x in (generic, degenerate, proj, np.zeros((m, n, n)))]


def near_diagonal(gen, m, n):
    """Distinct diagonals plus a 1e-7 Hermitian perturbation: eigenvectors
    with one entry of size about 1, many of which no exact-unit step closes."""
    d = np.sort(gen.standard_normal((m, n)), axis=1)
    b = cnormal(gen, (m, n, n)) * 1e-7
    x = d[:, :, None] * np.eye(n) + 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))
    return ma.FiberedOperator(StoneSpace(m), x)


def stacked(points, n):
    """The (omega, lines) arrays of a list of Quasipoints."""
    omega = np.array([b.omega.omega for b in points], dtype=np.intp)
    return omega, np.array([b.line for b in points], dtype=np.complex128).reshape(-1, n)


# -- the checks ------------------------------------------------------------------


def test_unitize_matches_per_row_reference(tol):
    gen = np.random.default_rng(1)
    REFERENCE_BRANCHES.clear()
    for n in DIMS:
        rows = rows_with_zeros(gen, 600, n)
        rows = rows[np.any(rows != 0, axis=1)]
        for stack in (rows, near_axis_rows(gen, 1500, n)):
            want = np.array([reference_unitize(r.copy()) for r in stack])
            assert np.array_equal(hm._unitize(stack), want)
            # single 1-D rows take the same path
            assert np.array_equal(np.array([hm._unitize(r) for r in stack[:500]]), want[:500])
    # near-axis rows reach the joint search and rows that nothing closes
    assert REFERENCE_BRANCHES["joint"] > 100 and REFERENCE_BRANCHES["unclosed"] > 0


def test_unitize_returns_unclosed_rows_unchanged():
    """Best effort: a row the part search cannot close keeps the divisor
    ladder's result, whose norm^2 is within one ulp of 1."""
    gen = np.random.default_rng(2)
    for n in (2, 3):
        out = hm._unitize(near_axis_rows(gen, 3000, n))
        off = out[hm._norm2(out) != 1.0]
        assert len(off) > 0
        assert np.all(np.abs(hm._norm2(off) - 1.0) <= np.spacing(1.0))
        assert np.array_equal(hm._part_search(off), off)
        assert np.array_equal(np.array([reference_search_parts(r.copy()) for r in off]), off)


def test_unitize_one_row_matches_reference():
    """One row, 1-D or (1, n), of every length the Python-float search takes
    and the first one past it, at mixed and extreme scales and near an axis."""
    gen = np.random.default_rng(3)
    joint = Counter()
    for n in range(1, hm._ROW_MAX + 2):
        rows = rows_with_zeros(gen, 300, n)
        extreme = cnormal(gen, (100, n)) * 10.0 ** gen.choice([-160, -150, 150, 153], size=(100, 1))
        for stack in (rows[np.any(rows != 0, axis=1)], near_axis_rows(gen, 600, n), extreme):
            before = REFERENCE_BRANCHES["joint"]
            want = [reference_unitize(r.copy()) for r in stack]
            joint[n] += REFERENCE_BRANCHES["joint"] - before
            for row, w in zip(stack, want):
                assert hm._unitize(row).tobytes() == w.tobytes()
                out = hm._unitize(row[None])
                assert out.shape == (1, n) and out.tobytes() == w.tobytes()
    # one-row inputs reach the joint search at every length past one entry
    assert all(joint[n] > 0 for n in range(2, hm._ROW_MAX + 2))


def test_unitize_small_stack_matches_the_numpy_path(monkeypatch):
    """Stacks of 2 to ``_STACK_MAX`` rows of up to ``_ROW_MAX`` entries run
    the Python-float search row by row, bit for bit as ``_unitize_stack``
    (the numpy path, their oracle), with rows at norm^2 exactly 1 mixed in,
    near an axis and at extreme scales; one entry more keeps the numpy path."""
    gen = np.random.default_rng(5)
    numpy_path, taken = hm._unitize_stack, Counter()
    monkeypatch.setattr(hm, "_unitize_stack", lambda rows: taken.update([rows.shape[-1]]) or numpy_path(rows))
    # the Python-float path hands each row that no single part closes to
    # _part_search; count those with two sizeable parts, which its joint
    # search steps
    search, handed, joint = hm._part_search, [0], Counter()

    def hand_off(rows):
        handed[0] += int((np.abs(rows.view(np.float64)) >= hm._RESOLVE_FLOOR).sum() >= 2)
        return search(rows)

    monkeypatch.setattr(hm, "_part_search", hand_off)
    for k in range(2, hm._STACK_MAX + 1):
        for n in range(1, hm._ROW_MAX + 2):
            mixed = cnormal(gen, (100, k, n)) * 10.0 ** gen.integers(-3, 4, size=(100, k, 1))
            at_one = numpy_path(cnormal(gen, (100 * k, n)))
            assert np.mean(hm._norm2(at_one) == 1.0) > 0.9
            spot = gen.random((100, k)) < 0.3
            mixed[spot] = at_one[: spot.sum()]
            extreme = cnormal(gen, (100, k, n)) * 10.0 ** gen.choice([-160, -150, 150, 153], size=(100, k, 1))
            for stack in (*mixed, *near_axis_rows(gen, 100 * k, n).reshape(100, k, n), *extreme):
                before = handed[0]
                out = hm._unitize(stack)
                if n <= hm._ROW_MAX:  # the Python-float path
                    joint[k] += handed[0] - before
                want = numpy_path(stack)
                assert out.shape == stack.shape and out.tobytes() == want.tobytes()
                if not (hm._norm2(stack) != 1.0).any():
                    assert out is stack
    assert set(taken) == {hm._ROW_MAX + 1} and taken[hm._ROW_MAX + 1] == (hm._STACK_MAX - 1) * 300
    assert all(joint[k] > 0 for k in range(2, hm._STACK_MAX + 1))


@pytest.mark.parametrize("n", range(1, hm._ROW_MAX + 1))
def test_norm2_sums_left_to_right(n):
    """The one-row search sums norm^2 left to right in Python floats, and is
    exact only while numpy's ``add.reduce`` sums a row in that order too."""
    gen = np.random.default_rng(80 + n)
    rows = cnormal(gen, (3000, n)) * 10.0 ** gen.integers(-8, 9, size=(3000, n))
    want = np.zeros(len(rows))
    for k in range(n):
        want = want + (rows[:, k].real * rows[:, k].real + rows[:, k].imag * rows[:, k].imag)
    assert hm._norm2(rows).tobytes() == want.tobytes()
    for row, w in zip(rows, want):
        assert hm._norm2(row) == hm._norm2(row[None])[0] == w
        assert hm._row_norm2(row.view(np.float64).tolist()) == w


def test_phase_fix_matches_scalar_abs(tol):
    # numpy's vectorized complex abs rounds |z| of this entry differently from
    # the scalar abs on some CPUs, so a phase_fix built on np.abs fails here
    z = complex(-0.02925182246327349, 0.6953031944582878)
    gen = np.random.default_rng(2)
    v = cnormal(gen, (400, 4))
    v[:, 0] = z
    v[1, :2] = 1e-12  # first component at or below eps: skipped
    v[2] = 1e-12  # no component above eps: untouched
    want = np.array([reference_phase_fix(r, tol.eps) for r in v])
    assert np.array_equal(ma.phase_fix(v, tol.eps), want)
    assert np.array_equal(ma.phase_fix(v[0], tol.eps), want[0])


@pytest.mark.parametrize("n", DIMS)
def test_normalize_matches_reference(n, tol):
    gen = np.random.default_rng(10 + n)
    space = StoneSpace(300)
    a = hm.ModuleElement(space, rows_with_zeros(gen, 300, n))
    assert np.array_equal(hm.normalize(a, tol).values, reference_normalize(a, tol))


@pytest.mark.parametrize("n", DIMS)
def test_central_carrier_matches_reference(n, tol):
    gen = np.random.default_rng(20 + n)
    p = line_projections(gen, 300, n)
    assert np.array_equal(ma.central_carrier(p, tol).values, reference_central_carrier(p, tol))


@pytest.mark.parametrize("n", DIMS)
def test_spectral_family_and_eigenlines_match_reference(n, tol):
    gen = np.random.default_rng(30 + n)
    for a in hermitian_families(gen, 60, n):
        family = ob.spectral_family(a, tol)
        values, cumulative = reference_spectral_family(a)
        got_values, got_steps = fiber_steps(family)
        assert len(got_values) == len(got_steps) == a.space.points
        for k in a.space:
            assert np.array_equal(got_values[k], values[k])
            assert np.array_equal(got_steps[k], cumulative[k])
        omega, lines = ob.eigenline_quasipoints(family)
        assert omega.tolist() == [k for k in a.space for _ in range(n)]
        assert np.array_equal(lines, reference_eigenlines(a))


@pytest.mark.parametrize("n", DIMS)
def test_eigenline_sample_matches_per_object_path(n, tol):
    gen = np.random.default_rng(70 + n)
    unclosed = 0
    for a in hermitian_families(gen, 60, n) + [near_diagonal(gen, 300, n)]:
        omega, lines = ob.eigenline_quasipoints(ob.spectral_family(a, tol))
        want_omega, want_lines = stacked(reference_eigenline_quasipoints(a, tol), n)
        assert omega.tobytes() == want_omega.tobytes()
        assert lines.tobytes() == want_lines.tobytes()
        assert not lines.flags.writeable
        unclosed += int(np.count_nonzero(hm._norm2(lines) != 1.0))
    # rows no exact-unit step closes, which the per-object path ran through
    # _unitize a second time (an n = 1 eigenvector is exactly unit)
    assert unclosed > 0 or n == 1


@pytest.mark.parametrize("n", DIMS)
def test_module_projection_and_submodule_match_reference(n, tol):
    gen = np.random.default_rng(40 + n)
    space = StoneSpace(200)
    g1 = rows_with_zeros(gen, 200, n)
    g2 = cnormal(gen, (200, n))
    g2[gen.random(200) < 0.3] = 0.0
    # the third generator repeats the first (times a scalar): rank-deficient
    gens = [hm.ModuleElement(space, x) for x in (g1, g2, 2.0 * g1, np.zeros((200, n)))]
    m = hm.Submodule(tuple(gens))
    p = hm.module_projection(m, tol)
    assert np.array_equal(p.values, reference_module_projection(m, tol))
    sub = hm.submodule_from_projection(p, tol)
    want = reference_submodule_generators(p, tol)
    assert np.array_equal(np.array([g.values for g in sub.generators]), want)


@pytest.mark.parametrize("n", DIMS)
def test_observable_values_match_per_step_loop(n, tol):
    gen = np.random.default_rng(60 + n)
    for a in hermitian_families(gen, 40, n):
        family = ob.spectral_family(a, tol)
        eigenlines = ob.eigenline_quasipoints(family)
        fibers = gen.integers(0, 40, size=150)
        lines = [sp.quasipoint(a.space, k, v) for k, v in zip(fibers, cnormal(gen, (150, n)))]
        basis = [sp.quasipoint(a.space, k, e) for k in range(0, 40, 3) for e in np.eye(n)]
        for omega, x in (eigenlines, *(stacked(s, n) for s in (lines, basis, lines[:1], []))):
            want = np.array([reference_observable_value(family, k, v, tol) for k, v in zip(omega, x)])
            assert ob.observable_values(family, omega, x, tol).tobytes() == want.tobytes()


def test_range_helpers_single_matrix(tol):
    gen = np.random.default_rng(50)
    for n, r in ((1, 1), (3, 2), (5, 0), (5, 5)):
        a = cnormal(gen, (n, r))
        assert np.array_equal(range_basis(a, tol), reference_range_basis(a, tol))
        assert np.array_equal(
            projector_onto_columns(a, tol), reference_projector_onto_columns(a, tol)
        )
    zero = np.zeros((3, 3))
    assert range_basis(zero, tol).shape == (3, 0)
    assert np.array_equal(projector_onto_columns(zero, tol), np.zeros((3, 3)))


def test_extend_filter_and_reduction_scans(tol):
    """The first-nonzero-fiber scan and the fiberwise equality flags."""
    space = StoneSpace(3)
    fibers = np.zeros((3, 2, 2), dtype=np.complex128)
    fibers[1] = fibers[2] = np.diag([1.0, 0.0])
    p = ma.FiberedOperator(space, fibers)
    lat = lt.meet_closure([p])
    b = sp.extend_filter_to_quasipoint(lat, lt.Filter(lat, lat.up_set(lat.index_of(p))), tol)
    assert b.omega.omega == 1
    assert np.array_equal(b.line, [1.0, 0.0])
    other = fibers.copy()
    other[2] = np.diag([0.0, 1.0])
    r = sp.common_central_reduction(p, ma.FiberedOperator(space, other), b, tol)
    assert np.array_equal(r.values, [1.0, 1.0, 0.0])
