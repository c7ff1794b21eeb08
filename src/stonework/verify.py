"""Randomized property suites behind ``stonework verify-all``.

Every suite draws its inputs from a forked splitmix64 stream, so a fixed seed
fixes every sample and every reported residual. Suites return a SuiteResult
with the worst residual seen and the tolerance it was compared against;
run_all executes the whole battery.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import center as ct
from . import hilbert_module as hm
from . import lattice as lt
from . import matrix_algebra as ma
from . import observables as ob
from . import spectrum as sp
from .errors import StoneworkError
from .numerics import DEFAULT_TOL, Tolerance, max_abs, projector_onto_columns, range_basis, stacked_meet
from .rng import SplitMix64


@dataclass
class SuiteResult:
    name: str
    passed: bool
    samples: int
    tolerance: float
    max_residual: float
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.max_residual = float(self.max_residual)
        self.tolerance = float(self.tolerance)
        self.samples = int(self.samples)

    def as_dict(self) -> dict:
        return asdict(self)


# -- samplers -----------------------------------------------------------------


def rand_space(rng: SplitMix64, lo: int = 1, hi: int = 4) -> ct.StoneSpace:
    return ct.StoneSpace(rng.integer(lo, hi))


def rand_shapes(rng: SplitMix64, count: int, n_max: int):
    """``count`` samples of a random space and then a fiber size in 2..n_max.
    Drawn lazily: a sample's draws follow the body run on the one before."""
    for _ in range(count):
        space = rand_space(rng)
        yield space, rng.integer(2, n_max)


def rand_center_element(rng: SplitMix64, space: ct.StoneSpace) -> ct.CenterElement:
    return ct.CenterElement(space, rng.complex_normals(space.points))


def rand_center_projection(rng: SplitMix64, space: ct.StoneSpace) -> ct.CenterElement:
    subset = [k for k in space if rng.uniform() < 0.5]
    return ct.char_fn(space, subset)


def rand_module_element(
    rng: SplitMix64, space: ct.StoneSpace, n: int, zero_fiber_prob: float = 0.0
) -> hm.ModuleElement:
    rows = np.zeros((space.points, n), dtype=np.complex128)
    for k in space:
        if rng.uniform() >= zero_fiber_prob:
            rows[k] = rng.complex_normals(n)
    return hm.ModuleElement(space, rows)


def rand_normalized(rng: SplitMix64, space: ct.StoneSpace, n: int) -> hm.ModuleElement:
    """Normalized element with at least one live fiber and some zero fibers."""
    while True:
        a = rand_module_element(rng, space, n, zero_fiber_prob=0.25)
        if hm.support(a):
            return hm.normalize(a)


def rand_operator(rng: SplitMix64, space: ct.StoneSpace, n: int) -> ma.FiberedOperator:
    return ma.FiberedOperator(space, rng.complex_normals(space.points, n, n))


def rand_hermitian_op(rng: SplitMix64, space: ct.StoneSpace, n: int) -> ma.FiberedOperator:
    return ma.FiberedOperator(space, rng.hermitian(space.points, n))


def rand_unitary_op(rng: SplitMix64, space: ct.StoneSpace, n: int) -> ma.FiberedOperator:
    return ma.FiberedOperator(space, rng.unitary(space.points, n))


def rand_projection_op(rng: SplitMix64, space: ct.StoneSpace, n: int) -> ma.FiberedOperator:
    return ma.FiberedOperator(space, np.stack([rng.projection(n, rng.integer(0, n)) for _ in space]))


def rand_partial_isometry(rng: SplitMix64, space: ct.StoneSpace, n: int):
    """A partial isometry together with its initial projection."""
    e = rand_projection_op(rng, space, n)
    u = rand_unitary_op(rng, space, n)
    return u @ e, e


def rand_quasipoint(rng: SplitMix64, space: ct.StoneSpace, n: int) -> sp.Quasipoint:
    return sp.quasipoint(space, rng.integer(0, space.points - 1), rng.complex_normals(n))


def rand_submodule(
    rng: SplitMix64, space: ct.StoneSpace, n: int, gens: int
) -> hm.Submodule:
    return hm.Submodule(
        tuple(rand_module_element(rng, space, n, zero_fiber_prob=0.3) for _ in range(gens))
    )


def rand_line_generators(rng: SplitMix64, space: ct.StoneSpace, n: int, count: int = 2):
    """Rank-one fiber projections with pairwise well-separated lines."""
    ops = []
    lines = []
    for _ in range(count):
        while True:
            rows = np.stack([_unit(rng, n) for _ in space])
            if all(
                max(abs(np.vdot(rows[k], other[k])) for k in space) < 0.95
                for other in lines
            ):
                break
        lines.append(rows)
        fibers = np.einsum("mi,mj->mij", rows, np.conj(rows))
        ops.append(ma.FiberedOperator(space, fibers))
    return ops


def _unit(rng: SplitMix64, n: int) -> np.ndarray:
    v = rng.complex_normals(n)
    return hm._unitize(v / np.linalg.norm(v))


def rand_lattice(rng: SplitMix64, tol: Tolerance) -> lt.FiniteLattice:
    """Meet-closure of a small random generator family (three recipes)."""
    recipe = rng.integer(0, 2)
    if recipe == 0:
        # commuting diagonal projections
        n = rng.integer(1, 2)
        space = rand_space(rng, 2, 3)
        gens = [
            ma.diagonal_sum_projection(
                [rand_center_projection(rng, space) for _ in range(n)]
            )
            for _ in range(2)
        ]
    elif recipe == 1:
        # generic fiberwise lines
        n = 2
        space = rand_space(rng, 1, 2)
        gens = rand_line_generators(rng, space, n, 2)
    else:
        # one diagonal and one line
        n = 2
        space = rand_space(rng, 1, 2)
        gens = rand_line_generators(rng, space, n, 1)
        gens.append(
            ma.diagonal_sum_projection(
                [rand_center_projection(rng, space) for _ in range(n)]
            )
        )
    return lt.meet_closure(gens, cap=64, tol=tol)


def boolean_lattice(atoms: int, tol: Tolerance) -> lt.FiniteLattice:
    """The Boolean algebra with the given number of atoms, as diagonal
    characteristic projections over a space with one point per atom."""
    space = ct.StoneSpace(atoms)
    gens = [ma.central_operator(ct.char_fn(space, [k]), 1) for k in space]
    return lt.meet_closure(gens, cap=2 ** atoms + 2, tol=tol)


# -- suites ---------------------------------------------------------------


def suite_abelian_commutation(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Compressions by a rank-one-per-fiber projection commute."""
    worst = 0.0
    samples = 200
    for space, n in rand_shapes(rng, samples, 5):
        a = rand_normalized(rng, space, n)
        e = hm.abelian_projection(a, tol)
        x = rand_operator(rng, space, n)
        y = rand_operator(rng, space, n)
        lhs = e @ x @ e @ y @ e
        rhs = e @ y @ e @ x @ e
        worst = max(worst, max_abs(lhs.values - rhs.values))
    return SuiteResult("abelian_commutation", worst <= 1e-9, samples, 1e-9, worst)


def suite_abelian_matrix_formula(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """The line projection's matrix is the fiberwise outer product of the
    generator with its conjugate; checked against column-by-column assembly."""
    worst = 0.0
    samples = 200
    for space, n in rand_shapes(rng, samples, 5):
        a = rand_normalized(rng, space, n)
        e = hm.abelian_projection(a, tol)
        cols = []
        for k in range(n):
            ek = hm.basis_vector(space, n, k)
            cols.append((a * hm.inner(a, ek)).values)  # action route: a (a|e_k)
        assembled = np.stack(cols, axis=2)
        worst = max(worst, max_abs(assembled - e.values))
    return SuiteResult("abelian_matrix_formula", worst <= 1e-12, samples, 1e-12, worst)


def suite_central_carriers(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Carrier of a line projection is the generator's self inner product;
    carrier of a submodule projection is the support characteristic function."""
    worst = 0.0
    exact_ok = True
    for space, n in rand_shapes(rng, 100, 5):
        a = rand_normalized(rng, space, n)
        e = hm.abelian_projection(a, tol)
        carrier = ma.central_carrier(e, tol)
        worst = max(worst, max_abs(carrier.values - hm.inner(a, a).values))
    for space, n in rand_shapes(rng, 100, 4):
        m = rand_submodule(rng, space, n, rng.integer(1, 3))
        p = hm.module_projection(m, tol)
        carrier = ma.central_carrier(p, tol)
        expected = ct.char_fn(space, sorted(m.support(tol)))
        exact_ok = exact_ok and bool(np.array_equal(carrier.values, expected.values))
    passed = worst <= 1e-9 and exact_ok
    detail = "" if exact_ok else "a submodule carrier missed its support"
    return SuiteResult("central_carriers", passed, 200, 1e-9, worst, detail)


def suite_normalization(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Normalizing preserves the generated line, is idempotent, and lands its
    self inner product exactly in {0,1}."""
    worst = 0.0
    boolean_ok = True
    samples = 100
    for space, n in rand_shapes(rng, samples, 5):
        a = rand_module_element(rng, space, n, zero_fiber_prob=0.25)
        if not hm.support(a, tol):
            a = rand_module_element(rng, space, n)
        a_hat = hm.normalize(a, tol)
        gram = hm.inner(a_hat, a_hat)
        boolean_ok = boolean_ok and gram.is_projection()
        e = hm.abelian_projection(a_hat, tol)
        worst = max(worst, max_abs(e.apply(a).values - a.values))
        ranks = ma.fiber_ranks(e)
        supp = hm.support(a, tol)
        rank_ok = all((k in supp) == (r == 1) for k, r in enumerate(ranks))
        boolean_ok = boolean_ok and rank_ok
        again = hm.normalize(a_hat, tol)
        boolean_ok = boolean_ok and bool(np.array_equal(again.values, a_hat.values))
    passed = worst <= 1e-9 and boolean_ok
    detail = "" if boolean_ok else "a normalization missed exactness or idempotence"
    return SuiteResult("normalization", passed, samples, 1e-9, worst, detail)


def suite_pythagoras_failure(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """The partition element has norm one while its components' squared norms
    sum to the rank: additivity of squared norms fails in the module."""
    ok = True
    for n in (2, 3, 4):
        space = ct.StoneSpace(n)
        comps = [ct.char_fn(space, [k]) for k in range(n)]
        a = hm.from_components(comps)
        norm_a = hm.module_norm(a)
        comp_sq = sum(hm.module_norm(hm.from_components([c])) ** 2 for c in comps)
        ortho = all(
            hm.inner(
                hm.from_components([comps[i]]), hm.from_components([comps[j]])
            ).sup_norm() == 0.0
            for i in range(n)
            for j in range(n)
            if i != j
        )
        ok = ok and norm_a == 1.0 and comp_sq == float(n) and ortho
    return SuiteResult("pythagoras_failure", ok, 3, 0.0, 0.0)


def suite_quasipoint_axioms(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Filter-base axioms with exhaustive maximality, the trunk determines the
    quasipoint, and base sets respect meets; over small Boolean algebras and
    random meet-closure lattices."""
    lattices = [boolean_lattice(k, tol) for k in (1, 2, 3, 4)]
    lattices += [rand_lattice(rng, tol) for _ in range(100)]
    checked = 0

    def fail(detail: str) -> SuiteResult:
        return SuiteResult("quasipoint_axioms", False, checked, 0.0, 1.0, detail)
    for lat in lattices:
        points = lt.enumerate_quasipoints(lat)
        if len(points) != len(lat.atoms()):
            return fail("count mismatch")
        for b in points:
            checked += 1
            if not lt.is_quasipoint(lat, b.members):
                return fail("axioms failed")
            for e in b.members:
                if lt.extend_trunk(lat, lt.trunk(b, e)) != b:
                    return fail("trunk roundtrip failed")
        base = [lt.stone_base_set(lat, i) for i in range(len(lat))]
        for i in range(len(lat)):
            for j in range(len(lat)):
                if base[lat.meet_table[i, j]] != base[i] & base[j]:
                    return fail("base sets failed")
    return SuiteResult("quasipoint_axioms", True, checked, 0.0, 0.0)


def suite_all_quasipoints_abelian(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Every maximal filter of a random finite sublattice extends to a
    parametrized quasipoint containing an abelian projection."""
    worst = 0.0
    checked = 0
    for _ in range(100):
        lat = rand_lattice(rng, tol)
        if lat.n < 2:
            continue
        for f in lt.enumerate_quasipoints(lat):
            checked += 1
            b = sp.extend_filter_to_quasipoint(lat, f, tol)
            for idx in f.members:
                fib = lat.nodes[idx, b.omega.omega]
                worst = max(worst, max_abs(fib @ b.line - b.line))
            member = sp.line_projection(b)
            if not (ma.is_abelian_projection(member, tol) and sp.qp_contains(b, member, tol)):
                return SuiteResult(
                    "all_quasipoints_abelian", False, checked, 1e-9, 1.0, "no abelian member"
                )
    return SuiteResult("all_quasipoints_abelian", worst <= 1e-9, checked, 1e-9, worst)


def suite_orbit_parametrization(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Unitary orbit witnesses exist exactly inside a fiber of the center map."""
    space = ct.StoneSpace(3)
    n = 3
    points = [rand_quasipoint(rng, space, n) for _ in range(50)]
    worst = 0.0
    for b in points:
        for b2 in points:
            u = sp.orbit_witness(b, b2, tol)
            if (u is not None) != (sp.zeta(b) == sp.zeta(b2)):
                return SuiteResult(
                    "orbit_parametrization", False, len(points) ** 2, 1e-10, 1.0,
                    "witness existence disagrees with the center map",
                )
            if u is not None:
                moved = sp.unitary_act(u, b, tol)
                worst = max(worst, 1.0 - abs(np.vdot(moved.line, b2.line)))
    return SuiteResult(
        "orbit_parametrization", worst <= 1e-10, len(points) ** 2, 1e-10, worst
    )


def suite_observable_functions(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Known two-level values, image inside the spectrum, and degeneration to
    plain evaluation on central operators."""
    space1 = ct.StoneSpace(1)
    a12 = ma.FiberedOperator(space1, [np.diag([1.0, 2.0]).astype(complex)])
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    cases = [
        (sp.quasipoint(space1, 0, [1, 0]), 1.0),
        (sp.quasipoint(space1, 0, [0, 1]), 2.0),
        (sp.quasipoint(space1, 0, [inv_sqrt2, inv_sqrt2]), 2.0),
    ]
    for b, expected in cases:
        if ob.observable_value(a12, b, tol) != expected:
            return SuiteResult(
                "observable_functions", False, 3, 0.0, 1.0, "two-level values wrong"
            )
    worst_spec = 0.0
    for space, n in rand_shapes(rng, 200, 5):
        a = rand_hermitian_op(rng, space, n)
        b = rand_quasipoint(rng, space, n)
        val = ob.observable_value(a, b, tol)
        spec = np.linalg.eigvalsh(a.values[b.omega.omega])
        worst_spec = max(worst_spec, float(np.min(np.abs(spec - val))))
    worst_central = 0.0
    for space, n in rand_shapes(rng, 50, 4):
        g = ct.CenterElement(space, rng.normals(space.points))
        a = ma.central_operator(g, n)
        b = rand_quasipoint(rng, space, n)
        val = ob.observable_value(a, b, tol)
        worst_central = max(worst_central, abs(val - ct.gelfand_eval(g, sp.zeta(b)).real))
    passed = worst_spec <= 1e-8 and worst_central <= 1e-12
    return SuiteResult(
        "observable_functions", passed, 253, 1e-8, max(worst_spec, worst_central)
    )


def suite_germ_structure(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Germ arithmetic is a field with exact addition and multiplication laws,
    the basis germs span everything, and germs of meets are meets of germs."""
    exact_ok = True
    worst = 0.0
    for _ in range(100):
        space = rand_space(rng)
        beta = ct.CenterQuasipoint(space, rng.integer(0, space.points - 1))
        alpha = rand_center_element(rng, space)
        gamma = rand_center_element(rng, space)
        exact_ok = exact_ok and ct.gelfand_eval(alpha + gamma, beta) == (
            ct.gelfand_eval(alpha, beta) + ct.gelfand_eval(gamma, beta)
        )
        exact_ok = exact_ok and ct.gelfand_eval(alpha * gamma, beta) == (
            ct.gelfand_eval(alpha, beta) * ct.gelfand_eval(gamma, beta)
        )
        n = rng.integer(2, 4)
        a = rand_module_element(rng, space, n)
        b = rand_module_element(rng, space, n)
        exact_ok = exact_ok and np.array_equal(
            sp.germ_eval(a + b, beta).value,
            sp.germ_eval(a, beta).value + sp.germ_eval(b, beta).value,
        )
        exact_ok = exact_ok and np.array_equal(
            sp.germ_eval(a * alpha, beta).value,
            ct.cmul(sp.germ_eval(a, beta).value, ct.gelfand_eval(alpha, beta)),
        )
        if abs(ct.gelfand_eval(alpha, beta)) > tol.eps:
            inv = sp.germ_inverse(alpha, beta, tol)
            worst = max(
                worst, abs(ct.gelfand_eval(alpha * inv, beta) - 1.0)
            )
        basis = [sp.germ_eval(hm.basis_vector(space, n, k), beta).value for k in range(n)]
        exact_ok = exact_ok and np.array_equal(np.stack(basis), np.eye(n, dtype=complex))
    meets_ok = True
    for space, n in rand_shapes(rng, 100, 4):
        beta = ct.CenterQuasipoint(space, rng.integer(0, space.points - 1))
        m1 = rand_submodule(rng, space, n, rng.integer(1, 2))
        m2 = rand_submodule(rng, space, n, rng.integer(1, 2))
        p1 = hm.module_projection(m1, tol)
        p2 = hm.module_projection(m2, tol)
        meet = hm.submodule_from_projection(ma.fibered_meet(p1, p2, tol), tol)
        lhs = sp.germ_submodule(meet, beta, tol)
        s1 = sp.germ_submodule(m1, beta, tol)
        s2 = sp.germ_submodule(m2, beta, tol)
        proj1 = s1 @ np.conj(s1.T)
        proj2 = s2 @ np.conj(s2.T)
        rhs = stacked_meet(proj1[None], proj2[None], tol)[0]
        meets_ok = meets_ok and max_abs(lhs @ np.conj(lhs.T) - rhs) <= 1e-9
    passed = exact_ok and meets_ok and worst <= 1e-12
    detail = "" if exact_ok and meets_ok else "a germ law failed"
    return SuiteResult("germ_structure", passed, 200, 1e-12, worst, detail)


def suite_transport_laws(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Conjugating a subordinate projection through a partial isometry gives
    the projection onto the transported range; abelian members of one
    quasipoint agree after a central reduction in its center filter."""
    worst = 0.0
    for space, n in rand_shapes(rng, 200, 4):
        theta, e = rand_partial_isometry(rng, space, n)
        sub = np.zeros_like(e.values)
        for k in space:
            basis = range_basis(e.values[k], tol)
            if basis.shape[1] == 0:
                continue
            keep = [j for j in range(basis.shape[1]) if rng.uniform() < 0.6]
            if keep:
                picked = basis[:, keep]
                sub[k] = picked @ np.conj(picked.T)
        p = ma.FiberedOperator(space, sub)
        moved = ma.transport(theta, p, tol)
        expect = np.zeros_like(sub)
        for k in space:
            basis = range_basis(sub[k], tol)
            expect[k] = projector_onto_columns(theta.values[k] @ basis, tol)
        worst = max(worst, max_abs(moved.values - expect))
    reduction_ok = True
    worst_red = 0.0
    for _ in range(100):
        space = rand_space(rng, 2, 4)
        n = rng.integer(2, 3)
        omega = rng.integer(0, space.points - 1)
        x = _unit(rng, n)
        b = sp.quasipoint(space, omega, x)
        agree = {omega} | {k for k in space if rng.uniform() < 0.4}
        rows_a = np.zeros((space.points, n), dtype=np.complex128)
        rows_b = np.zeros((space.points, n), dtype=np.complex128)
        for k in space:
            base = x if k == omega else _unit(rng, n)
            rows_a[k] = base
            if k in agree:
                rows_b[k] = base
            else:
                other = _unit(rng, n)
                while abs(np.vdot(base, other)) > 0.9:
                    other = _unit(rng, n)
                rows_b[k] = other
        ea = hm.abelian_projection(hm.ModuleElement(space, rows_a), tol)
        eb = hm.abelian_projection(hm.ModuleElement(space, rows_b), tol)
        r = sp.common_central_reduction(ea, eb, b, tol)
        reduction_ok = reduction_ok and r.is_projection() and r.values[omega] == 1.0
        reduction_ok = reduction_ok and r.support_set() == frozenset(agree)
        worst_red = max(worst_red, max_abs(((ea * r) - (eb * r)).values))
    passed = worst <= 1e-9 and worst_red <= 1e-9 and reduction_ok
    return SuiteResult("transport_laws", passed, 300, 1e-9, max(worst, worst_red))


def suite_star_algebra_laws(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Fiberwise star-algebra laws and the adjoint pairing on the module."""
    worst_star = 0.0
    worst_pair = 0.0
    for space, n in rand_shapes(rng, 100, 5):
        s = rand_operator(rng, space, n)
        t = rand_operator(rng, space, n)
        lhs = ma.adjoint(s @ t)
        rhs = ma.adjoint(t) @ ma.adjoint(s)
        worst_star = max(worst_star, max_abs(lhs.values - rhs.values))
        a = rand_module_element(rng, space, n)
        b = rand_module_element(rng, space, n)
        lhs_in = hm.inner(t.apply(a), b)
        rhs_in = hm.inner(a, ma.adjoint(t).apply(b))
        worst_pair = max(worst_pair, max_abs(lhs_in.values - rhs_in.values))
    passed = worst_star <= 1e-12 and worst_pair <= 1e-9
    return SuiteResult(
        "star_algebra_laws", passed, 100, 1e-9, max(worst_star, worst_pair)
    )


def suite_ket_bra_composition(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Composition of two ket-bra operators contracts through the inner product."""
    worst = 0.0
    for space, n in rand_shapes(rng, 100, 5):
        a, b, u, v = (rand_module_element(rng, space, n) for _ in range(4))
        lhs = hm.ket_bra(b, a) @ hm.ket_bra(v, u)
        rhs = hm.ket_bra(b, u) * hm.inner(a, v)
        worst = max(worst, max_abs(lhs.values - rhs.values))
        adj = ma.adjoint(hm.ket_bra(a, b))
        worst = max(worst, max_abs(adj.values - hm.ket_bra(b, a).values))
    return SuiteResult("ket_bra_composition", worst <= 1e-9, 100, 1e-9, worst)


def suite_diagonal_sums(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Diagonal sums of canonical line projections are projections exactly when
    every coefficient is one, with the pointwise join as carrier, and agree
    with the sum of scaled-generator projections."""
    ok = True
    worst = 0.0
    for space, n in rand_shapes(rng, 100, 4):
        projective = rng.uniform() < 0.5
        if projective:
            coeffs = [rand_center_projection(rng, space) for _ in range(n)]
        else:
            coeffs = [rand_center_element(rng, space) for _ in range(n)]
        op = ma.diagonal_sum_projection(coeffs)
        all_proj = all(c.is_projection() for c in coeffs)
        ok = ok and op.is_projection(tol) == all_proj
        if all_proj:
            carrier = ma.central_carrier(op, tol)
            joined = np.maximum.reduce([c.values.real for c in coeffs])
            ok = ok and np.array_equal(carrier.values.real, joined)
            total = ma.zero_operator(space, n)
            for k, c in enumerate(coeffs):
                scaled = hm.basis_vector(space, n, k) * c
                total = total + hm.ket_bra(scaled, scaled)
            worst = max(worst, max_abs(total.values - op.values))
    return SuiteResult("diagonal_sums", ok and worst <= 1e-12, 100, 1e-12, worst)


def suite_zeta_surjectivity(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Every center quasipoint is hit, and central membership factors through it."""
    ok = True
    for space, n in rand_shapes(rng, 50, 4):
        for beta in ct.center_quasipoints(space):
            b = sp.quasipoint(space, beta.omega, np.eye(n)[0])
            ok = ok and sp.zeta(b) == beta
        b = rand_quasipoint(rng, space, n)
        p = rand_center_projection(rng, space)
        ok = ok and sp.central_membership_consistent(b, p, tol)
    return SuiteResult("zeta_surjectivity", ok, 50, 0.0, 0.0)


def suite_stone_topology(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Base sets at atoms isolate their quasipoints; every quasipoint of a
    finite lattice is isolated."""
    ok = True
    for _ in range(20):
        lat = rand_lattice(rng, tol)
        points = set(lt.enumerate_quasipoints(lat))
        ok = ok and lt.isolated_points(lat) == points
        for t in lat.atoms():
            ok = ok and lt.stone_base_set(lat, t) == {lt.Filter(lat, lat.up_set(t))}
        ok = ok and lt.stone_base_set(lat, lat.one_index) == points
        ok = ok and lt.stone_base_set(lat, lat.zero_index) == frozenset()
    return SuiteResult("stone_topology", ok, 20, 0.0, 0.0)


def suite_observable_equivariance(rng: SplitMix64, tol: Tolerance) -> SuiteResult:
    """Shifting by a real multiple of the identity shifts values; conjugating
    the operator and moving the quasipoint together changes nothing."""
    worst = 0.0
    for space, n in rand_shapes(rng, 200, 4):
        a = rand_hermitian_op(rng, space, n)
        b = rand_quasipoint(rng, space, n)
        value = ob.observable_value(a, b, tol)
        c = rng.normal()
        shifted = a + ma.central_operator(ct.unit(space) * c, n)
        worst = max(worst, abs(ob.observable_value(shifted, b, tol) - (value + c)))
        u = rand_unitary_op(rng, space, n)
        conj = u @ a @ ma.adjoint(u)
        moved = ob.observable_value(conj, sp.unitary_act(u, b, tol), tol)
        worst = max(worst, abs(moved - value))
    return SuiteResult("observable_equivariance", worst <= 1e-9, 200, 1e-9, worst)


ALL_SUITES = [
    suite_abelian_commutation,
    suite_abelian_matrix_formula,
    suite_central_carriers,
    suite_normalization,
    suite_pythagoras_failure,
    suite_quasipoint_axioms,
    suite_all_quasipoints_abelian,
    suite_orbit_parametrization,
    suite_observable_functions,
    suite_germ_structure,
    suite_transport_laws,
    suite_star_algebra_laws,
    suite_ket_bra_composition,
    suite_diagonal_sums,
    suite_zeta_surjectivity,
    suite_stone_topology,
    suite_observable_equivariance,
]


def run_all(seed: int, tol: Tolerance = DEFAULT_TOL) -> list[SuiteResult]:
    """Run every suite on streams forked from the seed; deterministic output.
    A suite whose sampled input fails a library precondition at this eps
    (a StoneworkError) fails with the exception named in its detail."""
    master = SplitMix64(seed)
    results = []
    for i, suite in enumerate(ALL_SUITES):
        try:
            results.append(suite(master.fork(i + 1), tol))
        except StoneworkError as exc:
            name = suite.__name__.removeprefix("suite_")
            results.append(SuiteResult(name, False, 0, 0.0, 1.0, f"{type(exc).__name__}: {exc}"))
    return results
