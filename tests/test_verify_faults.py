"""Fault injection: a suite of ``verify-all`` fails, with its own detail, when
one library function it checks gives a wrong answer.

Each test runs one suite on the stream ``run_all`` forks for it, once as
shipped (it passes) and once with one function swapped for a wrong one. A
swap is built from the original function, so it can answer almost right.
Every suite has an entry: where a suite is the only test of a law, its entry
shows that the law is still checked.
"""

import numpy as np
import pytest

from stonework import center as ct
from stonework import hilbert_module as hm
from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework import observables as ob
from stonework import spectrum as sp
from stonework import verify as vf
from stonework.rng import SplitMix64

SEED = 3

FAULTS = [
    # (suite, module, function, wrong version of the function, expected detail)
    (vf.suite_abelian_commutation, hm, "abelian_projection",
     lambda original: lambda a, tol: ma.identity(a.space, a.n), ""),
    (vf.suite_abelian_matrix_formula, hm, "abelian_projection",
     lambda original: lambda a, tol: ma.FiberedOperator(a.space, np.swapaxes(original(a, tol).values, 1, 2)), ""),
    (vf.suite_central_carriers, ma, "central_carrier",
     lambda original: lambda p, tol: ct.unit(p.space), "a submodule carrier missed its support"),
    (vf.suite_normalization, hm, "normalize",
     lambda original: lambda a, tol: original(a, tol) * (1.0 + 1e-15),
     "a normalization missed exactness or idempotence"),
    (vf.suite_pythagoras_failure, hm, "module_norm",
     lambda original: lambda a: float(np.linalg.norm(a.values)), ""),
    (vf.suite_quasipoint_axioms, lt, "enumerate_quasipoints",
     lambda original: lambda lat: original(lat)[1:], "count mismatch"),
    (vf.suite_quasipoint_axioms, lt, "is_quasipoint",
     lambda original: lambda lat, members: False, "axioms failed"),
    (vf.suite_quasipoint_axioms, lt, "extend_trunk",
     lambda original: lambda lat, trunk: None, "trunk roundtrip failed"),
    (vf.suite_quasipoint_axioms, lt, "stone_base_set",
     lambda original: lambda lat, i: frozenset({i}), "base sets failed"),
    (vf.suite_all_quasipoints_abelian, sp, "line_projection",
     lambda original: lambda b: ma.identity(b.space, b.n), "no abelian member"),
    (vf.suite_orbit_parametrization, sp, "orbit_witness",
     lambda original: lambda b, b2, tol: None, "witness existence disagrees with the center map"),
    (vf.suite_observable_functions, ob, "observable_value",
     lambda original: lambda a, b, tol: original(a, b, tol) + 0.5, "two-level values wrong"),
    (vf.suite_germ_structure, sp, "germ_eval",
     lambda original: lambda a, beta: original(a, ct.CenterQuasipoint(beta.space, (beta.omega + 1) % beta.space.points)),
     "a germ law failed"),
    (vf.suite_transport_laws, ma, "transport",
     lambda original: lambda theta, p, tol: original(ma.identity(p.space, p.n), p, tol), ""),
    (vf.suite_star_algebra_laws, ma, "adjoint",
     lambda original: lambda t: ma.FiberedOperator(t.space, np.conj(original(t).values)), ""),
    (vf.suite_ket_bra_composition, hm, "ket_bra",
     lambda original: lambda r, s: original(r, hm.ModuleElement(s.space, np.conj(s.values))), ""),
    (vf.suite_diagonal_sums, ma, "diagonal_sum_projection",
     lambda original: lambda coeffs: original([*coeffs[:-1], coeffs[-1] * 0.0]), ""),
    (vf.suite_zeta_surjectivity, sp, "zeta",
     lambda original: lambda b: ct.CenterQuasipoint(b.space, (b.omega.omega + 1) % b.space.points), ""),
    (vf.suite_stone_topology, lt, "isolated_points",
     lambda original: lambda lat: original(lat) - {lt.Filter(lat, lat.up_set(lat.atoms()[0]))}, ""),
    # a unitary_act that leaves the line in place passes: at a line in general
    # position the value is the fiber's top eigenvalue, which conjugation keeps
    (vf.suite_observable_equivariance, ob, "observable_value",
     lambda original: lambda a, b, tol: original(a, b, tol) * (1.0 + 1e-7), ""),
]


def run_suite(suite, tol):
    return suite(SplitMix64(SEED).fork(vf.ALL_SUITES.index(suite) + 1), tol)


@pytest.mark.parametrize(
    "suite, module, name, wrong, detail",
    FAULTS,
    ids=[f"{suite.__name__.removeprefix('suite_')}-{name}" for suite, _, name, _, _ in FAULTS],
)
def test_suite_fails_with_its_detail(monkeypatch, tol, suite, module, name, wrong, detail):
    assert run_suite(suite, tol).passed
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    result = run_suite(suite, tol)
    assert (result.name, result.passed, result.detail) == (
        suite.__name__.removeprefix("suite_"), False, detail
    )


def test_every_suite_has_a_fault():
    assert {suite for suite, *_ in FAULTS} == set(vf.ALL_SUITES)


def test_quasipoint_axioms_builds_each_base_set_once(monkeypatch, tol):
    """suite_quasipoint_axioms asks stone_base_set for each node of a lattice
    at most once, and counting the calls leaves its result as it was."""
    suite = vf.suite_quasipoint_axioms
    expected = run_suite(suite, tol)
    calls = {}
    original = lt.stone_base_set

    def counted(lat, a):
        calls.setdefault(id(lat), [lat, 0])[1] += 1
        return original(lat, a)

    monkeypatch.setattr(lt, "stone_base_set", counted)
    assert run_suite(suite, tol) == expected and expected.passed
    assert len(calls) == 104  # 4 Boolean algebras and 100 random lattices
    assert all(count <= len(lat) for lat, count in calls.values())
