"""Fault injection: a suite of ``verify-all`` fails, with its own detail, when
one library function it checks gives a wrong answer.

Each test runs one suite on the stream ``run_all`` forks for it, once as
shipped (it passes) and once with one function swapped for a wrong one. A
swap is built from the original function, so it can answer almost right.
"""

import pytest

from stonework import lattice as lt
from stonework import matrix_algebra as ma
from stonework import observables as ob
from stonework import spectrum as sp
from stonework import verify as vf
from stonework.rng import SplitMix64

SEED = 3

FAULTS = [
    # (suite, module, function, wrong version of the function, expected detail)
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
