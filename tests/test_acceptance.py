"""Acceptance gate: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them on success).
The randomized criteria draw from splitmix64 streams forked off seed 42, so
the whole gate is deterministic.
"""

import json
import subprocess
import sys

import numpy as np

from stonework import center as ct
from stonework import hilbert_module as hm
from stonework import matrix_algebra as ma
from stonework import spectrum as sp
from stonework import verify as vf
from stonework.numerics import Tolerance, max_abs
from stonework.rng import SplitMix64

TOL = Tolerance(1e-9)
SEED = 42


def _stream(label):
    return SplitMix64(SEED).fork(label)


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_abelian_commutation():
    r = vf.suite_abelian_commutation(_stream(101), TOL)
    _report(1, "compressed commutation at 1e-9", r.passed and r.samples == 200,
            f"max residual {r.max_residual:.2e}")


def test_criterion_02_matrix_formula():
    r = vf.suite_abelian_matrix_formula(_stream(102), TOL)
    _report(2, "outer-product matrix formula at 1e-12", r.passed and r.samples == 200,
            f"max residual {r.max_residual:.2e}")


def test_criterion_03_central_carriers():
    r = vf.suite_central_carriers(_stream(103), TOL)
    _report(3, "central carriers (line and submodule)", r.passed,
            f"max residual {r.max_residual:.2e}")


def test_criterion_04_normalization():
    r = vf.suite_normalization(_stream(104), TOL)
    _report(4, "normalization: same line, exact Boolean gram", r.passed,
            f"max residual {r.max_residual:.2e}")


def test_criterion_05_pythagoras_failure():
    r = vf.suite_pythagoras_failure(_stream(105), TOL)
    _report(5, "partition element: norm 1 vs component sum n, exact", r.passed)


def test_criterion_06_quasipoint_axioms_and_trunks():
    r = vf.suite_quasipoint_axioms(_stream(106), TOL)
    _report(6, "filter-base axioms, trunk determines quasipoint, base-set meets",
            r.passed, f"{r.samples} quasipoints checked")


def test_criterion_07_all_quasipoints_abelian():
    r = vf.suite_all_quasipoints_abelian(_stream(107), TOL)
    _report(7, "every maximal filter extends to an abelian quasipoint", r.passed,
            f"{r.samples} filters, max residual {r.max_residual:.2e}")


def test_criterion_08_orbit_parametrization():
    r = vf.suite_orbit_parametrization(_stream(108), TOL)
    _report(8, "unitary orbits parametrized by the center map", r.passed,
            f"{r.samples} pairs, line agreement within {r.max_residual:.2e}")


def test_criterion_09_observable_functions():
    r = vf.suite_observable_functions(_stream(109), TOL)
    _report(9, "observable values: exact two-level, image in spectrum, central case",
            r.passed, f"max residual {r.max_residual:.2e}")


def _intersection_oracle(b1, b2, eps=1e-9):
    """Exact subspace intersection in C^n through the stacked null space."""
    n = b1.shape[0]
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros((n, 0), dtype=complex)
    stacked = np.hstack([b1, -b2])
    u, s, vh = np.linalg.svd(stacked)
    null_dim = int(np.sum(s <= eps * max(1.0, s[0]))) + max(0, stacked.shape[1] - len(s))
    if null_dim == 0:
        return np.zeros((n, 0), dtype=complex)
    null_vecs = vh[-null_dim:].conj().T
    common = b1 @ null_vecs[: b1.shape[1]]
    q, r = np.linalg.qr(common)
    keep = np.abs(np.diag(r)) > eps
    return q[:, keep]


def test_criterion_10_germ_structure():
    rng = _stream(110)
    field_ok = True
    worst_inverse = 0.0
    for _ in range(100):
        space = vf.rand_space(rng)
        beta = ct.CenterQuasipoint(space, rng.integer(0, space.points - 1))
        alpha = vf.rand_center_element(rng, space)
        gamma = vf.rand_center_element(rng, space)
        field_ok = field_ok and ct.gelfand_eval(alpha + gamma, beta) == (
            ct.gelfand_eval(alpha, beta) + ct.gelfand_eval(gamma, beta)
        )
        field_ok = field_ok and ct.gelfand_eval(alpha * gamma, beta) == (
            ct.gelfand_eval(alpha, beta) * ct.gelfand_eval(gamma, beta)
        )
        if abs(ct.gelfand_eval(alpha, beta)) > TOL.eps:
            inv = sp.germ_inverse(alpha, beta, TOL)
            worst_inverse = max(worst_inverse, abs(ct.gelfand_eval(alpha * inv, beta) - 1.0))
        n = rng.integer(2, 5)
        basis = [sp.germ_eval(hm.basis_vector(space, n, k), beta) for k in range(n)]
        field_ok = field_ok and np.array_equal(np.stack(basis), np.eye(n, dtype=complex))
    meets_ok = True
    for _ in range(100):
        space = vf.rand_space(rng, 1, 3)
        n = rng.integer(2, 4)
        beta = ct.CenterQuasipoint(space, rng.integer(0, space.points - 1))
        m1 = vf.rand_submodule(rng, space, n, rng.integer(1, 2))
        m2 = vf.rand_submodule(rng, space, n, rng.integer(1, 2))
        met = hm.submodule_from_projection(
            ma.fibered_meet(
                hm.module_projection(m1, TOL), hm.module_projection(m2, TOL), TOL
            ),
            TOL,
        )
        lhs = sp.germ_submodule(met, beta, TOL)
        oracle = _intersection_oracle(
            sp.germ_submodule(m1, beta, TOL), sp.germ_submodule(m2, beta, TOL)
        )
        meets_ok = meets_ok and lhs.shape[1] == oracle.shape[1]
        meets_ok = meets_ok and max_abs(
            lhs @ np.conj(lhs.T) - oracle @ np.conj(oracle.T)
        ) <= 1e-9
    passed = field_ok and meets_ok and worst_inverse <= 1e-12
    _report(10, "germ field laws, basis dimension, meet-intersection lemma", passed,
            f"inverse residual {worst_inverse:.2e}")


def test_criterion_11_transport_laws():
    r = vf.suite_transport_laws(_stream(111), TOL)
    _report(11, "partial-isometry transport and common central reduction", r.passed,
            f"max residual {r.max_residual:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "m": 2}))
    cmd = [
        sys.executable, "-m", "stonework.cli", "verify-all",
        "--config", str(cfg), "--seed", "42",
    ]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    identical = r1.stdout == r2.stdout and len(r1.stdout) > 0
    all_pass = r1.returncode == 0 and r2.returncode == 0
    payload = json.loads(r1.stdout.decode())
    enough = len(payload["results"]["suites"]) >= 10
    _report(12, "verify-all twice: byte-identical JSON, exit 0", identical and all_pass and enough,
            f"{len(r1.stdout)} bytes, {len(payload['results']['suites'])} suites")
