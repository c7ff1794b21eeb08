"""Workload inputs, operations and independent output checks.

Inputs come from the workload seed through numpy's PCG64 generator, never
from ``stonework.rng``, so the program under test does not produce its own
test data. An *item* is one user-visible operation: a list of CLI argument
vectors run back to back (one for ``verify`` and ``closure``, a five-command
session for ``observe``) plus what an independent check needs to know about
the expected output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

#: Seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

#: Distinct inputs per run. A run cycles through its pool starting with the
#: warm-up input, so at least that input repeats and its output digest is
#: compared. verify-all's cost differs from seed to seed, so its pool is
#: about as large as the number of ops in a run: the median op then averages
#: over many seeds instead of a few.
POOL = {"verify": 16, "closure": 6, "observe": 3}

CLOSURE_M, CLOSURE_N = 6, 2
CLOSURE_NODES, CLOSURE_QUASIPOINTS = 2 ** CLOSURE_M + 1, CLOSURE_M
OBSERVE_M, OBSERVE_N = 1000, 4
OBSERVE_ZERO_FIBERS = 0.25
VERIFY_SUITES = 17
SPECTRUM_TOL = 1e-8


@dataclass
class Item:
    """One operation: CLI argument vectors, with ``{config}`` standing for the
    config file of the item, and the facts its output is checked against."""

    key: str
    argvs: list
    config: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    items: list
    files: dict  # config file name -> bytes

    def fingerprint(self) -> str:
        """SHA-256 over every config byte and every argument vector."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        for item in self.items:
            h.update(json.dumps([item.key, item.argvs, item.config]).encode())
        return h.hexdigest()


def _wire(z: np.ndarray) -> list:
    """Complex array -> nested [re, im] lists, the config wire format."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _config_bytes(n: int, m: int, elements: dict, vectors: dict | None = None) -> bytes:
    data = {"n": n, "m": m, "elements": {k: _wire(v) for k, v in elements.items()}}
    if vectors:
        data["vectors"] = {k: _wire(v) for k, v in vectors.items()}
    return json.dumps(data, separators=(",", ":")).encode()


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _verify_inputs(rng: np.random.Generator, pool: int):
    seeds = rng.integers(0, 2 ** 31, size=pool)
    items = [
        Item(key=f"verify-{i}", argvs=[["verify-all", "--seed", str(int(s))]])
        for i, s in enumerate(seeds)
    ]
    return items, {}


def _closure_inputs(rng: np.random.Generator, pool: int):
    """One generator per fiber k: a random line projection at k, zero elsewhere.

    Such generators commute and meet in zero, so the closure is the Boolean
    algebra on the m lines plus the identity: 2^m + 1 nodes, m quasipoints.
    """
    items, files = [], {}
    for i in range(pool):
        u = _complex_normal(rng, (CLOSURE_M, CLOSURE_N))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        gens = {}
        for k in range(CLOSURE_M):
            fibers = np.zeros((CLOSURE_M, CLOSURE_N, CLOSURE_N), dtype=np.complex128)
            fibers[k] = np.outer(u[k], np.conj(u[k]))
            gens[f"G{k}"] = fibers
        name = f"closure-{i}.json"
        files[name] = _config_bytes(CLOSURE_N, CLOSURE_M, gens)
        items.append(Item(key=f"closure-{i}", argvs=[["quasipoints", "--config", "{config}"]],
                          config=name))
    return items, files


def _observe_inputs(rng: np.random.Generator, pool: int):
    """A Hermitian A, a vector v with about a quarter of its fibers zero, and
    P, the projection onto v's line; one five-command session per config."""
    m, n = OBSERVE_M, OBSERVE_N
    items, files = [], {}
    for i in range(pool):
        b = _complex_normal(rng, (m, n, n))
        a = 0.5 * (b + np.conj(np.swapaxes(b, 1, 2)))
        v = _complex_normal(rng, (m, n))
        v[rng.random(m) < OBSERVE_ZERO_FIBERS] = 0.0
        support = np.flatnonzero(np.any(v != 0, axis=1))
        u = np.zeros_like(v)
        u[support] = v[support] / np.linalg.norm(v[support], axis=1, keepdims=True)
        p = np.einsum("mi,mj->mij", u, np.conj(u))
        name = f"observe-{i}.json"
        files[name] = _config_bytes(n, m, {"A": a, "P": p}, {"v": v})
        argvs = [
            ["observable", "--config", "{config}", "--op", "A"],
            ["e-a", "--config", "{config}", "--vector", "v"],
            ["normalize", "--config", "{config}", "--vector", "v"],
            ["central-carrier", "--config", "{config}", "--op", "P"],
            ["abelian-check", "--config", "{config}", "--op", "P"],
        ]
        expect = {
            "spectrum": np.sort(np.linalg.eigvalsh(a).ravel()),
            "support": support.tolist(),
        }
        items.append(Item(key=f"observe-{i}", argvs=argvs, config=name, expect=expect))
    return items, files


_GENERATORS = {
    "verify": _verify_inputs,
    "closure": _closure_inputs,
    "observe": _observe_inputs,
}

WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> Inputs:
    rng = np.random.Generator(np.random.PCG64([seed, WORKLOADS.index(workload)]))
    items, files = _GENERATORS[workload](rng, POOL[workload])
    return Inputs(items, files)


# -- independent output checks -------------------------------------------------


def _report(rc: int, out: str, problems: list, what: str):
    """Parse one command's canonical JSON and check it passed; None on failure."""
    if rc != 0:
        problems.append(f"{what}: exit code {rc}")
        return None
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        problems.append(f"{what}: stdout is not JSON ({exc})")
        return None
    if payload.get("passed") is not True:
        problems.append(f"{what}: report says passed={payload.get('passed')!r}")
    failing = [p.get("name") for p in payload.get("properties", []) if p.get("passed") is not True]
    if failing:
        problems.append(f"{what}: failing properties {failing}")
    return payload


def _check_verify(item: Item, payloads: list, problems: list):
    suites = payloads[0]["results"]["suites"]
    if len(suites) != VERIFY_SUITES:
        problems.append(f"verify-all reported {len(suites)} suites, expected {VERIFY_SUITES}")
    failing = [s["name"] for s in suites if s.get("passed") is not True]
    if failing:
        problems.append(f"verify-all suites failing: {failing}")


def _check_closure(item: Item, payloads: list, problems: list):
    res = payloads[0]["results"]
    if res["size"] != CLOSURE_NODES:
        problems.append(f"closure has {res['size']} nodes, expected {CLOSURE_NODES}")
    if len(res["quasipoints"]) != CLOSURE_QUASIPOINTS:
        problems.append(
            f"closure has {len(res['quasipoints'])} quasipoints, expected {CLOSURE_QUASIPOINTS}"
        )


def _check_observe(item: Item, payloads: list, problems: list):
    obs, e_a, norm, carrier, abelian = (p["results"] for p in payloads)
    if len(obs["rows"]) != OBSERVE_M * OBSERVE_N:
        problems.append(f"observable has {len(obs['rows'])} rows, expected {OBSERVE_M * OBSERVE_N}")
    ref = item.expect["spectrum"]
    image = np.asarray(obs["image"], dtype=float)
    idx = np.clip(np.searchsorted(ref, image), 1, ref.size - 1)
    dist = np.minimum(np.abs(image - ref[idx - 1]), np.abs(image - ref[idx]))
    if image.size == 0 or float(dist.max()) > SPECTRUM_TOL:
        problems.append("observable image is not inside the spectrum of A")
    support = item.expect["support"]
    if norm["support"] != support:
        problems.append("normalize support differs from the nonzero fibers of v")
    on = set(support)
    want = [[1.0, 0.0] if k in on else [0.0, 0.0] for k in range(OBSERVE_M)]
    if carrier["carrier"] != want or e_a["carrier"] != want:
        problems.append("central carrier differs from the support of v")
    if not (abelian["is_projection"] and abelian["abelian"]):
        problems.append("line projection P is not reported abelian")


_CHECKS = {"verify": _check_verify, "closure": _check_closure, "observe": _check_observe}


def check(workload: str, item: Item, outputs: list) -> list:
    """Problems found in an item's outputs, a list of (exit code, stdout)."""
    problems: list = []
    payloads = [
        _report(rc, out, problems, argv[0]) for (rc, out), argv in zip(outputs, item.argvs)
    ]
    if len(outputs) != len(item.argvs):
        problems.append(f"{len(outputs)} outputs for {len(item.argvs)} commands")
    if not problems:
        try:
            _CHECKS[workload](item, payloads, problems)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"report is missing expected fields ({exc!r})")
    return problems


def digest(outputs: list) -> str:
    """SHA-256 over the stdout of every command of an item, in order."""
    h = hashlib.sha256()
    for _, out in outputs:
        h.update(out.encode())
        h.update(b"\0")
    return h.hexdigest()
