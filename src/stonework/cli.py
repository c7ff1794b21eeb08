"""Command-line workbench: load an algebra config, run computations and
verification suites, emit deterministic reports.

    stonework <command> [--config FILE] [--eps X] [--seed N] [--format json|text]

Commands: abelian-check, e-a, central-carrier, normalize, quasipoints, zeta,
orbit, observable, germ, verify-all. Exit codes: 0 ok, 1 property failure,
2 config parse error, 3 validation error (including a bad or missing flag),
4 unknown command, 5 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

import numpy as np

from . import center as ct
from . import hilbert_module as hm
from . import lattice as lt
from . import matrix_algebra as ma
from . import observables as ob
from . import spectrum as sp
from .config import AlgebraConfig, encode, load_config
from .errors import ParseError, StoneworkError, ValidationError
from .numerics import Tolerance
from .report import Report, emit_report
from .verify import run_all


def _named(table: dict, kind: str, name: str):
    """The config's element or vector (kind) of this name."""
    if name not in table:
        raise ValidationError(f"no {kind} named {name!r} in the config")
    return table[name]


def _parse_point(cfg: AlgebraConfig, spec: str) -> sp.Quasipoint:
    """Parse 'omega=K,line=e1' or 'omega=K,line=<vector name>'."""
    fields = {}
    for chunk in spec.split(","):
        key, eq, value = (part.strip() for part in chunk.partition("="))
        if not eq or key in fields:  # no '=', or a field given twice
            raise ValidationError(f"bad quasipoint spec {spec!r}")
        fields[key] = value
    if set(fields) != {"omega", "line"}:
        raise ValidationError(f"quasipoint spec needs omega= and line=, got {spec!r}")
    try:
        omega = int(fields["omega"])
    except ValueError as exc:
        raise ValidationError(f"omega must be an integer in {spec!r}") from exc
    if not (0 <= omega < cfg.m):
        raise ValidationError(f"omega {omega} outside the space of {cfg.m} points")
    token = fields["line"]
    if token.startswith("e") and token[1:].isdecimal():
        k = int(token[1:]) - 1
        if not (0 <= k < cfg.n):
            raise ValidationError(f"basis line {token} outside dimension {cfg.n}")
        line = np.eye(cfg.n, dtype=np.complex128)[k]
    else:
        vec = _named(cfg.vectors, "vector", token)
        line = vec.values[omega]
        if not line.any():
            raise ValidationError(f"vector {token!r} vanishes at fiber {omega}")
    return sp.quasipoint(cfg.space, omega, line)


# -- command handlers ------------------------------------------------------


def _cmd_abelian_check(cfg, args, tol, seed):
    op = _named(cfg.elements, "element", args.op)
    proj = op.is_projection(tol)
    abelian = proj and ma.is_abelian_projection(op, tol)
    results = {"op": args.op, "is_projection": proj, "abelian": abelian}
    return results, [{"name": "abelian_projection", "passed": abelian}]


def _cmd_e_a(cfg, args, tol, seed):
    a = _named(cfg.vectors, "vector", args.vector)
    a_hat = hm.normalize(a, tol)
    e = hm.abelian_projection(a_hat, tol)
    gram = hm.inner(a_hat, a_hat)
    results = {
        "vector": args.vector,
        "normalized": encode(a_hat.values),
        "projection": encode(e.values),
        "gram": encode(gram.values),
        "carrier": encode(ma.central_carrier(e, tol).values),
    }
    props = [
        {"name": "is_projection", "passed": e.is_projection(tol)},
        {"name": "abelian", "passed": ma.is_abelian_projection(e, tol)},
        {"name": "gram_is_boolean", "passed": gram.is_projection()},
    ]
    return results, props


def _cmd_central_carrier(cfg, args, tol, seed):
    op = _named(cfg.elements, "element", args.op)
    carrier = ma.central_carrier(op, tol)
    dominated = (ma.central_operator(carrier, cfg.n) @ op).allclose(op, 1e3 * tol.eps)
    results = {"op": args.op, "carrier": encode(carrier.values)}
    return results, [{"name": "carrier_dominates", "passed": dominated}]


def _cmd_normalize(cfg, args, tol, seed):
    a = _named(cfg.vectors, "vector", args.vector)
    a_hat = hm.normalize(a, tol)
    gram = hm.inner(a_hat, a_hat)
    results = {
        "vector": args.vector,
        "normalized": encode(a_hat.values),
        "gram": encode(gram.values),
        "support": sorted(hm.support(a, tol)),
    }
    return results, [{"name": "gram_is_boolean", "passed": gram.is_projection()}]


def _cmd_quasipoints(cfg, args, tol, seed):
    if args.ops is not None:
        names = [s.strip() for s in args.ops.split(",") if s.strip()]
        gens = [_named(cfg.elements, "element", name) for name in names]
    else:
        names = [name for name, op in cfg.elements.items() if op.is_projection(tol)]
        gens = [cfg.elements[name] for name in names]
    if not gens:
        raise ValidationError("no projection generators available for the lattice")
    lat = lt.meet_closure(gens, cap=args.cap, tol=tol)
    points, atoms = lt.enumerate_quasipoints(lat), lat.atoms()
    axioms_ok = all(lt.is_quasipoint(lat, b.members) for b in points)
    results = {
        "generators": names,
        "size": len(lat),
        "elements": encode(lat.nodes),
        "leq": lat.leq.tolist(),
        "atoms": atoms,
        "quasipoints": [
            {"atom": a, "members": sorted(int(i) for i in b.members)}
            for a, b in zip(atoms, points)
        ],
    }
    return results, [{"name": "quasipoint_axioms", "passed": axioms_ok}]


def _cmd_zeta(cfg, args, tol, seed):
    b = _parse_point(cfg, args.point)
    beta = sp.zeta(b)

    def consistent_at(k):
        # the projection lattice of a direct sum is the product of its
        # fibers' lattices, so the characteristic projection of point k is
        # checked on the points {omega, k} alone, in their order on the base:
        # linear in m, where projections over the whole base made it quadratic
        points = sorted({beta.omega, k})
        local = sp.quasipoint(ct.StoneSpace(len(points)), points.index(beta.omega), b.line)
        return sp.central_membership_consistent(local, ct.char_fn(local.space, [points.index(k)]), tol)

    consistent = all(consistent_at(k) for k in cfg.space)
    results = {"point": sp.quasipoint_to_dict(b), "omega": int(beta.omega)}
    return results, [{"name": "central_membership", "passed": consistent}]


def _cmd_orbit(cfg, args, tol, seed):
    b = _parse_point(cfg, args.src)
    b2 = _parse_point(cfg, args.dst)
    u = sp.orbit_witness(b, b2, tol)
    results = {
        "from": sp.quasipoint_to_dict(b),
        "to": sp.quasipoint_to_dict(b2),
        "same_class": u is not None,
        "unitary": None if u is None else encode(u.values),
    }
    if u is None:
        return results, [{"name": "orbit_separation", "passed": True}]
    moved = sp.unitary_act(u, b, tol)
    props = [
        {"name": "unitary_witness", "passed": bool(u.is_unitary(tol))},
        {"name": "moves_line", "passed": bool(moved.same_line(b2))},
    ]
    return results, props


def _cmd_observable(cfg, args, tol, seed):
    op = _named(cfg.elements, "element", args.op)
    family = ob.spectral_family(op, tol)
    if args.points:
        points = [_parse_point(cfg, spec) for spec in args.points]
        omega, lines = np.array([b.omega.omega for b in points]), np.array([b.line for b in points])
    else:
        omega, lines = ob.eigenline_quasipoints(family)
    values = ob.observable_values(family, omega, lines, tol).tolist()
    rows = [{"omega": k, "line": x, "value": v} for k, x, v in zip(omega.tolist(), encode(lines), values)]
    image = sorted(set(values))
    spectrum = ob.spectrum_values(op, tol)
    # the spectrum value nearest to an image value is a neighbour in sorted order
    hi = np.minimum(np.searchsorted(spectrum, image), spectrum.size - 1)
    lo = np.maximum(hi - 1, 0)
    gap = np.minimum(abs(image - spectrum[lo]), abs(image - spectrum[hi]))
    # relative to max(1, spectral radius): eigh and eigvalsh agree to a few ulps
    contained = bool(np.all(gap <= 1e-8 * np.abs(spectrum).max(initial=1.0)))
    results = {"op": args.op, "rows": rows, "image": image, "spectrum": spectrum.tolist()}
    return results, [{"name": "image_in_spectrum", "passed": contained, "tolerance": 1e-8}]


def _cmd_germ(cfg, args, tol, seed):
    a = _named(cfg.vectors, "vector", args.vector)
    if not (0 <= args.beta < cfg.m):
        raise ValidationError(f"beta {args.beta} outside the space of {cfg.m} points")
    beta = ct.CenterQuasipoint(cfg.space, args.beta)
    germ = sp.germ_eval(a, beta)
    basis = [
        sp.germ_eval(hm.basis_vector(cfg.space, cfg.n, k), beta)
        for k in range(cfg.n)
    ]
    spans = bool(np.array_equal(np.stack(basis), np.eye(cfg.n, dtype=complex)))
    results = {
        "vector": args.vector,
        "beta": int(args.beta),
        "germ": encode(germ),
    }
    return results, [{"name": "basis_germs_standard", "passed": spans}]


def _cmd_verify_all(cfg, args, tol, seed):
    suites = run_all(seed, tol)
    results = {"suites": [s.as_dict() for s in suites]}
    props = [
        {
            "name": s.name,
            "passed": s.passed,
            "max_residual": s.max_residual,
            "tolerance": s.tolerance,
        }
        for s in suites
    ]
    return results, props, {f"suite.{s.name}": s.ms for s in suites}


_HANDLERS = {
    "abelian-check": _cmd_abelian_check,
    "e-a": _cmd_e_a,
    "central-carrier": _cmd_central_carrier,
    "normalize": _cmd_normalize,
    "quasipoints": _cmd_quasipoints,
    "zeta": _cmd_zeta,
    "orbit": _cmd_orbit,
    "observable": _cmd_observable,
    "germ": _cmd_germ,
    "verify-all": _cmd_verify_all,
}
COMMANDS = tuple(_HANDLERS)


class _Parser(argparse.ArgumentParser):
    """Reports a bad or missing flag as a ValidationError (exit 3) instead of
    argparse's own exit 2, which the exit codes reserve for config parse errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser(command: str) -> argparse.ArgumentParser:
    parser = _Parser(prog=f"stonework {command}")
    parser.add_argument("--config", default=None, help="JSON algebra config file")
    parser.add_argument("--eps", type=float, default=1e-9, help="tolerance knob")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    if command in ("abelian-check", "central-carrier", "observable"):
        parser.add_argument("--op", required=True)
    if command in ("e-a", "normalize", "germ"):
        parser.add_argument("--vector", required=True)
    if command == "germ":
        parser.add_argument("--beta", type=int, required=True)
    if command == "zeta":
        parser.add_argument("--point", required=True)
    if command == "orbit":
        parser.add_argument("--from", dest="src", required=True)
        parser.add_argument("--to", dest="dst", required=True)
    if command == "observable":
        parser.add_argument("--point", dest="points", action="append", default=[])
    if command == "quasipoints":
        parser.add_argument("--ops", default=None, help="comma-separated element names")
        parser.add_argument("--cap", type=int, default=4096)
    return parser


def run_command(cfg: AlgebraConfig, command: str, args, tol: Tolerance, seed: int) -> Report:
    """Dispatch one command against a loaded config and collect the report."""
    start = time.perf_counter()
    # a handler may add timings of its parts (verify-all: one per suite)
    results, props, *parts = _HANDLERS[command](cfg, args, tol, seed)
    timings = {command: (time.perf_counter() - start) * 1e3}
    timings.update(*parts)
    return Report(
        command=command,
        eps=tol.eps,
        seed=seed,
        inputs={"n": cfg.n, "m": cfg.m},
        results=results,
        properties=props,
        timings_ms=timings,
    )


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with Python's cyclic garbage collector paused: the data
    it builds (the config's JSON tree, numpy arrays, the report) hold no
    reference cycles, yet a large config alone sets off hundreds of
    collections. The caller's collector state comes back on every exit path.
    The pause is process-wide, so main is not meant to be called from several
    threads at once. Floating-point overflow and invalid operations raise no
    numpy warnings: every verdict comes from an explicit ``isfinite`` check or
    an ``<= eps`` comparison, which NaN fails.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0
    command = argv[0]
    if command not in COMMANDS:
        print(f"stonework: unknown command {command!r}; choose from {', '.join(COMMANDS)}",
              file=sys.stderr)
        return 4
    parser = _build_parser(command)
    try:
        args = parser.parse_args(argv[1:])
        # SplitMix64 reads its seed mod 2**64, so a seed outside would alias another
        if args.seed is not None and not 0 <= args.seed < 2**64:
            parser.error(f"argument --seed: {args.seed} outside 0..2**64 - 1")
        tol = Tolerance(args.eps)
    except (ValidationError, ValueError) as exc:
        print(f"stonework: {exc}", file=sys.stderr)
        return 3
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        else:
            cfg = AlgebraConfig(n=2, m=2)
        seed = args.seed if args.seed is not None else cfg.seed
        report = run_command(cfg, command, args, tol, seed)
        emit_report(report, args.format)
    except ParseError as exc:
        print(f"stonework: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, StoneworkError) as exc:
        print(f"stonework: {exc}", file=sys.stderr)
        return 3
    except IOError as exc:
        print(f"stonework: {exc}", file=sys.stderr)
        return 5
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
