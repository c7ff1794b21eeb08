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
from .errors import (
    ParseError,
    StoneworkError,
    UnknownCommand,
    ValidationError,
)
from .numerics import Tolerance
from .report import Report, emit_report
from .verify import run_all

COMMANDS = (
    "abelian-check",
    "e-a",
    "central-carrier",
    "normalize",
    "quasipoints",
    "zeta",
    "orbit",
    "observable",
    "germ",
    "verify-all",
)


def _named_element(cfg: AlgebraConfig, name: str) -> ma.FiberedOperator:
    if name not in cfg.elements:
        raise ValidationError(f"no element named {name!r} in the config")
    return cfg.elements[name]


def _named_vector(cfg: AlgebraConfig, name: str) -> hm.ModuleElement:
    if name not in cfg.vectors:
        raise ValidationError(f"no vector named {name!r} in the config")
    return cfg.vectors[name]


def _parse_point(cfg: AlgebraConfig, spec: str) -> sp.Quasipoint:
    """Parse 'omega=K,line=e1' or 'omega=K,line=<vector name>'."""
    fields = {}
    for chunk in spec.split(","):
        if "=" not in chunk:
            raise ValidationError(f"bad quasipoint spec {spec!r}")
        key, value = chunk.split("=", 1)
        fields[key.strip()] = value.strip()
    if set(fields) != {"omega", "line"}:
        raise ValidationError(f"quasipoint spec needs omega= and line=, got {spec!r}")
    try:
        omega = int(fields["omega"])
    except ValueError as exc:
        raise ValidationError(f"omega must be an integer in {spec!r}") from exc
    if not (0 <= omega < cfg.m):
        raise ValidationError(f"omega {omega} outside the space of {cfg.m} points")
    token = fields["line"]
    if token.startswith("e") and token[1:].isdigit():
        k = int(token[1:]) - 1
        if not (0 <= k < cfg.n):
            raise ValidationError(f"basis line {token} outside dimension {cfg.n}")
        line = np.eye(cfg.n, dtype=np.complex128)[k]
    else:
        vec = _named_vector(cfg, token)
        line = vec.values[omega]
        if float(np.linalg.norm(line)) <= 0.0:
            raise ValidationError(f"vector {token!r} vanishes at fiber {omega}")
    return sp.quasipoint(cfg.space, omega, line)


# -- command handlers ------------------------------------------------------


def _cmd_abelian_check(cfg, args, tol, seed):
    op = _named_element(cfg, args.op)
    proj = op.is_projection(tol)
    abelian = proj and ma.is_abelian_projection(op, tol)
    results = {"op": args.op, "is_projection": proj, "abelian": abelian}
    props = [{"name": "abelian_projection", "passed": abelian}]
    return results, props, abelian


def _cmd_e_a(cfg, args, tol, seed):
    a = _named_vector(cfg, args.vector)
    a_hat = hm.normalize(a, tol)
    e = hm.abelian_projection(a_hat, tol)
    gram = hm.inner(a_hat, a_hat)
    carrier = ma.central_carrier(e, tol) if e.norm_max() > 0 else gram
    results = {
        "vector": args.vector,
        "normalized": encode(a_hat.values),
        "projection": encode(e.values),
        "gram": encode(gram.values),
        "carrier": encode(carrier.values),
    }
    props = [
        {"name": "is_projection", "passed": e.is_projection(tol)},
        {"name": "abelian", "passed": ma.is_abelian_projection(e, tol) if e.norm_max() > 0 else True},
        {"name": "gram_is_boolean", "passed": gram.is_projection()},
    ]
    return results, props, all(p["passed"] for p in props)


def _cmd_central_carrier(cfg, args, tol, seed):
    op = _named_element(cfg, args.op)
    carrier = ma.central_carrier(op, tol)
    dominated = (ma.central_operator(carrier, cfg.n) @ op).allclose(op, 1e3 * tol.eps)
    results = {"op": args.op, "carrier": encode(carrier.values)}
    props = [{"name": "carrier_dominates", "passed": dominated}]
    return results, props, dominated


def _cmd_normalize(cfg, args, tol, seed):
    a = _named_vector(cfg, args.vector)
    a_hat = hm.normalize(a, tol)
    gram = hm.inner(a_hat, a_hat)
    results = {
        "vector": args.vector,
        "normalized": encode(a_hat.values),
        "gram": encode(gram.values),
        "support": sorted(hm.support(a, tol)),
    }
    props = [{"name": "gram_is_boolean", "passed": gram.is_projection()}]
    return results, props, gram.is_projection()


def _cmd_quasipoints(cfg, args, tol, seed):
    if args.ops:
        names = [s.strip() for s in args.ops.split(",") if s.strip()]
        gens = [_named_element(cfg, name) for name in names]
    else:
        names = [name for name, op in cfg.elements.items() if op.is_projection(tol)]
        gens = [cfg.elements[name] for name in names]
    if not gens:
        raise ValidationError("no projection generators available for the lattice")
    lat = lt.meet_closure(gens, cap=args.cap, tol=tol)
    points = lt.enumerate_quasipoints(lat)
    axioms_ok = all(lt.is_quasipoint(lat, b.members) for b in points)
    results = {
        "generators": names,
        "size": len(lat),
        "elements": [encode(e.values) for e in lat.elements],
        "leq": [[bool(x) for x in row] for row in lat.leq],
        "atoms": [int(a) for a in lat.atoms()],
        "quasipoints": [
            {"atom": int(a), "members": sorted(int(i) for i in b.members)}
            for a, b in zip(lat.atoms(), points)
        ],
    }
    props = [{"name": "quasipoint_axioms", "passed": axioms_ok}]
    return results, props, axioms_ok


def _cmd_zeta(cfg, args, tol, seed):
    b = _parse_point(cfg, args.point)
    beta = sp.zeta(b)
    consistent = all(
        sp.central_membership_consistent(b, ct.char_fn(cfg.space, [k]), tol)
        for k in cfg.space
    )
    results = {"point": sp.quasipoint_to_dict(b), "omega": int(beta.omega)}
    props = [{"name": "central_membership", "passed": consistent}]
    return results, props, consistent


def _cmd_orbit(cfg, args, tol, seed):
    b = _parse_point(cfg, args.src)
    b2 = _parse_point(cfg, args.dst)
    u = sp.orbit_witness(b, b2, tol)
    if u is None:
        results = {
            "from": sp.quasipoint_to_dict(b),
            "to": sp.quasipoint_to_dict(b2),
            "same_class": False,
            "unitary": None,
        }
        props = [{"name": "orbit_separation", "passed": True}]
        return results, props, True
    moved = sp.unitary_act(u, b, tol)
    agree = abs(np.vdot(moved.line, b2.line)) >= 1.0 - sp.LINE_EQ_TOL
    results = {
        "from": sp.quasipoint_to_dict(b),
        "to": sp.quasipoint_to_dict(b2),
        "same_class": True,
        "unitary": encode(u.values),
    }
    props = [
        {"name": "unitary_witness", "passed": bool(u.is_unitary(tol))},
        {"name": "moves_line", "passed": bool(agree)},
    ]
    return results, props, all(p["passed"] for p in props)


def _cmd_observable(cfg, args, tol, seed):
    op = _named_element(cfg, args.op)
    ob.require_self_adjoint(op, tol)
    if args.points:
        sample = [_parse_point(cfg, spec) for spec in args.points]
    else:
        sample = ob.eigenline_quasipoints(op, tol)
    values = ob.observable_values(ob.spectral_family(op, tol), sample, tol).tolist()
    rows = [{**sp.quasipoint_to_dict(b), "value": v} for b, v in zip(sample, values)]
    image = sorted(set(values))
    spectrum = ob.spectrum_values(op, tol)
    # the spectrum value nearest to an image value is a neighbour in sorted order
    hi = np.minimum(np.searchsorted(spectrum, image), spectrum.size - 1)
    lo = np.maximum(hi - 1, 0)
    gap = np.minimum(abs(image - spectrum[lo]), abs(image - spectrum[hi]))
    contained = bool(np.all(gap <= 1e-8))
    results = {"op": args.op, "rows": rows, "image": image, "spectrum": spectrum.tolist()}
    props = [{"name": "image_in_spectrum", "passed": contained, "tolerance": 1e-8}]
    return results, props, contained


def _cmd_germ(cfg, args, tol, seed):
    a = _named_vector(cfg, args.vector)
    if not (0 <= args.beta < cfg.m):
        raise ValidationError(f"beta {args.beta} outside the space of {cfg.m} points")
    beta = ct.CenterQuasipoint(cfg.space, args.beta)
    germ = sp.germ_eval(a, beta)
    basis = [
        sp.germ_eval(hm.basis_vector(cfg.space, cfg.n, k), beta).value
        for k in range(cfg.n)
    ]
    spans = bool(np.array_equal(np.stack(basis), np.eye(cfg.n, dtype=complex)))
    results = {
        "vector": args.vector,
        "beta": int(args.beta),
        "germ": encode(germ.value),
    }
    props = [{"name": "basis_germs_standard", "passed": spans}]
    return results, props, spans


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
    return results, props, all(s.passed for s in suites)


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
    if command not in _HANDLERS:
        raise UnknownCommand(f"unknown command {command!r}")
    start = time.perf_counter()
    results, props, passed = _HANDLERS[command](cfg, args, tol, seed)
    elapsed = (time.perf_counter() - start) * 1e3
    return Report(
        command=command,
        eps=tol.eps,
        seed=seed,
        inputs={"n": cfg.n, "m": cfg.m},
        results=results,
        properties=props,
        passed=passed,
        timings_ms={command: elapsed},
    )


def main(argv=None) -> int:
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
