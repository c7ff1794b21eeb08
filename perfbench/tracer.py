"""Span tracer installed around the stonework package from the outside.

``Tracer.install`` replaces, for the duration of a traced run, every name a
layer module imports from the package (``lattice.max_abs``,
``lattice.fibered_meet``, ...), every public function a layer defines, the
public methods of its classes, and numpy's Hermitian eigen-solvers, with
wrappers that record a span per call. Spans nest from caller to callee;
a layer's self time is the duration of its spans minus the part covered by
their child spans. Spans are folded into a call tree in memory and written
out when the run ends. ``uninstall`` restores every replaced name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

LAYERS = (
    "cli", "config", "report", "verify", "rng", "lattice", "matrix_algebra",
    "numerics", "hilbert_module", "spectrum", "observables", "center",
)

SUITES = (
    "abelian_commutation", "abelian_matrix_formula", "central_carriers",
    "normalization", "pythagoras_failure", "quasipoint_axioms",
    "all_quasipoints_abelian", "orbit_parametrization", "observable_functions",
    "germ_structure", "transport_laws", "star_algebra_laws",
    "ket_bra_composition", "diagonal_sums", "zeta_surjectivity",
    "stone_topology", "observable_equivariance",
)

#: Per-layer self-time metric; rng's is the time spent drawing samples.
SELF_METRIC = {layer: f"{layer}.self_ms" for layer in LAYERS}
SELF_METRIC["rng"] = "rng.draw_ms"

#: Private names that are traced because other modules import them.
_PRIVATE_TRACED = {"_unitize"}
#: Dunder methods that are traced because a metric needs them.
_DUNDER_TRACED = {"FiniteLattice.__init__", "Quasipoint.__init__"}

#: Groups of spans. A group's time counts while any member span is open (so
#: nested members are not counted twice); its calls count every member call.
#: Members are span names, or "module:name" for one module's import binding.
GROUPS = {
    "config.load": ("config.load_config",),
    "report.emit": ("report.emit_report",),
    **{f"verify.suite.{s}": (f"verify.suite_{s}",) for s in SUITES},
    "rng.next_u64": ("rng.SplitMix64.next_u64",),
    "lattice.closure": ("lattice.meet_closure",),
    "lattice.tables": ("lattice.FiniteLattice.__init__",),
    "lattice.quasipoint_check": (
        "lattice.FiniteLattice.atoms", "lattice.enumerate_quasipoints", "lattice.is_quasipoint",
    ),
    "lattice.dedup": ("lattice:max_abs",),
    "lattice.attempts": ("lattice:fibered_meet", "lattice:fibered_join"),
    "matrix_algebra.meet_join": ("matrix_algebra.fibered_meet", "matrix_algebra.fibered_join"),
    "matrix_algebra.projection_check": (
        "matrix_algebra.FiberedOperator.is_projection", "matrix_algebra.require_projection",
    ),
    "matrix_algebra.is_projection": ("matrix_algebra.FiberedOperator.is_projection",),
    "matrix_algebra.carrier_generator": (
        "matrix_algebra.central_carrier", "matrix_algebra.abelian_generator",
    ),
    "numerics.eigh": ("numpy.linalg.eigh", "numpy.linalg.eigvalsh"),
    "numerics.null_projector": ("numerics.null_projector",),
    "hilbert_module.normalize": ("hilbert_module.normalize",),
    "hilbert_module.unitize": ("hilbert_module._unitize",),
    "spectrum.quasipoint": ("spectrum.Quasipoint.__init__",),
    "observables.spectral_family": ("observables.spectral_family",),
    "observables.eigenline": ("observables.eigenline_quasipoints",),
    "observables.value": ("observables.observable_value", "observables.observable_value_from_family"),
    "observables.value_calls": ("observables.observable_value_from_family",),
}

#: Per-layer metric name -> (kind, source, unit). Kinds: "self" (layer self
#: time), "ms"/"calls" (group time/calls), "count" (a hook counter), "ratio"
#: (quotient of two per-run totals), "op" (filled in by the runner).
METRICS = {
    **{SELF_METRIC[layer]: ("self", layer, "ms") for layer in LAYERS},
    "config.load_ms": ("ms", "config.load", "ms"),
    "config.bytes_in": ("count", "config.bytes_in", "bytes"),
    "report.emit_ms": ("ms", "report.emit", "ms"),
    "report.bytes_out": ("op", "report.bytes_out", "bytes"),
    **{f"verify.suite.{s}_ms": ("ms", f"verify.suite.{s}", "ms") for s in SUITES},
    "rng.u64_draws": ("calls", "rng.next_u64", "count"),
    "lattice.closure_ms": ("ms", "lattice.closure", "ms"),
    "lattice.tables_ms": ("ms", "lattice.tables", "ms"),
    "lattice.quasipoint_check_ms": ("ms", "lattice.quasipoint_check", "ms"),
    "lattice.nodes": ("count", "lattice.nodes", "count"),
    "lattice.meet_join_attempts": ("calls", "lattice.attempts", "count"),
    "lattice.dedup_compares": ("calls", "lattice.dedup", "count"),
    "lattice.dedup_ms": ("ms", "lattice.dedup", "ms"),
    "lattice.useful_ratio": ("ratio", ("count:lattice.new_nodes", "calls:lattice.attempts"), "ratio"),
    "matrix_algebra.meet_join_ms": ("ms", "matrix_algebra.meet_join", "ms"),
    "matrix_algebra.projection_checks": ("calls", "matrix_algebra.is_projection", "count"),
    "matrix_algebra.projection_check_ms": ("ms", "matrix_algebra.projection_check", "ms"),
    "matrix_algebra.carrier_generator_ms": ("ms", "matrix_algebra.carrier_generator", "ms"),
    "numerics.eigh_calls": ("calls", "numerics.eigh", "count"),
    "numerics.eigh_matrices": ("count", "numerics.eigh_matrices", "count"),
    "numerics.matrices_per_call": (
        "ratio", ("count:numerics.eigh_matrices", "calls:numerics.eigh"), "matrices/call",
    ),
    "numerics.null_projector_ms": ("ms", "numerics.null_projector", "ms"),
    "hilbert_module.normalize_ms": ("ms", "hilbert_module.normalize", "ms"),
    "hilbert_module.unitize_calls": ("calls", "hilbert_module.unitize", "count"),
    "hilbert_module.unitize_ms": ("ms", "hilbert_module.unitize", "ms"),
    "spectrum.quasipoint_calls": ("calls", "spectrum.quasipoint", "count"),
    "spectrum.quasipoint_ms": ("ms", "spectrum.quasipoint", "ms"),
    "observables.spectral_family_ms": ("ms", "observables.spectral_family", "ms"),
    "observables.eigenline_ms": ("ms", "observables.eigenline", "ms"),
    "observables.value_calls": ("calls", "observables.value_calls", "count"),
    "observables.value_ms": ("ms", "observables.value", "ms"),
    "trace.overhead_ratio": ("op", "trace.overhead_ratio", "ratio"),
}


def _closure_hook(counters, args, kwargs, result):
    """Nodes of a closure, and how many of them its meets and joins added.

    The closure inserts zero, one and the generators first, merging equal
    ones, so the nodes it started from are the distinct matches of those
    among its leading elements.
    """
    import numpy as np

    gens = args[0] if args else kwargs["generators"]
    eps = importlib.import_module("stonework.lattice").DEDUP_EPS
    head = np.stack([e.values for e in result.elements[: 2 + len(gens)]])
    seeds = {0, 1}
    for g in gens:
        diff = np.abs(head - g.values).reshape(len(head), -1).max(axis=1)
        seeds.add(int(np.argmax(diff <= eps)))
    counters["lattice.nodes"] += len(result)
    counters["lattice.new_nodes"] += len(result) - len(seeds)


def _load_hook(counters, args, kwargs, result):
    counters["config.bytes_in"] += os.path.getsize(args[0] if args else kwargs["path"])


def _eigh_hook(counters, args, kwargs, result):
    shape = getattr(args[0], "shape", None) or (1, 1)
    matrices = 1
    for d in shape[:-2]:
        matrices *= d
    counters["numerics.eigh_matrices"] += matrices


_COUNTERS = ("lattice.nodes", "lattice.new_nodes", "config.bytes_in", "numerics.eigh_matrices")

_HOOKS = {
    "lattice.meet_closure": _closure_hook,
    "config.load_config": _load_hook,
    "numpy.linalg.eigh": _eigh_hook,
    "numpy.linalg.eigvalsh": _eigh_hook,
}


class _Node:
    """A call path: self time and call count of the spans that took it."""

    __slots__ = ("children", "self_s", "calls")

    def __init__(self):
        self.children = {}
        self.self_s = 0.0
        self.calls = 0


class _Group:
    __slots__ = ("timed", "calls", "depth", "start", "total_s")

    def __init__(self, timed: bool):
        self.timed = timed
        self.calls = self.depth = 0
        self.start = self.total_s = 0.0


class Tracer:
    def __init__(self):
        self.root = _Node()
        self.stack = []  # open spans: [node, start, child seconds, layer]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        timed = {source for kind, source, _ in METRICS.values() if kind == "ms"}
        self.groups = {g: _Group(g in timed) for g in GROUPS}
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._members = {}
        for g, members in GROUPS.items():
            for member in members:
                self._members.setdefault(member, []).append(self.groups[g])
        self._patched = []

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, span: str, layer: str, binding: str | None = None):
        members = list(self._members.get(span, ()))
        if binding is not None:
            members += self._members.get(binding, ())
        timed = [g for g in members if g.timed]
        counted = [g for g in members if not g.timed]
        hook = _HOOKS.get(span)
        # A call from a span of the same layer changes no layer's self time,
        # so it opens no span unless a timed group or a hook needs it.
        inline = not timed and hook is None
        stack, layer_self, root, counters = self.stack, self.layer_self, self.root, self.counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for g in counted:
                g.calls += 1
            if inline and stack and stack[-1][3] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else root
            node = parent.children.get(span)
            if node is None:
                node = parent.children[span] = _Node()
            now = perf()
            for g in timed:
                g.calls += 1
                if g.depth == 0:
                    g.start = now
                g.depth += 1
            frame = [node, now, 0.0, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                node.self_s += own
                node.calls += 1
                layer_self[layer] += own
                if stack:
                    stack[-1][2] += dur
                for g in timed:
                    g.depth -= 1
                    if g.depth == 0:
                        g.total_s += end - g.start
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, name: str, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap the package's layer boundaries and numpy's eigen-solvers."""
        import numpy.linalg

        modules = {layer: importlib.import_module(f"stonework.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                definer = getattr(obj, "__module__", "") or ""
                if not definer.startswith("stonework."):
                    continue
                home = definer.rsplit(".", 1)[1]
                if inspect.isfunction(obj) and (not name.startswith("_") or name in _PRIVATE_TRACED):
                    span = f"{home}.{obj.__name__}"
                    self._patch(mod, name, self._wrap(obj, span, home, f"{layer}:{name}"))
                elif (
                    inspect.isclass(obj)
                    and definer == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._install_class(obj, layer)
        suites = modules["verify"].ALL_SUITES
        for i, fn in enumerate(list(suites)):
            wrapped = getattr(modules["verify"], fn.__name__)
            self._patched.append((suites, i, fn))
            suites[i] = wrapped
        for name in ("eigh", "eigvalsh"):
            fn = getattr(numpy.linalg, name)
            self._patch(numpy.linalg, name, self._wrap(fn, f"numpy.linalg.{name}", "numerics"))

    def _install_class(self, cls, layer: str):
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr.startswith("_") and f"{cls.__name__}.{attr}" not in _DUNDER_TRACED:
                continue
            span = f"{layer}.{cls.__name__}.{attr}"
            self._patch(cls, attr, self._wrap(member, span, layer))

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, list):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patched.clear()

    # -- per-op readout ------------------------------------------------------

    def take(self) -> dict:
        """Raw per-op totals since the last call; resets them."""
        raw = {f"self:{layer}": s for layer, s in self.layer_self.items()}
        for g, state in self.groups.items():
            raw[f"ms:{g}"] = state.total_s * 1e3
            raw[f"calls:{g}"] = state.calls
            state.calls, state.total_s = 0, 0.0
        for k, v in self.counters.items():
            raw[f"count:{k}"] = v
            self.counters[k] = 0
        for layer in self.layer_self:
            self.layer_self[layer] = 0.0
        return raw

    def folded(self) -> list:
        """Call paths as 'a;b;c self_us calls' lines, heaviest first."""
        rows = []

        def walk(node, path):
            for name, child in node.children.items():
                p = f"{path};{name}" if path else name
                rows.append((child.self_s, p, child.calls))
                walk(child, p)

        walk(self.root, "")
        rows.sort(reverse=True)
        return [f"{p} {s * 1e6:.0f} {c}" for s, p, c in rows]


def summarize(per_op: list, scales: list, extra: dict) -> dict:
    """Per-layer metrics: the median over traced ops of each per-op value,
    times multiplied by the op's speed scale; ratios are quotients of totals
    over all traced ops."""
    out = {}
    for name, (kind, source, unit) in METRICS.items():
        if kind == "op":
            value = extra[source]
        elif kind == "ratio":
            num = sum(op[source[0]] for op in per_op)
            den = sum(op[source[1]] for op in per_op)
            value = num / den if den else 0.0
        else:
            factor = {"self": 1e3, "ms": 1.0}.get(kind)
            vals = [op[f"{kind}:{source}"] * (factor * s if factor else 1)
                    for op, s in zip(per_op, scales)]
            value = statistics.median(vals) if vals else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
