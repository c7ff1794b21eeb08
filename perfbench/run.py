#!/usr/bin/env python3
"""Benchmark of the stonework CLI: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload verify|closure|observe --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --record-digests    # rewrite perfbench/digests.json

Run from anywhere; the package is imported from ``src/`` of the checkout that
holds this file. Each op calls ``stonework.cli.main(argv)`` in-process with
stdout captured, then an independent check (``workloads.check``) and the
output digest decide whether it passed. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` spends half its time on the same loop untraced and half
with every layer boundary wrapped (``tracer.py``), and reports the per-layer
metrics.
Reported times are wall-clock times scaled to a reference machine speed,
measured by a fixed kernel timed between ops (``speed.py``); the wall-clock
values are printed beside them and kept in the result file.
Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment and
the full result go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

#: BLAS and OpenMP pools are pinned to one thread before numpy is imported,
#: so a process stays within the machine's cores and timings do not depend on
#: the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

#: Set-ups per run (this process plus fresh child processes); setup_s is their median.
SETUP_SAMPLES = 3
#: Speed-kernel samples taken after set-up, before the first op.
SETUP_KERNELS = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "pass_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# Modules that import numpy; bound by import_cli after the timed import.
speed = workloads = None


def import_cli():
    """Import ``stonework.cli`` from this checkout; returns (module, seconds)."""
    global speed, workloads
    if not os.path.isfile(os.path.join(SRC, "stonework", "cli.py")):
        raise BenchError(f"no stonework sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    cli = importlib.import_module("stonework.cli")
    elapsed = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported stonework from {cli.__file__}, not from {SRC}")
    # speed binds numpy's eigh here, before the tracer can wrap it.
    speed = importlib.import_module("speed")
    workloads = importlib.import_module("workloads")
    return cli, elapsed


def run_commands(cli_main, argvs: list) -> list:
    """Run CLI commands in-process; returns one (exit code, stdout) per command."""
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an op that crashes is a failed op, not a crashed run
                traceback.print_exc()
                rc = -1
        if rc != 0 and err.getvalue():
            print(err.getvalue().rstrip(), file=sys.stderr)
        outputs.append((rc, out.getvalue()))
    return outputs


def recorded_digests(seed: int, numpy_version: str) -> dict:
    """Digests recorded for the default seed, when numpy matches the recording."""
    if seed != workloads.DEFAULT_SEED or not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("numpy") != numpy_version:
        print(f"# recorded digests skipped: made with numpy {data.get('numpy')}, "
              f"running numpy {numpy_version}")
        return {}
    return data["digests"]


def materialize(inputs, workdir: str) -> list:
    """Write the config files; returns each item's argument vectors."""
    os.makedirs(workdir, exist_ok=True)
    for name, data in inputs.files.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    return [
        [[a.replace("{config}", os.path.join(workdir, item.config or "")) for a in argv]
         for argv in item.argvs]
        for item in inputs.items
    ]


class Session:
    """One workload's inputs, written to a work directory, plus the warm-up op.

    Construction is the set-up a CLI user pays: import the package, generate
    and write the inputs, run one op before timing starts.
    """

    def __init__(self, workload: str, seed: int, workdir: str):
        self.cli, import_s = import_cli()
        self.workload = workload
        start = time.perf_counter()
        self.inputs = workloads.generate(workload, seed)
        self.argvs = materialize(self.inputs, workdir)
        gen_s = time.perf_counter() - start
        start = time.perf_counter()
        self.warmup = run_commands(self.cli.main, self.argvs[0])
        warm_s = time.perf_counter() - start
        self.setup_s = import_s + gen_s + warm_s
        self.next = 0  # the first timed op repeats the warm-up input


class Runner:
    """Closed loop over a session's items with correctness and digest checks.

    The speed kernel runs after set-up and after every op; ``kernel`` holds
    its seconds in run order.
    """

    def __init__(self, session: Session, expected_digests: dict):
        self.s = session
        self.expected = expected_digests
        self.seen = {}
        self.attempted = self.failed = 0
        self.problems = []
        self.judge(0, session.warmup)
        self.kernel = [speed.kernel_s() for _ in range(SETUP_KERNELS)]

    def judge(self, index: int, outputs: list) -> bool:
        item = self.s.inputs.items[index]
        problems = workloads.check(self.s.workload, item, outputs)
        sha = workloads.digest(outputs)
        if self.seen.setdefault(item.key, sha) != sha:
            problems.append("stdout differs from an earlier run of the same input")
        if item.key in self.expected and self.expected[item.key] != sha:
            problems.append("stdout differs from the digest recorded for the default seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({"item": item.key, "problems": problems})
            print(f"# FAILED {item.key}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def loop(self, seconds: float, tracer=None) -> "OpLog":
        """Run ops until ``seconds`` have passed (at least two ops).

        An op's speed scale is the reference kernel time over the mean of
        the kernel samples right before and right after it.
        """
        log = OpLog()
        items = len(self.s.inputs.items)
        start = time.perf_counter()
        while len(log.wall) < 2 or time.perf_counter() - start < seconds:
            index = self.s.next % items
            self.s.next += 1
            gc.collect()
            if tracer is not None:
                tracer.take()
            t0 = time.perf_counter()
            outputs = run_commands(self.s.cli.main, self.s.argvs[index])
            log.wall.append(time.perf_counter() - t0)
            if tracer is not None:
                log.per_op.append(tracer.take())
            log.passed.append(self.judge(index, outputs))
            log.out_bytes.append(sum(len(out.encode()) for _, out in outputs))
            after = speed.kernel_s()
            log.scale.append(2 * speed.REFERENCE_S / (self.kernel[-1] + after))
            self.kernel.append(after)
        return log

    def setup_scale(self) -> float:
        """Speed scale for set-up times: from the median of all kernel samples."""
        return speed.REFERENCE_S / statistics.median(self.kernel)


class OpLog:
    """Per-op records of one loop: wall seconds, speed scale, check outcome,
    stdout bytes and, when traced, the tracer's readout."""

    def __init__(self):
        self.wall, self.scale, self.passed, self.out_bytes, self.per_op = [], [], [], [], []

    @property
    def scaled(self) -> list:
        """Op seconds at the reference speed (see ``speed.py``)."""
        return [w * s for w, s in zip(self.wall, self.scale)]


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(times: list, passed: list, setup_s: float, rss_mb: float) -> dict:
    values = {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": percentile(times, 90) * 1e3,
        "ops_per_s": sum(passed) / sum(times),
        "pass_ratio": sum(passed) / len(passed),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seconds: float) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "run_seconds": seconds,
        "platform": platform.platform(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """One more set-up in a fresh process; returns its set-up seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(args) -> dict:
    import tracer as tracing  # stdlib only; safe before the timed import

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        session = Session(args.workload, args.seed, workdir)
        if args.setup_probe:
            return {"setup_s": session.setup_s}
        import numpy

        again = workloads.generate(args.workload, args.seed)
        if again.fingerprint() != session.inputs.fingerprint():
            raise BenchError("two generations from one seed differ")
        setups = [session.setup_s] + [
            setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        runner = Runner(session, recorded_digests(args.seed, numpy.__version__)
                        .get(args.workload, {}))
        # A traced run splits its time: untraced first, for the overhead ratio.
        seconds = args.seconds / 2 if args.trace else args.seconds
        log = runner.loop(seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = statistics.median(setups)
        result = {
            "end_to_end": end_to_end(log.scaled, log.passed,
                                     setup_s * runner.setup_scale(), rss_mb),
            "wall_clock": end_to_end(log.wall, log.passed, setup_s, rss_mb),
            "samples": len(log.wall),
            "setup_samples_s": setups,
            "op_wall_s": log.wall,
            "op_scale": log.scale,
            "kernel_s": runner.kernel,
        }
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced = runner.loop(seconds, tr)
            finally:
                tr.uninstall()
            extra = {
                "report.bytes_out": statistics.median(traced.out_bytes),
                "trace.overhead_ratio":
                    statistics.median(traced.scaled) / statistics.median(log.scaled),
            }
            result["per_layer"] = tracing.summarize(traced.per_op, traced.scale, extra)
            result["traced_samples"] = len(traced.wall)
            result["folded"] = tr.folded()
        result.update(attempted=runner.attempted, failed=runner.failed,
                      problems=runner.problems)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_outputs(args, result: dict, env: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    folded = result.pop("folded", None)
    with open(os.path.join(OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env, **result},
                  fh, indent=1, sort_keys=True)
    if folded is not None:
        with open(os.path.join(OUT, f"trace-{stem}.folded"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(folded) + "\n")


def print_metrics(workload: str, metrics: dict, note: str = "") -> None:
    for name, m in metrics.items():
        print(f"{workload:8s} {name:40s} {m['value']:14.4f} {m['unit']}{note}")


def run_one(args) -> int:
    result = measure(args)
    env = environment(args.seconds)
    write_outputs(args, result, env)
    print(f"# stonework benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={int(args.trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    print_metrics(args.workload, result["end_to_end"], f"  (n={result['samples']})")
    print("# wall-clock " + json.dumps({k: m["value"] for k, m in result["wall_clock"].items()}))
    metrics = result["end_to_end"]
    if args.trace:
        print_metrics(args.workload, result["per_layer"],
                      f"  (traced n={result['traced_samples']})")
        metrics = result["per_layer"]
    failed = result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary line at the end."""
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(total))
    return 0


def record_digests() -> int:
    """Run every input of the default seed once and store its stdout digest."""
    cli, _ = import_cli()
    import numpy

    digests = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.generate(workload, workloads.DEFAULT_SEED)
        workdir = os.path.join(OUT, f"record-{workload}-{os.getpid()}")
        try:
            digests[workload] = {}
            for item, argvs in zip(inputs.items, materialize(inputs, workdir)):
                outputs = run_commands(cli.main, argvs)
                problems = workloads.check(workload, item, outputs)
                if problems:
                    raise BenchError(f"{item.key} fails its checks: {problems}")
                digests[workload][item.key] = workloads.digest(outputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "numpy": numpy.__version__,
                   "python": platform.python_version(), "digests": digests},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "verify", "closure", "observe"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests()
        if args.workload == "all":
            return run_all(args)
        if args.setup_probe:
            print(json.dumps(measure(args)))
            return 0
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
