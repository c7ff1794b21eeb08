"""Canonical bytes against the base commit.

    python tools/against_base.py BASE_SRC HEAD_SRC

Runs each command below as ``python -m stonework.cli`` with ``stonework``
imported from BASE_SRC (the ``src`` of a checkout of the base commit) and from
HEAD_SRC; a command marked one_cpu runs with its process's CPU affinity
narrowed to one CPU. Stdout, stderr and exit code must match, and the head's
peak RSS may exceed the base's by at most 10%: the CLI pauses the garbage
collector, so a command that builds cyclic garbage shows there first. Unlike
the benchmark's digests this holds under any numpy version. Exits 1 on any
difference.
"""

import collections
import hashlib
import json
import os
import subprocess
import sys
import tempfile

#: sha256 of stdout and of stderr, exit code and peak RSS (KiB) of one CLI run
Run = collections.namedtuple("Run", "stdout stderr code rss")
#: CLI arguments, and whether the command may use one CPU only
Command = collections.namedtuple("Command", "args one_cpu", defaults=(False,))


def write_configs(tmp: str):
    """Writes the configs that the commands read into the directory ``tmp``."""
    import numpy as np

    def write(name, text):
        with open(os.path.join(tmp, f"{name}.json"), "w") as f:
            f.write(text)

    pairs = lambda z: np.stack([z.real, z.imag], axis=-1).tolist()
    # bytes: zero fibers, near-axis vectors (which reach the joint search of
    # the exact-unit adjustment), a repeated eigenvalue in every fiber of the
    # observable's operator A and two rank-one projections P, Q that share
    # their line on about half of the fibers. P and Q are drawn last, so A and
    # a keep the bytes they had before P and Q were added
    gen = np.random.default_rng(0)
    m, n = 400, 4
    v = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
    v[gen.random(m) < 0.2] = 0.0
    v[gen.random(m) < 0.8, 1:] *= 1e-5
    q, _ = np.linalg.qr(gen.standard_normal((m, n, n)) + 1j * gen.standard_normal((m, n, n)))
    d = gen.standard_normal((m, n))
    d[:, 1] = d[:, 0]
    a = np.einsum("mij,mj,mkj->mik", q, d, q.conj())
    a = 0.5 * (a + np.conj(np.swapaxes(a, 1, 2)))
    a[gen.random(m) < 0.2] = 0.0
    u = gen.standard_normal((2, m, n)) + 1j * gen.standard_normal((2, m, n))
    same = gen.random(m) < 0.5
    u[1, same] = u[0, same]
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    p = np.einsum("kmi,kmj->kmij", u, u.conj())
    elements = {"A": pairs(a), "P": pairs(p[0]), "Q": pairs(p[1])}
    write("bytes", json.dumps({"n": n, "m": m, "elements": elements, "vectors": {"a": pairs(v)}}))
    # One random line projection per fiber: lines has the shape of the closure
    # benchmark (m = 6, n = 2: 65 nodes, 6 quasipoints), lines7 m = 7 and n = 3
    # (129 nodes, where node matching prunes through its key window), lines9
    # and lines10 m = 9 and 10 with n = 2 (513 and 1,025 nodes)
    for seed, m, n, name in (1, 6, 2, "lines"), (2, 7, 3, "lines7"), (3, 9, 2, "lines9"), (4, 10, 2, "lines10"):
        gen = np.random.default_rng(seed)
        u = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        g = np.zeros((m, m, n, n), dtype=complex)
        g[np.arange(m), np.arange(m)] = np.einsum("mi,mj->mij", u, u.conj())
        write(name, json.dumps({"n": n, "m": m, "elements": {f"G{k}": pairs(g[k]) for k in range(m)}}))
    # The m central projections of m points, n = 1: the Boolean algebra on
    # 2**m nodes. On 256 most fiber pairs repeat one already solved, on 1,024
    # rounds admit few of many candidates, 2,048 is the largest closure and
    # order table here. These and the line closures admit every node through
    # the eps classes of its fibers and hand the lattice the meet each pair
    # matched, which it checks and keeps
    for m in (8, 10, 11):
        c = np.eye(m, dtype=complex).reshape(m, m, 1, 1)
        write(f"boolean{m}", json.dumps({"n": 1, "m": m, "elements": {f"C{k}": pairs(c[k]) for k in range(m)}}))
    # One fiber with a near-axis vector whose exact-unit adjustment reaches
    # the joint search, at n = 7 (the longest single row adjusted in Python
    # floats) and n = 8 (the shortest left to the numpy path)
    for seed, n in ((6, 7), (21, 8)):
        gen = np.random.default_rng(seed)
        v = gen.standard_normal((1, n)) + 1j * gen.standard_normal((1, n))
        v[:, 1:] *= 1e-5
        b = gen.standard_normal((1, n, n)) + 1j * gen.standard_normal((1, n, n))
        a = b + np.conj(np.swapaxes(b, 1, 2))
        write(f"axis{n}", json.dumps({"n": n, "m": 1, "elements": {"A": pairs(a)}, "vectors": {"a": pairs(v)}}))
    # chain: three generators whose fiber 0 is the lines at angles 0, 0.7e-9
    # and 1.4e-9, each within eps 1e-9 of the next and the outer two apart: no
    # classes fit, nodes are admitted by comparing values and the lattice
    # searches its meet table. chain8 puts them on fibers 0-1 of m = 8 and a
    # random line on each of fibers 2-7: the same, with 257 nodes
    u = np.array([[np.cos(s), np.sin(s)] for s in (0, 0.7e-9, 1.4e-9, 1.0)], dtype=complex)
    lines = np.einsum("ki,kj->kij", u, u)
    zero, one = np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)
    fibers = ([lines[0], zero], [lines[1], one], [lines[2], lines[3]])
    chain = {f"G{k}": pairs(np.stack(f)) for k, f in enumerate(fibers)}
    write("chain", json.dumps({"n": 2, "m": 2, "elements": chain}))
    gen = np.random.default_rng(7)
    u = gen.standard_normal((6, 2)) + 1j * gen.standard_normal((6, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    g = np.zeros((9, 8, 2, 2), dtype=complex)
    g[:3, :2] = fibers
    g[np.arange(3, 9), np.arange(2, 8)] = np.einsum("mi,mj->mij", u, u.conj())
    write("chain8", json.dumps({"n": 2, "m": 8, "elements": {f"G{k}": pairs(g[k]) for k in range(9)}}))
    # twins: m = 1 and the lines at angles 0, 0.9e-9, 1.8e-9 and 1.0. The
    # second lies within eps of the first and the third, which lie apart, so
    # no classes fit, and the chain is settled among the whole candidate rows
    u = np.array([[np.cos(s), np.sin(s)] for s in (0, 0.9e-9, 1.8e-9, 1.0)], dtype=complex)
    twins = np.einsum("ki,kj->kij", u, u)[:, None]
    write("twins", json.dumps({"n": 2, "m": 1, "elements": {f"G{k}": pairs(twins[k]) for k in range(4)}}))
    # int, true/false, -0.0 and 2**53 + 1 entries (germ prints the vector's
    # entries as read), and configs with a string entry, a ragged row, a NaN
    # literal, a 400-digit integer, the wrong fiber count, a string where a
    # pair belongs, a number where the fibers belong and an object where a
    # fiber belongs: together they pin what the config reader takes, and the
    # entry each rejection names, to the base bytes
    write("numbers", '{"n": 2, "m": 2, "elements": {"A": [[[[1, 0], [true, -0.0]], [[true, 0.0], '
          '[9007199254740993, 0]]], [[[-0.0, 0], [2, 1]], [[2, -1], [false, -0.0]]]]}, "vectors": {"v": '
          '[[[1, true], [-0.0, 9007199254740993]], [[false, -0.0], [2, -7]]]}}\n')
    bad = {"string": '[[[[1, 0], ["1", 0]], [[0, 0], [1, 0]]]]', "ragged": "[[[[1, 0], [0, 0]], [[0, 0]]]]",
           "nan": "[[[[1, 0], [NaN, 0]], [[0, 0], [1, 0]]]]",
           "huge-int": f"[[[[1, 0], [1{'0' * 399}, 0]], [[0, 0], [1, 0]]]]",
           "fibers": "[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]",
           "node": '[[[[1, 0], "ab"], [[0, 0], [1, 0]]]]',
           "scalar": "5", "object": '[{"a": 1}]'}
    for name, payload in bad.items():
        write(f"bad-{name}", f'{{"n": 2, "m": 1, "elements": {{"A": {payload}}}}}\n')
    # many fibers and nothing else: zeta checks the projection of each of
    # the 4,000 points, ten times the points of bytes
    write("fibers", '{"n": 1, "m": 4000}\n')


def commands(tmp: str) -> list[Command]:
    """The commands on the configs in the directory ``tmp``."""
    path = lambda name: os.path.join(tmp, f"{name}.json")
    cfg, last = path("bytes"), 399
    # Every command runs at least once. verify-all also runs at --eps 1e-13
    # and 0.0009, near both ends of the eps range at which every suite
    # completes its samples. The closure checks the nodes it appends before
    # the one past the cap or the table budget for being projections, then
    # the cap, then the budget. At eps 1e-16 (seed 1) and 4e-16 (seed 0), the
    # only inputs found where it appends a node that is not a projection,
    # stone_topology and quasipoint_axioms fail with "closure node"; lines7
    # with --cap 20 exits 3 with ClosureExplosion, and so does lines9 with
    # --cap 300, crossing the cap inside a round. orbit from a line to itself
    # returns the identity and never reads a quasipoint's frame. boolean8's
    # fibers are exact 0s and 1s, so at --eps 0 the last bit of each product
    # decides the order (the line configs exit 3 there). abelian-check --op A
    # exits 1 (A is not a projection). verify-all runs its suites on a pool of
    # the CPUs it may use, or inline on one CPU; the last command pins the
    # inline path to the base bytes
    runs = [f"verify-all --seed {seed}" for seed in (0, 1, 2, 3, 7, 42, 100, 12345, 18446744073709551615)]
    runs += [f"verify-all --seed {seed} --eps {eps}" for seed, eps in
             ((0, "1e-6"), (5, "1e-13"), (6, "0.0009"), (1, "1e-16"), (0, "4e-16"))]
    runs += [f"observable --config {cfg} --op A", f"normalize --config {cfg} --vector a",
             f"e-a --config {cfg} --vector a",
             f"observable --config {cfg} --op A --point omega=0,line=e1 --point omega=0,line=a"
             f" --point omega={last},line=e4 --point omega={last},line=a",
             f"zeta --config {cfg} --point omega={last},line=a",
             f"zeta --config {path('fibers')} --point omega=3,line=e1",
             f"orbit --config {cfg} --from omega=0,line=a --to omega=0,line=e2",
             f"orbit --config {cfg} --from omega=0,line=a --to omega={last},line=a",
             f"orbit --config {cfg} --from omega=0,line=a --to omega=0,line=a",
             f"quasipoints --config {cfg} --ops P,Q"]
    runs += [f"quasipoints --config {path(name)}" for name in
             ("lines", "lines7", "boolean8", "lines9", "lines10", "boolean10", "chain", "chain8", "twins",
              "boolean11")]
    runs += [f"quasipoints --config {path('boolean8')} --eps 0", f"quasipoints --config {path('lines7')} --cap 20",
             f"quasipoints --config {path('lines9')} --cap 300",
             f"abelian-check --config {cfg} --op P", f"abelian-check --config {cfg} --op A",
             f"central-carrier --config {cfg} --op Q", f"germ --config {cfg} --vector a --beta {last}",
             f"germ --config {path('numbers')} --vector v --beta 0",
             f"germ --config {path('numbers')} --vector v --beta 1",
             f"observable --config {path('numbers')} --op A"]
    for axis in (path("axis7"), path("axis8")):
        runs += [f"zeta --config {axis} --point omega=0,line=a",
                 f"orbit --config {axis} --from omega=0,line=a --to omega=0,line=e2",
                 f"normalize --config {axis} --vector a",
                 f"observable --config {axis} --op A --point omega=0,line=a"]
    runs += [f"central-carrier --config {path('bad-' + bad)} --op A"
             for bad in ("string", "ragged", "nan", "huge-int", "fibers", "node", "scalar", "object")]
    return [Command(run.split()) for run in runs] + [Command(["verify-all", "--seed", "0"], one_cpu=True)]


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(src: str, command: Command) -> Run:
    """The CLI on the command's arguments with PYTHONPATH=src."""

    def digest(f):
        f.seek(0)
        h = hashlib.sha256()
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
        return h.digest()

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "stonework.cli", *command.args], stdout=out, stderr=err,
                                env={**os.environ, "PYTHONPATH": src},
                                preexec_fn=_one_cpu if command.one_cpu else None)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(digest(out), digest(err), proc.returncode, usage.ru_maxrss)


def differences(base: Run, head: Run) -> list[str]:
    found = [f"{name} differs from the base commit"
             for name in ("stdout", "stderr") if getattr(base, name) != getattr(head, name)]
    if head.code != base.code:
        found.append(f"exits {head.code}, the base commit {base.code}")
    if head.rss * 10 > base.rss * 11:
        found.append("peak RSS more than 10% above the base commit")
    return found


def against(base_src: str, head_src: str, runs: list[Command]) -> int:
    """Runs each command on both sides and prints what differs; 1 if anything
    does or stonework is not imported from either src, else 0."""
    guard = "import os, stonework, sys; sys.exit(not stonework.__file__.startswith(os.path.join(sys.argv[1], '')))"
    for src in (base_src, head_src):
        if subprocess.run([sys.executable, "-c", guard, src], env={**os.environ, "PYTHONPATH": src}).returncode:
            print(f"stonework is not imported from {src}")
            return 1
    status = 0
    for command in runs:
        base, head = run(base_src, command), run(head_src, command)
        label = " ".join(["stonework", *command.args]) + " (one CPU)" * command.one_cpu
        print(f"{label}: peak RSS {head.rss} KiB, the base commit {base.rss} KiB")
        for difference in differences(base, head):
            print(f"{label}: {difference}")
            status = 1
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base_src, head_src = (os.path.abspath(src) for src in argv)
    with tempfile.TemporaryDirectory() as tmp:
        # Linux counts the memory of the process a child was started from in
        # the child's ru_maxrss, so this one stays small (no numpy, outputs
        # hashed in chunks) and the configs are written in a process of their own
        writer = f"import runpy; runpy.run_path({__file__!r})['write_configs']({tmp!r})"
        if subprocess.run([sys.executable, "-c", writer]).returncode:
            return 1
        return against(base_src, head_src, commands(tmp))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
