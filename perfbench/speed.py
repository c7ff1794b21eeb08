"""Machine-speed kernel: a fixed piece of work timed between ops.

On a shared 2-CPU VM the machine's speed was seen to change by up to 1.7x in
phases lasting from seconds to tens of minutes, more than a run can average
away.
Timing a fixed kernel between ops measures the speed of the moment; the
runner multiplies an op's wall-clock time by ``REFERENCE_S`` over the mean of
the kernel times right before and right after it, so a reported time is what
the op would take at the reference speed.

The kernel mixes the two kinds of work stonework's ops spend their time on:
interpreter work on many small objects (JSON round trip, sorting, complex
arithmetic) and batched numpy work (a stack of small eigensolves, array
reductions). Over 30 s windows its median moved with the median op time of
``closure`` and ``verify`` (log-log slopes 0.7 to 1.2 for its two halves);
over ten 30 s runs, scaled median and 90th-percentile op times spread half
to a quarter as much as wall-clock ones.
It uses no stonework code, and binds numpy's ``eigh`` before the tracer can
wrap it, so neither a change to the package nor tracing moves it.
"""

from __future__ import annotations

import json
import time

import numpy as np
from numpy.linalg import eigh

#: Kernel seconds at the reference speed.
REFERENCE_S = 0.050

_DATA = {f"k{i}": [[float(i), float(j)] for j in range(40)] for i in range(150)}
_HERM = np.random.default_rng(0).standard_normal((300, 4, 4))
_HERM = _HERM + _HERM.transpose(0, 2, 1)


def kernel_s() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        data = json.loads(json.dumps(_DATA))
        acc += len(sorted((str(k), len(v)) for k, v in data.items()))
        acc += sum(abs(complex(i, j)) for i in range(60) for j in range(60))
    for _ in range(4):
        _, vecs = eigh(_HERM)
        acc += float((vecs @ vecs.transpose(0, 2, 1)).sum())
        acc += float(np.abs(np.random.default_rng(1).standard_normal(200_000)).sum())
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise ArithmeticError("speed kernel computed nothing")
    return elapsed
