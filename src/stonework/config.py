"""JSON configuration for the workbench CLI.

Schema: {"n": int, "m": int, "elements": {name: matrix per fiber},
"vectors": {name: vector per fiber}, "seed": int}. Complex numbers are
[re, im] pairs, matrices row-major nested arrays, fibers the outermost
dimension.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .center import StoneSpace
from .errors import ParseError, ValidationError
from .hilbert_module import ModuleElement
from .matrix_algebra import FiberedOperator


@dataclass
class AlgebraConfig:
    n: int
    m: int
    seed: int = 0
    elements: dict = field(default_factory=dict)
    vectors: dict = field(default_factory=dict)

    @property
    def space(self) -> StoneSpace:
        return StoneSpace(self.m)


def _decode(data, shape: tuple, where: str) -> np.ndarray:
    """Nested [re, im] pairs of the given shape -> complex array. Nesting and
    types are checked level by level first, so that an error names the entry;
    the numbers are then converted in one call and must be finite."""
    level = [data]
    for depth, size in enumerate(shape + (2,)):
        for i, node in enumerate(level):
            if not isinstance(node, (list, tuple)) or len(node) != size:
                what = f"a list of {size}" if depth < len(shape) else "a [re, im] pair"
                raise ValidationError(f"{_entry(where, i, shape[:depth])}: expected {what}, "
                                      f"got {node!r:.60}")
        level = [x for node in level for x in node]
    bad = next((i for i, x in enumerate(level) if not isinstance(x, (int, float))), None)
    if bad is None:
        try:
            parts = np.array(level, dtype=np.float64)
        except OverflowError:  # integers from 2**1024 - 2**970 up round to inf
            parts = np.array([x if abs(x) < 2**1024 - 2**970 else math.inf for x in level])
        bad = next(iter(np.flatnonzero(~np.isfinite(parts))), None)
    if bad is not None:
        pair = level[bad - bad % 2 : bad - bad % 2 + 2]
        raise ValidationError(
            f"{_entry(where, bad // 2, shape)}: expected finite [re, im] numbers, got {pair!r}"
        )
    out = np.empty(shape, dtype=np.complex128)
    # set apart: re + 1j * im would turn a -0.0 imaginary part into 0.0
    out.real = parts[0::2].reshape(shape)
    out.imag = parts[1::2].reshape(shape)
    return out


def _entry(where: str, flat: int, shape: tuple) -> str:
    return where + "".join(f"[{int(i)}]" for i in np.unravel_index(flat, shape))


def parse_config(data: dict) -> AlgebraConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    for key in ("n", "m"):
        if key not in data or not isinstance(data[key], int) or data[key] < 1:
            raise ValidationError(f"config field {key!r} must be a positive integer")
    n, m = data["n"], data["m"]
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        raise ValidationError("config field 'seed' must be an integer")
    cfg = AlgebraConfig(n=n, m=m, seed=seed)
    space = cfg.space
    for name, payload in (data.get("elements") or {}).items():
        values = _decode(payload, (m, n, n), f"elements[{name}]")
        cfg.elements[name] = FiberedOperator(space, values)
    for name, payload in (data.get("vectors") or {}).items():
        cfg.vectors[name] = ModuleElement(space, _decode(payload, (m, n), f"vectors[{name}]"))
    return cfg


def load_config(path: str) -> AlgebraConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


# -- encoding back to the wire format ------------------------------------------


def encode(values) -> list:
    """Complex array -> the same nesting with [re, im] pairs at the leaves."""
    z = np.asarray(values)
    return np.stack([z.real, z.imag], axis=-1).tolist()
