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
from .hilbert_module import ModuleElement, _norm2
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


#: Bytes one fibered operator of a config may take, 16 m n^2 as complex128:
#: the same 512 MiB as the closure table budget in lattice.py.
_OPERATOR_BUDGET = 1 << 29


def _decode(data, shape: tuple, where: str) -> np.ndarray:
    """Nested [re, im] pairs of the given shape -> complex array, in two steps.

    First _fast_parts converts the whole payload with a few numpy calls. Any
    payload it does not take (ragged nesting, strings, null, numbers that are
    not finite as float64) goes to _walk, which names the bad entry. Both give
    the same values wherever the first step succeeds, so it only saves time."""
    parts = _fast_parts(data, shape)
    if parts is None:
        parts = _walk(data, shape, where)
    out = np.empty(shape, dtype=np.complex128)
    # set apart: re + 1j * im would turn a -0.0 imaginary part into 0.0
    out.real = parts[..., 0]
    out.imag = parts[..., 1]
    return out


def _fast_parts(data, shape: tuple):
    """Float64 parts of shape ``shape + (2,)``, or None. One object array
    finds the nesting without converting the leaves: the default dtype would
    make a fixed-width string array as wide as the longest string, times the
    number of entries. Every leaf must be an int, float or bool, and each is
    converted with float(), as _walk converts it."""
    try:
        leaves = np.array(data, dtype=object)
    except ValueError:  # nesting numpy cannot lay out
        return None
    if leaves.shape != shape + (2,) or not set(map(type, leaves.flat)) <= {int, float, bool}:
        return None
    try:
        parts = leaves.astype(np.float64)
    except OverflowError:  # an integer past the float range
        return None
    return parts if np.isfinite(parts).all() else None


def _walk(data, shape: tuple, where: str) -> np.ndarray:
    """Nested [re, im] pairs of the given shape -> float64 parts of shape
    ``shape + (2,)``. Nesting and types are checked level by level first, so
    that an error names the entry; the numbers are then converted in one call
    and must be finite. JSON true and false count as 1 and 0."""
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
    return parts.reshape(shape + (2,))


def _entry(where: str, flat: int, shape: tuple) -> str:
    return where + "".join(f"[{int(i)}]" for i in np.unravel_index(flat, shape))


def parse_config(data: dict) -> AlgebraConfig:
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    # type(...) is int: JSON true and false are Python bools, which subclass int
    for key in ("n", "m"):
        if key not in data or type(data[key]) is not int or data[key] < 1:
            raise ValidationError(f"config field {key!r} must be a positive integer")
    n, m = data["n"], data["m"]
    if 16 * m * n * n > _OPERATOR_BUDGET:
        raise ValidationError(f"config with n = {n} and m = {m}: one operator takes "
                              f"{16 * m * n * n} bytes, past the budget of {_OPERATOR_BUDGET} bytes")
    seed = data.get("seed", 0)
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValidationError("config field 'seed' must be an integer in 0..2**64 - 1")
    for key in ("elements", "vectors"):
        if not isinstance(data.get(key) or {}, dict):
            raise ValidationError(f"config field {key!r} must be a JSON object")
    cfg = AlgebraConfig(n=n, m=m, seed=seed)
    space = cfg.space
    for name, payload in (data.get("elements") or {}).items():
        values = _decode(payload, (m, n, n), f"elements[{name}]")
        cfg.elements[name] = FiberedOperator(space, values)
    for name, payload in (data.get("vectors") or {}).items():
        values = _decode(payload, (m, n), f"vectors[{name}]")
        # finite entries can still overflow norm^2, which every vector operation takes
        with np.errstate(over="ignore"):
            big = np.flatnonzero(~np.isfinite(_norm2(values)))
        if big.size:
            raise ValidationError(f"vectors[{name}][{big[0]}]: squared norm overflows float64")
        cfg.vectors[name] = ModuleElement(space, values)
    return cfg


def load_config(path: str) -> AlgebraConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"config is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nests too deeply
        raise ParseError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


# -- encoding back to the wire format ------------------------------------------


def encode(values) -> list:
    """Complex array -> the same nesting with [re, im] pairs at the leaves."""
    z = np.asarray(values)
    return np.stack([z.real, z.imag], axis=-1).tolist()
