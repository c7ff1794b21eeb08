"""Config payload decoding: ``config._parts`` against the level-by-level walk.

``walk`` below is the oracle: the decoder that once ran beside the level
passes, checking every node of every level and every leaf by ``isinstance``,
one at a time. It is kept as it was but for one argument: its fallback for
integers past the float range converts with ``dtype=np.float64``, as
``_parts`` does. Without it, an integer past int64 among them made numpy build
an object array, and ``isfinite`` raised ``TypeError`` on it
(``test_fast_path_declines_what_the_walk_rejects``).

``parse_config`` must reject each payload with the walk's message or accept
it with the walk's bytes. The test names speak of the fast path: the C-level
passes by which ``_parts`` takes a level whose nodes are all exactly lists or
tuples of the right size, and leaves that are all exactly ints, floats or
bools. A level they decline is looped over node by node.
"""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from stonework import config
from stonework.config import _entry, _parts, parse_config
from stonework.errors import ValidationError


def walk(data, shape: tuple, where: str) -> np.ndarray:
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
            parts = np.array([x if abs(x) < 2**1024 - 2**970 else math.inf for x in level],
                             dtype=np.float64)
        bad = next(iter(np.flatnonzero(~np.isfinite(parts))), None)
    if bad is not None:
        pair = level[bad - bad % 2 : bad - bad % 2 + 2]
        raise ValidationError(
            f"{_entry(where, bad // 2, shape)}: expected finite [re, im] numbers, got {pair!r}"
        )
    return parts.reshape(shape + (2,))


def outcome(data):
    try:
        cfg = parse_config(data)
    except ValidationError as exc:
        return "rejected", str(exc)
    sections = {**cfg.elements, **{f"v:{k}": v for k, v in cfg.vectors.items()}}
    return "accepted", {name: x.values.tobytes() for name, x in sections.items()}


def decoded(decode, payload, shape, where):
    try:
        return "accepted", decode(payload, shape, where).tobytes()
    except ValidationError as exc:
        return "rejected", str(exc)


def assert_decodes_as_the_walk_does(data, monkeypatch):
    """parse_config gives the outcome it gives with the walk in place of
    _parts; returns that outcome."""
    got = outcome(data)
    with monkeypatch.context() as patch:
        patch.setattr(config, "_parts", walk)
        assert got == outcome(data)
    # payload by payload too, as an earlier error can hide a later payload
    m, n = data.get("m"), data.get("n")
    if type(m) is int and type(n) is int:
        for key, shape in (("elements", (m, n, n)), ("vectors", (m, n))):
            section = data.get(key)
            for name, payload in section.items() if isinstance(section, dict) else ():
                assert decoded(_parts, payload, shape, name) == decoded(walk, payload, shape, name)
    return got


#: The malformed configs that tests/test_cli.py checks for their exit codes
#: and messages, plus the valid signed-zero config it checks for its bits.
CLI_CONFIGS = [
    {"n": 2, "m": 1, "elements": {"X": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]]}},
    {"n": True, "m": 1, "vectors": {"v": [[[1, 0]]]}},
    {"n": 1, "m": True},
    {"n": 1, "m": 1, "seed": True},
    {"n": 2, "m": 1, "vectors": {"v": [[[1, 0]]]}},
    {"n": 1, "m": 1, "elements": {"A": [[[[json.loads("1e400"), 0]]]]}},
    {"n": 1, "m": 1, "elements": {"A": [[[[json.loads("NaN"), 0]]]]}},
    {"n": 1, "m": 1, "elements": {"A": [[[[10**399, 0]]]]}},
    {"n": 2, "m": 2, "vectors": {"big": [[[1, 0], [0, 0]], [[1e200, 0], [0, 0]]]}},
    {"n": 2, "m": 1, "elements": {"A": [[[[1e308, 0], [1e308, 0]], [[1e308, 0], [-1e308, 0]]]]}},
    {"n": 1, "m": 1, "elements": [1]},
    {"n": 1, "m": 1, "vectors": "abc"},
    {"n": 2, "m": 2, "vectors": {"v": [[[1, 0], [0, 0]], [[1, 0]]]}},
    {"n": 2, "m": 1, "elements": {"A": [[[[1, 0], [0, 0]], [[0], [1, 0]]]]}},
    {"n": 2, "m": 1, "elements": {"A": [[[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]]}},
    {"n": 1, "m": 2, "vectors": {"v": [[[-0.0, -0.0]], [[1, -0.0]]]}},
]


@pytest.mark.parametrize("data", CLI_CONFIGS)
def test_cli_configs_decode_as_the_walk_does(data, monkeypatch):
    assert_decodes_as_the_walk_does(data, monkeypatch)


#: Leaves the walk takes, with the value it reads.
GOOD_LEAVES = [True, False, 0, -7, -0.0, 2**53 + 1, 2**63, 2**64, 10**20, -(2**63) - 1, 1e-320]
#: Leaves the walk rejects, each for a reason of its own.
BAD_LEAVES = [
    "1", "1.5", None, {}, {"re": 1}, [], 10**399, 2**1024, -(2**1024),
    json.loads("NaN"), json.loads("Infinity"), json.loads("-Infinity"), json.loads("1e400"),
]


def nested(gen, shape):
    """A valid payload of the given shape: random floats, ints and -0.0."""
    parts = gen.standard_normal(shape + (2,)) * 10.0 ** gen.integers(-3, 4, shape + (2,))
    parts[gen.random(parts.shape) < 0.1] = -0.0
    out = parts.tolist()
    for _ in range(gen.integers(0, 3)):
        at = tuple(int(gen.integers(0, s)) for s in shape + (2,))
        set_leaf(out, at, int(gen.integers(-(2**40), 2**40)))
    return out


def node_at(payload, path):
    for i in path:
        payload = payload[i]
    return payload


def set_leaf(payload, at, value):
    node_at(payload, at[:-1])[at[-1]] = value


def leaf_traps(gen, payload, shape):
    """Up to two leaves swapped for good or bad ones."""
    for _ in range(gen.integers(0, 3)):
        at = tuple(int(gen.integers(0, s)) for s in shape + (2,))
        pool = GOOD_LEAVES if gen.random() < 0.6 else BAD_LEAVES
        set_leaf(payload, at, pool[gen.integers(0, len(pool))])
    return payload


def deeper(x):
    return [deeper(y) for y in x] if isinstance(x, list) else [x]


def nesting_trap(gen, payload, shape):
    """One ragged or extra-deep node, the wrong fiber count, or nothing."""
    kind = gen.integers(0, 8)
    at = tuple(int(gen.integers(0, s)) for s in shape + (2,))
    if kind == 0:  # a node one entry short or long, at some depth
        node = node_at(payload, at[: gen.integers(0, len(at))])
        node.pop() if gen.random() < 0.5 else node.append(copy.deepcopy(node[-1]))
    elif kind == 1:  # one leaf a level deeper
        set_leaf(payload, at, [node_at(payload, at)])
    elif kind == 2:  # every leaf a level deeper
        payload = deeper(payload)
    elif kind == 3:  # the wrong fiber count
        payload = payload[:-1] if gen.random() < 0.5 else payload + payload[:1]
    elif kind == 4:  # the whole payload a level deeper
        payload = [payload]
    return payload


def test_generated_payloads_decode_as_the_walk_does(monkeypatch):
    gen = np.random.default_rng(20260101)
    taken = 0
    for _ in range(400):
        m, n = int(gen.integers(1, 4)), int(gen.integers(1, 4))
        elements = nesting_trap(gen, leaf_traps(gen, nested(gen, (m, n, n)), (m, n, n)), (m, n, n))
        vectors = nesting_trap(gen, leaf_traps(gen, nested(gen, (m, n)), (m, n)), (m, n))
        data = {"n": n, "m": m, "elements": {"A": elements}, "vectors": {"v": vectors}}
        assert_decodes_as_the_walk_does(data, monkeypatch)
        taken += decoded(_parts, elements, (m, n, n), "A")[0] == "accepted"
    assert 50 < taken < 350  # valid and malformed payloads both come up


@pytest.mark.parametrize("leaf", GOOD_LEAVES, ids=repr)
def test_fast_path_takes_numbers_as_the_walk_reads_them(leaf, monkeypatch):
    payload = [[[1.5, leaf]], [[leaf, -0.0]]]
    result = assert_decodes_as_the_walk_does({"n": 1, "m": 2, "vectors": {"v": payload}}, monkeypatch)
    assert result[0] == "accepted"
    parts = _parts(payload, (2, 1), "v")
    assert parts[0, 0, 1] == float(leaf) and np.signbit(parts[1, 0, 1])


@pytest.mark.parametrize("leaf", BAD_LEAVES, ids=repr)
def test_fast_path_declines_what_the_walk_rejects(leaf, monkeypatch):
    # beside 2**64, an integer past the float range once made the conversion
    # build an object array, which isfinite raised TypeError on
    payload = [[[2**64, leaf]], [[0.0, 1]]]
    result = assert_decodes_as_the_walk_does({"n": 1, "m": 2, "vectors": {"v": payload}}, monkeypatch)
    assert result[0] == "rejected" and result[1].startswith("vectors[v][0][0]: expected finite")


def test_fast_path_declines_nesting_numpy_cannot_lay_out():
    # arrays of two shapes side by side, which no object array can hold: the
    # level pass declines them, since an array is not a list or tuple, and
    # the node loop names the first entry
    payload = [np.zeros((2, 2)), np.zeros((2, 3))]
    with pytest.raises(ValueError):
        np.array(payload, dtype=object)
    with pytest.raises(ValidationError) as err:
        parse_config({"n": 2, "m": 2, "elements": {"A": payload}})
    assert str(err.value) == (
        "elements[A][0]: expected a list of 2, got array([[0., 0.],\n       [0., 0.]])"
    )


class Row(list):
    """A list subclass: the level pass declines it, the node loop takes it."""


def pairs_config(payload):
    return {"n": 2, "m": 1, "elements": {"A": payload}}


@pytest.mark.parametrize(
    "pair", [b"ab", "ab", {1, 2}, bytearray(b"ab"), range(2), np.array([1.0, 0.0])],
    ids=["bytes", "str", "set", "bytearray", "range", "ndarray"],
)
def test_fast_path_declines_an_iterable_of_two_at_the_pair_level(pair, monkeypatch):
    # a flatten blind to the node types would read b"ab" as the pair [97, 98];
    # numpy's object-array discovery read the last three as pairs
    payload = [[[[1, 0], pair], [[0, 0], [1, 0]]]]
    result = assert_decodes_as_the_walk_does(pairs_config(payload), monkeypatch)
    assert result == ("rejected", f"elements[A][0][0][1]: expected a [re, im] pair, got {pair!r:.60}")


def test_fast_path_declines_a_dict_at_the_row_level(monkeypatch):
    # its keys are pairs, so a flatten blind to the node types would take it
    payload = [[{(1, 0): "a", (0, 0): "b"}, [[0, 0], [1, 0]]]]
    result = assert_decodes_as_the_walk_does(pairs_config(payload), monkeypatch)
    assert result[0] == "rejected" and result[1].startswith("elements[A][0][0]: expected a list of 2")


def test_tuple_nesting_decodes_as_the_walk_does(monkeypatch):
    payload = ((((1, -0.0), (0, 2.5)), ((True, 0), (1, 0))),)
    assert assert_decodes_as_the_walk_does(pairs_config(payload), monkeypatch)[0] == "accepted"


def test_list_subclass_is_left_to_the_walk(monkeypatch):
    payload = [[Row([[1, 0], [0, 0]]), [[0, 0], [1, 0]]]]
    result = assert_decodes_as_the_walk_does(pairs_config(payload), monkeypatch)
    assert result == outcome(pairs_config([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]))


def test_fast_path_builds_no_string_array():
    # the default dtype would give 10k entries of 4000 bytes each
    payload = [[[1.0, 0.0]] * 5000, [["x" * 1000, 0.0]] * 5000]
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"v\[1\]\[0\]: expected finite \[re, im\] numbers"):
            _parts(payload, (2, 5000), "v")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_config_past_operator_budget_fails_before_allocating(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="past the budget of 536870912 bytes"):
            parse_config({"n": 1000000, "m": 2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # 16 m n^2 bytes at the budget still loads; one byte less does not
    monkeypatch.setattr(config, "_OPERATOR_BUDGET", 16 * 3 * 2 * 2)
    assert parse_config({"n": 2, "m": 3}).m == 3
    monkeypatch.setattr(config, "_OPERATOR_BUDGET", 16 * 3 * 2 * 2 - 1)
    with pytest.raises(ValidationError, match="config with n = 2 and m = 3: one operator takes 192 bytes"):
        parse_config({"n": 2, "m": 3})
