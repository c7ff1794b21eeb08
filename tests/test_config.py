"""Config payload decoding: the level-pass fast path against the level-by-level walk.

The walk (``config._walk``) is the oracle. Wherever the fast path takes a
payload, the walk must take it too and give the same float64 parts bit for
bit; wherever the fast path declines, ``_decode`` falls back to the walk, so
``parse_config`` must reject with the walk's message or accept with the
walk's bytes.
"""

import copy
import json
import tracemalloc

import numpy as np
import pytest

from stonework import config
from stonework.config import _fast_parts, _walk, parse_config
from stonework.errors import ValidationError


def outcome(data):
    try:
        cfg = parse_config(data)
    except ValidationError as exc:
        return "rejected", str(exc)
    sections = {**cfg.elements, **{f"v:{k}": v for k, v in cfg.vectors.items()}}
    return "accepted", {name: x.values.tobytes() for name, x in sections.items()}


def walk_outcome(data, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(config, "_fast_parts", lambda payload, shape: None)
        return outcome(data)


def assert_parity(data, monkeypatch):
    assert outcome(data) == walk_outcome(data, monkeypatch)
    # payload by payload too, as an earlier error can hide a later payload
    m, n = data.get("m"), data.get("n")
    if type(m) is not int or type(n) is not int:
        return
    for key, shape in (("elements", (m, n, n)), ("vectors", (m, n))):
        section = data.get(key)
        for name, payload in section.items() if isinstance(section, dict) else ():
            fast = _fast_parts(payload, shape)
            if fast is not None:
                assert fast.tobytes() == _walk(payload, shape, name).tobytes()


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
    assert_parity(data, monkeypatch)


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
        assert_parity(data, monkeypatch)
        taken += _fast_parts(elements, (m, n, n)) is not None
    assert 50 < taken < 350  # both paths are reached


@pytest.mark.parametrize("leaf", GOOD_LEAVES, ids=repr)
def test_fast_path_takes_numbers_as_the_walk_reads_them(leaf):
    payload = [[[1.5, leaf]], [[leaf, -0.0]]]
    parts = _fast_parts(payload, (2, 1))
    assert parts is not None
    assert parts.tobytes() == _walk(payload, (2, 1), "v").tobytes()
    assert parts[0, 0, 1] == float(leaf) and np.signbit(parts[1, 0, 1])


@pytest.mark.parametrize("leaf", BAD_LEAVES, ids=repr)
def test_fast_path_declines_what_the_walk_rejects(leaf):
    payload = [[[1.5, leaf]], [[0.0, 1]]]
    assert _fast_parts(payload, (2, 1)) is None
    with pytest.raises(ValidationError, match=r"v\[0\]\[0\]: expected finite"):
        _walk(payload, (2, 1), "v")


def test_fast_path_declines_nesting_numpy_cannot_lay_out():
    # arrays of two shapes side by side, which no object array can hold: the
    # fast path declines them at the level check, since an array is not a
    # list or tuple, and the walk names the first entry
    payload = [np.zeros((2, 2)), np.zeros((2, 3))]
    with pytest.raises(ValueError):
        np.array(payload, dtype=object)
    assert _fast_parts(payload, (2, 2)) is None
    with pytest.raises(ValidationError) as err:
        parse_config({"n": 2, "m": 2, "elements": {"A": payload}})
    assert str(err.value) == (
        "elements[A][0]: expected a list of 2, got array([[0., 0.],\n       [0., 0.]])"
    )


class Row(list):
    """A list subclass: the walk takes it, the fast path leaves it to the walk."""


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
    assert _fast_parts(payload, (1, 2, 2)) is None
    assert_parity(pairs_config(payload), monkeypatch)
    assert outcome(pairs_config(payload))[0] == "rejected"


def test_fast_path_declines_a_dict_at_the_row_level(monkeypatch):
    # its keys are pairs, so a flatten blind to the node types would take it
    payload = [[{(1, 0): "a", (0, 0): "b"}, [[0, 0], [1, 0]]]]
    assert _fast_parts(payload, (1, 2, 2)) is None
    assert_parity(pairs_config(payload), monkeypatch)
    assert outcome(pairs_config(payload))[0] == "rejected"


def test_tuple_nesting_decodes_as_the_walk_does(monkeypatch):
    payload = ((((1, -0.0), (0, 2.5)), ((True, 0), (1, 0))),)
    parts = _fast_parts(payload, (1, 2, 2))
    assert parts is not None
    assert parts.tobytes() == _walk(payload, (1, 2, 2), "A").tobytes()
    assert_parity(pairs_config(payload), monkeypatch)
    assert outcome(pairs_config(payload))[0] == "accepted"


def test_list_subclass_is_left_to_the_walk(monkeypatch):
    payload = [[Row([[1, 0], [0, 0]]), [[0, 0], [1, 0]]]]
    assert _fast_parts(payload, (1, 2, 2)) is None
    assert_parity(pairs_config(payload), monkeypatch)
    assert outcome(pairs_config(payload))[0] == "accepted"


def test_fast_path_builds_no_string_array():
    # the default dtype would give 10k entries of 4000 bytes each
    payload = [[[1.0, 0.0]] * 5000, [["x" * 1000, 0.0]] * 5000]
    tracemalloc.start()
    try:
        assert _fast_parts(payload, (2, 5000)) is None
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
