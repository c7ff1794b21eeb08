"""The documented splitmix64 recipe is what the stream actually produces."""

import math
import random

import numpy as np
import pytest

from stonework.rng import _BLOCK, _GAMMA, _MASK, SplitMix64

# reference outputs computed directly from the recipe in the module docstring
REF_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
REF_SEED42 = [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52]


def test_reference_vector_seed0():
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(4)] == REF_SEED0


def test_reference_vector_seed42():
    g = SplitMix64(42)
    assert [g.next_u64() for _ in range(3)] == REF_SEED42


def test_uniform_range_and_determinism():
    g1, g2 = SplitMix64(7), SplitMix64(7)
    xs = [g1.uniform() for _ in range(1000)]
    assert xs == [g2.uniform() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)


def test_fork_streams_differ_and_are_stable():
    g = SplitMix64(1)
    a = g.fork(1)
    b = g.fork(2)
    a2 = SplitMix64(1).fork(1)
    seq_a = [a.next_u64() for _ in range(5)]
    assert seq_a != [b.next_u64() for _ in range(5)]
    assert seq_a == [a2.next_u64() for _ in range(5)]


def test_integer_bounds():
    g = SplitMix64(3)
    vals = [g.integer(2, 5) for _ in range(200)]
    assert set(vals) <= {2, 3, 4, 5}
    assert len(set(vals)) == 4
    with pytest.raises(ValueError, match="empty range"):
        g.integer(3, 2)


def test_unitary_and_projection_shapes(rng):
    u = rng.unitary(4)
    assert np.allclose(u @ np.conj(u.T), np.eye(4), atol=1e-12)
    p = rng.projection(5, 2)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert abs(np.trace(p).real - 2.0) < 1e-9


def golden_draws(g):
    """Two draws of each kind in a fixed order, floats as exact hex strings."""
    return (
        [g.next_u64(), g.next_u64()],
        [g.uniform().hex(), g.uniform().hex()],
        [g.integer(0, 9), g.integer(-3, 1000)],
        [g.normal().hex(), g.normal().hex()],
        [(z.real.hex(), z.imag.hex()) for z in g.complex_normals(2)],
    )


# (seed, fork label or None for the seed's own stream) -> golden_draws of the
# stream, recorded from this implementation; a rewrite must reproduce them
GOLDEN = {
    (0, None): (
        [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4],
        ["0x1.b117462002500p-6", "0x1.f1177150e4990p-1"],
        [7, 11],
        ["0x1.0285969ebe6b7p-2", "0x1.99992ecac5d52p+0"],
        [("0x1.81fae2d6ddccbp-4", "-0x1.11c125d48b7fep+0"), ("-0x1.a66ed714dc55fp-1", "0x1.c96ab409c6d04p-4")],
    ),
    (0, 1): (
        [0x4181B152FB77616F, 0x169C646D52269D62],
        ["0x1.2977a36354edcp-2", "0x1.21efdf7ad8bd9p-1"],
        [9, 341],
        ["-0x1.7c71bdc7c829fp+0", "-0x1.338e50ed442bcp-8"],
        [("-0x1.7d5dfee29b968p-1", "0x1.0c33ebdff0effp+0"), ("0x1.194bc728ca70ap+1", "-0x1.fb14b0fd9ded8p-1")],
    ),
    (0, 2): (
        [0x657E0BE0E89A4916, 0x4550574BBD163352],
        ["0x1.b3f49e64eb06cp-2", "0x1.7c7a59fb71b10p-5"],
        [6, 105],
        ["0x1.e41c9ff2f530ep-1", "0x1.2ffc273845b50p-1"],
        [("-0x1.d20e4169799e5p-1", "0x1.19a4a4b420cf3p-3"), ("-0x1.38225b76b086fp-1", "0x1.5c3fc161403e7p-2")],
    ),
    (0, 2**64 - 1): (
        [0x0A4775CCDDAD9B5B, 0x64C6E6363484CA5C],
        ["0x1.30f7d1d142be8p-3", "0x1.b15c8d566a462p-2"],
        [5, 377],
        ["-0x1.2880c233422a9p+1", "-0x1.4c73fa9e26c63p-2"],
        [("0x1.1b66a64aa679ep-4", "-0x1.2ac8ecfd8deb0p-2"), ("-0x1.3ac3e3909a3f0p-7", "0x1.52c6aa3a47604p-1")],
    ),
    (42, None): (
        [0xBDD732262FEB6E95, 0x28EFE333B266F103],
        ["0x1.1d499d5c4c3e6p-2", "0x1.607387fc392b8p-2"],
        [0, 815],
        ["0x1.175b8fd2de8bap-1", "-0x1.1495f183d321dp+0"],
        [("-0x1.c76296a7a60e6p+0", "-0x1.25473fd96d151p+0"), ("0x1.0ab38bced1168p-2", "-0x1.1078cda70d963p+1")],
    ),
    (42, 1): (
        [0x3165819285DF2854, 0x599ED3CA2E2516F2],
        ["0x1.08838692efc28p-3", "0x1.ed20cf7b3de32p-2"],
        [7, 578],
        ["0x1.08237785207e2p-1", "-0x1.362c4ab22e8bep-2"],
        [("0x1.625d319179526p+1", "-0x1.f461980772ce1p-3"), ("-0x1.961f40038cc5ap+0", "0x1.3c4e7191595ecp+0")],
    ),
    (42, 2): (
        [0x55B0F7F564CE472B, 0x50AB99CB391D0E8C],
        ["0x1.47eafdbdd29b0p-5", "0x1.9c18be6c7ddb3p-1"],
        [6, 730],
        ["0x1.5d6d00e77e511p-2", "0x1.f4d4e36ddea74p+0"],
        [("-0x1.1cc0f7c6d5ca3p+1", "-0x1.7ee9327a2c2ccp-1"), ("0x1.976fd7d7ca6acp-3", "0x1.6302d20113777p-4")],
    ),
    (42, 2**64 - 1): (
        [0xDFAA83185DA62E29, 0x7A3B92BB24919407],
        ["0x1.82b916d1edbb4p-3", "0x1.2ea8d40b6ab47p-1"],
        [6, 368],
        ["-0x1.6d412122378dap-1", "-0x1.0213ed519d0fbp+0"],
        [("0x1.99c648d92b6d2p-3", "-0x1.7633c983b4557p-3"), ("0x1.14b023265a038p-4", "0x1.42ba65a107f55p-1")],
    ),
}


@pytest.mark.parametrize("seed, label", list(GOLDEN))
def test_golden_stream(seed, label):
    g = SplitMix64(seed) if label is None else SplitMix64(seed).fork(label)
    assert golden_draws(g) == GOLDEN[seed, label]


def zero_at(k):
    """Seed whose k-th draw is exactly 0: the state passes through 0, and _mix(0) == 0."""
    return (2**64 - k * _GAMMA) & _MASK


CLAMPED = math.sqrt(-2.0 * math.log(2.0**-53))


def test_normal_clamps_a_zero_u1():
    g = SplitMix64(zero_at(1))
    assert g.next_u64() == 0
    u2 = g.uniform()
    assert SplitMix64(zero_at(1)).normal() == CLAMPED * math.cos(2.0 * math.pi * u2)


def test_normals_block_clamps_a_zero_u1():
    g = SplitMix64(zero_at(3))
    draws = [g.next_u64() for _ in range(4)]
    assert draws[2] == 0
    u2 = (draws[3] >> 11) * 2.0**-53
    block = SplitMix64(zero_at(3)).normals(3)
    assert block[1] == CLAMPED * math.cos(2.0 * math.pi * u2)


# -- per-entry and per-matrix oracles for the stacked samplers ------------------
# One complex(normal(), normal()) per entry, one matrix per call, one np.stack
# per fiber: the block calls must reproduce their bytes and consume the same
# draws.


def ref_complex_matrix(g, rows, cols):
    return np.array(
        [[complex(g.normal(), g.normal()) for _ in range(cols)] for _ in range(rows)],
        dtype=np.complex128,
    )


def ref_hermitian(g, n):
    b = ref_complex_matrix(g, n, n)
    return 0.5 * (b + np.conj(b.T))


def ref_unitary(g, n):
    q, r = np.linalg.qr(ref_complex_matrix(g, n, n))
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0.0] = 1.0
    return q * (d / np.abs(d))


ORACLE_SEEDS = list(range(300)) + [zero_at(k) for k in (1, 2, 3, 4)]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_block_samplers_match_their_oracles(m):
    for seed in ORACLE_SEEDS:
        for n in range(1, 6):
            g, ref = SplitMix64(seed), SplitMix64(seed)
            calls = [
                (lambda: g.normals(n), lambda: np.array([ref.normal() for _ in range(n)])),
                (lambda: g.complex_normals(n), lambda: ref_complex_matrix(ref, 1, n)[0]),
                (lambda: g.complex_normals(m, n), lambda: ref_complex_matrix(ref, m, n)),
                (
                    lambda: g.complex_normals(m, n, n),
                    lambda: np.stack([ref_complex_matrix(ref, n, n) for _ in range(m)]),
                ),
                (lambda: g.hermitian(n), lambda: ref_hermitian(ref, n)),
                (
                    lambda: g.hermitian(m, n),
                    lambda: np.stack([ref_hermitian(ref, n) for _ in range(m)]),
                ),
                (lambda: g.unitary(n), lambda: ref_unitary(ref, n)),
                (
                    lambda: g.unitary(m, n),
                    lambda: np.stack([ref_unitary(ref, n) for _ in range(m)]),
                ),
            ]
            for block, oracle in calls:
                got, want = block(), oracle()
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (seed, m, n)
                assert g._state == ref._state


# -- streams across block boundaries -------------------------------------------
# A stream computes its draws _BLOCK at a time; the reference below takes one
# state step per draw, straight from the recipe in the module docstring.


def recipe_mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class RecipeStream:
    def __init__(self, seed):
        self.state = seed & _MASK
        self.draws = 0

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        self.draws += 1
        return recipe_mix(self.state)

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53

    def integer(self, lo, hi):
        return lo + self.next_u64() % (hi - lo + 1)

    def normal(self):
        u1 = self.uniform()
        u2 = self.uniform()
        if u1 <= 0.0:
            u1 = 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def fork(self, label):
        return RecipeStream(recipe_mix(self.state ^ recipe_mix(label & _MASK)))


def ref_complex_normals(ref, *shape):
    entries = [complex(ref.normal(), ref.normal()) for _ in range(math.prod(shape))]
    return np.array(entries, dtype=np.complex128).reshape(shape)


CALL_KINDS = [
    "next_u64", "uniform", "integer", "normal", "normals", "complex_normals", "hermitian", "unitary", "fork"
]


def random_call(pick, g, ref):
    """One call of a random kind and size on both streams: (got, want), compared exactly."""
    kind = pick.choice(CALL_KINDS)
    n, m = pick.randint(1, 5), pick.randint(1, 4)
    if kind == "next_u64":
        return g.next_u64(), ref.next_u64()
    if kind == "uniform":
        return g.uniform().hex(), ref.uniform().hex()
    if kind == "integer":
        lo = pick.randint(-10, 10)
        hi = lo + pick.choice([0, 1, 6, 1000, 2**64])
        return g.integer(lo, hi), ref.integer(lo, hi)
    if kind == "normal":
        return g.normal().hex(), ref.normal().hex()
    if kind == "normals":
        k = pick.randint(0, 300)
        return g.normals(k).tobytes(), np.array([ref.normal() for _ in range(k)], dtype=np.float64).tobytes()
    if kind == "complex_normals":
        shape = [pick.randint(0, 6) for _ in range(pick.randint(1, 3))]
        return g.complex_normals(*shape).tobytes(), ref_complex_normals(ref, *shape).tobytes()
    if kind == "hermitian":
        got = g.hermitian(m, n)
        return got.tobytes(), np.stack([ref_hermitian(ref, n) for _ in range(m)]).tobytes()
    if kind == "unitary":
        got = g.unitary(m, n)
        return got.tobytes(), np.stack([ref_unitary(ref, n) for _ in range(m)]).tobytes()
    label = pick.choice([0, 1, pick.getrandbits(64)])
    child, ref_child = g.fork(label), ref.fork(label)
    assert child._state == ref_child.state
    return [child.normal().hex() for _ in range(3)], [ref_child.normal().hex() for _ in range(3)]


EDGE_SEEDS = [zero_at(k) for k in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK)]


@pytest.mark.parametrize("seed", list(range(8)) + [2**64 - 1] + EDGE_SEEDS)
def test_streams_across_blocks_match_the_recipe(seed):
    pick = random.Random(seed)
    g, ref = SplitMix64(seed), RecipeStream(seed)
    calls = 0
    while ref.draws < 3 * _BLOCK + 100:
        got, want = random_call(pick, g, ref)
        calls += 1
        assert got == want, (seed, calls)
        assert g._state == ref.state, (seed, calls)


@pytest.mark.parametrize("ahead", [0, 1, _BLOCK - 96, _BLOCK])
def test_empty_normals_consume_no_draw(ahead):
    g, ref = SplitMix64(5), RecipeStream(5)
    for _ in range(ahead):
        g.uniform()
        ref.uniform()
    # -(_BLOCK // 2 - 3) asks for -4090 floats, which from position _BLOCK - 96
    # would slice forwards to a non-empty list
    for k in (0, -1, -45, -(_BLOCK // 2 - 3)):
        out = g.normals(k)
        assert out.shape == (0,) and out.dtype == np.float64
    for shape in ((0,), (3, 0), (0, 4, 4)):
        out = g.complex_normals(*shape)
        assert out.shape == shape and out.dtype == np.complex128
    assert g._state == ref.state
    assert g.next_u64() == ref.next_u64()
