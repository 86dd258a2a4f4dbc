"""Generator correctness: published vectors, documented stream layouts,
and exact state handling.  Everything here is deterministic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpnet import rng
from cpnet.rng import (
    Rng,
    _splitmix64_at,
    bulk_normal,
    bulk_u64,
    bulk_uniform,
    derive,
    mix64,
)

# First outputs of the reference splitmix64 stream for seed 0, as printed
# by the reference C implementation (state += golden gamma, then finalize).
SPLITMIX64_SEED0 = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

# xoshiro256** outputs from state (1, 2, 3, 4), derivable by hand from the
# update equations: rotl(2*5, 7)*9 = 11520; the second step finds s1 = 0;
# the third emits rotl(262149*5, 7)*9 = 1509978240.
XOSHIRO_STATE1234 = [11520, 0, 1509978240]


def test_splitmix64_reference_vector():
    assert [_splitmix64_at(0, k) for k in range(3)] == SPLITMIX64_SEED0


def test_xoshiro_hand_vector():
    r = Rng(0)
    r.set_state((1, 2, 3, 4))
    assert [r.u64() for _ in range(3)] == XOSHIRO_STATE1234


def test_seed_words_come_from_splitmix():
    for seed in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
        assert Rng(seed).state() == tuple(_splitmix64_at(seed, k) for k in range(4))


def test_mix64_masks_to_64_bits():
    assert mix64(1 << 64) == mix64(0)
    assert 0 <= mix64(123456789) < (1 << 64)


def test_state_roundtrip_resumes_exactly():
    r = Rng(7)
    for _ in range(10):
        r.u64()
    saved = r.state()
    ahead = [r.u64() for _ in range(5)]
    r.set_state(saved)
    assert [r.u64() for _ in range(5)] == ahead


def test_set_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        Rng(0).set_state((1, 2, 3))


@given(st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1),
       st.integers(0, (1 << 64) - 1))
def test_derive_is_injective_in_the_tag(seed, tag_a, tag_b):
    # derive composes two bijections of the tag, so distinct tags always
    # yield distinct child seeds; no birthday-bound hedging needed.
    if tag_a != tag_b:
        assert derive(seed, tag_a) != derive(seed, tag_b)


@pytest.mark.parametrize("seed, tag", [(0, -1), (0, 1 << 64), (-1, 0), (1 << 64, 0)])
def test_derive_rejects_words_outside_64_bits(seed, tag):
    # read modulo 2**64, -1 would alias 2**64 - 1 and 2**64 would alias 0
    with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*64\)"):
        derive(seed, tag)


def test_derive_children_produce_unrelated_streams():
    xs = [Rng(derive(0, tag)).u64() for tag in range(64)]
    assert len(set(xs)) == 64


def test_uniform_matches_u64_mapping():
    a, b = Rng(11), Rng(11)
    for _ in range(100):
        assert a.uniform() == (b.u64() >> 11) * 2.0**-53


@given(st.integers(0, (1 << 64) - 1), st.integers(1, 10_000))
def test_randint_range(seed, n):
    v = Rng(seed).randint(n)
    assert 0 <= v < n


def test_randint_rejects_nonpositive_bounds():
    with pytest.raises(ValueError):
        Rng(0).randint(0)
    with pytest.raises(ValueError):
        Rng(0).randint(-3)


# ---------------------------------------------------------------------------
# Counter-mode bulk generator
# ---------------------------------------------------------------------------

def test_bulk_lane_matches_scalar_oracle():
    # Documented contract: lane i is the first output of a xoshiro256**
    # state seeded from splitmix outputs 4i .. 4i+3 of the same stream.
    for seed in (0, 42, 2**63):
        vals = bulk_u64(seed, 6)
        for lane in range(6):
            r = Rng(0)
            r.set_state(tuple(_splitmix64_at(seed, 4 * lane + j) for j in range(4)))
            assert int(vals[lane]) == r.u64()


def test_bulk_lanes_of_a_long_call_match_scalar_oracle():
    # bulk_u64 computes only the one splitmix word a lane's first output
    # reads; the full four-word scalar seeding must still agree, at the
    # first lanes, the last lane, and the wrap-around seed.
    for seed in (0, (1 << 64) - 1):
        vals = bulk_u64(seed, 4096)
        for lane in (0, 1, 4095):
            r = Rng(0)
            r.set_state(tuple(_splitmix64_at(seed, 4 * lane + j) for j in range(4)))
            assert int(vals[lane]) == r.u64()


def test_bulk_first_lane_equals_sequential_first_draw():
    for seed in (0, 1, 999):
        assert int(bulk_u64(seed, 1)[0]) == Rng(seed).u64()


def test_bulk_is_a_prefix_stable_counter_stream():
    assert np.array_equal(bulk_u64(123, 5), bulk_u64(123, 9)[:5])
    assert bulk_u64(123, 0).shape == (0,)


def test_bulk_uniform_shape_and_range():
    u = bulk_uniform(7, (13, 5))
    assert u.shape == (13, 5) and u.dtype == np.float64
    assert (u >= 0).all() and (u < 1).all()
    flat = bulk_uniform(7, (65,))
    assert np.array_equal(u.ravel(), flat)


def test_bulk_normal_moments():
    z = bulk_normal(7, (200_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_bulk_normal_is_float32_and_finite_next_to_one(monkeypatch):
    # all-ones words give u = 1 - 2**-53, which rounds to 1.0 in float32: the
    # 1 - u of Box-Muller must be taken in float64 or log(0) gives -inf
    monkeypatch.setattr(rng, "bulk_u64", lambda seed, n: np.full(n, 2**64 - 1, dtype=np.uint64))
    z = bulk_normal(0, (6,))
    assert z.dtype == np.float32
    assert np.isfinite(z).all()


def test_bulk_normal_odd_length_truncates_last_pair():
    assert np.array_equal(bulk_normal(3, (7,)), bulk_normal(3, (8,))[:7])


def test_seed_array_rows_equal_single_seed_calls():
    seeds = [0, 7, (1 << 64) - 1]
    for shape in ((7,), (3, 4, 4), ()):
        z = bulk_normal(seeds, shape)
        assert z.shape == (3,) + shape
        for row, seed in zip(z, seeds):
            assert row.tobytes() == bulk_normal(seed, shape).tobytes()
    u = bulk_u64(np.array(seeds, dtype=np.uint64), 9)
    assert u.shape == (3, 9)
    for row, seed in zip(u, seeds):
        assert np.array_equal(row, bulk_u64(seed, 9))
    assert bulk_u64([], 4).shape == (0, 4)


def test_bulk_streams_differ_by_seed():
    assert not np.array_equal(bulk_u64(0, 16), bulk_u64(1, 16))
