"""Channel layer: validation, replay determinism, value-independence of erasures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2_contingency

from otbec.channel import (
    ERASED,
    BroadcastParams,
    as_bits,
    as_index_set,
    as_observation,
    broadcast,
    compose_index_sets,
    erasure_count,
    erasure_partition,
    mix64,
    obs_to_string,
    restrict,
    transmit_bec,
    trial_rng,
)

bit_vectors = st.lists(st.integers(0, 1), min_size=0, max_size=24)
obs_vectors = st.lists(st.sampled_from([0, 1, ERASED]), min_size=0, max_size=24)


def test_as_bits_accepts_strings_and_lists():
    assert np.array_equal(as_bits("0110"), [0, 1, 1, 0])
    assert as_bits([1, 0]).dtype == np.uint8


def test_as_bits_rejects_nonbits():
    with pytest.raises(ValueError):
        as_bits([0, 2])
    with pytest.raises(ValueError):
        as_bits([[0, 1]])


def test_as_bits_range_check_per_dtype():
    for bad in (np.array([0, 2], dtype=np.uint8), np.array([255], dtype=np.uint8),
                np.array([-1, 0], dtype=np.int64), np.array([1, 2], dtype=np.int64)):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            as_bits(bad)
    with pytest.raises(ValueError, match="one-dimensional"):
        as_bits(np.zeros((2, 2), dtype=np.uint8))
    # the range test runs before the cast, so fractions are refused, not truncated
    for bad in ([0.7, 1.2], np.array([0.5]), [1.0, float("nan")]):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            as_bits(bad)
    assert as_bits([0.0, 1.0]).tolist() == [0, 1]
    src = np.array([1, 0, 1], dtype=np.uint8)
    out = as_bits(src)
    assert np.array_equal(out, src) and out is not src  # callers own the result


def test_as_observation_range_check():
    for bad in ([2], [-2], np.array([0, -2], dtype=np.int8), [0.5], [-0.5]):
        with pytest.raises(ValueError, match="erasure symbol"):
            as_observation(bad)
    assert as_observation([1.0, -1.0]).tolist() == [1, ERASED]


def test_as_observation_string_roundtrip():
    y = as_observation("1e0e")
    assert list(y) == [1, ERASED, 0, ERASED]
    assert obs_to_string(y) == "1e0e"
    with pytest.raises(ValueError):
        as_observation([0, 3])


def test_as_index_set_validation():
    assert list(as_index_set([3, 1, 2])) == [1, 2, 3]
    with pytest.raises(ValueError):
        as_index_set([1, 1])
    with pytest.raises(ValueError):
        as_index_set([-1])
    with pytest.raises(ValueError):
        as_index_set([4], n=4)


def test_as_index_set_ndarray_and_set_inputs():
    # integer ndarrays are sorted by numpy; sets and lists take the generic path
    assert list(as_index_set(np.array([3, 1, 2], dtype=np.int32))) == [1, 2, 3]
    assert as_index_set(np.array([3, 1], dtype=np.uint8)).dtype == np.int64
    assert list(as_index_set({5, 0, 2}, n=6)) == [0, 2, 5]
    with pytest.raises(ValueError, match="duplicates"):
        as_index_set(np.array([2, 1, 2]))
    with pytest.raises(ValueError, match="nonnegative"):
        as_index_set(np.array([1, -1]))
    with pytest.raises(ValueError, match="out of range"):
        as_index_set(np.array([0, 4]), n=4)


def test_broadcast_params_range():
    BroadcastParams(0.0, 1.0)
    with pytest.raises(ValueError):
        BroadcastParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        BroadcastParams(0.5, 1.2)


def test_transmit_degenerate_probabilities(rng):
    x = as_bits("10110100")
    assert np.array_equal(transmit_bec(x, 0.0, rng), x)
    assert (transmit_bec(x, 1.0, rng) == ERASED).all()
    with pytest.raises(ValueError):
        transmit_bec(x, 1.5, rng)


def test_transmit_replay_identical():
    x = np.ones(50, dtype=np.uint8)
    y1 = transmit_bec(x, 0.4, np.random.default_rng(9))
    y2 = transmit_bec(x, 0.4, np.random.default_rng(9))
    assert np.array_equal(y1, y2)


def test_erasures_independent_of_values():
    # contingency of (input bit, erased?) pooled over positions; erasures are
    # drawn from the rng, never from x, so the table should look independent
    rng = np.random.default_rng(123)
    table = np.zeros((2, 2), dtype=np.int64)
    for _ in range(2000):
        x = rng.integers(0, 2, size=4, dtype=np.int64).astype(np.uint8)
        y = transmit_bec(x, 0.5, rng)
        for xv, yv in zip(x, y):
            table[int(xv), int(yv == ERASED)] += 1
    _, pvalue, _, _ = chi2_contingency(table)
    assert pvalue > 1e-3


def test_broadcast_channels_are_independent(rng):
    x = as_bits("110010101100")
    y1, y2 = broadcast(x, BroadcastParams(0.0, 1.0), rng)
    assert np.array_equal(y1, x)
    assert (y2 == ERASED).all()


@given(obs_vectors)
def test_erasure_partition_is_a_partition(symbols):
    y = as_observation(symbols)
    e, ebar = erasure_partition(y)
    assert set(e) | set(ebar) == set(range(len(symbols)))
    assert set(e) & set(ebar) == set()
    assert erasure_count(y) == (len(e), len(ebar))


@given(st.data())
def test_restrict_composes_through_index_maps(data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=16))
    v = as_bits(bits)
    s = data.draw(st.sets(st.integers(0, len(bits) - 1), min_size=1))
    s = as_index_set(sorted(s))
    t = data.draw(st.sets(st.integers(0, len(s) - 1)))
    t = as_index_set(sorted(t))
    direct = restrict(restrict(v, s), t)
    composed = restrict(v, compose_index_sets(s, t))
    assert np.array_equal(direct, composed)


def test_compose_index_sets_maps_positions():
    s = as_index_set([2, 5, 7])
    t = as_index_set([0, 2])
    assert list(compose_index_sets(s, t)) == [2, 7]


def test_trial_rng_deterministic_and_distinct():
    a = trial_rng(11, 3).integers(0, 1 << 30, size=4)
    b = trial_rng(11, 3).integers(0, 1 << 30, size=4)
    c = trial_rng(11, 4).integers(0, 1 << 30, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mix64_spreads_consecutive_indices():
    vals = {mix64(5, t) for t in range(1000)}
    assert len(vals) == 1000
    assert mix64(5, 0) == mix64(5, 0)
    assert mix64(5, 0) != mix64(6, 0)
