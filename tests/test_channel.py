"""Channel layer: validation, replay determinism, value-independence of erasures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2_contingency

from otbec.channel import (
    ERASED,
    as_bits,
    erasure_count,
    erasure_partition,
    mix64,
    transmit_bec,
    trial_rng,
)

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


def test_transmit_degenerate_probabilities(rng):
    x = as_bits("10110100")
    assert np.array_equal(transmit_bec(x, 0.0, rng), x)
    assert (transmit_bec(x, 1.0, rng) == ERASED).all()
    with pytest.raises(ValueError):
        transmit_bec(x, 1.5, rng)


def test_transmit_checks_other_input_and_sends_it_as_the_uint8_block():
    block = as_bits("10110100")
    sent = transmit_bec(block, 0.5, np.random.default_rng(4))
    for other in (block.tolist(), block.astype(np.int64)):
        assert np.array_equal(transmit_bec(other, 0.5, np.random.default_rng(4)), sent)
    for bad in ([0, 2], [0.5, 1], [[0, 1]]):
        with pytest.raises(ValueError):
            transmit_bec(bad, 0.5, np.random.default_rng(4))


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


@given(obs_vectors)
def test_erasure_partition_is_a_partition(symbols):
    y = np.array(symbols, dtype=np.int8)
    e, ebar = erasure_partition(y)
    assert set(e) | set(ebar) == set(range(len(symbols)))
    assert set(e) & set(ebar) == set()
    assert erasure_count(y) == (len(e), len(ebar))


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
