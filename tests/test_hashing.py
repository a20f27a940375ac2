"""Linear hash family: linearity, two-universality, matrix validation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otbec.hashing import (
    LinearHash,
    apply,
    collision_probability,
    joint_collision_probability,
    sample_linear_hash,
    sample_linear_hashes,
)


@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_apply_is_linear(m, k, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h = sample_linear_hash(m, k, rng)
    x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)), dtype=np.uint8)
    assert np.array_equal(apply(h, x ^ y), apply(h, x) ^ apply(h, y))


@pytest.mark.parametrize("m", [1, 255, 256, 300, 1000])
def test_apply_matches_int64_product(m, rng):
    # the product runs in uint8; from m = 256 on its sums wrap modulo 256
    h = sample_linear_hash(m, 8, rng)
    ones = LinearHash(np.ones((1, m), dtype=np.uint8))
    for x in (rng.integers(0, 2, size=m, dtype=np.uint8), np.ones(m, dtype=np.uint8)):
        for g in (h, ones):
            out = apply(g, x)
            assert out.dtype == np.uint8
            assert np.array_equal(out, (g.matrix.astype(np.int64) @ x.astype(np.int64)) % 2)


def test_apply_rejects_length_mismatch(rng):
    h = sample_linear_hash(3, 2, rng)
    with pytest.raises(ValueError):
        apply(h, [0, 1])


def test_linear_hash_validates_matrix():
    with pytest.raises(ValueError):
        LinearHash(np.array([0, 1]))
    with pytest.raises(ValueError):
        LinearHash(np.array([[0, 2]]))


def test_linear_hash_range_check_per_dtype():
    with pytest.raises(ValueError, match="bits"):
        LinearHash(np.array([[1, 2]], dtype=np.uint8))
    with pytest.raises(ValueError, match="bits"):
        LinearHash(np.array([[0, -1]], dtype=np.int64))
    # the range test runs before the cast to uint8, so nothing wraps or truncates
    for bad in (np.array([[256, 1]]), np.array([[0.5, 1.0]])):
        with pytest.raises(ValueError, match="bits"):
            LinearHash(bad)
    h = LinearHash(np.array([[0.0, 1.0]]))
    assert h.matrix.dtype == np.uint8 and h.matrix.tolist() == [[0, 1]]


def test_sample_is_seed_deterministic():
    a = sample_linear_hash(4, 3, np.random.default_rng(5))
    b = sample_linear_hash(4, 3, np.random.default_rng(5))
    assert a == b
    assert a.matrix.shape == (3, 4)


def test_exact_collision_probability_is_two_universal():
    # uniform linear families collide at exactly 2^-k for every nonzero difference
    for m, k in ((1, 1), (2, 1), (2, 2), (3, 2), (4, 3)):
        est = collision_probability(m, k, mode="exact")
        assert est.exact == Fraction(1, 2**k)
        assert est.mode == "exact"


def test_exact_mode_guard():
    with pytest.raises(ValueError):
        collision_probability(7, 3, mode="exact")
    with pytest.raises(ValueError):
        collision_probability(2, 2, mode="nope")


def test_monte_carlo_mode_brackets_exact(rng):
    est = collision_probability(3, 2, mode="monte-carlo", rng=rng, trials=20000)
    lo, hi = est.ci
    assert lo <= 0.25 <= hi
    assert est.exact is None
    with pytest.raises(ValueError):
        collision_probability(3, 2, mode="monte-carlo")


def test_joint_collision_of_two_single_bit_hashes():
    assert joint_collision_probability(1, 1, 1, 1) == Fraction(1, 4)
    assert joint_collision_probability(3, 1, 2, 1) == Fraction(1, 4)


def test_joint_collision_identical_component_collides_surely():
    assert joint_collision_probability(2, 1, 2, 1, identical1=True) == Fraction(1, 2)
    assert joint_collision_probability(2, 1, 2, 2, identical1=True, identical2=True) == 1


def test_one_draw_of_a_links_hashes_is_the_stream_of_one_call_each():
    # random shapes, some with k * m not a multiple of 4, from generator states
    # with and without a spare 32-bit half word; the draws after must agree too
    meta = np.random.default_rng(16)
    for _ in range(300):
        shapes = [tuple(int(v) for v in meta.integers(0, 9, size=2)) for _ in range(4)]
        seed, spare = int(meta.integers(2**32)), int(meta.integers(0, 3))
        one_each, merged = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (one_each, merged):
            rng.integers(0, 2**32, size=spare, dtype=np.uint32)
        expected = [sample_linear_hash(cols, rows, one_each) for rows, cols in shapes]
        drawn = sample_linear_hashes(shapes, merged)
        assert [h.matrix.shape for h in drawn] == [tuple(shape) for shape in shapes]
        assert all(h.matrix.dtype == np.uint8 for h in drawn)
        assert list(drawn) == expected, shapes
        assert one_each.bit_generator.state == merged.bit_generator.state
        assert np.array_equal(one_each.integers(0, 2, size=7, dtype=np.uint8),
                              merged.integers(0, 2, size=7, dtype=np.uint8))
