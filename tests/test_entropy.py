"""Entropy toolkit: orderings, distances, extraction bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otbec.entropy import (
    FiniteDistribution,
    JointDistribution,
    cond_min_entropy,
    dlhl_closeness,
    min_entropy,
    mutual_information,
    privacy_amp_bound,
    renyi2_entropy,
    smooth_min_entropy,
    statistical_distance,
    zero_entropy,
)


def random_dist(rng, atoms):
    w = rng.random(atoms) + 1e-9
    w /= w.sum()
    return FiniteDistribution(range(atoms), w.tolist())


prob_vectors = st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8).map(
    lambda w: FiniteDistribution(range(len(w)), [v / sum(w) for v in w])
)


def test_distribution_validation():
    with pytest.raises(ValueError):
        FiniteDistribution([0, 1], [0.5])
    with pytest.raises(ValueError):
        FiniteDistribution([0, 0], [0.5, 0.5])
    with pytest.raises(ValueError):
        FiniteDistribution([0, 1], [0.9, 0.2])
    d = FiniteDistribution.from_mapping({"a": Fraction(1, 3), "b": Fraction(2, 3)})
    assert d.as_mapping()["b"] == Fraction(2, 3)


@given(prob_vectors)
def test_entropy_ordering(d):
    assert min_entropy(d) <= renyi2_entropy(d) + 1e-9
    assert renyi2_entropy(d) <= zero_entropy(d) + 1e-9


def test_entropy_ordering_random_batch(rng):
    for atoms in (1, 2, 5, 17):
        for _ in range(50):
            d = random_dist(rng, atoms)
            assert min_entropy(d) <= renyi2_entropy(d) + 1e-9 <= zero_entropy(d) + 2e-9


def test_point_values():
    u = FiniteDistribution(range(8), [Fraction(1, 8)] * 8)
    assert min_entropy(u) == pytest.approx(3.0)
    assert renyi2_entropy(u) == pytest.approx(3.0)
    assert zero_entropy(u) == pytest.approx(3.0)
    point = FiniteDistribution([0], [1])
    assert min_entropy(point) == 0.0
    assert zero_entropy(point) == 0.0


def test_smooth_min_entropy_matches_at_zero(rng):
    for _ in range(20):
        d = random_dist(rng, 5)
        assert smooth_min_entropy(d, 0.0) == pytest.approx(min_entropy(d), abs=1e-12)


@given(prob_vectors, st.floats(0.0, 0.3))
def test_smooth_min_entropy_nondecreasing(d, eps):
    assert smooth_min_entropy(d, eps) + 1e-9 >= min_entropy(d)
    assert smooth_min_entropy(d, min(0.3, eps + 0.05)) + 1e-9 >= smooth_min_entropy(d, eps)


def test_smooth_min_entropy_rejects_bad_eps():
    d = FiniteDistribution([0, 1], [0.5, 0.5])
    with pytest.raises(ValueError):
        smooth_min_entropy(d, -0.01)
    with pytest.raises(ValueError):
        smooth_min_entropy(d, 1.0)


def test_statistical_distance_is_a_metric(rng):
    for _ in range(30):
        p, q, r = (random_dist(rng, 4) for _ in range(3))
        dpq = statistical_distance(p, q)
        assert dpq == pytest.approx(statistical_distance(q, p))
        assert 0 <= dpq <= 1
        assert statistical_distance(p, p) == 0
        assert dpq <= statistical_distance(p, r) + statistical_distance(r, q) + 1e-12


def test_statistical_distance_exact_on_rationals():
    p = FiniteDistribution([0, 1], [Fraction(1, 2), Fraction(1, 2)])
    q = FiniteDistribution([0, 1], [Fraction(1, 4), Fraction(3, 4)])
    assert statistical_distance(p, q) == Fraction(1, 4)
    with pytest.raises(ValueError):
        statistical_distance(p, FiniteDistribution([0, 2], [0.5, 0.5]))


def test_mutual_information_zero_exactly_on_products():
    px = FiniteDistribution([0, 1], [Fraction(1, 3), Fraction(2, 3)])
    py = FiniteDistribution(["a", "b"], [Fraction(1, 4), Fraction(3, 4)])
    mi = mutual_information(JointDistribution.product(px, py))
    assert mi == 0 and not isinstance(mi, float)
    float_mi = mutual_information(
        JointDistribution.product(FiniteDistribution([0, 1], [0.3, 0.7]), py)
    )
    assert float_mi == 0.0


def test_mutual_information_correlated_bit():
    j = JointDistribution({(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)})
    assert mutual_information(j) == pytest.approx(1.0)


@given(st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4))
def test_mutual_information_nonnegative(w):
    total = sum(w)
    j = JointDistribution({(x, y): w[2 * x + y] / total for x in (0, 1) for y in (0, 1)})
    assert mutual_information(j) >= -1e-12


def test_mutual_information_symmetric(rng):
    for _ in range(20):
        w = rng.random(4)
        w /= w.sum()
        j = JointDistribution({(x, y): w[2 * x + y] for x in (0, 1) for y in (0, 1)})
        jt = JointDistribution({(y, x): w[2 * x + y] for x in (0, 1) for y in (0, 1)})
        assert mutual_information(j) == pytest.approx(mutual_information(jt), abs=1e-12)


def test_conditional_entropies():
    j = JointDistribution({
        (0, "l"): Fraction(1, 2), (1, "r"): Fraction(1, 4), (0, "r"): Fraction(1, 4),
    })
    # worst y is "l": X deterministic there? no: given l, X=0 surely -> H=0; given r, max p = 1/2
    assert cond_min_entropy(j) == pytest.approx(0.0)
    assert zero_entropy(j) == pytest.approx(1.0)  # support of X given y="r" has 2 atoms


def test_privacy_amp_bound_edge_cases():
    for l in (1.0, 4.0, 10.5):
        assert privacy_amp_bound(l, l) == pytest.approx(l - 1.0)
        assert privacy_amp_bound(l, l + 40) == pytest.approx(l, abs=1e-9)
    assert privacy_amp_bound(4.0, 0.0) == 0.0


@given(st.floats(0.1, 30), st.floats(0.0, 40))
def test_privacy_amp_bound_never_exceeds_key_length(l, c):
    b = privacy_amp_bound(l, c)
    assert 0.0 <= b <= l
    assert privacy_amp_bound(l, c + 1) + 1e-12 >= b


def test_dlhl_closeness_formula():
    assert dlhl_closeness(1, 0.1, 0.0) == pytest.approx(0.1)
    assert dlhl_closeness(2, 0.1, 0.01) == pytest.approx(4 * 0.1 / 2 + 4 * 0.01)
    with pytest.raises(ValueError):
        dlhl_closeness(1, -0.1, 0.0)

