"""Exhaustive enumeration oracle: budgets, exact values, Monte Carlo agreement."""

import math
from fractions import Fraction

import pytest

from otbec import exact_oracle
from otbec.entropy import FiniteDistribution, JointDistribution
from otbec.exact_oracle import (
    DEFAULT_BUDGET,
    BudgetError,
    EnumerationBudget,
    ExactJoint,
    SUPPORTED_SPECS,
    TinyParams,
    enumerate_protocol,
    exact_mi,
    exact_mi_given_success,
    oracle_vs_montecarlo,
)

HALF = Fraction(1, 2)


def tiny(**overrides):
    base = dict(n=4, p1=HALF, p2=HALF, set_size=1, key_bits=1, phase1_size=1, sprime_size=2)
    base.update(overrides)
    return TinyParams(**base)


# regression goldens, frozen from the first computation of each instance
GOLDEN_MI = {
    ("noncolluding", "m1-unchosen", "own-receiver-1"): 0.4375,
    ("noncolluding", "m1-unchosen", "pooled-receivers-1"): 0.65625,
    ("colluding", "m2-unchosen", "pooled-receivers-2-phase2"): 0.0625,
}


def test_budget_rejects_large_block():
    with pytest.raises(BudgetError) as err:
        enumerate_protocol("noncolluding", tiny(n=9), "announced-sets-1", "z1")
    assert err.value.estimate > DEFAULT_BUDGET.max_states or "n" in str(err.value)


def test_budget_rejects_large_set_size():
    with pytest.raises(BudgetError):
        enumerate_protocol("noncolluding", tiny(set_size=3), "announced-sets-1", "z1")


def test_budget_object_is_honored():
    strict = EnumerationBudget(max_n=4, max_set_size=2, max_hash_in=4, max_hash_out=2,
                               max_states=10)
    with pytest.raises(BudgetError):
        enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "z1", budget=strict)


def test_unknown_spec_rejected():
    with pytest.raises(ValueError):
        enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "m2-unchosen")


def test_mass_conservation_all_specs():
    for variant, secret, view in SUPPORTED_SPECS:
        j = enumerate_protocol(variant, tiny(), view, secret)
        total = sum(w for _, w in j.joint.items())
        assert total == 1, (variant, secret, view)
        assert j.arithmetic == "rational"


def test_mass_conservation_float_arithmetic():
    j = enumerate_protocol("noncolluding", tiny(p1=0.3, p2=0.3), "announced-sets-1", "z1")
    assert j.arithmetic == "float"
    assert sum(w for _, w in j.joint.items()) == pytest.approx(1.0, abs=1e-12)


def test_choice_bit_mi_is_exactly_zero():
    j = enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "z1")
    mi = exact_mi(j)
    assert mi == 0 and not isinstance(mi, float)


def test_choice_pair_mi_is_exactly_zero():
    j = enumerate_protocol("noncolluding", tiny(), "announced-sets-both", "z-pair")
    assert exact_mi(j) == 0


def test_exchange_symmetry_of_choice_joint():
    # flipping z and swapping the announced pair leaves the joint invariant
    j = enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "z1")
    mass = dict(j.joint.items())
    for (z, view), w in mass.items():
        if view == ("abort",):
            partner = (1 - z, view)
        else:
            s0, s1 = view
            partner = (1 - z, (s1, s0))
        assert mass[partner] == w


def test_golden_leak_values_frozen():
    for (variant, secret, view), expected in GOLDEN_MI.items():
        j = enumerate_protocol(variant, tiny(), view, secret)
        assert exact_mi(j) == pytest.approx(expected, abs=1e-12), (variant, secret, view)


def test_pooling_never_loses_information():
    own = exact_mi(enumerate_protocol("noncolluding", tiny(), "own-receiver-1", "m1-unchosen"))
    pooled = exact_mi(enumerate_protocol("noncolluding", tiny(), "pooled-receivers-1", "m1-unchosen"))
    assert pooled >= own - 1e-15


def test_phase1_cross_knowledge_is_exactly_zero():
    j = enumerate_protocol("colluding", tiny(), "first-receiver-phase1", "x-sprime")
    mi = exact_mi_given_success(j)
    assert mi == 0 and not isinstance(mi, float)


def test_conditioning_needs_completed_branches():
    # p1 = 0 erases nothing, so the erased side can never host a set: all abort
    j = enumerate_protocol("colluding", tiny(p1=Fraction(0), p2=HALF),
                           "first-receiver-phase1", "x-sprime")
    assert j.abort_mass == 1
    with pytest.raises(ValueError):
        exact_mi_given_success(j)


def test_exact_mi_on_handmade_joints():
    product = JointDistribution.product(
        FiniteDistribution([0, 1], [HALF, HALF]),
        FiniteDistribution(["u", "v"], [Fraction(1, 4), Fraction(3, 4)]),
    )
    j = ExactJoint(product, "rational", Fraction(0), 4, "handmade product", None, None)
    assert exact_mi(j) == 0
    corr = JointDistribution({(0, 0): HALF, (1, 1): HALF})
    j2 = ExactJoint(corr, "rational", Fraction(0), 2, "handmade correlated bit", None, None)
    assert exact_mi(j2) == pytest.approx(1.0)


def test_montecarlo_matches_exact_within_band():
    exact = enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "z1")
    res = oracle_vs_montecarlo(exact, trials=4000, master_seed=11)
    assert res["within_band"]
    assert res["max_deviation"] <= res["band"]
    assert res["band"] == pytest.approx(math.sqrt(math.log(2 / 0.01) / (2 * 4000)))


def test_montecarlo_deterministic_subcase_has_zero_view_deviation():
    # p1 = 0 forces the abort view on every trial; only the secret coin varies
    exact = enumerate_protocol("noncolluding", tiny(p1=Fraction(0), p2=HALF),
                               "announced-sets-1", "z1")
    res = oracle_vs_montecarlo(exact, trials=300, master_seed=2)
    assert res["view_deviation"] == 0.0
    assert res["within_band"]


def test_montecarlo_rejects_zero_trials():
    exact = enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "z1")
    with pytest.raises(ValueError):
        oracle_vs_montecarlo(exact, trials=0)


@pytest.mark.parametrize("spec", [
    ("noncolluding", "m1-unchosen", "pooled-receivers-1"),
    ("colluding", "m2-unchosen", "pooled-receivers-2-phase2"),
])
def test_montecarlo_samples_through_the_executors_send_step(spec, monkeypatch):
    calls = []
    send = exact_oracle.send_link

    def counted(*args):
        calls.append(args)
        return send(*args)

    monkeypatch.setattr(exact_oracle, "send_link", counted)
    variant, secret, view = spec
    exact = enumerate_protocol(variant, tiny(), view, secret)
    res = oracle_vs_montecarlo(exact, trials=3000, master_seed=11)
    assert calls
    assert res["within_band"], res


def test_joint_serialization_carries_exact_weights():
    j = enumerate_protocol("noncolluding", tiny(), "announced-sets-1", "z1")
    payload = j.to_json()
    assert payload["arithmetic"] == "rational"
    assert payload["abort_mass"] == str(j.abort_mass)
    assert payload["states"] == j.states
