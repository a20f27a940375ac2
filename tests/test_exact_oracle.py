"""Exhaustive enumeration oracle: budgets, exact values, Monte Carlo agreement."""

import json
import math
from fractions import Fraction

import pytest

from otbec import _fanout, cli, exact_oracle, protocol_core
from otbec.channel import trial_rng
from otbec.exact_oracle import (
    BudgetError,
    ExactJoint,
    SPECS,
    enumerate_protocol,
    exact_mi,
    exact_mi_given_success,
    oracle_vs_montecarlo,
    tiny_plan,
)
from otbec.protocol_colluding import colluding_steps
from otbec.protocol_noncolluding import noncolluding_steps

HALF = Fraction(1, 2)


def tiny(**overrides):
    base = dict(n=4, p1=HALF, p2=HALF, set_size=1, key_bits=1, phase1_size=1, sprime_size=2)
    base.update(overrides)
    return tiny_plan(**base)


# regression goldens, frozen from the first computation of each instance
GOLDEN_MI = {
    "unchosen-vs-own": 0.4375,
    "unchosen-vs-pooled": 0.65625,
    "phase2-unchosen-vs-pooled": 0.0625,
}


def test_budget_rejects_large_block():
    with pytest.raises(BudgetError) as err:
        enumerate_protocol("choice-vs-sets", tiny(n=9))
    # a size refusal comes before, and without, a state estimate
    assert str(err.value) == "n = 9 exceeds budget n <= 8"
    assert err.value.estimate is None


def test_budget_rejects_large_set_size():
    with pytest.raises(BudgetError):
        enumerate_protocol("choice-vs-sets", tiny(set_size=3))


@pytest.mark.parametrize("spec, overrides, message", [
    ("phase1-cross-knowledge", {"phase1_size": 3}, "set size 3 exceeds budget 2"),
    ("phase2-unchosen-vs-pooled", {"sprime_size": 5}, "sprime_size = 5 exceeds budget 4"),
    ("choice-vs-sets", {"key_bits": 3}, "hash output 3 exceeds budget 2"),
    # every size at its limit, yet over 10^9 weighted states
    ("phase1-cross-knowledge",
     {"n": 8, "set_size": 2, "key_bits": 2, "phase1_size": 2, "sprime_size": 4},
     "state estimate exceeds budget (estimated states: 7193231360)"),
    # sizes whose state estimate has thousands of digits, or takes seconds to work out
    ("choice-vs-sets", {"n": 20000}, "n = 20000 exceeds budget n <= 8"),
    ("unchosen-vs-own", {"key_bits": 100000}, "hash output 100000 exceeds budget 2"),
    ("phase1-cross-knowledge", {"n": 2000000, "sprime_size": 1000000},
     "n = 2000000 exceeds budget n <= 8"),
])
def test_each_limit_refuses_with_its_message(spec, overrides, message):
    with pytest.raises(BudgetError) as err:
        enumerate_protocol(spec, tiny(**overrides))
    assert str(err.value).startswith(message)


def test_unknown_spec_rejected():
    with pytest.raises(ValueError, match="unknown spec 'choice-vs-messages'"):
        enumerate_protocol("choice-vs-messages", tiny())


def test_mass_conservation_all_specs():
    for name in SPECS:
        j = enumerate_protocol(name, tiny())
        total = Fraction(sum(j.weights.values()), j.denominator)
        assert total == 1, name
        assert all(type(w) is int for w in j.weights.values())


def test_mass_conservation_float_arithmetic():
    # float probabilities no longer fork to float arithmetic: the mass is exact
    j = enumerate_protocol("choice-vs-sets", tiny(p1=0.3, p2=0.3))
    assert j.plan.p1 == Fraction(3, 10)
    assert all(type(w) is int for w in j.weights.values())
    assert Fraction(sum(j.weights.values()), j.denominator) == 1


@pytest.mark.parametrize("spec", SPECS.items())
def test_float_arithmetic_agrees_with_rational_on_the_same_binary_values(spec):
    # 0.25 and 0.75 print as the binary values they hold, so the float and
    # the Fraction inputs name the same law and must enumerate it identically
    name, _ = spec
    fl = enumerate_protocol(name, tiny(p1=0.25, p2=0.75))
    ex = enumerate_protocol(name, tiny(p1=Fraction(0.25), p2=Fraction(0.75)))
    assert (fl.weights, fl.denominator, fl.states) == (ex.weights, ex.denominator, ex.states)
    assert fl.abort_mass == ex.abort_mass
    assert exact_mi(fl) == exact_mi(ex)
    assert exact_mi_given_success(fl) == exact_mi_given_success(ex)


@pytest.mark.parametrize("spec", SPECS.items())
def test_float_params_enumerate_as_their_decimal_fraction(spec):
    # a float is read as the decimal its repr prints (0.3 is 3/10), not as the
    # binary value Fraction(0.3) holds, so typing a decimal keeps the joint exact
    name, _ = spec
    fl = enumerate_protocol(name, tiny(p1=0.3, p2=0.7))
    ex = enumerate_protocol(name, tiny(p1=Fraction(3, 10), p2=Fraction(7, 10)))
    assert fl.plan == ex.plan
    assert (fl.weights, fl.denominator, fl.states) == (ex.weights, ex.denominator, ex.states)


def test_choice_bit_mi_is_exactly_zero():
    j = enumerate_protocol("choice-vs-sets", tiny())
    mi = exact_mi(j)
    assert mi == 0 and not isinstance(mi, float)


def test_choice_pair_mi_is_exactly_zero():
    j = enumerate_protocol("choice-pair-vs-sets", tiny())
    assert exact_mi(j) == 0


def test_exchange_symmetry_of_choice_joint():
    # flipping z and swapping the announced pair leaves the joint invariant
    j = enumerate_protocol("choice-vs-sets", tiny())
    mass = j.weights
    for (z, view), w in mass.items():
        if view == ("abort",):
            partner = (1 - z, view)
        else:
            s0, s1 = view
            partner = (1 - z, (s1, s0))
        assert mass[partner] == w


def test_golden_leak_values_frozen():
    for name, expected in GOLDEN_MI.items():
        j = enumerate_protocol(name, tiny())
        assert exact_mi(j) == pytest.approx(expected, abs=1e-12), name


def test_pooling_never_loses_information():
    own = exact_mi(enumerate_protocol("unchosen-vs-own", tiny()))
    pooled = exact_mi(enumerate_protocol("unchosen-vs-pooled", tiny()))
    assert pooled >= own - 1e-15


def test_phase1_cross_knowledge_is_exactly_zero():
    j = enumerate_protocol("phase1-cross-knowledge", tiny())
    mi = exact_mi_given_success(j)
    assert mi == 0 and not isinstance(mi, float)


def test_conditioning_needs_completed_branches():
    # p1 = 0 erases nothing, so the erased side can never host a set: all abort
    j = enumerate_protocol("phase1-cross-knowledge", tiny(p1=Fraction(0), p2=HALF))
    assert j.abort_mass == 1
    with pytest.raises(ValueError):
        exact_mi_given_success(j)


def test_exact_mi_on_handmade_joints():
    # uniform bit times a (1/4, 3/4) symbol, as numerators over 8
    product = {(0, "u"): 1, (0, "v"): 3, (1, "u"): 1, (1, "v"): 3}
    j = ExactJoint(product, 8, 4, "handmade product", None, None)
    assert exact_mi(j) == 0
    corr = {(0, 0): 1, (1, 1): 1}
    j2 = ExactJoint(corr, 2, 2, "handmade correlated bit", None, None)
    assert exact_mi(j2) == pytest.approx(1.0)


@pytest.mark.parametrize("spec", SPECS)
def test_montecarlo_matches_exact_within_band(spec):
    exact = enumerate_protocol(spec, tiny())
    res = oracle_vs_montecarlo(exact, trials=4000, master_seed=11)
    assert res["within_band"], res
    assert res["max_deviation"] <= res["band"]
    assert res["band"] == pytest.approx(math.sqrt(math.log(2 / 0.01) / (2 * 4000)))


def test_montecarlo_deterministic_subcase_has_zero_view_deviation():
    # p1 = 0 forces the abort view on every trial; only the secret coin varies
    exact = enumerate_protocol("choice-vs-sets", tiny(p1=Fraction(0), p2=HALF))
    res = oracle_vs_montecarlo(exact, trials=300, master_seed=2)
    assert res["view_deviation"] == 0.0
    assert res["within_band"]


def test_montecarlo_rejects_zero_trials():
    exact = enumerate_protocol("choice-vs-sets", tiny())
    with pytest.raises(ValueError):
        oracle_vs_montecarlo(exact, trials=0)


def _sample_through(monkeypatch, binding, spec, trials):
    """The Monte Carlo check of spec at tiny(), counting calls of protocol_core's binding."""
    calls = []
    step = getattr(protocol_core, binding)

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(protocol_core, binding, counted)
    res = oracle_vs_montecarlo(enumerate_protocol(spec, tiny()), trials=trials, master_seed=11)
    return calls, res


# every spec whose view holds a published link: its secret is an unchosen message
@pytest.mark.parametrize(
    "spec", [item for item in SPECS.items() if item[1].secret.endswith("unchosen")])
def test_montecarlo_samples_through_the_executors_send_step(spec, monkeypatch):
    calls, res = _sample_through(monkeypatch, "send_link", spec[0], 3000)
    assert calls
    assert res["within_band"], res


# every spec's view reads an announced pair; the two-phase specs' views also read S'
@pytest.mark.parametrize("binding, spec", [
    *(("announce_sets", name) for name in SPECS),
    *(("draw_sprime", name) for name, row in SPECS.items() if row.variant == "colluding"),
])
def test_montecarlo_samples_through_the_executors_announce_and_rekey_steps(
        binding, spec, monkeypatch):
    calls, res = _sample_through(monkeypatch, binding, spec, 1000)
    assert calls
    assert res["within_band"], res


def test_montecarlo_flags_samples_outside_the_enumerated_support(monkeypatch):
    # a rekey step that draws S' from every phase-1 erasure, the unchosen set included
    def from_every_erasure(e, unchosen, size, rng):
        return protocol_core.sample_subset(e, size, rng)

    monkeypatch.setattr(protocol_core, "draw_sprime", from_every_erasure)
    exact = enumerate_protocol("phase1-cross-knowledge", tiny())
    res = oracle_vs_montecarlo(exact, trials=2000, master_seed=11)
    # the deviation alone stays inside the band; the cells with no mass give it away
    assert res["max_deviation"] <= res["band"]
    assert res["outside_support"] > 0
    assert not res["within_band"]


# tiny plans the Monte Carlo leg samples: the benchmark's oracle instance, and two
# with unequal erasure probabilities and 2-bit keys
SAMPLED_PLANS = {
    "n6-sets2": tiny(n=6, set_size=2),
    "n4-keys2": tiny(p1=Fraction(1, 3), p2=Fraction(3, 4), key_bits=2),
    "n5-keys2-sprime2": tiny(n=5, p1=Fraction(3, 4), p2=Fraction(1, 4), key_bits=2,
                             sprime_size=2),
}


@pytest.mark.parametrize("plan", SAMPLED_PLANS)
@pytest.mark.parametrize("name", SPECS)
def test_a_view_reads_only_what_its_last_step_formed(name, plan):
    # so one pass through a deeper step serves every spec of the variant
    spec, plan = SPECS[name], SAMPLED_PLANS[plan]
    steps = (noncolluding_steps if spec.variant == "noncolluding" else colluding_steps)(plan)
    own = steps[:1 + [step[:2] for step in steps].index(spec.last)]
    for t in range(200):
        cells = []
        for prefix in (steps, own):
            rng = trial_rng(23, t)
            messages, z = protocol_core.draw_inputs(plan, rng)
            cells.append(spec.features(protocol_core.interpret(plan, prefix, messages, z, rng)))
        assert cells[0] == cells[1], (t, cells)


def test_one_pass_per_variant_gives_each_spec_its_own_cells():
    # the golden oracle instance, every spec: the shared pass's comparison is
    # the one a pass through the spec's own last step gives
    plan = SAMPLED_PLANS["n4-keys2"]
    for variant in ("noncolluding", "colluding"):
        group = [name for name, spec in SPECS.items() if spec.variant == variant]
        tallies = exact_oracle.sample_cells(group, plan, 300, 101)
        assert list(tallies) == group
        for name in group:
            joint = enumerate_protocol(name, plan)
            shared = exact_oracle.compare_cells(joint, tallies[name])
            assert shared == oracle_vs_montecarlo(joint, trials=300, master_seed=101), name


def test_the_oracle_interprets_each_trial_once_per_variant(monkeypatch, tmp_path, capsys):
    # three specs of one variant and one of the other, 50 trials each: one
    # pass per variant, where a pass per spec would interpret 200 trials
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 1)
    calls = []
    interpret = exact_oracle.interpret

    def counted(*args):
        calls.append(args[1][-1])
        return interpret(*args)

    monkeypatch.setattr(exact_oracle, "interpret", counted)
    specs = ("choice-vs-sets", "choice-pair-vs-sets", "unchosen-vs-pooled",
             "phase1-cross-knowledge")
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", "--n", "6", "--set-size", "2", "--key-bits", "1",
                     *(arg for spec in specs for arg in ("--spec", spec)),
                     "--compare-mc", "50", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(calls) == 100
    # each pass runs through the deepest step its specs read
    assert calls == [("send", 1, "x")] * 50 + [("rekey", 1)] * 50
    rows = json.loads(out.read_text())["results"]
    assert [row["spec"] for row in rows] == list(specs)
    assert all(row["mc"]["trials"] == 50 for row in rows)
