"""Adversary audits: concrete attacks, condition suite, reproducibility."""

import dataclasses

import numpy as np
import pytest

from otbec.adversary_audit import (
    FEATURE_MAP_VERSION,
    assemble_pooled_view,
    condition_suite,
    generate_runs,
    guess_choice_bit,
    guess_unchosen_message,
)

P1_ROWS = {
    "chosen-message correctness",
    "abort rate",
    "own unchosen message vs receiver 1",
    "own unchosen message vs receiver 2",
    "choice bits vs sender",
}
P2_ROWS = {
    "chosen-message correctness",
    "abort rate",
    "unchosen message pair vs pooled receivers",
    "choice bit 1 vs sender pooling receiver 2",
    "choice bit 2 vs sender pooling receiver 1",
    "choice bits vs sender",
    "link 1 secrets vs receiver 2 alone",
    "link 2 secrets vs receiver 1 alone",
}


def test_pooled_attack_extracts_protocol1_unchosen_message(p1_runs):
    report = guess_unchosen_message(p1_runs, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(1))
    assert report.verdict == "advantage detected"
    assert report.ci[0] > 0
    assert report.advantage > 0.05


def test_single_receiver_gains_nothing_on_protocol1(p1_runs):
    # the security claim is one-sided: no positive advantage; a small negative
    # excursion of the estimate is sampling noise around the blind baseline
    report = guess_unchosen_message(p1_runs, attacker="single-receiver", link=1,
                                    rng=np.random.default_rng(2))
    assert report.ci[0] <= 0
    assert abs(report.advantage) < 0.02


def test_wiretapper_gains_nothing(p1_runs):
    report = guess_unchosen_message(p1_runs, attacker="wiretapper", link=1,
                                    rng=np.random.default_rng(3))
    assert report.ci[0] <= 0 <= report.ci[1]


def test_pooled_knowledge_rate_tracks_other_channel(p1_runs):
    params = p1_runs[0].params
    report = guess_unchosen_message(p1_runs, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(4))
    expected = 1 - float(params.p2)
    mask = params.mask_size(1)
    sigma = (expected * (1 - expected) / (mask * report.trials)) ** 0.5
    assert abs(report.extras["knowledge_rate"] - expected) <= 3 * sigma


def test_pooled_attack_fails_on_protocol2(p2_runs):
    report = guess_unchosen_message(p2_runs, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(5))
    assert report.ci[0] <= 0 <= report.ci[1]


def test_blind_baseline_counts_both_hit_routes(p1_runs):
    report = guess_unchosen_message(p1_runs, attacker="wiretapper", link=1,
                                    rng=np.random.default_rng(6))
    params = p1_runs[0].params
    mask, k = params.mask_size(1), params.key_len(1)
    expected = 2.0 ** -mask + (1 - 2.0 ** -mask) * 2.0 ** -k
    assert report.extras["baseline"] == pytest.approx(expected)


def test_choice_bit_attacks_are_blind(p1_runs, p2_runs):
    for runs, attacker in ((p1_runs, "alice"), (p2_runs, "alice-plus-other-receiver")):
        report = guess_choice_bit(runs, attacker=attacker, link=1,
                                  rng=np.random.default_rng(7))
        assert report.ci[0] <= 0 <= report.ci[1]


def _relabel_link1(run):
    """Relabel link 1: flip z and swap every label-indexed pair."""
    rec = dict(run.record)
    rec["z"] = (1 - rec["z"][0], rec["z"][1])
    rec["messages"] = ((rec["messages"][0][1], rec["messages"][0][0]), rec["messages"][1])
    for field in ("sets", "hashes", "commitments", "ciphertexts"):
        store = dict(rec[field])
        if 1 in store:
            v = store[1]
            if field == "hashes":
                store[1] = {name: (pair[1], pair[0]) for name, pair in v.items()}
            else:
                store[1] = (v[1], v[0])
        rec[field] = store
    return dataclasses.replace(run, record=rec)


def test_choice_attack_is_label_equivariant(p1_runs):
    # on score-untied runs the guess must flip exactly with the labels, so the
    # success indicator (and hence the advantage) is label-invariant
    untied = []
    for run in p1_runs[:800]:
        if 1 not in run.record["sets"]:
            continue
        s0, s1 = run.record["sets"][1]
        x = run.record["x"]
        if int(x[s0].sum()) != int(x[s1].sum()):
            untied.append(run)
    assert len(untied) > 300
    relabeled = [_relabel_link1(r) for r in untied]
    a = guess_choice_bit(untied, attacker="alice", link=1, rng=np.random.default_rng(8))
    b = guess_choice_bit(relabeled, attacker="alice", link=1, rng=np.random.default_rng(8))
    assert a.advantage == b.advantage
    assert a.ci == b.ci


def test_attack_reports_reproducible_from_seeds(p1_params):
    def once():
        runs = generate_runs(p1_params, 400, master_seed=55)
        return guess_unchosen_message(runs, attacker="pooled-receivers", link=1,
                                      rng=np.random.default_rng(9))
    a, b = once(), once()
    assert a == b


def test_attack_input_validation(p1_runs):
    with pytest.raises(ValueError):
        guess_unchosen_message(p1_runs, attacker="martian", rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        guess_unchosen_message(p1_runs, link=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        guess_choice_bit(p1_runs, attacker="alice", link=1)  # tie-breaking needs an rng


def test_attacks_reject_mixed_parameters(p1_runs, p2_runs):
    mixed = list(p1_runs[:20]) + list(p2_runs[:20])
    with pytest.raises(ValueError, match="share parameters"):
        guess_unchosen_message(mixed, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="share parameters"):
        guess_choice_bit(mixed, rng=np.random.default_rng(0))


def test_pooled_view_fields_and_provenance(p1_runs):
    run = p1_runs[0]
    view = assemble_pooled_view(run, ("alice", "bob2"))
    assert view.provenance["x"] == "alice"
    assert view.provenance["observations2"] == "bob2"
    assert "observations1" not in view.fields
    wiretap = assemble_pooled_view(run, ())
    assert set(wiretap.fields) == {"public"}
    with pytest.raises(ValueError):
        assemble_pooled_view(run, ("eve",))


def test_condition_suite_rows_protocol1(p1_runs):
    rows = condition_suite(p1_runs)
    assert {r.condition for r in rows} == P1_ROWS
    by_name = {r.condition: r for r in rows}
    assert by_name["chosen-message correctness"].verdict == "holds"
    assert by_name["abort rate"].verdict == "informational"
    for name in ("own unchosen message vs receiver 1", "choice bits vs sender"):
        assert by_name[name].verdict == "no detected leakage"
        assert by_name[name].estimate <= by_name[name].threshold


def test_condition_suite_rows_protocol2(p2_runs):
    rows = condition_suite(p2_runs)
    assert {r.condition for r in rows} == P2_ROWS
    by_name = {r.condition: r for r in rows}
    assert by_name["chosen-message correctness"].verdict == "holds"
    assert by_name["unchosen message pair vs pooled receivers"].verdict == "no detected leakage"


def test_condition_suite_estimates_nonnegative(p1_runs, p2_runs):
    for rows in (condition_suite(p1_runs[:800]), condition_suite(p2_runs[:800])):
        for row in rows:
            assert row.estimate >= 0.0
            assert row.threshold >= 0.0
            assert row.trials > 0


def test_condition_suite_input_validation(p1_runs, p2_runs):
    with pytest.raises(ValueError):
        condition_suite([])
    with pytest.raises(ValueError):
        condition_suite(p1_runs, variant="colluding")
    with pytest.raises(ValueError):
        condition_suite([p1_runs[0], p2_runs[0]])


def test_feature_map_version_is_pinned():
    assert FEATURE_MAP_VERSION == "v1"
