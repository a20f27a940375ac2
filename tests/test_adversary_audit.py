"""Adversary audits: concrete attacks, condition suite, reproducibility."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from otbec.adversary_audit import (
    FEATURE_MAP_VERSION,
    RunBlock,
    condition_suite,
    generate_runs,
    guess_choice_bit,
    guess_unchosen_message,
    public_messages,
)
from otbec.channel import ERASED
from otbec.protocol_colluding import VisibilityModel
from otbec.protocol_core import knowledge, snap_params

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


def test_pooled_attack_extracts_protocol1_unchosen_message(p1_blocks):
    report = guess_unchosen_message(p1_blocks, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(1))
    assert report.verdict == "advantage detected"
    assert report.ci[0] > 0
    assert report.advantage > 0.05


def test_single_receiver_gains_nothing_on_protocol1(p1_blocks):
    # the security claim is one-sided: no positive advantage; a small negative
    # excursion of the estimate is sampling noise around the blind baseline
    report = guess_unchosen_message(p1_blocks, attacker="single-receiver", link=1,
                                    rng=np.random.default_rng(2))
    assert report.ci[0] <= 0
    assert abs(report.advantage) < 0.02


def test_wiretapper_gains_nothing(p1_blocks):
    report = guess_unchosen_message(p1_blocks, attacker="wiretapper", link=1,
                                    rng=np.random.default_rng(3))
    assert report.ci[0] <= 0 <= report.ci[1]


def test_pooled_knowledge_rate_tracks_other_channel(p1_blocks):
    params = p1_blocks[0].params
    report = guess_unchosen_message(p1_blocks, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(4))
    expected = 1 - float(params.p2)
    mask = params.plan().mask[0]
    sigma = (expected * (1 - expected) / (mask * report.trials)) ** 0.5
    assert abs(report.extras["knowledge_rate"] - expected) <= 3 * sigma


def test_pooled_attack_fails_on_protocol2(p2_blocks):
    report = guess_unchosen_message(p2_blocks, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(5))
    assert report.ci[0] <= 0 <= report.ci[1]


def test_blind_baseline_counts_both_hit_routes(p1_blocks):
    report = guess_unchosen_message(p1_blocks, attacker="wiretapper", link=1,
                                    rng=np.random.default_rng(6))
    params = p1_blocks[0].params
    mask, k = params.plan().mask[0], params.plan().key[0]
    expected = 2.0 ** -mask + (1 - 2.0 ** -mask) * 2.0 ** -k
    assert report.extras["baseline"] == pytest.approx(expected)


def test_choice_bit_attacks_are_blind(p1_blocks, p2_blocks):
    for blocks, attacker in ((p1_blocks, "alice"), (p2_blocks, "alice-plus-other-receiver")):
        report = guess_choice_bit(blocks, attacker=attacker, link=1,
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
    a = guess_choice_bit([RunBlock(untied)], attacker="alice", link=1,
                         rng=np.random.default_rng(8))
    b = guess_choice_bit([RunBlock(relabeled)], attacker="alice", link=1,
                         rng=np.random.default_rng(8))
    assert a.advantage == b.advantage
    assert a.ci == b.ci


def test_attack_reports_reproducible_from_seeds(p1_params):
    def once():
        blocks = [RunBlock(generate_runs(p1_params, 400, master_seed=55))]
        return guess_unchosen_message(blocks, attacker="pooled-receivers", link=1,
                                      rng=np.random.default_rng(9))
    a, b = once(), once()
    assert a == b


@pytest.mark.parametrize("variant", ["p1", "p2"])
def test_analysis_results_do_not_depend_on_the_block_size(variant, request):
    # the analyses read the blocks in order; each attack draws its rng per run
    # in run order and every sum runs in run order, so any block size gives
    # the same reports, down to the last float bit
    runs = request.getfixturevalue(f"{variant}_runs")[:700]

    def analyse(size):
        blocks = [RunBlock(runs[start:start + size]) for start in range(0, len(runs), size)]
        rng = np.random.default_rng(4)
        reports = [guess_unchosen_message(blocks, attacker=attacker, link=link, rng=rng)
                   for attacker in ("single-receiver", "pooled-receivers", "wiretapper")
                   for link in (1, 2)]
        reports += [guess_choice_bit(blocks, attacker=attacker, link=link, rng=rng)
                    for attacker in ("alice", "alice-plus-other-receiver", "wiretapper")
                    for link in (1, 2)]
        return reports, condition_suite(blocks), rng.integers(0, 2**32)

    assert analyse(7) == analyse(len(runs))


def test_a_block_that_published_nothing_adds_only_to_the_skipped_count():
    # at n=16 and p=1/4, 56 of 300 runs abort link 1, so their block publishes nothing there
    params, _ = snap_params(16, 0.25, 0.25, Fraction(3, 16), Fraction(3, 16), 0.05,
                            Fraction(1, 16), variant="noncolluding")
    runs = list(generate_runs(params, 300, master_seed=101))
    aborted = [run for run in runs if run.outcomes[0].status == "aborted"]
    rest = [run for run in runs if run.outcomes[0].status != "aborted"]
    assert len(aborted) == 56
    for attack in (guess_unchosen_message, guess_choice_bit):
        split = attack([RunBlock(aborted), RunBlock(rest)], link=1, rng=np.random.default_rng(3))
        alone = attack([RunBlock(rest)], link=1, rng=np.random.default_rng(3))
        assert alone.extras["skipped_aborts"] == 0
        assert split == dataclasses.replace(alone, extras={**alone.extras, "skipped_aborts": 56})


def test_attack_input_validation(p1_blocks):
    with pytest.raises(ValueError):
        guess_unchosen_message(p1_blocks, attacker="martian", rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        guess_unchosen_message(p1_blocks, link=3, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        guess_choice_bit(p1_blocks, attacker="alice", link=1)  # tie-breaking needs an rng


def test_attacks_reject_mixed_parameters(p1_runs, p2_runs):
    # within one block, and across the blocks an analysis reads
    with pytest.raises(ValueError, match="share parameters"):
        RunBlock(list(p1_runs[:20]) + list(p2_runs[:20]))
    mixed = [RunBlock(p1_runs[:20]), RunBlock(p2_runs[:20])]
    with pytest.raises(ValueError, match="share parameters"):
        guess_unchosen_message(mixed, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="share parameters"):
        guess_choice_bit(mixed, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="share parameters"):
        condition_suite(mixed)


def test_public_messages_are_the_same_fields_for_both_variants(p1_runs, p2_runs):
    # what only a party holds: its inputs, its observations, the retransmitted bits,
    # each link's outcome
    private = {"x", "z", "messages", "y_phase1", "y_phase2", "x_sprime", "outcomes"}
    for run in (p1_runs[0], p2_runs[0]):
        public = public_messages(run)
        assert public.keys() == run.record.keys() - private
        assert all(public[key] is run.record[key] for key in public)
    assert public_messages(p1_runs[0]).keys() == public_messages(p2_runs[0]).keys()


def test_public_aborts_carry_codes_not_the_receivers_counts(aborting_runs):
    # an abort is public, its reason text (which quotes erasure counts) is not
    _, runs, codes = aborting_runs
    seen = set()
    for run in runs:
        aborted = public_messages(run)["aborted"]
        stopped = {link for link, out in zip((1, 2), run.outcomes)
                   if out.status in ("aborted", "no-second-phase")}
        assert aborted.keys() == stopped
        for link, code in aborted.items():
            assert code is run.outcomes[link - 1].code
        seen.update(code.value for code in aborted.values())
    assert seen == codes


def _observed_positions(run, i):
    """Per observation of receiver i, the input-block positions it did not erase."""
    rec = run.record
    y1, y2 = rec["y_phase1"][i], rec["y_phase2"][i]
    observed = [] if y1 is None else [np.flatnonzero(y1 != ERASED)]
    if y2 is not None:
        observed.append(rec["sprime"][y2 != ERASED])
    return observed


@pytest.mark.parametrize("case", ["p1", "p2 point-to-point", "p2 broadcast-both"])
def test_knowledge_map_is_what_the_receiver_observed(case, p1_runs, p2_params):
    if case == "p1":
        runs = p1_runs[:300]
    else:
        visibility = case.split()[1]
        runs = list(generate_runs(p2_params, 300, master_seed=43,
                                  visibility=VisibilityModel(visibility, visibility)))
    both_phases = 0
    maps = [knowledge(run.record) for run in runs]
    # the analyses read the maps from a block of the runs, one (2, n) pair per run
    assert np.array_equal(RunBlock(runs).known, np.stack(maps))
    for run, pair in zip(runs, maps):
        x = run.record["x"]
        assert pair.shape == (2, x.size) and pair.dtype == np.int8
        for i in (1, 2):
            known = pair[i - 1]
            assert known.shape == x.shape
            hit = known != ERASED
            assert np.array_equal(known[hit], x[hit])
            observed = _observed_positions(run, i)
            # a position seen in both phases is known once
            assert set(np.flatnonzero(hit).tolist()) == set().union(*(p.tolist() for p in observed))
            if run.params.variant == "noncolluding" or i == run.record["order"]:
                # S' lies inside the phase-1 receiver's erasures: its phases never overlap
                assert int(hit.sum()) == sum(p.size for p in observed)
            both_phases += len(observed) == 2
    assert both_phases > 0 if case == "p2 broadcast-both" else both_phases == 0


def test_condition_suite_rows_protocol1(p1_blocks):
    rows = condition_suite(p1_blocks)
    assert {r.condition for r in rows} == P1_ROWS
    by_name = {r.condition: r for r in rows}
    assert by_name["chosen-message correctness"].verdict == "holds"
    assert by_name["abort rate"].verdict == "informational"
    for name in ("own unchosen message vs receiver 1", "choice bits vs sender"):
        assert by_name[name].verdict == "no detected leakage"
        assert by_name[name].estimate <= by_name[name].threshold


def test_condition_suite_rows_protocol2(p2_blocks):
    rows = condition_suite(p2_blocks)
    assert {r.condition for r in rows} == P2_ROWS
    by_name = {r.condition: r for r in rows}
    assert by_name["chosen-message correctness"].verdict == "holds"
    assert by_name["unchosen message pair vs pooled receivers"].verdict == "no detected leakage"


def test_condition_suite_abort_rate_skips_links_never_run():
    # p <= 1/2 leaves no leftover set, so link 2 of every run is no-second-phase
    params, _ = snap_params(
        64, 0.5, 0.5, Fraction(1, 16), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64),
        variant="colluding",
    )
    runs = list(generate_runs(params, 40, master_seed=5))
    assert all(run.outcomes[1].status == "no-second-phase" for run in runs)
    first_aborts = sum(run.outcomes[0].status == "aborted" for run in runs)
    row = {r.condition: r for r in condition_suite([RunBlock(runs)])}["abort rate"]
    assert row.trials == len(runs)
    assert row.estimate == first_aborts / len(runs)


def test_condition_suite_estimates_nonnegative(p1_runs, p2_runs):
    for rows in (condition_suite([RunBlock(p1_runs[:800])]),
                 condition_suite([RunBlock(p2_runs[:800])])):
        for row in rows:
            assert row.estimate >= 0.0
            assert row.threshold >= 0.0
            assert row.trials > 0


def test_condition_suite_input_validation(p1_runs, p2_runs):
    # no blocks, a block of no runs, and a block of mixed runs
    with pytest.raises(ValueError):
        condition_suite([])
    with pytest.raises(ValueError):
        RunBlock([])
    with pytest.raises(ValueError):
        RunBlock([p1_runs[0], p2_runs[0]])


def test_feature_map_version_is_pinned():
    assert FEATURE_MAP_VERSION == "v1"
