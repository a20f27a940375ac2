"""Two-phase protocol: set geometry, phase separation, visibility models."""

from fractions import Fraction

import numpy as np
import pytest

from otbec.adversary_audit import assemble_pooled_view, generate_runs
from otbec.channel import ERASED, compose_index_sets, erasure_partition, trial_rng
from otbec.hashing import apply
from otbec.protocol_colluding import (
    DEFAULT_VISIBILITY,
    VisibilityModel,
    collusion_mask_accounting,
    run_protocol2,
)
from otbec.protocol_core import OtCode, ParamError, encrypt, snap_params


def test_visibility_model_validation():
    VisibilityModel("broadcast-both", "point-to-point")
    with pytest.raises(ValueError):
        VisibilityModel("open", "point-to-point")
    assert DEFAULT_VISIBILITY.phase1 == "point-to-point"


def test_run_rejects_noncolluding_params(p1_params):
    messages = tuple(
        tuple(np.zeros(p1_params.key_len(i), dtype=np.uint8) for _ in range(2)) for i in (1, 2)
    )
    with pytest.raises(ParamError):
        run_protocol2(p1_params, messages, (0, 0), trial_rng(0, 0))


def test_correctness_under_every_visibility(p2_params):
    for phase1 in ("point-to-point", "broadcast-both"):
        for phase2 in ("point-to-point", "broadcast-both"):
            vis = VisibilityModel(phase1, phase2)
            runs = generate_runs(p2_params, 150, master_seed=900, visibility=vis)
            completed = [0, 0]
            for run in runs:
                for i, outcome in zip((1, 2), run.outcomes):
                    if outcome.status != "completed":
                        continue
                    completed[i - 1] += 1
                    chosen = run.record["messages"][i - 1][run.record["z"][i - 1]]
                    assert np.array_equal(outcome.decoded, chosen)
            assert completed[0] > 50 and completed[1] > 50


def test_set_geometry_invariants(p2_runs):
    for run in p2_runs[:600]:
        rec = run.record
        if 1 not in rec["sets"]:
            continue
        z1 = rec["z"][0]
        chosen, unchosen = rec["sets"][1][z1], rec["sets"][1][1 - z1]
        e, ebar = erasure_partition(rec["y_phase1"][1])
        assert set(chosen) <= set(ebar.tolist())
        assert set(unchosen) <= set(e.tolist())
        if rec["sprime"] is None:
            continue
        sprime = set(rec["sprime"].tolist())
        assert sprime <= set(e.tolist())
        assert sprime.isdisjoint(set(unchosen.tolist()))
        if 2 in rec["sets"]:
            for local in rec["sets"][2]:
                composed = compose_index_sets(rec["sprime"], local)
                assert set(composed.tolist()) <= sprime


def test_phase2_depends_only_on_retransmitted_bits(p2_runs):
    # recompute the phase-2 ciphertexts and commitments from x restricted to S'
    # alone; equality shows no other input position enters phase 2
    checked = 0
    for run in p2_runs[:600]:
        rec = run.record
        if 2 not in rec.get("hashes", {}) or rec["sprime"] is None:
            continue
        x_sprime = rec["x"][rec["sprime"]].astype(np.uint8)
        for j in (0, 1):
            key = x_sprime[rec["sets"][2][j]]
            kappa = rec["hashes"][2]["kappa"][j]
            h = rec["hashes"][2]["h"][j]
            assert np.array_equal(
                rec["ciphertexts"][2][j], encrypt(rec["messages"][1][j], kappa, key)
            )
            assert np.array_equal(rec["commitments"][2][j], apply(h, key))
        checked += 1
    assert checked > 100


def test_no_second_phase_when_no_leftover_erasures():
    params, _ = snap_params(
        64, 0.5, 0.5, Fraction(1, 16), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64),
        variant="colluding",
    )
    assert params.sprime_size() == 0
    runs = generate_runs(params, 50, master_seed=31)
    for run in runs:
        if run.outcomes[0].status == "aborted":
            continue
        assert run.outcomes[1].status == "no-second-phase"
        assert run.outcomes[1].code is OtCode.NO_SECOND_PHASE


def test_phase1_abort_ends_both_links():
    # p = 0.9 leaves few non-erased positions, so phase-1 aborts are frequent
    params, _ = snap_params(
        40, 0.9, 0.9, Fraction(1, 20), Fraction(1, 20), Fraction(1, 40), Fraction(1, 40),
        variant="colluding",
    )
    runs = generate_runs(params, 300, master_seed=5)
    saw_abort = False
    for run in runs:
        if run.outcomes[0].status == "aborted":
            saw_abort = True
            assert run.outcomes[1].status == "aborted"
            assert "upstream" in run.outcomes[1].diagnostics["reason"]
            assert run.outcomes[0].code is OtCode.SET_SHORTFALL
            assert run.outcomes[1].code is OtCode.UPSTREAM_ABORT
    assert saw_abort


def test_choice_bits_are_checked_when_phase_two_never_runs():
    # a phase-1 abort means no subsets are drawn for the second receiver,
    # so its choice bit is checked at entry
    params, _ = snap_params(
        40, 0.9, 0.9, Fraction(1, 20), Fraction(1, 20), Fraction(1, 40), Fraction(1, 40),
        variant="colluding",
    )
    messages = tuple(
        tuple(np.zeros(params.key_len(i), dtype=np.uint8) for _ in range(2)) for i in (1, 2)
    )
    trial = next(
        t for t in range(100)
        if run_protocol2(params, messages, (0, 0), trial_rng(5, t)).outcomes[0].code
        is OtCode.SET_SHORTFALL
    )
    for z in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="choice bit must be 0 or 1"):
            run_protocol2(params, messages, z, trial_rng(5, trial))


def test_leftover_shortfall_loses_only_the_second_link():
    # audit defaults for p2: the erasures can host the phase-1 sets yet leave
    # fewer than |S'| positions outside the unchosen set
    params, _ = snap_params(
        64, 0.75, 0.75, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16),
        variant="colluding",
    )
    runs = generate_runs(params, 300, master_seed=101)
    short = [run for run in runs if run.outcomes[1].code is OtCode.LEFTOVER_SHORTFALL]
    assert short
    for run in short:
        assert run.outcomes[0].status == "completed"
        assert run.outcomes[1].status == "aborted"
        assert run.record["sprime"] is None
        assert run.outcomes[1].diagnostics["reason"].startswith("leftover erasure set too small")


def test_broadcast_visibility_populates_other_receiver(p2_params):
    vis = VisibilityModel("broadcast-both", "broadcast-both")
    runs = generate_runs(p2_params, 30, master_seed=41, visibility=vis)
    run = next(r for r in runs if r.record["sprime"] is not None)
    assert assemble_pooled_view(run, ("bob2",)).fields["observations2"]["y_phase1"] is not None
    assert assemble_pooled_view(run, ("bob1",)).fields["observations1"]["y_phase2"] is not None
    default_runs = generate_runs(p2_params, 30, master_seed=41)
    drun = next(r for r in default_runs if r.record["sprime"] is not None)
    assert assemble_pooled_view(drun, ("bob2",)).fields["observations2"]["y_phase1"] is None


def test_mask_accounting_counts_cross_visibility(p2_params, p2_runs):
    run = next(r for r in p2_runs if 2 in r.record["sets"])
    acct = collusion_mask_accounting(run)
    assert acct["sprime_inside_phase1_erasures"] is True
    # point-to-point: the other receiver never observes a link's mask positions
    assert acct["per_link"][1] == {0: 0, 1: 0}
    assert acct["per_link"][2] == {0: 0, 1: 0}
    vis = VisibilityModel("broadcast-both", "broadcast-both")
    bruns = generate_runs(p2_params, 60, master_seed=41, visibility=vis)
    counts = [
        collusion_mask_accounting(r).get("per_link", {}).get(1, {0: 0, 1: 0})
        for r in bruns if 1 in r.record["sets"]
    ]
    assert any(c[0] + c[1] > 0 for c in counts)


def test_replay_identical(p2_params):
    a = generate_runs(p2_params, 5, master_seed=321)
    b = generate_runs(p2_params, 5, master_seed=321)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.record["x"], rb.record["x"])
        assert [o.status for o in ra.outcomes] == [o.status for o in rb.outcomes]
        if ra.record["sprime"] is not None and rb.record["sprime"] is not None:
            assert np.array_equal(ra.record["sprime"], rb.record["sprime"])
