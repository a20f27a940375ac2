"""Single-phase protocol: correctness, abort statistics, replay determinism."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from otbec.adversary_audit import generate_runs
from otbec.channel import erasure_count, trial_rng
from otbec.protocol_core import ParamError, snap_params
from otbec.protocol_noncolluding import exact_abort_probability, run_protocol1


def test_correctness_on_every_completed_trial(p1_runs):
    completed = 0
    for run in p1_runs:
        for i, outcome in zip((1, 2), run.outcomes):
            if outcome.status != "completed":
                continue
            completed += 1
            assert outcome.diagnostics["correct"]
            chosen = run.record["messages"][i - 1][run.record["z"][i - 1]]
            assert np.array_equal(outcome.decoded, chosen)
    assert completed > 5000


def test_abort_iff_partition_cannot_host_sets(p1_runs):
    mask = p1_runs[0].params.plan().mask[0]
    for run in p1_runs[:500]:
        for i in (1, 2):
            e_count, ebar_count = erasure_count(run.record["y_phase1"][i])
            should_abort = min(e_count, ebar_count) < mask
            assert (run.outcomes[i - 1].status == "aborted") == should_abort
            if should_abort:
                assert run.outcomes[i - 1].diagnostics["reason"].startswith("cannot host")


def _zero_messages(params):
    return tuple(
        tuple(np.zeros(params.plan().key[i - 1], dtype=np.uint8) for _ in range(2)) for i in (1, 2)
    )


@pytest.mark.parametrize("z", [(0.7, 1), (0, 1.5), (0, 2)])
def test_choice_bits_are_refused_not_truncated(p1_params, z):
    with pytest.raises(ValueError, match="choice bit must be 0 or 1"):
        run_protocol1(p1_params, _zero_messages(p1_params), z, trial_rng(0, 0))


@pytest.mark.parametrize("case", ["one choice bit", "one message pair", "short message"])
def test_malformed_run_inputs_raise_value_error(p1_params, case):
    messages, z = _zero_messages(p1_params), (0, 1)
    if case == "one choice bit":
        z = (0,)
    elif case == "one message pair":
        messages = messages[:1]
    else:
        messages = ((messages[0][0][:-1], messages[0][1]), messages[1])
    with pytest.raises(ValueError):
        run_protocol1(p1_params, messages, z, trial_rng(0, 0))


def test_run_rejects_wrong_variant():
    params, _ = snap_params(
        48, 0.75, 0.75, Fraction(3, 32), Fraction(3, 32), Fraction(1, 16), Fraction(1, 32),
        variant="colluding",
    )
    messages = tuple(
        tuple(np.zeros(params.plan().key[i - 1], dtype=np.uint8) for _ in range(2)) for i in (1, 2)
    )
    with pytest.raises(ParamError):
        run_protocol1(params, messages, (0, 0), trial_rng(0, 0))


def test_exact_abort_probability_matches_binomial_two_tail():
    for n, p, r in ((100, 0.5, 0.3), (60, 0.7, Fraction(1, 5)), (40, 0.4, Fraction(1, 10))):
        mask = round(float(r) * n)
        # abort iff the non-erased count leaves either side short of the mask size
        lo = binom.cdf(mask - 1, n, 1 - float(p))
        hi = binom.sf(n - mask, n, 1 - float(p))
        assert exact_abort_probability(n, p, r) == pytest.approx(lo + hi, rel=1e-12)


def test_exact_abort_probability_degenerate():
    assert exact_abort_probability(10, 0.0, Fraction(1, 5)) == pytest.approx(1.0)
    assert exact_abort_probability(10, 1.0, Fraction(1, 5)) == pytest.approx(1.0)


def test_exact_abort_decreases_with_block_length():
    values = [exact_abort_probability(n, 0.5, 0.3) for n in (100, 200, 400, 800)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_generate_runs_replay_identical(p1_params):
    a = generate_runs(p1_params, 5, master_seed=123)
    b = generate_runs(p1_params, 5, master_seed=123)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.record["x"], rb.record["x"])
        assert ra.record["z"] == rb.record["z"]
        assert [o.status for o in ra.outcomes] == [o.status for o in rb.outcomes]
        for i in (1, 2):
            if i in ra.record["sets"]:
                assert all(
                    np.array_equal(sa, sb)
                    for sa, sb in zip(ra.record["sets"][i], rb.record["sets"][i])
                )


def test_generate_runs_rejects_nonpositive_trials(p1_params):
    with pytest.raises(ValueError):
        generate_runs(p1_params, 0, master_seed=1)
