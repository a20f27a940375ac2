"""Parameter validation, subset draws, encrypt/decode round trips."""

import dataclasses
import functools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from otbec import channel, hashing
from otbec.channel import ERASED, trial_rng
from otbec.hashing import apply, sample_linear_hash
from otbec.adversary_audit import generate_runs
from otbec.protocol_colluding import VisibilityModel, colluding_steps, run_protocol2
from otbec.protocol_noncolluding import noncolluding_steps, run_protocol1
from otbec.protocol_core import (
    AbortSignal,
    DecodeError,
    OtCode,
    ParamError,
    as_fraction,
    decode_chosen,
    draw_inputs,
    draw_sprime,
    encrypt,
    interpret,
    receive_link,
    sample_subset,
    select_subsets,
    send_link,
    snap_params,
    validate_params,
)


def test_snap_params_keeps_integrality_invariant():
    params, adjustments = snap_params(256, 0.5, 0.5, 0.15, 0.15, 0.05, 0.05)
    for i in (1, 2):
        k = params.plan().key[i - 1]
        assert isinstance(k, int) and k >= 1
        assert params.plan().mask[i - 1] == round(0.15 * 256)
    assert "r1" in adjustments  # 0.15 * 256 is not an integer, so it was snapped
    assert adjustments["r1"]["effective"] == pytest.approx(38 / 256)


def test_snap_params_exact_rationals_pass_through():
    params, adjustments = snap_params(
        64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16)
    )
    assert adjustments == {}
    assert params.plan().key[0] == 4
    assert params.plan().mask[0] == 8


def test_rate_constraint_rejection_names_constraint():
    with pytest.raises(ParamError) as err:
        snap_params(64, 0.5, 0.5, 0.6, Fraction(1, 8), 0.05, Fraction(1, 16))
    assert err.value.constraint == "rate constraint"
    assert "r1" in err.value.message


def test_colluding_rate_constraint_is_tighter():
    # r = 1/8 passes the plain bound at p = 0.5 but not p_other*min - lambda
    with pytest.raises(ParamError) as err:
        snap_params(
            64, 0.5, 0.5, Fraction(1, 4), Fraction(1, 8), 0.05, Fraction(1, 16),
            variant="colluding",
        )
    assert err.value.constraint == "rate constraint"


def test_validate_rejects_bad_lambda_prime():
    params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16))
    # snapping clamps an oversized request, so feed the validator directly
    bad = dataclasses.replace(params, lam_prime=Fraction(1, 4))
    with pytest.raises(ParamError) as err:
        validate_params(bad)
    assert err.value.constraint == "lambda-prime range"


def test_validate_rejects_bad_order():
    params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16))
    bad = dataclasses.replace(params, order=3)
    with pytest.raises(ParamError):
        validate_params(bad)


def test_failed_validation_is_never_cached():
    params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16))
    bad = dataclasses.replace(params, lam_prime=Fraction(1, 4))
    for _ in range(2):
        with pytest.raises(ParamError) as err:
            validate_params(bad)
        assert err.value.constraint == "lambda-prime range"
    nonintegral = dataclasses.replace(params, r1=Fraction(1, 7))
    for _ in range(2):
        with pytest.raises(ParamError):
            nonintegral.plan().mask[0]
        with pytest.raises(ParamError):
            validate_params(nonintegral)


def test_validated_params_keep_fields_equality_and_hash():
    params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16))
    fresh = dataclasses.replace(params)
    assert validate_params(params) is params
    assert validate_params(params) is params
    assert (params.plan().mask[0], params.plan().key[1], params.plan().verify[0]) == (8, 4, 4)
    assert dataclasses.asdict(params) == dataclasses.asdict(fresh)
    assert params == fresh and hash(params) == hash(fresh)
    assert repr(params) == repr(fresh)


def test_phase_sizes_for_colluding_variant():
    params, _ = snap_params(
        48, 0.75, 0.75, Fraction(3, 32), Fraction(3, 32), Fraction(1, 16), Fraction(1, 32),
        variant="colluding",
    )
    assert params.plan().phase1[0] == 6
    assert params.plan().sprime == 27
    low, _ = snap_params(
        64, 0.5, 0.5, Fraction(1, 16), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64),
        variant="colluding",
    )
    assert low.plan().sprime == 0  # no leftover erasures to retransmit at p <= 1/2


def test_as_fraction_reads_a_float_as_its_decimal():
    assert as_fraction(0.3) == Fraction(3, 10)
    assert as_fraction(0.3) != Fraction(0.3)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert as_fraction(2) == 2
    assert as_fraction("3/10") == Fraction(3, 10)


def test_phase1_size_is_the_exact_ceiling():
    # r / (p - lambda') * n = (1/6) / (3/4 - 1/12) * 120 = 30 exactly
    params, _ = snap_params(120, 0.75, 0.75, 1 / 6, 1 / 6, 0.01, 1 / 12, variant="colluding")
    assert (params.r1, params.lam_prime) == (Fraction(1, 6), Fraction(1, 12))
    assert params.plan().phase1[0] == 30


def test_rate_exactly_on_the_bound_is_rejected():
    # min(0.7, 1 - 0.7) - 0.05 is exactly 1/4, and the rate bound is strict
    with pytest.raises(ParamError) as err:
        snap_params(8, 0.7, 0.7, 1 / 4, 1 / 4, 0.05, 1 / 8)
    assert err.value.constraint == "rate constraint"
    assert "= 0.25, got 0.25" in err.value.message


def _decimal(lo: int, hi: int, digits: int = 2):
    """Decimal strings k / 10^digits for k in [lo, hi]."""
    return st.integers(lo, hi).map(lambda k: f"{k / 10 ** digits:.{digits}f}")


@st.composite
def _accepted_decimals(draw) -> dict:
    """Typed decimal parameters drawn inside the validator's bounds.

    Each r_i is a two-digit decimal below its rate bound, with r_i * n at
    least 1.5 so that the snapped set size leaves room for lambda' * n
    below it. Only what snapping then pushes over a bound is discarded, and
    the draws of p and lambda that leave no such decimal at all.
    """
    p = {i: draw(_decimal(5, 95)) for i in (1, 2)}
    lam = draw(_decimal(1, 8))
    variant = draw(st.sampled_from(["noncolluding", "colluding"]))
    top = {}
    for i in (1, 2):
        cap = min(Fraction(p[i]), 1 - Fraction(p[i]))
        bound = (cap if variant == "noncolluding" else Fraction(p[3 - i]) * cap) - Fraction(lam)
        # the largest decimal below the bound, in hundredths, at most 0.30
        top[i] = min(30, math.ceil(bound * 100) - 1)
    assume(min(top.values()) >= 1)
    n = draw(st.integers(max(8, math.ceil(150 / min(top.values()))), 160))
    r = {i: draw(_decimal(math.ceil(150 / n), top[i])) for i in (1, 2)}
    return dict(n=n, p1=p[1], p2=p[2], r1=r[1], r2=r[2], lam=lam,
                lam_prime=draw(_decimal(1, 8)), variant=variant,
                order=draw(st.sampled_from([1, 2])))


@settings(max_examples=150, deadline=None)
@given(case=_accepted_decimals())
@example(case=dict(n=120, p1="0.75", p2="0.75", r1="0.17", r2="0.17", lam="0.01",
                   lam_prime="0.08", variant="colluding", order=1))
@example(case=dict(n=8, p1="0.70", p2="0.70", r1="0.25", r2="0.25", lam="0.05",
                   lam_prime="0.12", variant="noncolluding", order=1))
def test_accepted_decimal_params_have_the_exact_sizes(case):
    n, p1, p2, r1, r2, lam, lam_prime, variant, order = (
        case[key] for key in ("n", "p1", "p2", "r1", "r2", "lam", "lam_prime", "variant", "order"))
    # the inputs are typed decimals, read as floats the way the command line reads them
    try:
        params, _ = snap_params(n, float(p1), float(p2), float(r1), float(r2), float(lam),
                                float(lam_prime), variant=variant, order=order)
    except ParamError:
        # snapping r_i * n to a whole set size can still cross the bound
        assume(False)
    p = {1: Fraction(p1), 2: Fraction(p2)}
    lam = Fraction(lam)
    mask = {i: max(1, round(Fraction(r) * n)) for i, r in ((1, r1), (2, r2))}
    lp = min(max(1, round(Fraction(lam_prime) * n)), mask[1] - 1, mask[2] - 1)
    for i in (1, 2):
        assert params.plan().mask[i - 1] == mask[i]
        assert params.plan().key[i - 1] == mask[i] - lp
        assert params.plan().verify[i - 1] == max(1, round(Fraction(lam_prime) * n))
        cap = min(p[i], 1 - p[i])
        bound = cap - lam if variant == "noncolluding" else p[3 - i] * cap - lam
        assert Fraction(mask[i], n) < bound
    if variant == "colluding":
        for i in (1, 2):
            # ceil(mask_i / (p_j - lp/n)) in integers, with p_j = a/b
            a, b = p[3 - i].numerator, p[3 - i].denominator
            assert params.plan().phase1[i - 1] == -(-mask[i] * b * n // (a * n - lp * b))
        i = order
        leftover = p[i] - lam - Fraction(mask[i], n) / (p[3 - i] - Fraction(lp, n))
        expected = max(0, math.floor(leftover * n)) if p[i] > Fraction(1, 2) else 0
        assert params.plan().sprime == expected


def test_sample_subset_draws_within_pool(rng):
    pool = np.array([2, 5, 7, 11], dtype=np.int64)
    seen = set()
    for _ in range(400):
        s = sample_subset(pool, 2, rng)
        assert len(s) == 2
        assert set(s) <= set(pool.tolist())
        assert list(s) == sorted(s)
        seen.add(tuple(s))
    assert len(seen) == 6  # all 4-choose-2 subsets occur
    with pytest.raises(AbortSignal):
        sample_subset(pool, 5, rng)


def _per_swap_fisher_yates(pool, size, rng):
    """Reference sampler: one rng.integers call per swap, the stream sample_subset keeps."""
    a = np.asarray(pool, dtype=np.int64).copy()
    for j in range(size):
        t = j + int(rng.integers(0, a.size - j))
        a[j], a[t] = a[t], a[j]
    return np.sort(a[:size])


def test_sample_subset_matches_per_swap_stream():
    for pool_size in (1, 2, 5, 38, 129):
        pool = np.arange(pool_size, dtype=np.int64) * 3 + 7
        for size in sorted({0, 1, pool_size // 2, pool_size - 1, pool_size}):
            for seed in range(6):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                got = sample_subset(pool, size, ours)
                want = _per_swap_fisher_yates(pool, size, ref)
                assert got.dtype == np.int64 and np.array_equal(got, want), (pool_size, size, seed)
                assert ours.random() == ref.random()  # the stream after the draw agrees too


def test_draw_sprime_draws_outside_the_unchosen_set(rng):
    e = np.array([1, 4, 6, 9, 12, 13, 20], dtype=np.int64)
    unchosen = np.array([4, 12, 20], dtype=np.int64)
    for size in range(5):
        s = draw_sprime(e, unchosen, size, rng)
        assert set(s.tolist()) <= {1, 6, 9, 13} and len(s) == size
    with pytest.raises(AbortSignal) as sig:
        draw_sprime(e, unchosen, 5, rng)
    assert sig.value.code is OtCode.LEFTOVER_SHORTFALL
    assert "4 < 5" in sig.value.reason


def test_select_subsets_label_indexing(rng):
    e = np.array([0, 2, 4], dtype=np.int64)
    ebar = np.array([1, 3, 5], dtype=np.int64)
    s0, s1 = select_subsets(e, ebar, 0, 2, rng)
    assert set(s0) <= set(ebar.tolist()) and set(s1) <= set(e.tolist())
    t0, t1 = select_subsets(e, ebar, 1, 2, rng)
    assert set(t1) <= set(ebar.tolist()) and set(t0) <= set(e.tolist())


def test_select_subsets_abort_depends_only_on_sizes(rng):
    e = np.array([0], dtype=np.int64)
    ebar = np.array([1, 2, 3], dtype=np.int64)
    for z in (0, 1):
        with pytest.raises(AbortSignal) as sig:
            select_subsets(e, ebar, z, 2, rng)
        assert "|E| = 1" in str(sig.value)
        assert sig.value.code is OtCode.SET_SHORTFALL


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_encrypt_decode_roundtrip(mask, k, seed):
    rng = np.random.default_rng(seed)
    n = mask + 3
    x = rng.integers(0, 2, size=n, dtype=np.int64).astype(np.uint8)
    s = np.sort(rng.permutation(n)[:mask]).astype(np.int64)
    kappa = sample_linear_hash(mask, k, rng)
    h = sample_linear_hash(mask, 2, rng)
    m = rng.integers(0, 2, size=k, dtype=np.int64).astype(np.uint8)
    key = x[s]
    cipher = encrypt(m, kappa, key)
    decoded = decode_chosen(x.astype(np.int8), s, kappa, h, apply(h, key), cipher)
    assert np.array_equal(decoded, m)


def test_decode_rejects_erased_set_position(rng):
    x = np.array([1, 0, 1, 1], dtype=np.int8)
    s = np.array([0, 2], dtype=np.int64)
    kappa = sample_linear_hash(2, 1, rng)
    h = sample_linear_hash(2, 1, rng)
    cipher = encrypt([1], kappa, x[s].astype(np.uint8))
    commitment = apply(h, x[s].astype(np.uint8))
    y = x.copy()
    y[2] = ERASED
    with pytest.raises(DecodeError) as err:
        decode_chosen(y, s, kappa, h, commitment, cipher)
    assert err.value.code is OtCode.ERASED_CHOSEN


def test_decode_rejects_wrong_commitment(rng):
    x = np.array([1, 0, 1, 1], dtype=np.int8)
    s = np.array([0, 2], dtype=np.int64)
    kappa = sample_linear_hash(2, 1, rng)
    h = sample_linear_hash(2, 1, rng)
    key = x[s].astype(np.uint8)
    cipher = encrypt([1], kappa, key)
    bad = (apply(h, key) ^ 1).astype(np.uint8)
    with pytest.raises(DecodeError) as err:
        decode_chosen(x, s, kappa, h, bad, cipher)
    assert err.value.code is OtCode.HASH_MISMATCH


@pytest.mark.parametrize("code", [OtCode.HASH_MISMATCH, OtCode.ERASED_CHOSEN],
                         ids=["flipped commitment bit", "erased chosen position"])
def test_receive_link_turns_a_decode_error_into_a_decode_error_outcome(rng, code):
    x = rng.integers(0, 2, size=8, dtype=np.int64).astype(np.uint8)
    pair = (np.array([0, 2, 5], dtype=np.int64), np.array([1, 3, 4], dtype=np.int64))
    messages = (np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
    hashes, commitments, ciphertexts = send_link(x, pair, messages, 2, rng)
    y = x.astype(np.int8)
    outcome = receive_link(y, pair, 0, hashes, commitments, ciphertexts, messages)
    assert outcome.code is OtCode.COMPLETED and outcome.diagnostics["correct"]
    if code is OtCode.HASH_MISMATCH:
        commitments = (commitments[0] ^ np.array([1, 0], dtype=np.uint8), commitments[1])
    else:
        y[pair[0][1]] = ERASED
    outcome = receive_link(y, pair, 0, hashes, commitments, ciphertexts, messages)
    assert (outcome.code, outcome.status, outcome.decoded) == (code, "decode-error", None)
    assert outcome.diagnostics["reason"]


def test_param_error_carries_parts():
    err = ParamError("rate constraint", "need r < bound")
    assert err.constraint == "rate constraint"
    assert err.message == "need r < bound"
    assert "rate constraint: need r < bound" in str(err)


def _count_calls(monkeypatch, originals):
    """Swap every otbec binding of the given functions for a counting wrapper."""
    counts = dict.fromkeys(originals, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {name: counting(name, fn) for name, fn in originals.items()}
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "otbec"]:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrappers[name])
    return counts


_BROADCAST = VisibilityModel("broadcast-both", "broadcast-both")


@pytest.mark.parametrize("params, execute", [
    ("p1_params", run_protocol1),
    ("p2_params", functools.partial(run_protocol2, visibility=_BROADCAST)),
], ids=["p1", "p2"])
def test_a_run_validates_only_at_its_boundary_and_the_primitives(
        monkeypatch, request, params, execute):
    # the run boundary checks the four messages; after that the one check left
    # is transmit_bec's range test of each block it sends, the public primitive
    # a run calls. Drawn hash matrices and the vectors the hashes read are the
    # run's own, so no matrix is checked and hashing.apply is never called
    counts = _count_calls(monkeypatch, {"_all_bits": channel._all_bits,
                                        "as_bits": channel.as_bits,
                                        "transmit_bec": channel.transmit_bec,
                                        "apply": hashing.apply})
    params = request.getfixturevalue(params)
    rng = trial_rng(3, 3)
    messages = tuple(
        tuple(rng.integers(0, 2, size=params.plan().key[i - 1], dtype=np.int64).astype(np.uint8)
              for _ in range(2))
        for i in (1, 2)
    )
    run = execute(params, messages, (0, 1), rng)
    assert all(outcome.code is OtCode.COMPLETED for outcome in run.outcomes)
    assert counts["transmit_bec"] > 0 and counts["apply"] == 0
    assert counts["as_bits"] == 4
    assert counts["_all_bits"] == 4 + counts["transmit_bec"]


def _same(a, b) -> bool:
    """Equal observations or sets: both absent, or equal arrays."""
    return a is b is None or (a is not None and b is not None and np.array_equal(a, b))


@pytest.mark.parametrize("params, steps, last", [
    ("p1_params", noncolluding_steps, ("announce", 2)),
    ("p2_params", colluding_steps, ("rekey", 1)),
], ids=["p1", "p2"])
def test_a_step_list_stopped_early_replays_the_full_runs_record(request, params, steps, last):
    # the interpreter stopped after `last` drew what the whole run drew up to there
    params = request.getfixturevalue(params)
    plan = params.plan()
    full = steps(plan)
    prefix = full[:1 + [step[:2] for step in full].index(last)]
    announced = {step[1] for step in prefix if step[0] == "announce"}
    runs = generate_runs(params, 20, master_seed=5)
    for t, run in enumerate(runs):
        rng = trial_rng(5, t)
        part, record = interpret(plan, prefix, *draw_inputs(plan, rng), rng), run.record
        assert np.array_equal(part["x"], record["x"])
        assert part["y_phase1"].keys() == record["y_phase1"].keys()
        assert all(_same(part["y_phase1"][i], record["y_phase1"][i]) for i in record["y_phase1"])
        assert part["sets"].keys() == record["sets"].keys() & announced
        assert all(_same(part["sets"][i][label], record["sets"][i][label])
                   for i in part["sets"] for label in (0, 1))
        assert _same(part["sprime"], record["sprime"])
    # some trial reached the step the prefix stops at
    assert any(last[1] in run.record["sets"] for run in runs)
    if params.variant == "colluding":
        assert any(run.record["sprime"] is not None for run in runs)


def test_a_prefix_records_each_stop_as_the_full_run_does(aborting_runs):
    # a link's end is written once, at the step that stops it (its announce, or
    # the rekey for the other link): the prefix cut just after that step agrees
    # with the full run on every link stopped by then
    params, runs, codes = aborting_runs
    plan = params.plan()
    full = (noncolluding_steps if params.variant == "noncolluding" else colluding_steps)(plan)
    kinds = [step[:2] for step in full]
    seen = set()
    for t, run in enumerate(runs):
        record = run.record
        for link, code in record["aborted"].items():
            stop = kinds.index(("announce", link) if code is OtCode.SET_SHORTFALL else ("rekey", 3 - link))
            rng = trial_rng(3, t)
            part = interpret(plan, full[:stop + 1], *draw_inputs(plan, rng), rng)
            assert link in part["aborted"]
            assert part["outcomes"].keys() == part["aborted"].keys()
            for i, stopped in part["aborted"].items():
                assert stopped is record["aborted"][i] is record["outcomes"][i].code
                assert part["outcomes"][i].code is stopped
                assert part["outcomes"][i].diagnostics == record["outcomes"][i].diagnostics
            seen.add(code.value)
    assert seen == codes
