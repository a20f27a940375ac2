"""Parameter validation, subset draws, encrypt/decode round trips."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from otbec.channel import ERASED
from otbec.hashing import apply, sample_linear_hash
from otbec.protocol_core import (
    AbortSignal,
    DecodeError,
    OtCode,
    ParamError,
    Transcript,
    decode_chosen,
    encrypt,
    sample_subset,
    select_subsets,
    snap_params,
    validate_params,
)


def test_snap_params_keeps_integrality_invariant():
    params, adjustments = snap_params(256, 0.5, 0.5, 0.15, 0.15, 0.05, 0.05)
    for i in (1, 2):
        k = params.key_len(i)
        assert isinstance(k, int) and k >= 1
        assert params.mask_size(i) == round(0.15 * 256)
    assert "r1" in adjustments  # 0.15 * 256 is not an integer, so it was snapped
    assert adjustments["r1"]["effective"] == pytest.approx(38 / 256)


def test_snap_params_exact_rationals_pass_through():
    params, adjustments = snap_params(
        64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16)
    )
    assert adjustments == {}
    assert params.key_len(1) == 4
    assert params.mask_size(1) == 8


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


def test_phase_sizes_for_colluding_variant():
    params, _ = snap_params(
        48, 0.75, 0.75, Fraction(3, 32), Fraction(3, 32), Fraction(1, 16), Fraction(1, 32),
        variant="colluding",
    )
    assert params.phase1_size(1) == 6
    assert params.sprime_size() == 27
    low, _ = snap_params(
        64, 0.5, 0.5, Fraction(1, 16), Fraction(1, 16), Fraction(1, 32), Fraction(1, 64),
        variant="colluding",
    )
    assert low.sprime_size() == 0  # no leftover erasures to retransmit at p <= 1/2


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


def test_select_subsets_label_indexing(rng):
    e = np.array([0, 2, 4], dtype=np.int64)
    ebar = np.array([1, 3, 5], dtype=np.int64)
    s0, s1 = select_subsets(e, ebar, 0, 2, rng)
    assert set(s0) <= set(ebar.tolist()) and set(s1) <= set(e.tolist())
    t0, t1 = select_subsets(e, ebar, 1, 2, rng)
    assert set(t1) <= set(ebar.tolist()) and set(t0) <= set(e.tolist())
    with pytest.raises(ValueError):
        select_subsets(e, ebar, 2, 1, rng)


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


def test_encrypt_checks_message_length(rng):
    kappa = sample_linear_hash(2, 2, rng)
    with pytest.raises(ValueError):
        encrypt([1], kappa, np.array([0, 1], dtype=np.uint8))


def test_transcript_is_append_only_and_public():
    t = Transcript()
    t.append("alice", 1, "phase-marker", "phase-1")
    t.append("bob1", 1, "index-sets", {"S0": [1]})
    assert len(t.messages) == 2
    assert t.messages[0].sender == "alice"
    assert t.messages[1].payload == {"S0": [1]}


def test_param_error_carries_parts():
    err = ParamError("rate constraint", "need r < bound")
    assert err.constraint == "rate constraint"
    assert err.message == "need r < bound"
    assert "rate constraint: need r < bound" in str(err)
