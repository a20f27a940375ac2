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
    decode_chosen,
    draw_sprime,
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
            nonintegral.mask_size(1)
        with pytest.raises(ParamError):
            validate_params(nonintegral)


def test_validated_params_keep_fields_equality_and_hash():
    params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16))
    fresh = dataclasses.replace(params)
    assert validate_params(params) is params
    assert validate_params(params) is params
    assert (params.mask_size(1), params.key_len(2), params.verify_bits(1)) == (8, 4, 4)
    assert dataclasses.asdict(params) == dataclasses.asdict(fresh)
    assert params == fresh and hash(params) == hash(fresh)
    assert repr(params) == repr(fresh)


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


def test_param_error_carries_parts():
    err = ParamError("rate constraint", "need r < bound")
    assert err.constraint == "rate constraint"
    assert err.message == "need r < bound"
    assert "rate constraint: need r < bound" in str(err)
