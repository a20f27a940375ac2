"""Exhaustive small-instance engine.

Enumerates every input restriction, erasure pattern, choice bit, subset draw,
hash matrix, and message with exact probability weights, producing the exact
joint law of a declared (secret, view-feature) pair. Views are enumerated as
declared feature tuples, never raw transcripts; independent uniform input bits
and sibling draws that enter no declared function (the chosen label's pad and
ciphertext, verification-hash commitments, positions outside the announced
sets) are marginalized out analytically, which keeps state counts inside the
budget without changing the joint. Enumeration partitions over erasure
patterns and merges by dictionary accumulation, so partial results combine
associatively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import ERASED, restrict, transmit_bec, trial_rng
from .entropy import JointDistribution, mutual_information
from .protocol_core import AbortSignal, announce_sets, draw_sprime, send_link

__all__ = [
    "EnumerationBudget",
    "DEFAULT_BUDGET",
    "BudgetError",
    "TinyParams",
    "ExactJoint",
    "SUPPORTED_SPECS",
    "enumerate_protocol",
    "exact_mi",
    "exact_mi_given_success",
    "oracle_vs_montecarlo",
]


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard limits checked before any enumeration starts."""

    max_n: int = 8
    max_set_size: int = 2
    max_hash_in: int = 4
    max_hash_out: int = 2
    max_states: int = 10**9


DEFAULT_BUDGET = EnumerationBudget()


class BudgetError(Exception):
    """Enumeration rejected up front; .estimate carries the weighted-state count."""

    def __init__(self, message: str, estimate: int):
        super().__init__(f"{message} (estimated states: {estimate})")
        self.estimate = estimate


@dataclass(frozen=True)
class TinyParams:
    """Direct sizes for oracle instances.

    Tiny instances are specified by counts rather than rates: the strict rate
    constraints have no room at these block lengths (a one-bit key over a
    one-position set would force the slack to zero).
    """

    n: int
    p1: float | Fraction
    p2: float | Fraction
    set_size: int = 1
    key_bits: int = 1
    phase1_size: int = 1
    sprime_size: int = 2

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        for p in (self.p1, self.p2):
            if not 0 <= float(p) <= 1:
                raise ValueError(f"erasure probability {p} not in [0, 1]")
        for name in ("set_size", "key_bits", "phase1_size", "sprime_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ExactJoint:
    """Exact joint law of (secret, view features) plus enumeration metadata.

    spec (variant, secret_spec, view_spec) and tiny name what was enumerated;
    both are None for a hand-built joint.
    """

    joint: JointDistribution
    arithmetic: str
    abort_mass: float | Fraction
    states: int
    description: str
    spec: tuple | None
    tiny: TinyParams | None

    def to_json(self) -> dict:
        return {
            "distribution": self.joint.as_distribution().to_json(),
            "arithmetic": self.arithmetic,
            "abort_mass": str(self.abort_mass) if isinstance(self.abort_mass, Fraction)
            else self.abort_mass,
            "states": self.states,
            "description": self.description,
        }


SUPPORTED_SPECS = (
    ("noncolluding", "z1", "announced-sets-1"),
    ("noncolluding", "z-pair", "announced-sets-both"),
    ("noncolluding", "m1-unchosen", "own-receiver-1"),
    ("noncolluding", "m1-unchosen", "pooled-receivers-1"),
    ("colluding", "m2-unchosen", "pooled-receivers-2-phase2"),
    ("colluding", "x-sprime", "first-receiver-phase1"),
)

_ABORT_MARKERS = ("abort", "abort-phase-1", "abort-phase-2", "no-sprime")


def _is_rational(p) -> bool:
    return isinstance(p, (int, Fraction))


def _pattern_weight(p, erased: int, total: int):
    if _is_rational(p):
        q = Fraction(p)
        return q**erased * (1 - q) ** (total - erased)
    return float(p) ** erased * (1.0 - float(p)) ** (total - erased)


def _half(rational: bool):
    return Fraction(1, 2) if rational else 0.5


def _bit_positions(pattern: int, n: int) -> tuple[list, list]:
    ones = [i for i in range(n) if (pattern >> i) & 1]
    zeros = [i for i in range(n) if not (pattern >> i) & 1]
    return ones, zeros


def _kappa_images(rows: tuple, x: int) -> tuple:
    return tuple(bin(row & x).count("1") & 1 for row in rows)


def _xor_bits(a: tuple, b: tuple) -> tuple:
    return tuple(x ^ y for x, y in zip(a, b))


def _int_to_bits(v: int, width: int) -> tuple:
    return tuple((v >> t) & 1 for t in range(width))


def _has_abort(view) -> bool:
    if isinstance(view, str):
        return view in _ABORT_MARKERS
    if isinstance(view, tuple):
        return any(_has_abort(v) for v in view)
    return False


def _estimate_states(tiny: TinyParams, view_spec: str) -> int:
    n, s, k = tiny.n, tiny.set_size, tiny.key_bits
    pairs = math.comb(n, s) ** 2
    if view_spec == "announced-sets-1":
        return (1 << n) * 2 * pairs
    if view_spec == "announced-sets-both":
        return 2 * (1 << n) * 2 * pairs
    if view_spec in ("own-receiver-1", "pooled-receivers-1"):
        est = (1 << n) * 2 * pairs * (1 << s) * (1 << (s * k)) * (1 << k)
        if view_spec == "pooled-receivers-1":
            est *= 1 << s
        return est
    if view_spec == "pooled-receivers-2-phase2":
        m1, q = tiny.phase1_size, tiny.sprime_size
        return (
            (1 << n) * 2 * math.comb(n, m1) * math.comb(n, q)
            * (1 << q) * (1 << q) * 2 * math.comb(q, s) ** 2
            * (1 << (s * k)) * (1 << k)
        )
    if view_spec == "first-receiver-phase1":
        m1, q = tiny.phase1_size, tiny.sprime_size
        # free input bits (non-erased plus retransmitted) never exceed n
        return (1 << n) * 2 * math.comb(n, m1) ** 2 * math.comb(n, q) * (1 << n)
    raise ValueError(f"unknown view spec {view_spec!r}")


def _check_budget(tiny: TinyParams, view_spec: str, budget: EnumerationBudget) -> int:
    estimate = _estimate_states(tiny, view_spec)
    if tiny.n > budget.max_n:
        raise BudgetError(f"n = {tiny.n} exceeds budget n <= {budget.max_n}", estimate)
    sizes = [tiny.set_size]
    if view_spec in ("pooled-receivers-2-phase2", "first-receiver-phase1"):
        sizes.append(tiny.phase1_size)
        if tiny.sprime_size > budget.max_hash_in:
            raise BudgetError(
                f"sprime_size = {tiny.sprime_size} exceeds budget {budget.max_hash_in}", estimate)
    for size in sizes:
        if size > budget.max_set_size:
            raise BudgetError(f"set size {size} exceeds budget {budget.max_set_size}", estimate)
    if tiny.set_size > budget.max_hash_in:
        raise BudgetError(f"hash input {tiny.set_size} exceeds budget {budget.max_hash_in}", estimate)
    if tiny.key_bits > budget.max_hash_out:
        raise BudgetError(f"hash output {tiny.key_bits} exceeds budget {budget.max_hash_out}", estimate)
    if estimate > budget.max_states:
        raise BudgetError("state estimate exceeds budget", estimate)
    return estimate


def _link_structures(n: int, p, size: int, rational: bool):
    """Yield (z, announced pair or abort marker, erased positions, weight) for one link."""
    half = _half(rational)
    for pattern in range(1 << n):
        e, ebar = _bit_positions(pattern, n)
        w_pat = _pattern_weight(p, len(e), n)
        for z in (0, 1):
            wz = w_pat * half
            if len(ebar) < size or len(e) < size:
                yield z, ("abort",), e, wz
                continue
            chosen_pool = list(itertools.combinations(ebar, size))
            other_pool = list(itertools.combinations(e, size))
            w_sub = wz / (len(chosen_pool) * len(other_pool))
            for sc in chosen_pool:
                for so in other_pool:
                    pair = (sc, so) if z == 0 else (so, sc)
                    yield z, pair, e, w_sub


def _accumulate(items) -> tuple[dict, int]:
    agg: dict = {}
    states = 0
    for key, w in items:
        states += 1
        agg[key] = agg.get(key, 0) + w
    return agg, states


def _enum_sets_link(tiny: TinyParams, p, rational: bool):
    return _accumulate(
        ((z, pair), w) for z, pair, _, w in _link_structures(tiny.n, p, tiny.set_size, rational)
    )


def _enum_sets_both(tiny: TinyParams, rational: bool):
    agg1, st1 = _enum_sets_link(tiny, tiny.p1, rational)
    agg2, st2 = _enum_sets_link(tiny, tiny.p2, rational)
    agg: dict = {}
    for (z1, v1), w1 in agg1.items():
        for (z2, v2), w2 in agg2.items():
            key = ((z1, z2), (v1, v2))
            agg[key] = agg.get(key, 0) + w1 * w2
    return agg, st1 + st2 + len(agg1) * len(agg2)


def _enum_message_link1(tiny: TinyParams, rational: bool, pooled: bool):
    """Joint of (unchosen message, view) for link 1.

    The view holds the receiver's choice bit, the announced pair, the unchosen
    key hash, and the unchosen ciphertext; pooling adds the other receiver's
    erasure-limited look at the unchosen key material ("e" marks an erasure).
    """
    n, s, k = tiny.n, tiny.set_size, tiny.key_bits
    half = _half(rational)
    half_s = half**s
    half_k = half**k
    half_mat = half ** (s * k)

    def items():
        for z, pair, _, w in _link_structures(n, tiny.p1, s, rational):
            if pair == ("abort",):
                for m in range(1 << k):
                    yield (_int_to_bits(m, k), ("abort",)), w * half_k
                continue
            for x in range(1 << s):  # input bits at the unchosen set, in set order
                w_x = w * half_s
                if pooled:
                    y_variants = []
                    for ypat in range(1 << s):
                        erased = bin(ypat).count("1")
                        w_y = _pattern_weight(tiny.p2, erased, s)
                        sym = tuple(
                            "e" if (ypat >> t) & 1 else (x >> t) & 1 for t in range(s)
                        )
                        y_variants.append((sym, w_y))
                else:
                    y_variants = [(None, 1)]
                for sym, w_y in y_variants:
                    for rows in itertools.product(range(1 << s), repeat=k):
                        kx = _kappa_images(rows, x)
                        w_mat = w_x * w_y * half_mat
                        for m in range(1 << k):
                            mbits = _int_to_bits(m, k)
                            view = (z, pair, ("kappa", rows), _xor_bits(mbits, kx))
                            if pooled:
                                view = view + (sym,)
                            yield (mbits, view), w_mat * half_k

    return _accumulate(items())


def _enum_phase2_message(tiny: TinyParams, rational: bool):
    """Joint of (unchosen message, view) for the second link of the two-phase
    variant under point-to-point visibility.

    The phase-1 receiver's chosen-set draw is marginalized out (the view never
    references it); the retransmitted positions are checked to lie inside that
    receiver's erasures, so its contribution to the pooled view is the constant
    all-erased symbol.
    """
    n, m1, q = tiny.n, tiny.phase1_size, tiny.sprime_size
    s, k = tiny.set_size, tiny.key_bits
    half = _half(rational)
    half_k = half**k

    def items():
        for pattern in range(1 << n):
            e, ebar = _bit_positions(pattern, n)
            w_pat = _pattern_weight(tiny.p1, len(e), n)
            for z1 in (0, 1):
                w_z1 = w_pat * half
                if len(ebar) < m1 or len(e) < m1:
                    for m in range(1 << k):
                        yield (_int_to_bits(m, k), ("abort-phase-1",)), w_z1 * half_k
                    continue
                other_pool = list(itertools.combinations(e, m1))
                w_unch = w_z1 / len(other_pool)
                for so in other_pool:  # the phase-1 unchosen set, from the erased side
                    leftover = [i for i in e if i not in so]
                    if len(leftover) < q:
                        for m in range(1 << k):
                            yield (_int_to_bits(m, k), ("no-sprime",)), w_unch * half_k
                        continue
                    sprime_pool = list(itertools.combinations(leftover, q))
                    w_sp = w_unch / len(sprime_pool)
                    for sp in sprime_pool:
                        assert all(i in e for i in sp)
                        for x in range(1 << q):  # input bits at the retransmitted set
                            w_x = w_sp * half**q
                            for e2pat in range(1 << q):
                                e2, ebar2 = _bit_positions(e2pat, q)
                                w_e2 = w_x * _pattern_weight(tiny.p2, len(e2), q)
                                for z2 in (0, 1):
                                    w_z2 = w_e2 * half
                                    if len(ebar2) < s or len(e2) < s:
                                        for m in range(1 << k):
                                            yield (_int_to_bits(m, k), ("abort-phase-2",)), w_z2 * half_k
                                        continue
                                    c2 = list(itertools.combinations(ebar2, s))
                                    o2 = list(itertools.combinations(e2, s))
                                    w_sub2 = w_z2 / (len(c2) * len(o2))
                                    for tc in c2:
                                        for to in o2:
                                            pair2 = (tc, to) if z2 == 0 else (to, tc)
                                            x_unch = sum(
                                                (((x >> pos) & 1) << t)
                                                for t, pos in enumerate(to)
                                            )
                                            for rows in itertools.product(range(1 << s), repeat=k):
                                                kx = _kappa_images(rows, x_unch)
                                                w_mat = w_sub2 * half ** (s * k)
                                                for m in range(1 << k):
                                                    mbits = _int_to_bits(m, k)
                                                    view = (
                                                        z2, sp, pair2, ("kappa", rows),
                                                        _xor_bits(mbits, kx), ("e",) * s,
                                                    )
                                                    yield (mbits, view), w_mat * half_k

    return _accumulate(items())


def _enum_phase1_cross(tiny: TinyParams, rational: bool):
    """Joint of (input bits at the retransmitted set, phase-1 receiver view).

    The view is everything the phase-1 receiver holds after phase 1: choice
    bit, announced index-set pair, the retransmitted set, and its own
    observations. The link's hash publications are functions of those
    observations plus public randomness, so they carry no extra information.
    The retransmitted set is drawn inside that receiver's erasures, which the
    enumeration checks branch by branch; the joint therefore factors exactly.
    """
    n, m1, q = tiny.n, tiny.phase1_size, tiny.sprime_size
    half = _half(rational)

    def items():
        for pattern in range(1 << n):
            e, ebar = _bit_positions(pattern, n)
            ebar_set = set(ebar)
            w_pat = _pattern_weight(tiny.p1, len(e), n)
            for z1 in (0, 1):
                w_z = w_pat * half
                if len(ebar) < m1 or len(e) < m1:
                    yield ((), ("abort-phase-1",)), w_z
                    continue
                chosen_pool = list(itertools.combinations(ebar, m1))
                other_pool = list(itertools.combinations(e, m1))
                w_pair = w_z / (len(chosen_pool) * len(other_pool))
                for sc in chosen_pool:
                    for so in other_pool:
                        pair = (sc, so) if z1 == 0 else (so, sc)
                        leftover = [i for i in e if i not in so]
                        if len(leftover) < q:
                            yield ((), (z1, pair, "no-sprime")), w_pair
                            continue
                        sprime_pool = list(itertools.combinations(leftover, q))
                        w_sp = w_pair / len(sprime_pool)
                        for sp in sprime_pool:
                            assert all(i in e for i in sp)
                            free = list(ebar) + list(sp)
                            w_x = w_sp * half ** len(free)
                            for bits in range(1 << len(free)):
                                assign = {pos: (bits >> t) & 1 for t, pos in enumerate(free)}
                                obs = tuple(
                                    assign[i] if i in ebar_set else "e" for i in range(n)
                                )
                                secret = tuple(assign[i] for i in sp)
                                yield (secret, (z1, pair, sp, obs)), w_x

    return _accumulate(items())


def enumerate_protocol(
    variant: str,
    tiny: TinyParams,
    view_spec: str,
    secret_spec: str,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> ExactJoint:
    """Build the exact (secret, view) joint for one supported declared spec.

    Every realization is weighted by the product of its uniform input bits,
    erasure probabilities, uniform subset draws, uniform matrix entries, and
    uniform messages; abort realizations keep their mass under marker views, so
    the joint always sums to one.
    """
    combo = (variant, secret_spec, view_spec)
    if combo not in SUPPORTED_SPECS:
        supported = ", ".join(str(c) for c in SUPPORTED_SPECS)
        raise ValueError(f"unsupported spec {combo}; supported: {supported}")
    _check_budget(tiny, view_spec, budget)
    rational = _is_rational(tiny.p1) and _is_rational(tiny.p2)
    if view_spec == "announced-sets-1":
        agg, states = _enum_sets_link(tiny, tiny.p1, rational)
    elif view_spec == "announced-sets-both":
        agg, states = _enum_sets_both(tiny, rational)
    elif view_spec == "own-receiver-1":
        agg, states = _enum_message_link1(tiny, rational, pooled=False)
    elif view_spec == "pooled-receivers-1":
        agg, states = _enum_message_link1(tiny, rational, pooled=True)
    elif view_spec == "first-receiver-phase1":
        agg, states = _enum_phase1_cross(tiny, rational)
    else:
        agg, states = _enum_phase2_message(tiny, rational)
    abort_mass = sum((w for (_, view), w in agg.items() if _has_abort(view)),
                     Fraction(0) if rational else 0.0)
    return ExactJoint(
        joint=JointDistribution(agg),
        arithmetic="rational" if rational else "float",
        abort_mass=abort_mass,
        states=states,
        description=f"{variant}: {secret_spec} vs {view_spec} at n={tiny.n}",
        spec=combo,
        tiny=tiny,
    )


def exact_mi(j: ExactJoint):
    """Exact mutual information in bits; exact integer 0 when the joint factors."""
    return mutual_information(j.joint)


def exact_mi_given_success(j: ExactJoint):
    """Mutual information conditioned on the protocol completing.

    Abort branches are removed and the remaining mass renormalized. This is
    the right functional when the secret only exists on completed runs (the
    retransmitted-set bits, say); unconditioned MI would mostly measure the
    abort indicator itself.
    """
    items = [(key, w) for key, w in j.joint.items() if not _has_abort(key[1])]
    total = sum(w for _, w in items)
    if total == 0:
        raise ValueError("no completed branches to condition on")
    cond = JointDistribution({key: w / total for key, w in items})
    return mutual_information(cond)


def _tuple_set(arr) -> tuple:
    return tuple(int(v) for v in arr)


def _kappa_symbol(h) -> tuple:
    rows = tuple(
        int(sum(int(h.matrix[r, t]) << t for t in range(h.cols)))
        for r in range(h.rows)
    )
    return ("kappa", rows)


def _obs_symbol(values) -> tuple:
    return tuple("e" if int(v) == ERASED else int(v) for v in values)


def _message_pair(k: int, rng: np.random.Generator) -> tuple:
    return tuple(rng.integers(0, 2, size=k, dtype=np.int64).astype(np.uint8) for _ in range(2))


def _sample_once(tiny: TinyParams, view_spec: str, rng: np.random.Generator):
    """Draw one (secret, view) sample by running the executors' link helpers."""
    s = tiny.set_size
    # the views never include commitments, so any positive verification length
    # gives the same joint
    verify_bits = 1
    x = rng.integers(0, 2, size=tiny.n, dtype=np.int64).astype(np.uint8)

    def announced(bits, p, size):
        y = transmit_bec(bits, float(p), rng)
        z = int(rng.integers(0, 2))
        try:
            pair, e = announce_sets(y, z, size, rng)
        except AbortSignal:
            return z, ("abort",), y, None, None
        return z, (_tuple_set(pair[0]), _tuple_set(pair[1])), y, pair, e

    def unchosen_view(bits, pair, z, messages):
        hashes, _, cipher = send_link(bits, pair, messages, verify_bits, rng)
        return _kappa_symbol(hashes["kappa"][1 - z]), _tuple_set(cipher[1 - z])

    if view_spec in ("announced-sets-1", "announced-sets-both"):
        z1, v1, _, _, _ = announced(x, tiny.p1, s)
        if view_spec == "announced-sets-1":
            return z1, v1
        z2, v2, _, _, _ = announced(x, tiny.p2, s)
        return (z1, z2), (v1, v2)
    if view_spec in ("own-receiver-1", "pooled-receivers-1"):
        z, view, _, pair, _ = announced(x, tiny.p1, s)
        y2 = transmit_bec(x, float(tiny.p2), rng) if view_spec == "pooled-receivers-1" else None
        messages = _message_pair(tiny.key_bits, rng)
        if pair is None:
            return _tuple_set(messages[1 - z]), view
        view = (z, view, *unchosen_view(x, pair, z, messages))
        if y2 is not None:
            view += (_obs_symbol(restrict(y2, pair[1 - z])),)
        return _tuple_set(messages[1 - z]), view
    # both two-phase specs share phase 1 and the S' draw
    z1, pairview, y1, pair1, e1 = announced(x, tiny.p1, tiny.phase1_size)
    phase2 = view_spec == "pooled-receivers-2-phase2"
    messages = _message_pair(tiny.key_bits, rng) if phase2 else None
    secret = _tuple_set(messages[0]) if phase2 else ()
    if pair1 is None:
        return secret, ("abort-phase-1",)
    try:
        sp = draw_sprime(e1, pair1[1 - z1], tiny.sprime_size, rng)
    except AbortSignal:
        return secret, ("no-sprime",) if phase2 else (z1, pairview, "no-sprime")
    if not phase2:
        return _tuple_set(restrict(x, sp)), (z1, pairview, _tuple_set(sp), _obs_symbol(y1))
    x_sp = restrict(x, sp).astype(np.uint8)
    z2, view2, _, pair2, _ = announced(x_sp, tiny.p2, s)
    if pair2 is None:
        return _tuple_set(messages[1 - z2]), ("abort-phase-2",)
    view = (z2, _tuple_set(sp), view2, *unchosen_view(x_sp, pair2, z2, messages), ("e",) * s)
    return _tuple_set(messages[1 - z2]), view


def oracle_vs_montecarlo(exact: ExactJoint, trials: int, master_seed: int = 0) -> dict:
    """Compare an enumerated joint against sampling through the executors' link helpers.

    Returns the maximum absolute deviation between exact probabilities and
    empirical frequencies over all (secret, view) cells, with the uniform
    99% concentration band sqrt(ln(2/0.01) / (2 trials)). view_deviation is
    the same comparison on the view marginal alone; it collapses to exactly 0
    in deterministic sub-cases (p = 0) where the secret coin still fluctuates.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if exact.spec is None:
        raise ValueError("the joint has no enumerated spec to sample")
    view_spec = exact.spec[2]
    probs = {pair: float(w) for pair, w in exact.joint.items()}
    counts: dict = {}
    for t in range(trials):
        rng = trial_rng(master_seed, t)
        key = _sample_once(exact.tiny, view_spec, rng)
        counts[key] = counts.get(key, 0) + 1
    keys = set(probs) | set(counts)
    max_dev = max(abs(probs.get(kk, 0.0) - counts.get(kk, 0) / trials) for kk in keys)
    view_probs: dict = {}
    view_counts: dict = {}
    for kk in keys:
        view_probs[kk[1]] = view_probs.get(kk[1], 0.0) + probs.get(kk, 0.0)
        view_counts[kk[1]] = view_counts.get(kk[1], 0) + counts.get(kk, 0)
    view_dev = max(abs(view_probs[v] - view_counts[v] / trials) for v in view_probs)
    band = math.sqrt(math.log(2 / 0.01) / (2 * trials))
    return {
        "max_deviation": max_dev,
        "view_deviation": view_dev,
        "band": band,
        "trials": trials,
        "within_band": bool(max_dev <= band),
        "cells": len(keys),
    }
