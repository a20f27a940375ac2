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

Every weight is a product of erasure-pattern laws a^e (b-a)^(m-e) / b^m for
p = a/b, fair coins and uniform draws from pools whose sizes the enumerator
can list before it starts. So each enumerator fixes one integer denominator
up front (powers of b1, b2 and 2 times the lcm of the pool sizes it can meet)
and accumulates integer numerators, so no Fraction arithmetic runs per state.
The mutual information comes from `entropy.mutual_information_of` on those
numerators and their denominator. TinyParams holds each probability as a
Fraction read by `protocol_core.as_fraction`, the rule the protocol
parameters use: a float is the decimal its repr prints (0.5 is 1/2, 0.3 is
3/10), so every joint is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .channel import ERASED, restrict, transmit_bec, trial_rng
from .entropy import mutual_information_of
from .protocol_core import AbortSignal, announce_sets, as_fraction, draw_sprime, send_link

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
        self.message = message
        self.estimate = estimate

    def __reduce__(self):
        """Pickle by the fields, which rebuild the text: a worker process sends it back."""
        return type(self), (self.message, self.estimate)


@dataclass(frozen=True)
class TinyParams:
    """Direct sizes for oracle instances.

    Tiny instances are specified by counts rather than rates: the strict rate
    constraints have no room at these block lengths (a one-bit key over a
    one-position set would force the slack to zero). p1 and p2 are stored as
    Fractions, a float read as the decimal its repr prints.
    """

    n: int
    p1: Fraction
    p2: Fraction
    set_size: int = 1
    key_bits: int = 1
    phase1_size: int = 1
    sprime_size: int = 2

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        for name in ("p1", "p2"):
            p = getattr(self, name)
            exact = as_fraction(p)
            if not 0 <= exact <= 1:
                raise ValueError(f"erasure probability {p} not in [0, 1]")
            object.__setattr__(self, name, exact)
        for name in ("set_size", "key_bits", "phase1_size", "sprime_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class ExactJoint:
    """Exact joint law of (secret, view features) plus enumeration metadata.

    weights maps each (secret, view) cell to its integer numerator over the
    common integer denominator; abort_mass turns the abort cells' share into
    a Fraction on demand. spec (variant, secret_spec, view_spec) and tiny
    name what was enumerated; both are None for a hand-built joint.
    """

    weights: dict
    denominator: int
    states: int
    description: str
    spec: tuple | None
    tiny: TinyParams | None

    @cached_property
    def _split(self) -> tuple[dict, int]:
        """(completed cells with their numerators, summed numerator of the abort cells)."""
        completed: dict = {}
        aborted = 0
        for key, w in self.weights.items():
            if _has_abort(key[1]):
                aborted += w
            else:
                completed[key] = w
        return completed, aborted

    @property
    def abort_mass(self) -> Fraction:
        """Probability that the protocol aborts (any view carrying an abort marker)."""
        return Fraction(self._split[1], self.denominator)


SUPPORTED_SPECS = (
    ("noncolluding", "z1", "announced-sets-1"),
    ("noncolluding", "z-pair", "announced-sets-both"),
    ("noncolluding", "m1-unchosen", "own-receiver-1"),
    ("noncolluding", "m1-unchosen", "pooled-receivers-1"),
    ("colluding", "m2-unchosen", "pooled-receivers-2-phase2"),
    ("colluding", "x-sprime", "first-receiver-phase1"),
)

_ABORT_MARKERS = ("abort", "abort-phase-1", "abort-phase-2", "no-sprime")
# a marker, or a marker view, as one top-level part of a view
_ABORT_PARTS = frozenset(_ABORT_MARKERS) | frozenset((m,) for m in _ABORT_MARKERS)


def _pattern_law(p: Fraction, m: int) -> tuple[list, int]:
    """Numerators by erasure count e of an m-position pattern, and their denominator b^m."""
    a, b = p.numerator, p.denominator
    return [a**e * (b - a) ** (m - e) for e in range(m + 1)], b**m


def _pair_lcm(n: int, size: int) -> int:
    """lcm of |chosen pool| * |other pool| over the erasure counts that announce a pair."""
    return math.lcm(*(math.comb(n - e, size) * math.comb(e, size)
                      for e in range(size, n - size + 1)))


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
    """Whether a view records an abort.

    The enumerators put a marker only at the view's top level: a marker view
    ("abort",), a trailing "no-sprime", or, for a pair of per-link views, a
    marker view as one of the pair. So only the top-level parts are looked up.
    """
    if isinstance(view, tuple):
        return not _ABORT_PARTS.isdisjoint(view)
    return view in _ABORT_PARTS


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


def _link_structures(n: int, p: Fraction, size: int):
    """(denominator, iterator of (z, announced pair or abort marker, numerator)) for one link.

    The denominator is b^n for the pattern, 2 for z and the pair-pool lcm.
    """
    pattern_num, pattern_den = _pattern_law(p, n)
    pool = _pair_lcm(n, size)

    def items():
        for pattern in range(1 << n):
            e, ebar = _bit_positions(pattern, n)
            w_pat = pattern_num[len(e)]
            for z in (0, 1):
                if len(ebar) < size or len(e) < size:
                    yield z, ("abort",), w_pat * pool
                    continue
                chosen_pool = list(itertools.combinations(ebar, size))
                other_pool = list(itertools.combinations(e, size))
                w_sub = w_pat * (pool // (len(chosen_pool) * len(other_pool)))
                for sc in chosen_pool:
                    for so in other_pool:
                        pair = (sc, so) if z == 0 else (so, sc)
                        yield z, pair, w_sub

    return pattern_den * 2 * pool, items()


def _accumulate(items) -> tuple[dict, int]:
    agg: dict = {}
    states = 0
    for key, w in items:
        states += 1
        agg[key] = agg.get(key, 0) + w
    return agg, states


def _enum_sets_link(tiny: TinyParams, p: Fraction):
    denominator, structures = _link_structures(tiny.n, p, tiny.set_size)
    agg, states = _accumulate(((z, pair), w) for z, pair, w in structures)
    return agg, states, denominator


def _enum_sets_both(tiny: TinyParams):
    agg1, st1, d1 = _enum_sets_link(tiny, tiny.p1)
    agg2, st2, d2 = _enum_sets_link(tiny, tiny.p2)
    agg: dict = {}
    for (z1, v1), w1 in agg1.items():
        for (z2, v2), w2 in agg2.items():
            key = ((z1, z2), (v1, v2))
            agg[key] = agg.get(key, 0) + w1 * w2
    return agg, st1 + st2 + len(agg1) * len(agg2), d1 * d2


def _message_cells(s: int, k: int, x: int, head: tuple, tail: tuple, w: int):
    """Every (message, view) cell of a published link's unchosen label, each of weight w.

    x holds the input bits at the unchosen set, in set order; the view is head,
    the uniform hash matrix kappa, the ciphertext m xor kappa(x), then tail.
    """
    for rows in itertools.product(range(1 << s), repeat=k):
        kappa = ("kappa", rows)
        kx = _kappa_images(rows, x)
        for m in range(1 << k):
            mbits = _int_to_bits(m, k)
            yield (mbits, (*head, kappa, _xor_bits(mbits, kx), *tail)), w


def _abort_cells(k: int, view: tuple, w: int):
    """Every message under an abort view, each of weight w: nothing was published."""
    for m in range(1 << k):
        yield (_int_to_bits(m, k), view), w


def _enum_message_link1(tiny: TinyParams, pooled: bool):
    """Joint of (unchosen message, view) for link 1.

    The view holds the receiver's choice bit, the announced pair, the unchosen
    key hash, and the unchosen ciphertext; pooling adds the other receiver's
    erasure-limited look at the unchosen key material ("e" marks an erasure).
    """
    n, s, k = tiny.n, tiny.set_size, tiny.key_bits
    link_den, structures = _link_structures(n, tiny.p1, s)
    # the second receiver's look at the unchosen set: a p2 pattern over s positions
    y_num, y_den = _pattern_law(tiny.p2, s) if pooled else ([1], 1)
    # input bits at the unchosen set, matrix entries and message are uniform;
    # an aborted link draws only the message
    uniform_bits = s + s * k + k
    abort_scale = y_den << (s + s * k)

    def items():
        for z, pair, w in structures:
            if pair == ("abort",):
                yield from _abort_cells(k, pair, w * abort_scale)
                continue
            for x in range(1 << s):  # input bits at the unchosen set, in set order
                looks = [
                    ((tuple("e" if (ypat >> t) & 1 else (x >> t) & 1 for t in range(s)),),
                     w * y_num[bin(ypat).count("1")])
                    for ypat in range(1 << s)
                ] if pooled else [((), w)]
                for tail, w_y in looks:
                    yield from _message_cells(s, k, x, (z, pair), tail, w_y)

    agg, states = _accumulate(items())
    return agg, states, (link_den * y_den) << uniform_bits


def _enum_phase2_message(tiny: TinyParams):
    """Joint of (unchosen message, view) for the second link of the two-phase
    variant under point-to-point visibility.

    The phase-1 receiver's chosen-set draw is marginalized out (the view never
    references it); the retransmitted positions are checked to lie inside that
    receiver's erasures, so its contribution to the pooled view is the constant
    all-erased symbol.
    """
    n, m1, q = tiny.n, tiny.phase1_size, tiny.sprime_size
    s, k = tiny.set_size, tiny.key_bits
    pat1_num, pat1_den = _pattern_law(tiny.p1, n)
    # phase 2 is one link over the q retransmitted positions, walked once per S' and input
    link2_den, link2 = _link_structures(q, tiny.p2, s)
    link2 = list(link2)
    # pool-size lcms: phase-1 unchosen set, S' inside the leftover
    unch_pool = math.lcm(*(math.comb(e, m1) for e in range(m1, n - m1 + 1)))
    sp_pool = math.lcm(*(math.comb(e - m1, q) for e in range(m1 + q, n - m1 + 1)))
    # uniform draws besides phase 2's z2: z1, input bits at S', matrix entries, message
    uniform_bits = 1 + q + s * k + k
    # each early end keeps the weight of every draw it skips, bar the message
    sprime_scale = (sp_pool * link2_den) << (q + s * k)

    def items():
        for pattern in range(1 << n):
            e, ebar = _bit_positions(pattern, n)
            w_pat = pat1_num[len(e)]
            for z1 in (0, 1):
                if len(ebar) < m1 or len(e) < m1:
                    yield from _abort_cells(k, ("abort-phase-1",), w_pat * unch_pool * sprime_scale)
                    continue
                other_pool = list(itertools.combinations(e, m1))
                w_unch = w_pat * (unch_pool // len(other_pool))
                for so in other_pool:  # the phase-1 unchosen set, from the erased side
                    leftover = [i for i in e if i not in so]
                    if len(leftover) < q:
                        yield from _abort_cells(k, ("no-sprime",), w_unch * sprime_scale)
                        continue
                    sprime_pool = list(itertools.combinations(leftover, q))
                    w_sp = w_unch * (sp_pool // len(sprime_pool))
                    for sp in sprime_pool:
                        assert all(i in e for i in sp)
                        for x in range(1 << q):  # input bits at the retransmitted set
                            for z2, pair2, w2 in link2:
                                if pair2 == ("abort",):
                                    yield from _abort_cells(
                                        k, ("abort-phase-2",), (w_sp * w2) << (s * k))
                                    continue
                                x_unch = sum(((x >> pos) & 1) << t
                                             for t, pos in enumerate(pair2[1 - z2]))
                                yield from _message_cells(
                                    s, k, x_unch, (z2, sp, pair2), (("e",) * s,), w_sp * w2)

    agg, states = _accumulate(items())
    return agg, states, (pat1_den * unch_pool * sp_pool * link2_den) << uniform_bits


def _enum_phase1_cross(tiny: TinyParams):
    """Joint of (input bits at the retransmitted set, phase-1 receiver view).

    The view is everything the phase-1 receiver holds after phase 1: choice
    bit, announced index-set pair, the retransmitted set, and its own
    observations. The link's hash publications are functions of those
    observations plus public randomness, so they carry no extra information.
    The retransmitted set is drawn inside that receiver's erasures, which the
    enumeration checks branch by branch; the joint therefore factors exactly.
    """
    n, m1, q = tiny.n, tiny.phase1_size, tiny.sprime_size
    pat_num, pat_den = _pattern_law(tiny.p1, n)
    pair_pool = _pair_lcm(n, m1)
    # S' and the free input bits (non-erased plus S') are one uniform draw
    # from C(e - m1, q) * 2^(n - e + q) outcomes
    sp_pool = math.lcm(*(math.comb(e - m1, q) << (n - e + q)
                         for e in range(m1 + q, n - m1 + 1)))

    def items():
        for pattern in range(1 << n):
            e, ebar = _bit_positions(pattern, n)
            ebar_set = set(ebar)
            w_pat = pat_num[len(e)]
            for z1 in (0, 1):
                if len(ebar) < m1 or len(e) < m1:
                    yield ((), ("abort-phase-1",)), w_pat * pair_pool * sp_pool
                    continue
                chosen_pool = list(itertools.combinations(ebar, m1))
                other_pool = list(itertools.combinations(e, m1))
                w_pair = w_pat * (pair_pool // (len(chosen_pool) * len(other_pool)))
                for sc in chosen_pool:
                    for so in other_pool:
                        pair = (sc, so) if z1 == 0 else (so, sc)
                        leftover = [i for i in e if i not in so]
                        if len(leftover) < q:
                            yield ((), (z1, pair, "no-sprime")), w_pair * sp_pool
                            continue
                        sprime_pool = list(itertools.combinations(leftover, q))
                        w_x = w_pair * (sp_pool // (len(sprime_pool) << (len(ebar) + q)))
                        for sp in sprime_pool:
                            assert all(i in e for i in sp)
                            free = list(ebar) + list(sp)
                            for bits in range(1 << len(free)):
                                assign = {pos: (bits >> t) & 1 for t, pos in enumerate(free)}
                                obs = tuple(
                                    assign[i] if i in ebar_set else "e" for i in range(n)
                                )
                                secret = tuple(assign[i] for i in sp)
                                yield (secret, (z1, pair, sp, obs)), w_x

    agg, states = _accumulate(items())
    return agg, states, pat_den * 2 * pair_pool * sp_pool


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
    the joint always sums to one: the numerators sum to the denominator exactly.
    """
    combo = (variant, secret_spec, view_spec)
    if combo not in SUPPORTED_SPECS:
        supported = ", ".join(str(c) for c in SUPPORTED_SPECS)
        raise ValueError(f"unsupported spec {combo}; supported: {supported}")
    _check_budget(tiny, view_spec, budget)
    if view_spec == "announced-sets-1":
        agg, states, denominator = _enum_sets_link(tiny, tiny.p1)
    elif view_spec == "announced-sets-both":
        agg, states, denominator = _enum_sets_both(tiny)
    elif view_spec == "own-receiver-1":
        agg, states, denominator = _enum_message_link1(tiny, pooled=False)
    elif view_spec == "pooled-receivers-1":
        agg, states, denominator = _enum_message_link1(tiny, pooled=True)
    elif view_spec == "first-receiver-phase1":
        agg, states, denominator = _enum_phase1_cross(tiny)
    else:
        agg, states, denominator = _enum_phase2_message(tiny)
    if any(w < 0 for w in agg.values()):
        raise ValueError("enumerated weights must be nonnegative")
    total = sum(agg.values())
    if total != denominator:
        raise ValueError(f"enumerated weights sum to {total}, not the denominator {denominator}")
    return ExactJoint(
        weights=agg,
        denominator=denominator,
        states=states,
        description=f"{variant}: {secret_spec} vs {view_spec} at n={tiny.n}",
        spec=combo,
        tiny=tiny,
    )


def exact_mi(j: ExactJoint):
    """Exact mutual information in bits; exact integer 0 when the joint factors."""
    return mutual_information_of(j.weights.items(), j.denominator)


def exact_mi_given_success(j: ExactJoint):
    """Mutual information conditioned on the protocol completing.

    Abort branches are removed and the remaining mass renormalized. This is
    the right functional when the secret only exists on completed runs (the
    retransmitted-set bits, say); unconditioned MI would mostly measure the
    abort indicator itself.
    """
    completed = j._split[0]
    total = sum(completed.values())
    if total == 0:
        raise ValueError("no completed branches to condition on")
    return mutual_information_of(completed.items(), total)


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
    x_sp = restrict(x, sp)
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
    counts: dict = {}
    for t in range(trials):
        rng = trial_rng(master_seed, t)
        key = _sample_once(exact.tiny, view_spec, rng)
        counts[key] = counts.get(key, 0) + 1
    # one pass over the enumerated cells, then over the sampled cells the
    # enumeration gave no weight; each view's probability sums its cells'
    # probabilities in the joint's cell order
    max_dev = 0.0
    view_probs: dict = {}
    view_counts: dict = {}
    for key, c in exact.weights.items():
        p = c / exact.denominator
        hits = counts.pop(key, 0)
        max_dev = max(max_dev, abs(p - hits / trials))
        view_probs[key[1]] = view_probs.get(key[1], 0.0) + p
        view_counts[key[1]] = view_counts.get(key[1], 0) + hits
    for key, hits in counts.items():
        max_dev = max(max_dev, hits / trials)
        view_probs.setdefault(key[1], 0.0)
        view_counts[key[1]] = view_counts.get(key[1], 0) + hits
    view_dev = max(abs(view_probs[v] - view_counts[v] / trials) for v in view_probs)
    band = math.sqrt(math.log(2 / 0.01) / (2 * trials))
    return {
        "max_deviation": max_dev,
        "view_deviation": view_dev,
        "band": band,
        "trials": trials,
        "within_band": bool(max_dev <= band),
        "cells": len(exact.weights) + len(counts),
    }
