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
numerators and their denominator. An instance is a `protocol_core.Plan` that
`tiny_plan` builds from counts, reading a float probability as the decimal its
repr prints (0.3 is 3/10), so every joint is exact. The Monte Carlo
cross-check samples it through the executors' own step lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .channel import ERASED, trial_rng
from .entropy import mutual_information_of
from .protocol_colluding import colluding_steps
from .protocol_core import Plan, as_fraction, draw_inputs, interpret, key_positions, knowledge
from .protocol_noncolluding import noncolluding_steps

__all__ = [
    "BudgetError",
    "tiny_plan",
    "ExactJoint",
    "Spec",
    "SPECS",
    "enumerate_protocol",
    "exact_mi",
    "exact_mi_given_success",
    "sample_cells",
    "compare_cells",
    "oracle_vs_montecarlo",
]


# Hard limits checked before any enumeration starts.
MAX_N = 8
MAX_SET_SIZE = 2
MAX_HASH_IN = 4
MAX_HASH_OUT = 2
MAX_STATES = 10**9


class BudgetError(Exception):
    """Enumeration rejected up front; .estimate is the weighted-state count (None for a size limit)."""

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message if estimate is None else f"{message} (estimated states: {estimate})")
        self.message = message
        self.estimate = estimate

    def __reduce__(self):
        """Pickle by the fields, which rebuild the text: a worker process sends it back."""
        return type(self), (self.message, self.estimate)


def tiny_plan(n: int, p1, p2, set_size: int = 1, key_bits: int = 1, phase1_size: int = 1,
              sprime_size: int = 2) -> Plan:
    """The plan of an oracle instance from counts: receiver 1 first, both links alike.

    Counts, not rates: the strict rate constraints have no room at these block
    lengths (a one-bit key over a one-position set would force the slack to
    zero). p1 and p2 are read by `as_fraction`. No view holds a commitment, so
    the verification hashes output one bit.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("n must be a positive integer")
    for p in (p1, p2):
        if not 0 <= as_fraction(p) <= 1:
            raise ValueError(f"erasure probability {p} not in [0, 1]")
    for name, count in (("set_size", set_size), ("key_bits", key_bits),
                        ("phase1_size", phase1_size), ("sprime_size", sprime_size)):
        if count < 1:
            raise ValueError(f"{name} must be positive")
    return Plan(n=n, p1=as_fraction(p1), p2=as_fraction(p2), order=1, mask=(set_size,) * 2,
                key=(key_bits,) * 2, verify=(1, 1), phase1=(phase1_size,) * 2, sprime=sprime_size)


@dataclass(frozen=True)
class ExactJoint:
    """Exact joint law of (secret, view features) plus enumeration metadata.

    weights maps each (secret, view) cell to its integer numerator over the
    common integer denominator, in the enumerator's first-insertion order,
    which every float sum over the cells follows. Readers walk weights in
    place and keep no copy of it, so a joint costs its own cells only;
    abort_mass sums the abort cells' numerators once, as a Fraction. spec
    (the SPECS name) and plan name what was enumerated; both are None for a
    hand-built joint.
    """

    weights: dict
    denominator: int
    states: int
    description: str
    spec: str | None
    plan: Plan | None

    @cached_property
    def abort_mass(self) -> Fraction:
        """Probability that the protocol aborts (any view carrying an abort marker)."""
        aborted = sum(w for key, w in self.weights.items() if _has_abort(key[1]))
        return Fraction(aborted, self.denominator)


class _Completed:
    """A joint's cells without its abort cells, walked in place on every iteration."""

    def __init__(self, weights: dict):
        self.weights = weights

    def __iter__(self):
        return ((key, w) for key, w in self.weights.items() if not _has_abort(key[1]))


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


def _kappa_image(rows: tuple, x: int) -> int:
    """kappa(x) as a packed int: bit t is the parity of packed row t AND packed x."""
    return sum((bin(row & x).count("1") & 1) << t for t, row in enumerate(rows))


def _has_abort(view) -> bool:
    """Whether a view records an abort.

    The enumerators put a marker only at the view's top level: a marker view
    ("abort",), a trailing "no-sprime", or, for a pair of per-link views, a
    marker view as one of the pair. So only the top-level parts are looked up.
    """
    if isinstance(view, tuple):
        return not _ABORT_PARTS.isdisjoint(view)
    return view in _ABORT_PARTS


def _check_budget(plan: Plan, spec: Spec) -> None:
    """Refuse an instance over a size limit, then one over MAX_STATES: the estimate is
    bounded only within the limits, and outside them may take too long to work out or print."""
    if plan.n > MAX_N:
        raise BudgetError(f"n = {plan.n} exceeds budget n <= {MAX_N}")
    sizes = list(plan.mask)
    if spec.variant == "colluding":  # the two-phase specs also draw a phase-1 pair and S'
        sizes.append(plan.phase1[0])
        if plan.sprime > MAX_HASH_IN:
            raise BudgetError(f"sprime_size = {plan.sprime} exceeds budget {MAX_HASH_IN}")
    # a set size within MAX_SET_SIZE is within MAX_HASH_IN, so it needs no hash-input check
    for size in sizes:
        if size > MAX_SET_SIZE:
            raise BudgetError(f"set size {size} exceeds budget {MAX_SET_SIZE}")
    if max(plan.key) > MAX_HASH_OUT:
        raise BudgetError(f"hash output {max(plan.key)} exceeds budget {MAX_HASH_OUT}")
    estimate = spec.states(plan)
    if estimate > MAX_STATES:
        raise BudgetError("state estimate exceeds budget", estimate)


def _link_structures(n: int, p: Fraction, size: int):
    """(denominator, iterator of (z, announced pair or abort marker, numerator, e, ebar)) for one link.

    e and ebar list the erasure pattern's erased and kept positions. The
    denominator is b^n for the pattern, 2 for z and the pair-pool lcm.
    """
    pattern_num, pattern_den = _pattern_law(p, n)
    pool = _pair_lcm(n, size)

    def items():
        for pattern in range(1 << n):
            e, ebar = _bit_positions(pattern, n)
            w_pat = pattern_num[len(e)]
            for z in (0, 1):
                if len(ebar) < size or len(e) < size:
                    yield z, ("abort",), w_pat * pool, e, ebar
                    continue
                chosen_pool = list(itertools.combinations(ebar, size))
                other_pool = list(itertools.combinations(e, size))
                w_sub = w_pat * (pool // (len(chosen_pool) * len(other_pool)))
                for sc in chosen_pool:
                    for so in other_pool:
                        pair = (sc, so) if z == 0 else (so, sc)
                        yield z, pair, w_sub, e, ebar

    return pattern_den * 2 * pool, items()


def _accumulate(items) -> tuple[dict, int]:
    agg: dict = {}
    states = 0
    for key, w in items:
        states += 1
        agg[key] = agg.get(key, 0) + w
    return agg, states


def _enum_sets_link(plan: Plan, i: int):
    denominator, structures = _link_structures(plan.n, plan.p(i), plan.mask[i - 1])
    agg, states = _accumulate(((z, pair), w) for z, pair, w, _, _ in structures)
    return agg, states, denominator


# the four choice-bit pairs, one tuple each for every cell that holds one
_Z_PAIRS = (((0, 0), (0, 1)), ((1, 0), (1, 1)))


def _enum_sets_both(plan: Plan):
    agg1, st1, d1 = _enum_sets_link(plan, 1)
    agg2, st2, d2 = _enum_sets_link(plan, 2)
    # each (link-1 cell, link-2 cell) product is a cell of its own
    agg = {(_Z_PAIRS[z1][z2], (v1, v2)): w1 * w2
           for (z1, v1), w1 in agg1.items() for (z2, v2), w2 in agg2.items()}
    return agg, st1 + st2 + len(agg1) * len(agg2), d1 * d2


def _message_cells(s: int, k: int, x: int, head: tuple, tail: tuple, w: int):
    """Every (message, view) cell of a published link's unchosen label, each of weight w.

    x holds the input bits at the unchosen set, in set order; the view is head,
    the uniform hash matrix kappa, the ciphertext m xor kappa(x), then tail.
    Messages, ciphertexts and kappa rows are packed ints (bit t = entry t).
    """
    for rows in itertools.product(range(1 << s), repeat=k):
        kappa = ("kappa", rows)
        kx = _kappa_image(rows, x)
        for m in range(1 << k):
            yield (m, (*head, kappa, m ^ kx, *tail)), w


def _abort_cells(k: int, view: tuple, w: int):
    """Every message under an abort view, each of weight w: nothing was published."""
    for m in range(1 << k):
        yield (m, view), w


def _enum_message_link1(plan: Plan, pooled: bool):
    """Joint of (unchosen message, view) for link 1.

    The view holds the receiver's choice bit, the announced pair, the unchosen
    key hash, and the unchosen ciphertext; pooling adds the other receiver's
    erasure-limited look at the unchosen key material ("e" marks an erasure).

    What follows the announced pair does not depend on it, so those cells are
    tallied once, as (message, view suffix) numerators, and each announced
    (choice bit, pair) scales them by its summed weight over the erasure
    patterns that announce it. Cells keep the order in which a walk over every
    realization first meets them, and the states count every realization.
    """
    n, s, k = plan.n, plan.mask[0], plan.key[0]
    link_den, structures = _link_structures(n, plan.p1, s)
    # the second receiver's look at the unchosen set: a p2 pattern over s positions
    y_num, y_den = _pattern_law(plan.p2, s) if pooled else ([1], 1)
    # input bits at the unchosen set, matrix entries and message are uniform;
    # an aborted link draws only the message
    uniform_bits = s + s * k + k

    def realizations():
        for x in range(1 << s):  # input bits at the unchosen set, in set order
            looks = [
                ((tuple("e" if (ypat >> t) & 1 else (x >> t) & 1 for t in range(s)),),
                 y_num[bin(ypat).count("1")])
                for ypat in range(1 << s)
            ] if pooled else [((), 1)]
            for tail, w_y in looks:
                yield from _message_cells(s, k, x, (), tail, w_y)

    # (message, index of what its view holds after the pair) numerators under one pair
    suffixes: dict = {}
    cells, per_pair = _accumulate(((m, suffixes.setdefault(suffix, len(suffixes))), w)
                                  for (m, suffix), w in realizations())
    suffixes = list(suffixes)
    numerators = set(cells.values())
    # the summed weight of each announced (choice bit, pair), or of the abort
    # marker, in the order the patterns first announce it
    announced: dict = {}
    states = 0
    for z, pair, w, _, _ in structures:
        key = pair if pair == ("abort",) else (z, pair)
        announced[key] = announced.get(key, 0) + w
        states += (1 << k) if pair == ("abort",) else per_pair
    agg: dict = {}
    for key, w in announced.items():
        if key == ("abort",):
            agg.update(_abort_cells(k, key, (w * y_den) << (s + s * k)))
            continue
        views = [(*key, *suffix) for suffix in suffixes]
        scaled = {c: w * c for c in numerators}  # one int per distinct numerator
        agg.update(((m, views[t]), scaled[c]) for (m, t), c in cells.items())
    return agg, states, (link_den * y_den) << uniform_bits


def _enum_phase2_message(plan: Plan):
    """Joint of (unchosen message, view) for the second link of the two-phase
    variant under point-to-point visibility.

    The phase-1 receiver's chosen-set draw is marginalized out (the view never
    references it); the retransmitted positions are checked to lie inside that
    receiver's erasures, so its contribution to the pooled view is the constant
    all-erased symbol.
    """
    n, m1, q = plan.n, plan.phase1[0], plan.sprime
    s, k = plan.mask[1], plan.key[1]
    pat1_num, pat1_den = _pattern_law(plan.p1, n)
    # phase 2 is one link over the q retransmitted positions, walked once per S' and input
    link2_den, link2 = _link_structures(q, plan.p2, s)
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
                            for z2, pair2, w2, _, _ in link2:
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


def _enum_phase1_cross(plan: Plan):
    """Joint of (input bits at the retransmitted set, phase-1 receiver view).

    The view is everything the phase-1 receiver holds after phase 1: choice
    bit, announced index-set pair, the retransmitted set, and its own
    observations. The link's hash publications are functions of those
    observations plus public randomness, so they carry no extra information.
    The retransmitted set is drawn inside that receiver's erasures, which the
    enumeration checks branch by branch; the joint therefore factors exactly.
    """
    n, m1, q = plan.n, plan.phase1[0], plan.sprime
    link_den, structures = _link_structures(n, plan.p1, m1)
    # S' and the free input bits (non-erased plus S') are one uniform draw
    # from C(e - m1, q) * 2^(n - e + q) outcomes
    sp_pool = math.lcm(*(math.comb(e - m1, q) << (n - e + q)
                         for e in range(m1 + q, n - m1 + 1)))

    def items():
        for z1, pair, w_pair, e, ebar in structures:
            if pair == ("abort",):
                yield ((), ("abort-phase-1",)), w_pair * sp_pool
                continue
            leftover = [i for i in e if i not in pair[1 - z1]]
            if len(leftover) < q:
                yield ((), (z1, pair, "no-sprime")), w_pair * sp_pool
                continue
            sprime_pool = list(itertools.combinations(leftover, q))
            w_x = w_pair * (sp_pool // (len(sprime_pool) << (len(ebar) + q)))
            ebar_set = set(ebar)
            for sp in sprime_pool:
                assert all(i in e for i in sp)
                free = ebar + list(sp)
                for bits in range(1 << len(free)):
                    assign = {pos: (bits >> t) & 1 for t, pos in enumerate(free)}
                    obs = tuple(assign[i] if i in ebar_set else "e" for i in range(n))
                    secret = tuple(assign[i] for i in sp)
                    yield (secret, (z1, pair, sp, obs)), w_x

    agg, states = _accumulate(items())
    return agg, states, link_den * sp_pool


def _packed(bits) -> int:
    """The 0/1 vector as one int, bit t = entry t: the enumerator's form of a bit string."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _obs_symbol(values) -> tuple:
    return tuple("e" if int(v) == ERASED else int(v) for v in values)


# Features: a record's (secret, view) cell as the enumerators write it. Receiver 1
# goes first, so link 2 runs on S'; what the record lacks tells where the run stopped.
def _pair_view(record: dict, i: int) -> tuple:
    """Link i's announced pair as index tuples, or the abort marker view."""
    pair = record["sets"].get(i)
    return ("abort",) if pair is None else (tuple(pair[0].tolist()), tuple(pair[1].tolist()))


def _unchosen(record: dict, i: int) -> tuple:
    """Link i's unchosen message, packed, and the unchosen label u."""
    u = 1 - record["z"][i - 1]
    return _packed(record["messages"][i - 1][u]), u


def _published(record: dict, i: int, u: int) -> tuple:
    """Link i's label-u kappa rows and ciphertext, packed."""
    rows = tuple(_packed(row) for row in record["hashes"][i]["kappa"][u].matrix)
    return ("kappa", rows), _packed(record["ciphertexts"][i][u])


def _message_link1_features(record: dict, pooled: bool) -> tuple:
    secret, u = _unchosen(record, 1)
    if 1 not in record["sets"]:
        return secret, ("abort",)
    view = (record["z"][0], _pair_view(record, 1), *_published(record, 1, u))
    if pooled:  # the other receiver's look at the unchosen set
        view += (_obs_symbol(knowledge(record)[1][key_positions(record, 1)[u]]),)
    return secret, view


def _phase2_message_features(record: dict) -> tuple:
    secret, u = _unchosen(record, 2)
    if 1 not in record["sets"]:
        return secret, ("abort-phase-1",)
    sprime = record["sprime"]
    if sprime is None:
        return secret, ("no-sprime",)
    if 2 not in record["sets"]:
        return secret, ("abort-phase-2",)
    # the phase-1 receiver's look at the unchosen set
    look = _obs_symbol(knowledge(record)[0][key_positions(record, 2)[u]])
    return secret, (record["z"][1], tuple(sprime.tolist()), _pair_view(record, 2),
                    *_published(record, 2, u), look)


def _phase1_cross_features(record: dict) -> tuple:
    if 1 not in record["sets"]:
        return (), ("abort-phase-1",)
    z = record["z"][0]
    if record["sprime"] is None:
        return (), (z, _pair_view(record, 1), "no-sprime")
    sprime, obs = tuple(record["sprime"].tolist()), _obs_symbol(knowledge(record)[0])
    return tuple(record["x_sprime"].tolist()), (z, _pair_view(record, 1), sprime, obs)


class Spec(NamedTuple):
    """One oracle spec: variant, (secret, view) names, the enumerator of its joint's (weights,
    states, denominator), the state estimate the budget checks after the sizes, the (kind, link)
    of the last step of the variant's step list its view reads, and (secret, view) =
    features(record)."""

    variant: str
    secret: str
    view: str
    enumerate: Callable
    states: Callable
    last: tuple
    features: Callable


def _sets_states(n: int, size: int) -> int:
    """Estimated states of one link's announced sets: erasure pattern, choice bit, pair."""
    return (1 << n) * 2 * math.comb(n, size) ** 2


def _published_states(t: Plan, i: int, before: int, free_bits: int) -> int:
    """before states, times published link i's free input and look bits, matrix and message."""
    return before << (free_bits + t.mask[i - 1] * t.key[i - 1] + t.key[i - 1])


def _phase2_states(t: Plan) -> int:
    # phase-1 pattern, z1, unchosen set and S', then the link over S' with its input bits
    before = (1 << t.n) * 2 * math.comb(t.n, t.phase1[0]) * math.comb(t.n, t.sprime)
    return _published_states(t, 2, before * _sets_states(t.sprime, t.mask[1]), t.sprime)


def _phase1_states(t: Plan) -> int:
    # the free input bits (non-erased plus S') never exceed n
    return _sets_states(t.n, t.phase1[0]) * math.comb(t.n, t.sprime) << t.n


# every declared spec by its CLI name
SPECS = {
    "choice-vs-sets": Spec(
        "noncolluding", "z1", "announced-sets-1",
        lambda t: _enum_sets_link(t, 1), lambda t: _sets_states(t.n, t.mask[0]),
        ("announce", 1), lambda r: (r["z"][0], _pair_view(r, 1))),
    "choice-pair-vs-sets": Spec(
        "noncolluding", "z-pair", "announced-sets-both",
        _enum_sets_both, lambda t: _sets_states(t.n, t.mask[0]) + _sets_states(t.n, t.mask[1]),
        ("announce", 2), lambda r: (r["z"], (_pair_view(r, 1), _pair_view(r, 2)))),
    "unchosen-vs-own": Spec(
        "noncolluding", "m1-unchosen", "own-receiver-1", lambda t: _enum_message_link1(t, False),
        lambda t: _published_states(t, 1, _sets_states(t.n, t.mask[0]), t.mask[0]),
        ("send", 1), lambda r: _message_link1_features(r, False)),
    "unchosen-vs-pooled": Spec(
        "noncolluding", "m1-unchosen", "pooled-receivers-1", lambda t: _enum_message_link1(t, True),
        lambda t: _published_states(t, 1, _sets_states(t.n, t.mask[0]), 2 * t.mask[0]),
        ("send", 1), lambda r: _message_link1_features(r, True)),
    "phase2-unchosen-vs-pooled": Spec(
        "colluding", "m2-unchosen", "pooled-receivers-2-phase2",
        _enum_phase2_message, _phase2_states, ("send", 2), _phase2_message_features),
    "phase1-cross-knowledge": Spec(
        "colluding", "x-sprime", "first-receiver-phase1", _enum_phase1_cross, _phase1_states,
        ("rekey", 1), _phase1_cross_features),
}


def enumerate_protocol(name: str, plan: Plan) -> ExactJoint:
    """Build the exact (secret, view) joint of the SPECS entry `name`.

    Every realization is weighted by the product of its uniform input bits,
    erasure probabilities, uniform subset draws, uniform matrix entries, and
    uniform messages; abort realizations keep their mass under marker views, so
    the joint always sums to one: the numerators sum to the denominator exactly.
    """
    if name not in SPECS:
        raise ValueError(f"unknown spec {name!r}; known: {', '.join(SPECS)}")
    spec = SPECS[name]
    _check_budget(plan, spec)
    agg, states, denominator = spec.enumerate(plan)
    if any(w < 0 for w in agg.values()):
        raise ValueError("enumerated weights must be nonnegative")
    total = sum(agg.values())
    if total != denominator:
        raise ValueError(f"enumerated weights sum to {total}, not the denominator {denominator}")
    return ExactJoint(
        weights=agg,
        denominator=denominator,
        states=states,
        description=f"{spec.variant}: {spec.secret} vs {spec.view} at n={plan.n}",
        spec=name,
        plan=plan,
    )


def exact_mi(j: ExactJoint):
    """Exact mutual information in bits; exact integer 0 when the joint factors."""
    return mutual_information_of(j.weights.items(), j.denominator)


def exact_mi_given_success(j: ExactJoint):
    """Mutual information conditioned on the protocol completing.

    Abort branches are removed and the remaining mass renormalized. This is
    the right functional when the secret only exists on completed runs (the
    retransmitted-set bits, say); unconditioned MI would mostly measure the
    abort indicator itself. The completed cells are walked in place in the
    joint, not copied.
    """
    completed = _Completed(j.weights)
    total = sum(w for _, w in completed)
    if total == 0:
        raise ValueError("no completed branches to condition on")
    return mutual_information_of(completed, total)


def sample_cells(names, plan: Plan, trials: int, master_seed: int = 0) -> dict:
    """{name: {(secret, view) cell: trials that landed in it}} for specs of one variant.

    Trial t draws from trial_rng(master_seed, t) the inputs generate_runs draws
    (`draw_inputs`) and interprets the variant's step list, the one
    run_protocol1 or run_protocol2 runs (the latter point-to-point), through
    the deepest `last` step among the named specs. Every named spec's features
    are read off that one record. A view reads only what its last step formed,
    and a step's draws come after those of the steps before it, so each spec
    gets the cells it would get from a pass through its own last step alone.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    specs = {name: SPECS[name] for name in names}
    variants = {spec.variant for spec in specs.values()}
    if len(variants) != 1:
        raise ValueError(f"one pass samples specs of one variant, got {sorted(variants)}")
    (variant,) = variants
    steps = (noncolluding_steps if variant == "noncolluding" else colluding_steps)(plan)
    kinds = [step[:2] for step in steps]
    steps = steps[:1 + max(kinds.index(spec.last) for spec in specs.values())]
    tallies = {name: {} for name in specs}
    for t in range(trials):
        rng = trial_rng(master_seed, t)
        messages, z = draw_inputs(plan, rng)
        record = interpret(plan, steps, messages, z, rng)
        for name, spec in specs.items():
            key = spec.features(record)
            tallies[name][key] = tallies[name].get(key, 0) + 1
    return tallies


def compare_cells(exact: ExactJoint, counts: dict) -> dict:
    """Compare an enumerated joint against the sampled cells of its spec (`sample_cells`).

    Returns the maximum absolute deviation between exact probabilities and
    empirical frequencies over all (secret, view) cells, with the uniform 99%
    concentration band sqrt(ln(2/0.01) / (2 trials)), trials being the sum of
    counts. view_deviation is the same comparison on the view marginal alone;
    it collapses to exactly 0 in deterministic sub-cases (p = 0) where the
    secret coin still fluctuates. outside_support counts the trials that
    landed in a cell the enumeration gives no mass, which a correct sampler
    never does; within_band needs it to be 0. counts is read, not changed.
    """
    trials = sum(counts.values())
    # hits by view, over the sampled cells only: a view never sampled has none
    view_counts: dict = {}
    for key, hits in counts.items():
        view_counts[key[1]] = view_counts.get(key[1], 0) + hits
    # one pass over the enumerated cells, then over the sampled cells the
    # enumeration gave no weight; each view's probability sums its cells'
    # probabilities in the joint's cell order
    max_dev = 0.0
    outside = 0
    view_probs: dict = {}
    for key, c in exact.weights.items():
        p = c / exact.denominator
        hits = counts.get(key, 0)
        if c == 0:
            outside += hits
        max_dev = max(max_dev, abs(p - hits / trials))
        view_probs[key[1]] = view_probs.get(key[1], 0.0) + p
    unseen = 0
    for key, hits in counts.items():
        if key not in exact.weights:
            unseen += 1
            outside += hits
            max_dev = max(max_dev, hits / trials)
            view_probs.setdefault(key[1], 0.0)
    view_dev = max(abs(p - view_counts.get(v, 0) / trials) for v, p in view_probs.items())
    band = math.sqrt(math.log(2 / 0.01) / (2 * trials))
    return {
        "max_deviation": max_dev,
        "view_deviation": view_dev,
        "band": band,
        "trials": trials,
        "outside_support": outside,
        "within_band": bool(max_dev <= band and outside == 0),
        "cells": len(exact.weights) + unseen,
    }


def oracle_vs_montecarlo(exact: ExactJoint, trials: int, master_seed: int = 0) -> dict:
    """Compare an enumerated joint against trials of the executors' own step lists.

    The two halves for one spec: `sample_cells` over the joint's spec alone,
    through its own last step, then `compare_cells`, which says what the
    returned fields mean. A caller with several specs of one variant samples
    them in one pass and compares each.
    """
    if exact.spec is None:
        raise ValueError("the joint has no enumerated spec to sample")
    counts = sample_cells([exact.spec], exact.plan, trials, master_seed)[exact.spec]
    return compare_cells(exact, counts)
