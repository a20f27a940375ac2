"""Plain protocol variant: an independent string OT on each broadcast link.

Secure against honest-but-curious receivers that do not share information;
the broadcast block is common to both links, everything else is per-link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import beta, binom

from .channel import broadcast, BroadcastParams
from .protocol_core import (
    AbortSignal,
    ParamError,
    ProtocolParams,
    ProtocolRun,
    _near_int,
    announce_sets,
    check_messages,
    receive_link,
    send_link,
    validate_params,
)

__all__ = [
    "run_protocol1",
    "AbortEstimate",
    "abort_probability",
    "exact_abort_probability",
]


def run_protocol1(
    params: ProtocolParams,
    messages,
    z: tuple[int, int],
    rng: np.random.Generator,
) -> ProtocolRun:
    """Execute the plain variant once.

    messages is ((m10, m11), (m20, m21)) with length-k_i bit vectors, z the two
    choice bits. Randomness is drawn in a fixed documented order (input block,
    observations for receiver 1 then 2, subset pairs for link 1 then 2, hash
    descriptions for link 1 then 2) so a seeded generator replays the run.
    A link that cannot host its index sets aborts publicly; the other link
    proceeds on the same broadcast block.
    """
    validate_params(params)
    if params.variant != "noncolluding":
        raise ParamError("variant", "run_protocol1 executes the noncolluding variant only")
    messages = check_messages(params, messages)
    z = (int(z[0]), int(z[1]))

    x = rng.integers(0, 2, size=params.n, dtype=np.int64).astype(np.uint8)
    y1, y2 = broadcast(x, BroadcastParams(float(params.p1), float(params.p2)), rng)
    observations = {1: y1, 2: y2}

    sets, aborts = {}, {}
    for i in (1, 2):
        try:
            sets[i], _ = announce_sets(observations[i], z[i - 1], params.mask_size(i), rng)
        except AbortSignal as sig:
            aborts[i] = sig

    hashes, commitments, ciphertexts = {}, {}, {}
    for i in sets:
        hashes[i], commitments[i], ciphertexts[i] = send_link(
            x, sets[i], messages[i - 1], params.verify_bits(i), rng)

    outcomes = tuple(
        aborts[i].outcome() if i in aborts else receive_link(
            observations[i], sets[i], z[i - 1], hashes[i], commitments[i], ciphertexts[i],
            messages[i - 1])
        for i in (1, 2)
    )

    record = {
        "x": x, "y1": y1, "y2": y2, "z": z, "messages": messages,
        "sets": sets, "hashes": hashes, "commitments": commitments,
        "ciphertexts": ciphertexts, "aborted": {i: sig.reason for i, sig in aborts.items()},
    }
    return ProtocolRun(params, outcomes, record)


def _clopper_pearson(successes: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    lo = 0.0 if successes == 0 else float(beta.ppf(alpha / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return lo, hi


@dataclass(frozen=True)
class AbortEstimate:
    """Monte Carlo abort-probability estimate with an exact binomial interval."""

    estimate: float
    ci: tuple[float, float]
    trials: int


def abort_probability(
    params: ProtocolParams,
    trials: int,
    rng: np.random.Generator,
    receiver: int = 1,
) -> AbortEstimate:
    """Estimate the probability that one receiver's partition cannot host its index sets.

    Only the broadcast and partition steps matter, so each trial reduces to the
    erasure count, a Binomial(n, p) draw; the abort event is a two-sided tail.
    """
    validate_params(params)
    if receiver not in (1, 2):
        raise ValueError("receiver must be 1 or 2")
    if trials < 1:
        raise ValueError("trials must be positive")
    need = params.mask_size(receiver)
    erased = rng.binomial(params.n, float(params.p(receiver)), size=trials)
    hits = int(((erased < need) | (params.n - erased < need)).sum())
    return AbortEstimate(hits / trials, _clopper_pearson(hits, trials), trials)


def exact_abort_probability(n: int, p: float, r) -> float:
    """Exact abort probability: a two-sided Binomial(n, p) tail.

    The partition aborts when fewer than r*n positions are erased or fewer than
    r*n are intact, so the survival region is r*n <= |E| <= n - r*n.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParamError("block length", f"n must be a positive integer, got {n}")
    if not 0 <= float(p) <= 1:
        raise ParamError("erasure probability", f"p = {p} not in [0, 1]")
    need = _near_int(float(r) * n)
    if need is None or need < 1:
        raise ParamError("set size integrality", f"r*n = {float(r) * n} is not a positive integer")
    if need > n:
        return 1.0
    inside = binom.cdf(n - need, n, float(p)) - binom.cdf(need - 1, n, float(p))
    return float(min(1.0, max(0.0, 1.0 - inside)))
