"""Plain protocol variant: an independent string OT on each broadcast link.

Secure against honest-but-curious receivers that do not share information;
the broadcast block is common to both links, everything else is per-link.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import transmit_bec
from .protocol_core import (
    AbortSignal,
    ParamError,
    ProtocolParams,
    ProtocolRun,
    as_fraction,
    announce_sets,
    check_run_inputs,
    receive_link,
    send_link,
)

__all__ = [
    "run_protocol1",
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
    messages, z = check_run_inputs(params, "noncolluding", messages, z)

    x = rng.integers(0, 2, size=params.n, dtype=np.int64).astype(np.uint8)
    observations = {i: transmit_bec(x, float(params.p(i)), rng) for i in (1, 2)}

    sets, aborts = {}, {}
    for i in (1, 2):
        try:
            sets[i], _ = announce_sets(observations[i], z[i - 1], params.mask_size(i), rng)
        except AbortSignal as sig:
            # the outcome, not the signal: its traceback would keep the caller's frames alive
            aborts[i] = sig.outcome()

    hashes, commitments, ciphertexts = {}, {}, {}
    for i in sets:
        hashes[i], commitments[i], ciphertexts[i] = send_link(
            x, sets[i], messages[i - 1], params.verify_bits(i), rng)

    outcomes = tuple(
        aborts[i] if i in aborts else receive_link(
            observations[i], sets[i], z[i - 1], hashes[i], commitments[i], ciphertexts[i],
            messages[i - 1])
        for i in (1, 2)
    )

    # the two-phase record's layout: this variant has no phase order and no S'
    record = {
        "x": x, "z": z, "messages": messages, "order": None,
        "y_phase1": observations, "sprime": None, "x_sprime": None,
        "y_phase2": {1: None, 2: None},
        "sets": sets, "hashes": hashes, "commitments": commitments,
        "ciphertexts": ciphertexts,
        "aborted": {i: out.diagnostics["reason"] for i, out in aborts.items()},
    }
    return ProtocolRun(params, outcomes, record)


def exact_abort_probability(n: int, p: float, r) -> float:
    """Exact abort probability: a two-sided Binomial(n, p) tail.

    The partition aborts when fewer than r*n positions are erased or fewer than
    r*n are intact, so the survival region is r*n <= |E| <= n - r*n. Both tails
    are summed in integers on the exact p = a/b (0.3 is 3/10); the division by
    b^n is the one rounding.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParamError("block length", f"n must be a positive integer, got {n}")
    exact_p = as_fraction(p)
    if not 0 <= exact_p <= 1:
        raise ParamError("erasure probability", f"p = {p} not in [0, 1]")
    need = as_fraction(r) * n
    if need.denominator != 1 or need < 1:
        raise ParamError("set size integrality", f"r*n = {float(need)} is not a positive integer")
    need = need.numerator
    if 2 * need > n:  # the two tails cover every count
        return 1.0
    a, b = exact_p.numerator, exact_p.denominator
    counts = (*range(need), *range(n - need + 1, n + 1))
    return sum(math.comb(n, j) * a**j * (b - a) ** (n - j) for j in counts) / b**n
