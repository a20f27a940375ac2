"""Plain protocol variant: an independent string OT on each broadcast link.

Secure against honest-but-curious receivers that do not share information;
the broadcast block is common to both links, everything else is per-link.
"""

from __future__ import annotations

import math

import numpy as np

from .protocol_core import (
    ParamError,
    Plan,
    ProtocolParams,
    ProtocolRun,
    as_fraction,
    check_run_inputs,
    interpret,
)

__all__ = [
    "noncolluding_steps",
    "run_protocol1",
    "exact_abort_probability",
]


def noncolluding_steps(plan: Plan) -> tuple:
    """The plain variant's step list: both links on the one broadcast block."""
    return (
        ("transmit", "x", 1), ("transmit", "x", 2),
        ("announce", 1, "x", plan.mask[0]), ("announce", 2, "x", plan.mask[1]),
        ("send", 1, "x"), ("send", 2, "x"),
        ("receive", 1), ("receive", 2),
    )


def run_protocol1(
    params: ProtocolParams,
    messages,
    z: tuple[int, int],
    rng: np.random.Generator,
) -> ProtocolRun:
    """Execute the plain variant once.

    messages is ((m10, m11), (m20, m21)) with length-k_i bit vectors, z the two
    choice bits. A link that cannot host its index sets aborts publicly; the
    other link proceeds on the same broadcast block.
    """
    messages, z = check_run_inputs(params, "noncolluding", messages, z)
    plan = params.plan()
    return ProtocolRun(params, interpret(plan, noncolluding_steps(plan), messages, z, rng))


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
