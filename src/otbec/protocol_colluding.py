"""Two-phase protocol variant hardened against receivers who pool their views.

Phase 1 runs a string OT with the designated first receiver over inflated index
sets. The positions that receiver erased (beyond its own announced sets) are
retransmitted in phase 2 and carry the second receiver's OT, so each receiver's
unchosen-message mask lives where the other receiver saw only erasures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol_core import Plan, ProtocolParams, ProtocolRun, check_run_inputs, interpret

__all__ = [
    "VisibilityModel",
    "DEFAULT_VISIBILITY",
    "colluding_steps",
    "run_protocol2",
]

_VISIBILITIES = ("point-to-point", "broadcast-both")


@dataclass(frozen=True)
class VisibilityModel:
    """Who receives each transmission.

    "point-to-point" delivers a phase's block only to the receiver the phase is
    addressed to; "broadcast-both" also delivers the other receiver's copy
    (through its own erasure probability), the physically pessimistic reading.
    """

    phase1: str = "point-to-point"
    phase2: str = "point-to-point"

    def __post_init__(self) -> None:
        for phase in (self.phase1, self.phase2):
            if phase not in _VISIBILITIES:
                raise ValueError(f"unknown visibility {phase!r}")


DEFAULT_VISIBILITY = VisibilityModel()


def colluding_steps(plan: Plan, visibility: VisibilityModel = DEFAULT_VISIBILITY) -> tuple:
    """The two-phase variant's step list: receiver plan.order's link on x, the other's on S'."""
    first, second = plan.order, 3 - plan.order
    return (
        ("transmit", "x", first),
        *((("transmit", "x", second),) if visibility.phase1 == "broadcast-both" else ()),
        ("announce", first, "x", plan.phase1[first - 1]),
        ("rekey", first),
        ("send", first, "x"),
        ("transmit", "sprime", second),
        *((("transmit", "sprime", first),) if visibility.phase2 == "broadcast-both" else ()),
        # indices local to S'
        ("announce", second, "sprime", plan.mask[second - 1]),
        ("send", second, "sprime"),
        ("receive", first), ("receive", second),
    )


def run_protocol2(
    params: ProtocolParams,
    messages,
    z: tuple[int, int],
    rng: np.random.Generator,
    visibility: VisibilityModel = DEFAULT_VISIBILITY,
) -> ProtocolRun:
    """Execute the two-phase variant once.

    messages is ((m10, m11), (m20, m21)), z the two choice bits. The phase-1
    receiver is params.order. A phase-1 abort ends the whole run (phase 2 has
    no input); a phase-2 abort, or a leftover erasure set too small to draw
    S', only loses the second link. When the phase-1 receiver's erasure
    probability is at most 1/2 no leftover set exists and the second link
    reports no-second-phase.
    """
    messages, z = check_run_inputs(params, "colluding", messages, z)
    plan = params.plan()
    return ProtocolRun(params, interpret(plan, colluding_steps(plan, visibility), messages, z, rng))
