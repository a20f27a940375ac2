"""Two-phase protocol variant hardened against receivers who pool their views.

Phase 1 runs a string OT with the designated first receiver over inflated index
sets. The positions that receiver erased (beyond its own announced sets) are
retransmitted in phase 2 and carry the second receiver's OT, so each receiver's
unchosen-message mask lives where the other receiver saw only erasures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ERASED, compose_index_sets, restrict, transmit_bec
from .protocol_core import (
    AbortSignal,
    OtCode,
    ParamError,
    ProtocolParams,
    ProtocolRun,
    announce_sets,
    check_messages,
    draw_sprime,
    receive_link,
    send_link,
    validate_params,
)

__all__ = [
    "VisibilityModel",
    "DEFAULT_VISIBILITY",
    "run_protocol2",
    "collusion_mask_accounting",
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


def run_protocol2(
    params: ProtocolParams,
    messages,
    z: tuple[int, int],
    rng: np.random.Generator,
    visibility: VisibilityModel = DEFAULT_VISIBILITY,
) -> ProtocolRun:
    """Execute the two-phase variant once.

    messages is ((m10, m11), (m20, m21)), z the two choice bits. The phase-1
    receiver is params.order. Randomness order: input block, phase-1
    observations (addressee first), phase-1 subset draws, the S' draw, phase-1
    hash draws, phase-2 observations (addressee first), phase-2 subset draws,
    phase-2 hash draws. A phase-1 abort ends the whole run (phase 2 has no
    input); a phase-2 abort, or a leftover erasure set too small to draw S',
    only loses the second link. When the phase-1 receiver's erasure
    probability is at most 1/2 no leftover set exists and the second link
    reports no-second-phase.
    """
    validate_params(params)
    if params.variant != "colluding":
        raise ParamError("variant", "run_protocol2 executes the colluding variant only")
    messages = check_messages(params, messages)
    z = (int(z[0]), int(z[1]))
    # phase 2 may never run, so its receiver's bit is checked here, not by select_subsets
    if any(bit not in (0, 1) for bit in z):
        raise ValueError("choice bit must be 0 or 1")
    first = params.order
    second = 3 - first

    x = rng.integers(0, 2, size=params.n, dtype=np.int64).astype(np.uint8)
    y_first = transmit_bec(x, float(params.p(first)), rng)
    y_second_phase1 = (
        transmit_bec(x, float(params.p(second)), rng)
        if visibility.phase1 == "broadcast-both" else None
    )

    sets, hashes, commitments, ciphertexts = {}, {}, {}, {}
    aborts: dict[int, AbortSignal] = {}
    sprime = x_sprime = w_second = w_first = None

    try:
        sets[first], e = announce_sets(y_first, z[first - 1], params.phase1_size(first), rng)
    except AbortSignal as sig:
        aborts[first] = sig
        aborts[second] = AbortSignal(OtCode.UPSTREAM_ABORT, f"phase-1 abort upstream: {sig.reason}")
    else:
        target = params.sprime_size()
        if target == 0:
            aborts[second] = AbortSignal(OtCode.NO_SECOND_PHASE,
                                         "no leftover erasure set, second link cannot run")
        else:
            try:
                sprime = draw_sprime(e, sets[first][1 - z[first - 1]], target, rng)
            except AbortSignal as sig:
                aborts[second] = sig
        hashes[first], commitments[first], ciphertexts[first] = send_link(
            x, sets[first], messages[first - 1], params.verify_bits(first), rng)

        if sprime is not None:
            x_sprime = restrict(x, sprime).astype(np.uint8)
            w_second = transmit_bec(x_sprime, float(params.p(second)), rng)
            w_first = (
                transmit_bec(x_sprime, float(params.p(first)), rng)
                if visibility.phase2 == "broadcast-both" else None
            )
            try:
                # indices local to S'
                sets[second], _ = announce_sets(w_second, z[second - 1], params.mask_size(second), rng)
            except AbortSignal as sig:
                aborts[second] = sig
            else:
                hashes[second], commitments[second], ciphertexts[second] = send_link(
                    x_sprime, sets[second], messages[second - 1], params.verify_bits(second), rng)

    observed = {first: y_first, second: w_second}
    outcomes = tuple(
        aborts[i].outcome() if i in aborts else receive_link(
            observed[i], sets[i], z[i - 1], hashes[i], commitments[i], ciphertexts[i],
            messages[i - 1])
        for i in (1, 2)
    )

    record = {
        "x": x, "z": z, "messages": messages, "order": first,
        "y_phase1": {first: y_first, second: y_second_phase1},
        "sprime": sprime, "x_sprime": x_sprime,
        "y_phase2": {first: w_first, second: w_second},
        "sets": sets, "hashes": hashes, "commitments": commitments,
        "ciphertexts": ciphertexts, "aborted": {i: sig.reason for i, sig in aborts.items()},
        "visibility": visibility,
    }
    return ProtocolRun(params, outcomes, record)


def _known_positions(y: np.ndarray | None, positions: np.ndarray) -> int:
    if y is None or positions.size == 0:
        return 0
    return int((restrict(y, positions) != ERASED).sum())


def collusion_mask_accounting(run: ProtocolRun) -> dict:
    """Count, per link and label, the mask positions the opposite receiver observed.

    The owner of a link reads its chosen set directly; this measures what
    pooling adds: non-erased observations of the link's index sets held by the
    other receiver, across both phases. Also checks that the retransmitted set
    lies inside the phase-1 receiver's erasures.
    """
    rec = run.record
    first = rec["order"]
    second = 3 - first
    out: dict = {"per_link": {}, "sprime_inside_phase1_erasures": None}
    sprime = rec["sprime"]
    if sprime is not None:
        y1 = rec["y_phase1"][first]
        out["sprime_inside_phase1_erasures"] = bool((restrict(y1, sprime) == ERASED).all())
    if first in rec["sets"]:
        y_other = rec["y_phase1"][second]
        out["per_link"][first] = {
            j: _known_positions(y_other, rec["sets"][first][j]) for j in (0, 1)
        }
    if second in rec["sets"]:
        counts = {}
        for j in (0, 1):
            local = rec["sets"][second][j]
            global_positions = compose_index_sets(sprime, local)
            seen = _known_positions(rec["y_phase2"][first], local)
            seen += _known_positions(rec["y_phase1"][first], global_positions)
            counts[j] = seen
        out["per_link"][second] = counts
    return out
