"""Honest-but-curious analysis harness.

Security is audited by explicit attacks and by plug-in mutual information on
declared view features, never by asserting asymptotic statements directly at
finite block length. Feature maps are fixed and versioned (v1): known-mask-bit
counts, set-overlap statistics, abort flags, and leading ciphertext bits.
Coarsening only discards information, so a detected dependence is real while
the estimate lower-bounds the full-view quantity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._stats import chi2_ppf, clopper_pearson
from .channel import ERASED, trial_rng
from .entropy import mutual_information_of
from .hashing import apply
from .protocol_core import ProtocolParams, ProtocolRun
from .protocol_colluding import VisibilityModel, DEFAULT_VISIBILITY, run_protocol2
from .protocol_noncolluding import run_protocol1

__all__ = [
    "FEATURE_MAP_VERSION",
    "AttackReport",
    "ConditionRow",
    "public_messages",
    "collusion_mask_accounting",
    "generate_runs",
    "guess_unchosen_message",
    "guess_choice_bit",
    "condition_suite",
]

FEATURE_MAP_VERSION = "v1"

MESSAGE_ATTACKERS = ("single-receiver", "pooled-receivers", "wiretapper")
CHOICE_ATTACKERS = ("alice", "alice-plus-other-receiver", "wiretapper")


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one guessing attack.

    advantage is the success rate minus the blind-guess baseline; ci is the
    exact (Clopper-Pearson) 95% interval for the success rate, shifted by the
    same baseline.
    """

    target: str
    strategy: str
    advantage: float
    ci: tuple[float, float]
    trials: int
    extras: dict = field(default_factory=dict)
    verdict: str = ""

    def __post_init__(self) -> None:
        if not -1.0 <= self.advantage <= 1.0:
            raise ValueError("advantage must lie in [-1, 1]")


@dataclass(frozen=True)
class ConditionRow:
    """One line of the condition table."""

    condition: str
    estimator: str
    estimate: float
    ci: tuple[float, float] | None
    trials: int
    verdict: str
    threshold: float


def public_messages(run: ProtocolRun) -> dict:
    """The wiretapper's view of a run: every message sent over the public channel.

    Both variants give the same keys; `sprime` and `order` are None for the
    single-phase variant.
    """
    rec = run.record
    return {key: rec[key] for key in
            ("sets", "hashes", "commitments", "ciphertexts", "aborted", "sprime", "order")}


def _knowledge(run: ProtocolRun, i: int) -> np.ndarray:
    """What receiver i holds of the input block: length n, ERASED where it holds nothing.

    A phase-2 observation is mapped through S'. The returned array may be the
    record's own; callers only read it.
    """
    rec = run.record
    y1, y2 = rec["y_phase1"][i], rec["y_phase2"][i]
    known = np.full(run.params.n, ERASED, dtype=np.int8) if y1 is None else y1
    if y2 is None:
        return known
    known = known.copy()
    hit = y2 != ERASED
    known[rec["sprime"][hit]] = y2[hit]
    return known


def _union(maps, n: int) -> np.ndarray:
    """What a coalition knows: the elementwise union of its members' maps."""
    known = np.full(n, ERASED, dtype=np.int8)
    for m in maps:
        known = np.where(known != ERASED, known, m)
    return known


def _count_known(known: np.ndarray, positions: np.ndarray) -> int:
    return int((known[positions] != ERASED).sum())


def _global_sets(run: ProtocolRun, link: int):
    """The link's announced index pair in input-block coordinates, or None."""
    sets = run.record["sets"]
    if link not in sets:
        return None
    pair = sets[link]
    sprime = run.record["sprime"]
    # only the second link of the two-phase variant announces inside S'
    if sprime is None or link == run.record["order"]:
        return pair
    return tuple(sprime[s] for s in pair)


def _verdict(advantage: float, ci: tuple[float, float]) -> str:
    if ci[0] > 0:
        return "advantage detected"
    if ci[0] <= 0 <= ci[1] and abs(advantage) < 0.01:
        return "statistically zero"
    return "inconclusive"


def generate_runs(
    params: ProtocolParams,
    trials: int,
    master_seed: int,
    visibility: VisibilityModel | None = None,
) -> list[ProtocolRun]:
    """Execute independent protocol runs with uniform messages and choice bits.

    Trial t uses the generator derived from (master_seed, t) and draws, in
    order: z1, z2, the four messages, then the protocol's own randomness, so
    any run can be reproduced in isolation.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    runs = []
    for t in range(trials):
        rng = trial_rng(master_seed, t)
        z = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        messages = tuple(
            tuple(rng.integers(0, 2, size=params.key_len(i), dtype=np.int64).astype(np.uint8)
                  for _ in range(2))
            for i in (1, 2)
        )
        if params.variant == "noncolluding":
            runs.append(run_protocol1(params, messages, z, rng))
        else:
            runs.append(run_protocol2(params, messages, z, rng,
                                      DEFAULT_VISIBILITY if visibility is None else visibility))
    return runs


def _shared_params(runs) -> ProtocolParams:
    """The parameters every run in the batch was produced with; rejects mixed batches."""
    if not runs:
        raise ValueError("need at least one run")
    params = runs[0].params
    for run in runs:
        if run.params != params:
            raise ValueError("runs must share parameters")
    return params


def guess_unchosen_message(
    runs,
    attacker: str = "pooled-receivers",
    link: int = 1,
    rng: np.random.Generator | None = None,
) -> AttackReport:
    """Concrete reconstruction attack on the link's unchosen message.

    The attacker reads every key-material bit its coalition's knowledge holds,
    guesses the rest uniformly, and decrypts the published ciphertext with the
    hashed guess. Advantage is the full-string success rate minus the blind
    baseline: with zero mask knowledge the fill is right with probability
    2^-mask, and a wrong fill still collides under the published hash with
    probability 2^-k, so blind success is 2^-mask + (1 - 2^-mask) 2^-k, not
    plain 2^-k. Aborted links are skipped (nothing was published).
    """
    if attacker not in MESSAGE_ATTACKERS:
        raise ValueError(f"unknown attacker {attacker!r}")
    if link not in (1, 2):
        raise ValueError("link must be 1 or 2")
    if rng is None:
        raise ValueError("the uniform-fill step needs an rng")
    k = _shared_params(runs).key_len(link)
    receivers = {"single-receiver": (link,), "pooled-receivers": (1, 2), "wiretapper": ()}[attacker]
    successes = 0
    used = 0
    skipped = 0
    known_fraction = 0.0
    mask = None
    for run in runs:
        rec = run.record
        if link not in rec["ciphertexts"]:
            skipped += 1
            continue
        j = 1 - rec["z"][link - 1]
        positions = _global_sets(run, link)[j]
        mask = positions.size
        known = _union([_knowledge(run, i) for i in receivers], run.params.n)[positions]
        fill = rng.integers(0, 2, size=positions.size, dtype=np.int64).astype(np.int8)
        x_hat = np.where(known != ERASED, known, fill).astype(np.uint8)
        kappa = rec["hashes"][link]["kappa"][j]
        m_hat = (rec["ciphertexts"][link][j] ^ apply(kappa, x_hat)).astype(np.uint8)
        successes += int(np.array_equal(m_hat, rec["messages"][link - 1][j]))
        known_fraction += float((known != ERASED).sum()) / positions.size
        used += 1
    if used == 0:
        raise ValueError("no completed runs to attack")
    blind_hit = 2.0 ** (-mask)
    baseline = blind_hit + (1.0 - blind_hit) * 2.0 ** (-k)
    rate = successes / used
    lo, hi = clopper_pearson(successes, used)
    advantage = rate - baseline
    ci = (lo - baseline, hi - baseline)
    return AttackReport(
        target=f"unchosen message, link {link}",
        strategy=f"{attacker} read-off with uniform fill",
        advantage=advantage,
        ci=ci,
        trials=used,
        extras={
            "knowledge_rate": known_fraction / used,
            "baseline": baseline,
            "skipped_aborts": skipped,
        },
        verdict=_verdict(advantage, ci),
    )


def guess_choice_bit(
    runs,
    attacker: str = "alice",
    link: int = 1,
    rng: np.random.Generator | None = None,
) -> AttackReport:
    """Label-assignment attack on the link's choice bit.

    The attacker scores each announced set with what its view offers (the
    sender compares the sets against her known input block; a pooled receiver
    adds its erasure-pattern overlap; the wiretapper falls back to an index
    statistic) and guesses the higher-scoring label, flipping a coin on ties.
    The rule is label-equivariant, so it cannot exploit label names.
    """
    if attacker not in CHOICE_ATTACKERS:
        raise ValueError(f"unknown attacker {attacker!r}")
    if link not in (1, 2):
        raise ValueError("link must be 1 or 2")
    if rng is None:
        raise ValueError("tie-breaking needs an rng")
    _shared_params(runs)
    successes = 0
    used = 0
    skipped = 0
    for run in runs:
        pair = _global_sets(run, link)
        if pair is None:
            skipped += 1
            continue
        if attacker == "wiretapper":
            scores = [int(s.sum()) % 2 for s in pair]
        else:
            scores = [int(run.record["x"][s].sum()) for s in pair]
            if attacker == "alice-plus-other-receiver":
                known = _knowledge(run, 3 - link)
                scores = [score + _count_known(known, s) for score, s in zip(scores, pair)]
        if scores[0] == scores[1]:
            guess = int(rng.integers(0, 2))
        else:
            guess = int(scores[1] > scores[0])
        successes += int(guess == run.record["z"][link - 1])
        used += 1
    if used == 0:
        raise ValueError("no completed runs to attack")
    rate = successes / used
    lo, hi = clopper_pearson(successes, used)
    advantage = rate - 0.5
    ci = (lo - 0.5, hi - 0.5)
    return AttackReport(
        target=f"choice bit, link {link}",
        strategy=f"{attacker} set scoring",
        advantage=advantage,
        ci=ci,
        trials=used,
        extras={"skipped_aborts": skipped},
        verdict=_verdict(advantage, ci),
    )


# --- condition table ------------------------------------------------------------


def _mi_row(condition: str, counts: dict, n: int) -> ConditionRow:
    """The row of one condition from its n (secret, feature) samples, tallied."""
    # 2N ln2 * MI_hat is the G statistic, asymptotically chi-square with
    # (dx-1)(dy-1) degrees of freedom under independence; the verdict threshold
    # is its 99.9th percentile, so each row has a 0.1% false-alarm rate
    mi = mutual_information_of([(sample, c / n) for sample, c in counts.items()], 1)
    dx = len({secret for secret, _ in counts})
    dy = len({feat for _, feat in counts})
    df = (dx - 1) * (dy - 1)
    threshold = chi2_ppf(0.999, df) / (2.0 * n * math.log(2.0)) if df > 0 else 0.0
    verdict = "no detected leakage" if mi <= max(threshold, 1e-12) else "leakage detected"
    return ConditionRow(
        condition,
        f"plug-in mutual information on coarsened features ({FEATURE_MAP_VERSION})",
        mi, None, n, verdict, threshold,
    )


def _half_count_sign(pair, n: int):
    a = int((pair[0] < n // 2).sum())
    b = int((pair[1] < n // 2).sum())
    return int(np.sign(a - b))


def _cipher_bit(run: ProtocolRun, link: int, label: int):
    c = run.record["ciphertexts"].get(link)
    return "abort" if c is None else int(c[label][0])


def condition_suite(runs) -> list[ConditionRow]:
    """Estimate every security condition applicable to the runs' variant.

    Correctness is an empirical error rate over published links. Each secrecy
    condition becomes a plug-in MI estimate between a coarsened secret and the
    declared feature map of exactly the view the condition names; the verdict
    compares the estimate against the 99.9th percentile of its independence
    null (Wilks: 2N ln2 times the estimate is chi-square with (dx-1)(dy-1)
    degrees of freedom). Coarsening means estimates lower-bound the full-view
    quantities: leakage verdicts are conclusive, absence verdicts cover the
    declared features only.
    """
    runs = list(runs)
    params = _shared_params(runs)

    rows: list[ConditionRow] = []

    counted = 0
    errors = 0
    aborted_links = 0
    # correctness over published links; the abort rate over links the
    # parameters run, so no-second-phase links count in neither
    for run in runs:
        for i, outcome in zip((1, 2), run.outcomes):
            if outcome.status == "no-second-phase":
                continue
            if outcome.status == "aborted":
                aborted_links += 1
                continue
            counted += 1
            if outcome.status != "completed" or not outcome.diagnostics.get("correct", False):
                errors += 1
    rate = errors / counted if counted else 0.0
    rows.append(ConditionRow(
        "chosen-message correctness",
        "empirical decode error rate over published links",
        rate, clopper_pearson(errors, counted) if counted else None,
        counted, "holds" if errors == 0 else "violated", 0.0,
    ))
    total_links = counted + aborted_links
    rows.append(ConditionRow(
        "abort rate",
        "empirical abort rate over links",
        aborted_links / total_links if total_links else 0.0,
        clopper_pearson(aborted_links, total_links) if total_links else None,
        total_links, "informational", 0.0,
    ))

    # one pass: each run's two index pairs in input-block coordinates and its
    # two receivers' knowledge maps are worked out once, and every secrecy row
    # tallies its (secret, feature) sample from them; rows keep first-tally order
    tallies: dict = {}

    def tally(condition, secret, feat):
        counts = tallies.setdefault(condition, {})
        counts[secret, feat] = counts.get((secret, feat), 0) + 1

    for run in runs:
        rec = run.record
        z = rec["z"]
        pairs = tuple(_global_sets(run, i) for i in (1, 2))
        known = tuple(_knowledge(run, i) for i in (1, 2))
        unchosen = tuple(int(rec["messages"][i - 1][1 - z[i - 1]][0]) for i in (1, 2))
        sender = (tuple(z), tuple(
            "abort" if pair is None else _half_count_sign(pair, params.n) for pair in pairs))
        if params.variant == "noncolluding":
            for i, pair in zip((1, 2), pairs):
                j = 1 - z[i - 1]
                feat = ("abort",) if pair is None else (
                    _count_known(known[i - 1], pair[j]), _cipher_bit(run, i, j))
                tally(f"own unchosen message vs receiver {i}", unchosen[i - 1], feat)
            tally("choice bits vs sender", *sender)
            continue

        pooled = _union(known, params.n)
        tally("unchosen message pair vs pooled receivers", unchosen, tuple(
            "abort" if pair is None else (
                _count_known(pooled, pair[1 - z[i - 1]]), _cipher_bit(run, i, 1 - z[i - 1]))
            for i, pair in zip((1, 2), pairs)))
        # what the receiver opposite each link observed of the link's two sets, per label
        other = [None if pair is None else tuple(_count_known(known[2 - i], s) for s in pair)
                 for i, pair in zip((1, 2), pairs)]
        for i, pair, kc in zip((1, 2), pairs, other):
            if kc is None:
                feat = ("abort",)
            else:
                xa, xb = (int(rec["x"][s].sum()) for s in pair)
                feat = (int(np.sign(xa - xb)), int(np.sign(kc[0] - kc[1])))
            tally(f"choice bit {i} vs sender pooling receiver {3 - i}", z[i - 1], feat)
        tally("choice bits vs sender", *sender)
        for i, kc in zip((1, 2), other):
            feat = ("abort",) if kc is None else (
                *kc, _cipher_bit(run, i, 0), _cipher_bit(run, i, 1))
            tally(f"link {i} secrets vs receiver {3 - i} alone",
                  (z[i - 1], int(rec["messages"][i - 1][0][0])), feat)

    rows.extend(_mi_row(condition, counts, len(runs)) for condition, counts in tallies.items())
    return rows


def collusion_mask_accounting(run: ProtocolRun) -> dict:
    """Count, per link and label, the mask positions the opposite receiver observed.

    The owner of a link reads its chosen set directly; this measures what
    pooling adds: the other receiver's knowledge of the link's index sets,
    across both phases. Also checks that the retransmitted set lies inside the
    phase-1 receiver's erasures.
    """
    rec = run.record
    out: dict = {"per_link": {}, "sprime_inside_phase1_erasures": None}
    if rec["sprime"] is not None:
        y1 = rec["y_phase1"][rec["order"]]
        out["sprime_inside_phase1_erasures"] = bool((y1[rec["sprime"]] == ERASED).all())
    for link in (1, 2):
        pair = _global_sets(run, link)
        if pair is not None:
            known = _knowledge(run, 3 - link)
            out["per_link"][link] = {j: _count_known(known, s) for j, s in enumerate(pair)}
    return out
