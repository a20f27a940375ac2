"""Honest-but-curious analysis harness.

Security is audited by explicit attacks and by plug-in mutual information on
declared view features, never by asserting asymptotic statements directly at
finite block length. Feature maps are fixed and versioned (v1): known-mask-bit
counts, set-overlap statistics, abort flags, and leading ciphertext bits.
Coarsening only discards information, so a detected dependence is real while
the estimate lower-bounds the full-view quantity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._stats import chi2_ppf, clopper_pearson
from .channel import ERASED, trial_rng
from .entropy import mutual_information_of
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


# The analysis reads runs back in blocks of this many: numpy then works on
# whole blocks, while the stacked copies stay a small share of the runs' own
# memory.
_CHUNK = 256


class _Block:
    """Consecutive runs of one parameter set read back as stacked arrays.

    Axis 0 of every array is the run within the block. `known` holds what
    each receiver knows of the input block, `sets` a link's announced index
    pairs in input-block coordinates; both are built on first use.
    """

    def __init__(self, runs, params: ProtocolParams):
        self.params = params
        self.records = [run.record for run in runs]
        self.z = np.array([rec["z"] for rec in self.records], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.records)

    @functools.cached_property
    def x(self) -> np.ndarray:
        return np.stack([rec["x"] for rec in self.records])

    @functools.cached_property
    def known(self) -> np.ndarray:
        """(c, 2, n) int8: receiver i's knowledge map at [:, i - 1], ERASED where it holds nothing.

        A phase-2 observation is mapped through S'.
        """
        known = np.full((len(self), 2, self.params.n), ERASED, dtype=np.int8)
        for r, rec in enumerate(self.records):
            for i, y in rec["y_phase1"].items():
                if y is not None:
                    known[r, i - 1] = y
        for i in (1, 2):
            rows = [r for r, rec in enumerate(self.records) if rec["y_phase2"][i] is not None]
            if rows:
                seen = np.stack([self.records[r]["y_phase2"][i] for r in rows])
                at = (np.array(rows)[:, None], i - 1,
                      np.stack([self.records[r]["sprime"] for r in rows]))
                known[at] = np.where(seen != ERASED, seen, known[at])
        return known

    def coalition(self, receivers) -> np.ndarray:
        """(c, n): what the receivers know together, the elementwise union of their maps."""
        known = np.full((len(self), self.params.n), ERASED, dtype=np.int8)
        for i in receivers:
            known = np.where(known != ERASED, known, self.known[:, i - 1])
        return known

    def sets(self, link: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(rows, pairs): the block rows whose run announced on the link, and
        their (u, 2, size) index pairs in input-block coordinates (None if u = 0)."""
        rows = [r for r, rec in enumerate(self.records) if link in rec["sets"]]
        if not rows:
            return np.empty(0, dtype=np.int64), None
        pairs = np.array([self.records[r]["sets"][link] for r in rows])
        # only the second link of the two-phase variant announces inside S'
        if self.params.variant == "colluding" and link != self.params.order:
            sprime = np.stack([self.records[r]["sprime"] for r in rows])
            pairs = np.take_along_axis(sprime[:, None, :], pairs, axis=2)
        return np.array(rows), pairs

    def published(self, link: int, rows: np.ndarray, labels: np.ndarray) -> tuple:
        """(kappa, ciphertext, message) of the given label per row, stacked:
        (u, k, mask), (u, k) and (u, k)."""
        picked = [(self.records[r], j) for r, j in zip(rows.tolist(), labels.tolist())]
        return (np.stack([rec["hashes"][link]["kappa"][j].matrix for rec, j in picked]),
                np.stack([rec["ciphertexts"][link][j] for rec, j in picked]),
                np.stack([rec["messages"][link - 1][j] for rec, j in picked]))


def _blocks(runs, params: ProtocolParams):
    """The runs as consecutive blocks of at most _CHUNK, in run order."""
    for start in range(0, len(runs), _CHUNK):
        yield _Block(runs[start:start + _CHUNK], params)


def _on_sets(values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(u, 2, size): per row of the (u, n) values, the entries at each label's index set."""
    return np.take_along_axis(values[:, None, :], pairs, axis=2)


def _known_on_sets(known: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(u, 2): per row, how many positions of each label's set the (u, n) map knows."""
    return (_on_sets(known, pairs) != ERASED).sum(axis=2)


def _heads(pairs) -> np.ndarray:
    """(u, 2): the first bit of both vectors of each of u (label 0, label 1) pairs."""
    return np.stack([np.stack([pair[j] for pair in pairs])[:, 0] for j in (0, 1)], axis=1)


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
    start: int = 0,
) -> list[ProtocolRun]:
    """Execute independent protocol runs with uniform messages and choice bits.

    The runs are trials start, ..., start + trials - 1 of the campaign: trial
    t uses the generator derived from (master_seed, t) and draws, in order:
    z1, z2, the four messages, then the protocol's own randomness, so any run
    can be reproduced in isolation and a campaign split into consecutive
    ranges yields the same runs.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    k1, k2 = params.key_len(1), params.key_len(2)
    # where each of the four messages starts in the trial's one draw of bits
    a, b, c, d = 2, 2 + k1, 2 + 2 * k1, 2 + 2 * k1 + k2
    if params.variant == "noncolluding":
        execute = run_protocol1
    else:
        execute = functools.partial(
            run_protocol2, visibility=DEFAULT_VISIBILITY if visibility is None else visibility)
    runs = []
    for t in range(start, start + trials):
        rng = trial_rng(master_seed, t)
        # z and the messages in one call, the stream of one call per bit or message
        # (see protocol_core on bounded int64 draws)
        bits = rng.integers(0, 2, size=d + k2)
        m = bits.astype(np.uint8)
        runs.append(execute(params, ((m[a:b], m[b:c]), (m[c:d], m[d:])), bits[:2].tolist(), rng))
    return runs


def _shared_params(runs) -> ProtocolParams:
    """The parameters every run in the batch was produced with; rejects mixed batches."""
    if not runs:
        raise ValueError("need at least one run")
    params = runs[0].params
    for run in runs:
        if run.params is not params and run.params != params:
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
    params = _shared_params(runs)
    k = params.key_len(link)
    receivers = {"single-receiver": (link,), "pooled-receivers": (1, 2), "wiretapper": ()}[attacker]
    successes = 0
    used = 0
    skipped = 0
    known_fraction = 0.0
    mask = None
    for block in _blocks(runs, params):
        rows, pairs = block.sets(link)
        skipped += len(block) - rows.size
        if not rows.size:
            continue
        unchosen = 1 - block.z[rows, link - 1]
        positions = pairs[np.arange(rows.size), unchosen]
        mask = positions.shape[1]
        known = np.take_along_axis(block.coalition(receivers)[rows], positions, axis=1)
        # every run's uniform fill in one draw, in run order (one call is the
        # stream of one call per run; see protocol_core on bounded int64 draws)
        fill = rng.integers(0, 2, size=known.size).reshape(known.shape)
        x_hat = np.where(known != ERASED, known, fill).astype(np.uint8)
        kappa, cipher, message = block.published(link, rows, unchosen)
        m_hat = cipher ^ (np.matmul(kappa, x_hat[:, :, None])[:, :, 0] & 1)
        successes += int((m_hat == message).all(axis=1).sum())
        # summed run by run, in run order
        for share in ((known != ERASED).sum(axis=1) / mask).tolist():
            known_fraction += share
        used += rows.size
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
    params = _shared_params(runs)
    successes = 0
    used = 0
    skipped = 0
    for block in _blocks(runs, params):
        rows, pairs = block.sets(link)
        skipped += len(block) - rows.size
        if not rows.size:
            continue
        if attacker == "wiretapper":
            scores = pairs.sum(axis=2) % 2
        else:
            scores = _on_sets(block.x[rows], pairs).sum(axis=2, dtype=np.int64)
            if attacker == "alice-plus-other-receiver":
                scores += _known_on_sets(block.known[rows, 2 - link], pairs)
        guess = (scores[:, 1] > scores[:, 0]).astype(np.int64)
        # the coins of the block's ties in one draw, in run order (one call is
        # the stream of one call per tie; see protocol_core on bounded int64 draws)
        ties = np.flatnonzero(scores[:, 0] == scores[:, 1])
        guess[ties] = rng.integers(0, 2, size=ties.size)
        successes += int((guess == block.z[rows, link - 1]).sum())
        used += rows.size
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


class _LinkView(NamedTuple):
    """The condition suite's features of one run's announced link.

    The lists hold one entry per label; a sign compares label 0 with label 1.
    """

    half: int  # sign of the difference in set positions below n // 2
    own: list  # set positions the link's own receiver knows
    other: list  # set positions the opposite receiver knows
    other_sign: int  # sign of other[0] - other[1]
    pooled: list  # set positions the two receivers know together
    x_sign: int  # sign of the difference in ones of the input block on the sets
    cipher: list  # first ciphertext bit


def _link_views(block: _Block, link: int, pooled: np.ndarray) -> list:
    """Per block row, the link's _LinkView, or None where the link published nothing."""
    views = [None] * len(block)
    rows, pairs = block.sets(link)
    if not rows.size:
        return views
    low = (pairs < block.params.n // 2).sum(axis=2)
    ones = _on_sets(block.x[rows], pairs).sum(axis=2, dtype=np.int64)
    own = _known_on_sets(block.known[rows, link - 1], pairs)
    other = _known_on_sets(block.known[rows, 2 - link], pairs)
    columns = (
        np.sign(low[:, 0] - low[:, 1]), own, other, np.sign(other[:, 0] - other[:, 1]),
        _known_on_sets(pooled[rows], pairs), np.sign(ones[:, 0] - ones[:, 1]),
        _heads([block.records[r]["ciphertexts"][link] for r in rows.tolist()]),
    )
    for r, view in zip(rows.tolist(), zip(*(column.tolist() for column in columns))):
        views[r] = _LinkView(*view)
    return views


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
        for outcome in run.outcomes:
            status = outcome.status
            if status == "no-second-phase":
                continue
            if status == "aborted":
                aborted_links += 1
                continue
            counted += 1
            if status != "completed" or not outcome.diagnostics.get("correct", False):
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
        "empirical abort rate over the links the parameters run",
        aborted_links / total_links if total_links else 0.0,
        clopper_pearson(aborted_links, total_links) if total_links else None,
        total_links, "informational", 0.0,
    ))

    # one pass over blocks of runs: each block's index pairs in input-block
    # coordinates and its knowledge maps are worked out as arrays, then every
    # secrecy row tallies its (secret, feature) samples run by run, in run
    # order; rows keep first-tally order
    tallies: dict = {}

    def tally(condition, secret, feat):
        counts = tallies.setdefault(condition, {})
        counts[secret, feat] = counts.get((secret, feat), 0) + 1

    for block in _blocks(runs, params):
        pooled = block.coalition((1, 2))
        link_views = [_link_views(block, i, pooled) for i in (1, 2)]
        link_heads = [_heads([rec["messages"][i - 1] for rec in block.records]).tolist()
                      for i in (1, 2)]
        for z, views, heads in zip(block.z.tolist(), zip(*link_views), zip(*link_heads)):
            unchosen = tuple(h[1 - b] for h, b in zip(heads, z))
            sender = (tuple(z), tuple("abort" if v is None else v.half for v in views))
            if params.variant == "noncolluding":
                for i, v, b in zip((1, 2), views, z):
                    feat = ("abort",) if v is None else (v.own[1 - b], v.cipher[1 - b])
                    tally(f"own unchosen message vs receiver {i}", unchosen[i - 1], feat)
                tally("choice bits vs sender", *sender)
                continue

            tally("unchosen message pair vs pooled receivers", unchosen, tuple(
                "abort" if v is None else (v.pooled[1 - b], v.cipher[1 - b])
                for v, b in zip(views, z)))
            # what the receiver opposite each link observed of the link's two sets, per label
            for i, v, b in zip((1, 2), views, z):
                feat = ("abort",) if v is None else (v.x_sign, v.other_sign)
                tally(f"choice bit {i} vs sender pooling receiver {3 - i}", b, feat)
            tally("choice bits vs sender", *sender)
            for i, v, b, h in zip((1, 2), views, z, heads):
                feat = ("abort",) if v is None else (*v.other, *v.cipher)
                tally(f"link {i} secrets vs receiver {3 - i} alone", (b, h[0]), feat)

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
    block = _Block([run], run.params)
    for link in (1, 2):
        rows, pairs = block.sets(link)
        if rows.size:
            counts = _known_on_sets(block.known[rows, 2 - link], pairs)[0].tolist()
            out["per_link"][link] = dict(enumerate(counts))
    return out
