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
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._stats import chi2_ppf, clopper_pearson
from .channel import ERASED, trial_rng
from .entropy import mutual_information_of
from .protocol_core import (OtCode, ProtocolParams, ProtocolRun, draw_inputs, key_positions,
                            knowledge)
from .protocol_colluding import VisibilityModel, DEFAULT_VISIBILITY, run_protocol2
from .protocol_noncolluding import run_protocol1

__all__ = [
    "FEATURE_MAP_VERSION",
    "AttackReport",
    "ConditionRow",
    "RunBlock",
    "MessageAttackFold",
    "ChoiceAttackFold",
    "ConditionSuiteFold",
    "public_messages",
    "outcome_counts",
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
    single-phase variant. `aborted` maps each stopped link to its OtCode; the
    reason text, which quotes the receiver's erasure counts, stays on the
    private OtOutcome.
    """
    rec = run.record
    return {key: rec[key] for key in
            ("sets", "hashes", "commitments", "ciphertexts", "aborted", "sprime", "order")}


class RunBlock:
    """Consecutive runs of one parameter set as the arrays the analyses read, without the runs.

    The attacks and the condition suite read blocks in order, one at a time
    (their folds), so a campaign drops each chunk's runs once its block is
    built, and each block once every fold has read it. Axis 0 is the run in
    the block, so a worker sends a block back cheaply. `params` holds the
    runs' shared parameters, `known[:, i - 1]` receiver i's knowledge map
    (`protocol_core.knowledge`), `messages[i - 1]` link i's (c, 2, k)
    message pairs, `tally` the runs' `outcome_counts`, and `links[i - 1]`
    link i's (rows, pairs, kappa, cipher): the (u,) rows that
    announced on it, their (u, 2, size) key positions
    (`protocol_core.key_positions`), (u, 2, k, size) κ matrices and (u, 2, k)
    ciphertexts, the label on axis 1 (None but rows if u = 0).
    """

    def __init__(self, runs):
        self.params = _shared_params(runs)
        records = [run.record for run in runs]
        self.tally = outcome_counts(runs)
        self.z = np.array([rec["z"] for rec in records], dtype=np.int64)
        self.x = np.stack([rec["x"] for rec in records])
        self.messages = tuple(np.array([rec["messages"][i] for rec in records]) for i in (0, 1))
        self.known = np.stack([knowledge(rec) for rec in records])
        self.links = tuple(_announced(records, link) for link in (1, 2))

    def __len__(self) -> int:
        return len(self.z)

    def coalition(self, receivers) -> np.ndarray:
        """(c, n): what the receivers know together, the elementwise union of their maps."""
        known = np.full((len(self), self.known.shape[2]), ERASED, dtype=np.int8)
        for i in receivers:
            known = np.where(known != ERASED, known, self.known[:, i - 1])
        return known


def _announced(records, link: int) -> tuple:
    """A block's links entry: what the link announced and published in the records' runs."""
    rows = [r for r, rec in enumerate(records) if link in rec["sets"]]
    if not rows:
        return np.empty(0, dtype=np.int64), None, None, None
    announced = [records[r] for r in rows]
    return (np.array(rows), np.array([key_positions(rec, link) for rec in announced]),
            np.array([[h.matrix for h in rec["hashes"][link]["kappa"]] for rec in announced]),
            np.array([rec["ciphertexts"][link] for rec in announced]))


def _on_sets(values: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(u, 2, size): per row of the (u, n) values, the entries at each label's index set."""
    return np.take_along_axis(values[:, None, :], pairs, axis=2)


def _known_on_sets(known: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(u, 2): per row, how many positions of each label's set the (u, n) map knows."""
    return (_on_sets(known, pairs) != ERASED).sum(axis=2)


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
    plan = params.plan()
    execute = run_protocol1 if params.variant == "noncolluding" else functools.partial(
        run_protocol2, visibility=visibility or DEFAULT_VISIBILITY)
    runs = []
    for t in range(start, start + trials):
        rng = trial_rng(master_seed, t)
        messages, z = draw_inputs(plan, rng)
        runs.append(execute(params, messages, z, rng))
    return runs


def _abort_key(order: int | None, link: int, code: OtCode) -> str:
    """abort_reasons key of a link that never published: the phase that lost it (order None: p1)."""
    if order is None:
        return "single-phase"
    if code is OtCode.NO_SECOND_PHASE:
        return "no-second-phase"
    if link == order or code is OtCode.UPSTREAM_ABORT:
        return "phase-1"
    return "phase-2"


def outcome_counts(runs) -> Counter:
    """The runs' integer link-outcome tallies; the tallies of disjoint runs add up.

    Keys: "trials", "any-abort", (link, status), (link, "match") for a
    completed link that decoded its chosen message, and ("reason", abort key).
    """
    tally = Counter(trials=len(runs))
    for run in runs:
        # a link the parameters never run (no-second-phase) did not abort
        if any(out.status == "aborted" for out in run.outcomes):
            tally["any-abort"] += 1
        for link, out in zip((1, 2), run.outcomes):
            tally[link, out.status] += 1
            # receive_link compared the decoded message with the chosen one
            if out.status == "completed" and out.diagnostics["correct"]:
                tally[link, "match"] += 1
            elif out.status in ("aborted", "no-second-phase"):
                tally["reason", _abort_key(run.record["order"], link, out.code)] += 1
    return tally


def _shared_params(runs) -> ProtocolParams:
    """The parameters every run (or block of runs) was produced with; rejects mixed batches."""
    if not runs:
        raise ValueError("need at least one run")
    params = runs[0].params
    for run in runs:
        if run.params is not params and run.params != params:
            raise ValueError("runs must share parameters")
    return params


def _check_attack(attacker: str, attackers: tuple, link: int,
                  rng: np.random.Generator | None, rng_use: str) -> None:
    """Refuse an unknown attacker, a link other than 1 or 2, or a missing rng."""
    if attacker not in attackers:
        raise ValueError(f"unknown attacker {attacker!r}")
    if link not in (1, 2):
        raise ValueError("link must be 1 or 2")
    if rng is None:
        raise ValueError(f"{rng_use} needs an rng")


def _fold(fold, blocks):
    """The fold's result over a list of blocks, once they are checked to share parameters."""
    _shared_params(blocks)
    for block in blocks:
        fold.add(block)
    return fold.result()


def _attack_report(target: str, strategy: str, successes: int, used: int,
                   baseline: float, extras: dict) -> AttackReport:
    """The report of an attack that won successes of used runs, against a blind-guess baseline."""
    rate = successes / used
    lo, hi = clopper_pearson(successes, used)
    advantage = rate - baseline
    ci = (lo - baseline, hi - baseline)
    return AttackReport(target=target, strategy=strategy, advantage=advantage, ci=ci,
                        trials=used, extras=extras, verdict=_verdict(advantage, ci))


class MessageAttackFold:
    """guess_unchosen_message one block at a time: `add` each block in order, then `result` once.

    The blocks must share their parameters; `guess_unchosen_message` checks
    that of a list, and a campaign's blocks share them by construction.
    Each block's uniform fills are drawn as it is added.
    """

    def __init__(self, attacker: str, link: int, rng: np.random.Generator | None):
        _check_attack(attacker, MESSAGE_ATTACKERS, link, rng, "the uniform-fill step")
        self.attacker, self.link, self.rng = attacker, link, rng
        self.receivers = {"single-receiver": (link,), "pooled-receivers": (1, 2),
                          "wiretapper": ()}[attacker]
        self.successes = self.used = self.skipped = 0
        self.known_fraction = 0.0
        self.mask = self.key = None

    def add(self, block: RunBlock) -> None:
        rows, pairs, kappa, cipher = block.links[self.link - 1]
        self.skipped += len(block) - rows.size
        if not rows.size:
            return
        unchosen = 1 - block.z[rows, self.link - 1]
        picked = (np.arange(rows.size), unchosen)
        positions = pairs[picked]
        self.mask = positions.shape[1]
        self.key = block.params.plan().key[self.link - 1]
        known = np.take_along_axis(block.coalition(self.receivers)[rows], positions, axis=1)
        # every run's uniform fill in one draw, in run order (one call is the
        # stream of one call per run; see protocol_core on bounded int64 draws)
        fill = self.rng.integers(0, 2, size=known.size).reshape(known.shape)
        x_hat = np.where(known != ERASED, known, fill).astype(np.uint8)
        m_hat = cipher[picked] ^ (np.matmul(kappa[picked], x_hat[:, :, None])[:, :, 0] & 1)
        self.successes += int((m_hat == block.messages[self.link - 1][rows, unchosen])
                              .all(axis=1).sum())
        # summed run by run, in run order
        for share in ((known != ERASED).sum(axis=1) / self.mask).tolist():
            self.known_fraction += share
        self.used += rows.size

    def result(self) -> AttackReport:
        if self.used == 0:
            raise ValueError("no completed runs to attack")
        blind_hit = 2.0 ** (-self.mask)
        baseline = blind_hit + (1.0 - blind_hit) * 2.0 ** (-self.key)
        return _attack_report(
            f"unchosen message, link {self.link}",
            f"{self.attacker} read-off with uniform fill", self.successes, self.used, baseline,
            {"knowledge_rate": self.known_fraction / self.used, "baseline": baseline,
             "skipped_aborts": self.skipped},
        )


def guess_unchosen_message(
    blocks,
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
    plain 2^-k. Aborted links are skipped (nothing was published). The
    blocks, a list, are read in order, and so are the runs in each
    (`MessageAttackFold`).
    """
    return _fold(MessageAttackFold(attacker, link, rng), blocks)


class ChoiceAttackFold:
    """guess_choice_bit one block at a time: `add` each block in order, then `result` once.

    The blocks must share their parameters, as for `MessageAttackFold`. The
    tie coins are drawn by `result`, block by block in run order, after the
    last block: an audit's message attack draws its fills from the same
    generator as the blocks arrive, and its coins come after every fill.
    Until then the fold keeps the choice bit of each tied run, one byte each.
    """

    def __init__(self, attacker: str, link: int, rng: np.random.Generator | None):
        _check_attack(attacker, CHOICE_ATTACKERS, link, rng, "tie-breaking")
        self.attacker, self.link, self.rng = attacker, link, rng
        self.successes = self.used = self.skipped = 0
        self.tied = []  # per block with announced rows, the choice bits of its tied runs

    def add(self, block: RunBlock) -> None:
        rows, pairs = block.links[self.link - 1][:2]
        self.skipped += len(block) - rows.size
        if not rows.size:
            return
        if self.attacker == "wiretapper":
            scores = pairs.sum(axis=2) % 2
        else:
            scores = _on_sets(block.x[rows], pairs).sum(axis=2, dtype=np.int64)
            if self.attacker == "alice-plus-other-receiver":
                scores += _known_on_sets(block.known[rows, 2 - self.link], pairs)
        z = block.z[rows, self.link - 1]
        tied = scores[:, 0] == scores[:, 1]
        self.successes += int(((scores[:, 1] > scores[:, 0]) == z)[~tied].sum())
        self.tied.append(z[tied].astype(np.uint8))
        self.used += rows.size

    def result(self) -> AttackReport:
        if self.used == 0:
            raise ValueError("no completed runs to attack")
        # the coins of a block's ties in one draw, in run order (one call is
        # the stream of one call per tie; see protocol_core on bounded int64 draws)
        successes = self.successes + sum(
            int((self.rng.integers(0, 2, size=z.size) == z).sum()) for z in self.tied)
        return _attack_report(f"choice bit, link {self.link}", f"{self.attacker} set scoring",
                              successes, self.used, 0.5, {"skipped_aborts": self.skipped})


def guess_choice_bit(
    blocks,
    attacker: str = "alice",
    link: int = 1,
    rng: np.random.Generator | None = None,
) -> AttackReport:
    """Label-assignment attack on the link's choice bit.

    The attacker scores each announced set with what its view offers (the
    sender compares the sets against her known input block; a pooled receiver
    adds its erasure-pattern overlap; the wiretapper falls back to an index
    statistic) and guesses the higher-scoring label, flipping a coin on ties.
    The rule is label-equivariant, so it cannot exploit label names. The
    blocks, a list, are read in order, and so are the runs in each; the tie
    coins follow the last block (`ChoiceAttackFold`).
    """
    return _fold(ChoiceAttackFold(attacker, link, rng), blocks)


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


def _link_views(block: RunBlock, link: int, pooled: np.ndarray) -> list:
    """Per block row, the link's _LinkView, or None where the link published nothing."""
    views = [None] * len(block)
    rows, pairs, _, cipher = block.links[link - 1]
    if not rows.size:
        return views
    low = (pairs < pooled.shape[1] // 2).sum(axis=2)
    ones = _on_sets(block.x[rows], pairs).sum(axis=2, dtype=np.int64)
    own = _known_on_sets(block.known[rows, link - 1], pairs)
    other = _known_on_sets(block.known[rows, 2 - link], pairs)
    columns = (
        np.sign(low[:, 0] - low[:, 1]), own, other, np.sign(other[:, 0] - other[:, 1]),
        _known_on_sets(pooled[rows], pairs), np.sign(ones[:, 0] - ones[:, 1]),
        cipher[:, :, 0],
    )
    for r, view in zip(rows.tolist(), zip(*(column.tolist() for column in columns))):
        views[r] = _LinkView(*view)
    return views


class ConditionSuiteFold:
    """condition_suite one block at a time: `add` each block in order, then `result` once.

    The blocks must share their parameters, as for `MessageAttackFold`. The
    outcome tallies add up, and every secrecy row tallies its (secret,
    feature) samples run by run, in run order, from the block's arrays; rows
    keep first-tally order.
    """

    def __init__(self):
        self.outcomes = Counter()
        self.tallies: dict = {}

    def _tally(self, condition, secret, feat) -> None:
        counts = self.tallies.setdefault(condition, {})
        counts[secret, feat] = counts.get((secret, feat), 0) + 1

    def add(self, block: RunBlock) -> None:
        tally = self._tally
        self.outcomes.update(block.tally)
        pooled = block.coalition((1, 2))
        link_views = [_link_views(block, i, pooled) for i in (1, 2)]
        link_heads = [messages[:, :, 0].tolist() for messages in block.messages]
        for z, views, heads in zip(block.z.tolist(), zip(*link_views), zip(*link_heads)):
            unchosen = tuple(h[1 - b] for h, b in zip(heads, z))
            sender = (tuple(z), tuple("abort" if v is None else v.half for v in views))
            if block.params.variant == "noncolluding":
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

    def result(self) -> list[ConditionRow]:
        outcomes = self.outcomes
        # correctness over published links; the abort rate over links the
        # parameters run, so no-second-phase links count in neither
        counted = sum(outcomes[i, "completed"] + outcomes[i, "decode-error"] for i in (1, 2))
        errors = counted - outcomes[1, "match"] - outcomes[2, "match"]
        aborted_links = outcomes[1, "aborted"] + outcomes[2, "aborted"]
        total_links = counted + aborted_links
        return [
            ConditionRow(
                "chosen-message correctness",
                "empirical decode error rate over published links",
                errors / counted if counted else 0.0,
                clopper_pearson(errors, counted) if counted else None,
                counted, "holds" if errors == 0 else "violated", 0.0,
            ),
            ConditionRow(
                "abort rate",
                "empirical abort rate over the links the parameters run",
                aborted_links / total_links if total_links else 0.0,
                clopper_pearson(aborted_links, total_links) if total_links else None,
                total_links, "informational", 0.0,
            ),
            *(_mi_row(condition, counts, outcomes["trials"])
              for condition, counts in self.tallies.items()),
        ]


def condition_suite(blocks) -> list[ConditionRow]:
    """Estimate every security condition applicable to the blocks' variant.

    Correctness is an empirical error rate over published links. Each secrecy
    condition becomes a plug-in MI estimate between a coarsened secret and the
    declared feature map of exactly the view the condition names; the verdict
    compares the estimate against the 99.9th percentile of its independence
    null (Wilks: 2N ln2 times the estimate is chi-square with (dx-1)(dy-1)
    degrees of freedom). Coarsening means estimates lower-bound the full-view
    quantities: leakage verdicts are conclusive, absence verdicts cover the
    declared features only. The blocks, a list, are read in one pass, in
    order (`ConditionSuiteFold`).
    """
    return _fold(ConditionSuiteFold(), blocks)
