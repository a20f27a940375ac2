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
from scipy.stats import chi2

from .channel import ERASED, compose_index_sets, trial_rng
from .entropy import JointDistribution, mutual_information
from .hashing import apply
from .protocol_core import ProtocolParams, ProtocolRun
from .protocol_colluding import VisibilityModel, DEFAULT_VISIBILITY, run_protocol2
from .protocol_noncolluding import _clopper_pearson, run_protocol1

__all__ = [
    "FEATURE_MAP_VERSION",
    "AttackReport",
    "PooledView",
    "ConditionRow",
    "assemble_pooled_view",
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

    def as_json(self) -> dict:
        return {
            "target": self.target,
            "strategy": self.strategy,
            "advantage": self.advantage,
            "ci": list(self.ci),
            "trials": self.trials,
            "extras": self.extras,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class PooledView:
    """Exactly the fields one attacker coalition holds, tagged by contributor.

    The public transcript content is always present; channel observations and
    choice bits appear only for coalition members, sender inputs only when the
    sender is in the coalition.
    """

    parties: tuple
    fields: dict
    provenance: dict


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

    def as_json(self) -> dict:
        return {
            "condition": self.condition,
            "estimator": self.estimator,
            "estimate": self.estimate,
            "ci": None if self.ci is None else list(self.ci),
            "trials": self.trials,
            "verdict": self.verdict,
            "threshold": self.threshold,
        }


def _public_fields(run: ProtocolRun) -> dict:
    rec = run.record
    pub = {
        "sets": rec["sets"],
        "hashes": rec["hashes"],
        "commitments": rec["commitments"],
        "ciphertexts": rec["ciphertexts"],
        "aborted": rec["aborted"],
    }
    if run.params.variant == "colluding":
        pub["sprime"] = rec["sprime"]
        pub["order"] = rec["order"]
    return pub


def _bob_observations(run: ProtocolRun, i: int) -> dict:
    rec = run.record
    if run.params.variant == "noncolluding":
        return {"y": rec[f"y{i}"]}
    return {"y_phase1": rec["y_phase1"][i], "y_phase2": rec["y_phase2"][i]}


def assemble_pooled_view(run: ProtocolRun, parties) -> PooledView:
    """Build the coalition view for any subset of {alice, bob1, bob2}.

    An empty coalition is the wiretapper: public transcript content only.
    """
    parties = tuple(sorted(set(parties)))
    for p in parties:
        if p not in ("alice", "bob1", "bob2"):
            raise ValueError(f"unknown party {p!r}")
    fields: dict = {"public": _public_fields(run)}
    provenance: dict = {"public": "transcript"}
    for i in (1, 2):
        name = f"bob{i}"
        if name in parties:
            fields[f"z{i}"] = run.record["z"][i - 1]
            fields[f"observations{i}"] = _bob_observations(run, i)
            provenance[f"z{i}"] = name
            provenance[f"observations{i}"] = name
    if "alice" in parties:
        fields["x"] = run.record["x"]
        fields["messages"] = run.record["messages"]
        provenance["x"] = "alice"
        provenance["messages"] = "alice"
    return PooledView(parties, fields, provenance)


def _known_input_bits(run: ProtocolRun, view: PooledView) -> np.ndarray:
    """Coalition knowledge of the input block: length-n array, -1 where unknown."""
    known = np.full(run.params.n, ERASED, dtype=np.int8)
    sprime = run.record.get("sprime")
    for i in (1, 2):
        obs = view.fields.get(f"observations{i}")
        if obs is None:
            continue
        for name, y in obs.items():
            if y is None:
                continue
            if name == "y_phase2":
                hit = y != ERASED
                known[sprime[hit]] = y[hit]
            else:
                hit = y != ERASED
                known[np.nonzero(hit)[0]] = y[hit]
    return known


def _global_sets(run: ProtocolRun, link: int):
    """The link's announced index pair in input-block coordinates, or None."""
    sets = run.record["sets"]
    if link not in sets:
        return None
    pair = sets[link]
    if run.params.variant == "colluding" and link != run.record["order"]:
        sprime = run.record["sprime"]
        return tuple(compose_index_sets(sprime, s) for s in pair)
    return pair


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


def _message_parties(attacker: str, link: int) -> tuple:
    if attacker == "single-receiver":
        return (f"bob{link}",)
    if attacker == "pooled-receivers":
        return ("bob1", "bob2")
    return ()


def guess_unchosen_message(
    runs,
    attacker: str = "pooled-receivers",
    link: int = 1,
    rng: np.random.Generator | None = None,
) -> AttackReport:
    """Concrete reconstruction attack on the link's unchosen message.

    The attacker reads every key-material bit visible in its pooled view,
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
        view = assemble_pooled_view(run, _message_parties(attacker, link))
        known = _known_input_bits(run, view)[positions]
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
    lo, hi = _clopper_pearson(successes, used)
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


def _choice_parties(attacker: str, link: int) -> tuple:
    if attacker == "alice":
        return ("alice",)
    if attacker == "alice-plus-other-receiver":
        return ("alice", f"bob{3 - link}")
    return ()


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
        view = assemble_pooled_view(run, _choice_parties(attacker, link))
        scores = []
        known = None
        if f"observations{3 - link}" in view.fields:
            known = _known_input_bits(
                run, assemble_pooled_view(run, (f"bob{3 - link}",))
            )
        for s in pair:
            score = 0.0
            if "x" in view.fields:
                score += float(view.fields["x"][s].sum())
            if known is not None:
                score += float((known[s] != ERASED).sum())
            if not view.parties:
                score += float(int(s.sum()) % 2)
            scores.append(score)
        if scores[0] == scores[1]:
            guess = int(rng.integers(0, 2))
        else:
            guess = int(scores[1] > scores[0])
        successes += int(guess == run.record["z"][link - 1])
        used += 1
    if used == 0:
        raise ValueError("no completed runs to attack")
    rate = successes / used
    lo, hi = _clopper_pearson(successes, used)
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


def _mi_row(condition: str, pairs: list) -> ConditionRow:
    # 2N ln2 * MI_hat is the G statistic, asymptotically chi-square with
    # (dx-1)(dy-1) degrees of freedom under independence; the verdict threshold
    # is its 99.9th percentile, so each row has a 0.1% false-alarm rate
    joint = JointDistribution.from_samples(pairs)
    mi = float(mutual_information(joint))
    dx = len(joint.marginal_x())
    dy = len(joint.marginal_y())
    n = len(pairs)
    df = (dx - 1) * (dy - 1)
    threshold = float(chi2.ppf(0.999, df)) / (2.0 * n * math.log(2.0)) if df > 0 else 0.0
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


def _known_counts(run: ProtocolRun, viewer: int, link: int):
    """How many of the link's set positions the viewer observed, per label."""
    pair = _global_sets(run, link)
    if pair is None:
        return None
    known = _known_input_bits(run, assemble_pooled_view(run, (f"bob{viewer}",)))
    return tuple(int((known[s] != ERASED).sum()) for s in pair)


def _cipher_bit(run: ProtocolRun, link: int, label: int):
    c = run.record["ciphertexts"].get(link)
    return "abort" if c is None else int(c[label][0])


def condition_suite(runs, variant: str | None = None) -> list[ConditionRow]:
    """Estimate every security condition applicable to the variant.

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
    if variant is None:
        variant = params.variant
    if variant != params.variant:
        raise ValueError(f"runs were produced by the {params.variant} variant")

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
        rate, _clopper_pearson(errors, counted) if counted else None,
        counted, "holds" if errors == 0 else "violated", 0.0,
    ))
    total_links = counted + aborted_links
    rows.append(ConditionRow(
        "abort rate",
        "empirical abort rate over links",
        aborted_links / total_links if total_links else 0.0,
        _clopper_pearson(aborted_links, total_links) if total_links else None,
        total_links, "informational", 0.0,
    ))

    def unchosen_secret(run, i):
        return int(run.record["messages"][i - 1][1 - run.record["z"][i - 1]][0])

    if variant == "noncolluding":
        for i in (1, 2):
            pairs = []
            for run in runs:
                secret = unchosen_secret(run, i)
                kc = _known_counts(run, i, i)
                feat = ("abort",) if kc is None else (kc[1 - run.record["z"][i - 1]], _cipher_bit(run, i, 1 - run.record["z"][i - 1]))
                pairs.append((secret, feat))
            rows.append(_mi_row(f"own unchosen message vs receiver {i}", pairs))
        pairs = []
        for run in runs:
            stats = []
            for i in (1, 2):
                pair = _global_sets(run, i)
                stats.append("abort" if pair is None else _half_count_sign(pair, params.n))
            pairs.append((tuple(run.record["z"]), tuple(stats)))
        rows.append(_mi_row("choice bits vs sender", pairs))
        return rows

    # colluding variant
    pairs = []
    for run in runs:
        secret = tuple(unchosen_secret(run, i) for i in (1, 2))
        feats = []
        pooled = _known_input_bits(run, assemble_pooled_view(run, ("bob1", "bob2")))
        for i in (1, 2):
            pair = _global_sets(run, i)
            if pair is None:
                feats.append("abort")
                continue
            j = 1 - run.record["z"][i - 1]
            feats.append((int((pooled[pair[j]] != ERASED).sum()), _cipher_bit(run, i, j)))
        pairs.append((secret, tuple(feats)))
    rows.append(_mi_row("unchosen message pair vs pooled receivers", pairs))

    for i in (1, 2):
        pairs = []
        for run in runs:
            pair = _global_sets(run, i)
            if pair is None:
                feat = ("abort",)
            else:
                alice_stat = int(np.sign(float(run.record["x"][pair[0]].sum()) - float(run.record["x"][pair[1]].sum())))
                kc = _known_counts(run, 3 - i, i)
                feat = (alice_stat, int(np.sign(kc[0] - kc[1])))
            pairs.append((run.record["z"][i - 1], feat))
        rows.append(_mi_row(f"choice bit {i} vs sender pooling receiver {3 - i}", pairs))

    pairs = []
    for run in runs:
        stats = []
        for i in (1, 2):
            pair = _global_sets(run, i)
            stats.append("abort" if pair is None else _half_count_sign(pair, params.n))
        pairs.append((tuple(run.record["z"]), tuple(stats)))
    rows.append(_mi_row("choice bits vs sender", pairs))

    for i in (1, 2):
        pairs = []
        for run in runs:
            secret = (run.record["z"][i - 1], int(run.record["messages"][i - 1][0][0]))
            kc = _known_counts(run, 3 - i, i)
            if kc is None:
                feat = ("abort",)
            else:
                feat = (kc[0], kc[1], _cipher_bit(run, i, 0), _cipher_bit(run, i, 1))
            pairs.append((secret, feat))
        rows.append(_mi_row(f"link {i} secrets vs receiver {3 - i} alone", pairs))
    return rows
