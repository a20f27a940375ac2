"""Benchmark workloads: the CLI argument vectors, their trial counts and their output checks.

Every check mirrors an assertion of the acceptance gate. A check is exact
when correct code can never fail it, and statistical when it is a test at a
stated level that correct code fails on a share of seeds (its false-alarm
rate). No check reads `abort_reasons`: that histogram files the two-phase
variant's phase-2 aborts under "single-phase".
"""

from __future__ import annotations

from dataclasses import dataclass

ORACLE_SPECS = ("choice-vs-sets", "choice-pair-vs-sets", "unchosen-vs-pooled",
                "phase1-cross-knowledge")
ORACLE_MC = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple
    # work items per invocation for trials_per_s: campaign or audit trials,
    # or the oracle's Monte Carlo trials over all specs
    trials: int
    # the cli function whose first call ends set-up
    setup_mark: str
    # statistical checks: (description, false-alarm rate per invocation)
    statistical: tuple = ()

    def check(self, report: dict, seed: int) -> tuple[list, list]:
        """(exact failures, statistical failures) of one report."""
        exact = []
        if report.get("seed") != seed:
            exact.append(f"report seed {report.get('seed')} != {seed}")
        if report.get("command") != self.argv[0]:
            exact.append(f"report command {report.get('command')!r} != {self.argv[0]!r}")
        if exact:
            return exact, []
        return _CHECKS[self.argv[0]](report["results"], self)


def _campaign_argv(n: int, trials: int) -> tuple:
    return ("simulate", "--variant", "p1", "--n", str(n), "--r1", "0.15", "--r2", "0.15",
            "--lambda-prime", "0.05", "--trials", str(trials))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "campaign-p1-n256",
            "criterion 1 campaign at n=256: fixed per-trial Python overhead "
            "(validation, object and transcript building) dominates",
            _campaign_argv(256, 1000), 1000, "generate_runs"),
        Workload(
            "audit-p2-pooled",
            "criterion 5 audit: two-phase executor, then attacks and the condition "
            "suite read every stored run back",
            ("audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--attacker", "pooled",
             "--link", "1", "--trials", "5000"),
            5000, "generate_runs",
            statistical=(("message-attack 95% CI contains 0", 0.047),
                         ("|message-attack advantage| < 0.01", 0.006))),
        Workload(
            "oracle-n6",
            "exact rational enumeration and exact MI of four specs plus the Monte Carlo "
            "cross-check on tiny vectors; no executor runs",
            ("oracle", "--n", "6", "--set-size", "2", "--key-bits", "1",
             *(arg for spec in ORACLE_SPECS for arg in ("--spec", spec)),
             "--compare-mc", str(ORACLE_MC)),
            ORACLE_MC * len(ORACLE_SPECS), "enumerate_protocol",
            statistical=tuple((f"{spec} Monte Carlo within its band", 0.01)
                              for spec in ORACLE_SPECS)),
    )
}


def _check_campaign(results: dict, workload: Workload) -> tuple[list, list]:
    exact = []
    trials = workload.trials
    if results["trials"] != trials:
        exact.append(f"trials {results['trials']} != {trials}")
    if results["correctness_rate"] != 1.0:
        exact.append(f"correctness_rate {results['correctness_rate']} != 1.0")
    for link in ("1", "2"):
        row = results["per_link"][link]
        counts = row["counts"]
        if row["correctness_rate"] != 1.0:
            exact.append(f"link {link} correctness_rate {row['correctness_rate']} != 1.0")
        if counts["decode-error"] != 0:
            exact.append(f"link {link} has {counts['decode-error']} decode errors")
        if counts["completed"] + counts["aborted"] != trials:
            exact.append(f"link {link} completed + aborted = "
                         f"{counts['completed'] + counts['aborted']} != {trials}")
    return exact, []


def _check_audit(results: dict, workload: Workload) -> tuple[list, list]:
    attack = results["attacks"][0]
    if not attack["target"].startswith("unchosen message"):
        return [f"first attack targets {attack['target']!r}, not the unchosen message"], []
    statistical = []
    lo, hi = attack["ci"]
    if not lo <= 0.0 <= hi:
        statistical.append(f"message-attack CI [{lo}, {hi}] excludes 0")
    if not abs(attack["advantage"]) < 0.01:
        statistical.append(f"message-attack advantage {attack['advantage']} not below 0.01")
    return [], statistical


def _check_oracle(results: list, workload: Workload) -> tuple[list, list]:
    rows = {row["spec"]: row for row in results}
    if tuple(rows) != ORACLE_SPECS:
        return [f"oracle specs {tuple(rows)} != {ORACLE_SPECS}"], []
    exact = []
    for spec in ("choice-vs-sets", "choice-pair-vs-sets"):
        if rows[spec]["mi_exact"] != "0":
            exact.append(f"{spec} mi_exact {rows[spec]['mi_exact']!r} != '0'")
    cross = rows["phase1-cross-knowledge"]["mi_given_success_exact"]
    if cross != "0":
        exact.append(f"phase1-cross-knowledge mi_given_success_exact {cross!r} != '0'")
    statistical = [
        f"{spec} Monte Carlo deviation {row['mc']['max_deviation']} outside band {row['mc']['band']}"
        for spec, row in rows.items() if not row["mc"]["within_band"]
    ]
    return exact, statistical


_CHECKS = {"simulate": _check_campaign, "audit": _check_audit, "oracle": _check_oracle}
