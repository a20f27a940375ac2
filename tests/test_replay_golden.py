"""Golden replay: pinned digests of seeded reports' results blocks.

Criterion 10 replays the current code twice, so it cannot see a change that
moves the random stream. These digests were recorded once and catch that: a
change that alters a draw (or the order of draws) changes these results. The
campaign's results are abort counts and correctness, so its digest guards the
input block and erasure draws; the audit's attacks and condition table read
the index sets, hashes and ciphertexts, so its digest guards every later draw
too. The further audit entries cover the rest of the attack surface: every
attacker (pooled, single receiver, wiretapper) on both variants, and `p2`
with the second receiver first and both phases broadcast, so every attack
scorer and every way a coalition's knowledge of the input block is worked
out is pinned. The oracle
entry runs all six specs at p1 = 1/3, p2 = 3/4 with two-bit keys, so its
digest guards every enumerator, the exact mutual-information floats and abort
masses over denominators other than powers of two, and the Monte Carlo
cross-check's draws. The digest is the SHA-256 of the "results"
block as compact sorted-key JSON.

Recorded with Python 3.11.7 and numpy 2.4.6. The stream comes from numpy's
PCG64 and its bounded-integer sampling, and the interval bounds and G-test
thresholds in the results come from otbec._stats, whose roots rest on the
platform's libm (exp, log, erfc); other versions may legitimately disagree. A
deliberate change to the stream or to those quantiles updates the digests
here.
"""

import hashlib
import json

import pytest

from otbec.cli import main

ORACLE_SPECS = ("choice-vs-sets", "choice-pair-vs-sets", "unchosen-vs-own", "unchosen-vs-pooled",
                "phase2-unchosen-vs-pooled", "phase1-cross-knowledge")

GOLDEN = {
    "simulate-p1-n256": (
        ["simulate", "--variant", "p1", "--n", "256", "--p1", "0.5", "--p2", "0.5",
         "--r1", "0.15", "--r2", "0.15", "--lambda-prime", "0.05", "--trials", "200",
         "--seed", "101"],
        "1a99f77d736e6e087cf1a552a84d5b889e67ed1cf8248765f1d65380f2329c9c",
    ),
    "audit-p2-pooled": (
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--trials", "300",
         "--seed", "101"],
        "5a8a6431a3902eb3698016a8e4504bb07f5a50d20d2d4647eaf9402eace893f3",
    ),
    "audit-p2-single": (
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--attacker", "single",
         "--trials", "300", "--seed", "101"],
        "da4356234cf29dc234b2c91e361ac0f927d65c6945db41ad726e0c4513919408",
    ),
    "audit-p2-wiretapper": (
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--attacker", "wiretapper",
         "--trials", "300", "--seed", "101"],
        "9b33036c23ab03a032c7aeb2c2995f5480b20397b75bb2f915e3e41c682a202d",
    ),
    "audit-p1-pooled": (
        ["audit", "--variant", "p1", "--attacker", "pooled", "--trials", "300", "--seed", "101"],
        "f8ae6177ea762883bb78718e0187a7e9233055d6f75857b91378a250170ef4c2",
    ),
    "audit-p1-single-link2": (
        ["audit", "--variant", "p1", "--attacker", "single", "--link", "2", "--trials", "300",
         "--seed", "101"],
        "7e2d4409b92ec6c77c8defc8a0f72a8b62953b7bc7c327e5538f9842f298ab93",
    ),
    "audit-p1-wiretapper": (
        ["audit", "--variant", "p1", "--attacker", "wiretapper", "--trials", "300",
         "--seed", "101"],
        "da3f2c3a1f663e630714cabb329451488a27a4a07f4713638f2c06eb352011c0",
    ),
    "audit-p2-broadcast-order2": (
        ["audit", "--variant", "p2", "--p1", "0.8", "--p2", "0.8", "--r1", "1/16",
         "--r2", "1/16", "--lambda-prime", "1/32", "--order", "2",
         "--visibility-phase1", "broadcast-both", "--visibility-phase2", "broadcast-both",
         "--attacker", "pooled", "--link", "2", "--trials", "300", "--seed", "101"],
        "9c05f932f332398651eefa382d8fd6112c2a23b9278d4137995c4c637ae60cea",
    ),
    "oracle-all-specs": (
        ["oracle", "--n", "4", "--p1", "1/3", "--p2", "3/4", "--set-size", "1",
         "--key-bits", "2",
         *(arg for spec in ORACLE_SPECS for arg in ("--spec", spec)),
         "--compare-mc", "300", "--seed", "101"],
        "5e22f0df0b53ef1fbf54386a57a3b25492e20cbeb0a2c048b72014f5cc404ac2",
    ),
}


def results_digest(report_path) -> str:
    results = json.loads(report_path.read_text())["results"]
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_match_recorded_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert results_digest(out) == digest
