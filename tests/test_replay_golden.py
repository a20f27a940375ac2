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

Recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1. The stream comes
from numpy's PCG64 and its bounded-integer sampling, and the audit results
include scipy's interval quantiles, so other versions may legitimately
disagree; a deliberate stream change updates the digests here.
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
        "f5d64c48d3819c4686fc3b8b11e28e6ac74ffafb61437130da0c9339423f4d86",
    ),
    "audit-p2-pooled": (
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--trials", "300",
         "--seed", "101"],
        "18d7233c86187d3de1f26c2897ab8d67280b82097707e20561ac2cd5adc49461",
    ),
    "audit-p2-single": (
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--attacker", "single",
         "--trials", "300", "--seed", "101"],
        "713e0ce7072825deadca0db89521b35c276f15122042fe46a2b8b9ef5e94e096",
    ),
    "audit-p2-wiretapper": (
        ["audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75", "--attacker", "wiretapper",
         "--trials", "300", "--seed", "101"],
        "cfb01b7cd30d531045e22c9deadb48ae3020ed6e90269b02a7d03abf0f2612f4",
    ),
    "audit-p1-pooled": (
        ["audit", "--variant", "p1", "--attacker", "pooled", "--trials", "300", "--seed", "101"],
        "69b84cf80e489a6091079488375561380b66423a183d4e3aa19db419effb5c02",
    ),
    "audit-p1-single-link2": (
        ["audit", "--variant", "p1", "--attacker", "single", "--link", "2", "--trials", "300",
         "--seed", "101"],
        "2bda7985e6857db5e66eafc44071472665a63a01d00b2f7242b76bf97866d3ba",
    ),
    "audit-p1-wiretapper": (
        ["audit", "--variant", "p1", "--attacker", "wiretapper", "--trials", "300",
         "--seed", "101"],
        "32b3b755f8f1e911df61f36f39af26c59bdb3e7ba97abcaa91dd2c5c139884dd",
    ),
    "audit-p2-broadcast-order2": (
        ["audit", "--variant", "p2", "--p1", "0.8", "--p2", "0.8", "--r1", "1/16",
         "--r2", "1/16", "--lambda-prime", "1/32", "--order", "2",
         "--visibility-phase1", "broadcast-both", "--visibility-phase2", "broadcast-both",
         "--attacker", "pooled", "--link", "2", "--trials", "300", "--seed", "101"],
        "4d7b33dc847010a04807a16a28e75ec618bd1b8ed3ffe1d8f241a3b1f9c27726",
    ),
    "oracle-all-specs": (
        ["oracle", "--n", "4", "--p1", "1/3", "--p2", "3/4", "--set-size", "1",
         "--key-bits", "2",
         *(arg for spec in ORACLE_SPECS for arg in ("--spec", spec)),
         "--compare-mc", "300", "--seed", "101"],
        "80575712ef3b71ebb43491382faa36d20e3adc809da0ff49de98f9daf0e76ce3",
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
