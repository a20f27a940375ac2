"""The abstract's claims where the lab contradicts them today, as strict expected failures.

Each test asserts the claim as the lab reads it. The lab measures the
opposite, so each is marked xfail(strict=True) with the measured reason and
the ROADMAP item that owns the fix: a fix turns it into an unexpected pass,
which fails the suite, and the fixing change moves it to a plain assertion.
A broken precondition is a plain failure (pytest.fail), never an expected one.
"""

import json

import numpy as np
import pytest

from otbec.adversary_audit import generate_runs
from otbec.cli import main
from otbec.protocol_core import snap_params
from otbec.rates import containment_note, region_noncolluding_capacity, region_noncolluding_outer


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of 0/1 matrix rows, eliminated as packed ints by leading bit."""
    pivots: dict = {}
    for row in rows:
        row = int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "C1, ROADMAP item 2: the unchosen key is uniform only on an affine space of dimension "
    "rank[kappa; h] - rank h, and the default s = lambda' makes [kappa; h] square; at "
    "criterion 1's point 200 runs at seed 7919 leak a mean 0.86 bits to the wiretapper, "
    "with P(leak > 0) = 0.70 over 400 published links"))
def test_c1_the_wiretapper_learns_nothing_of_a_p1_unchosen_message():
    # criterion 1's point: n=256, both p = 1/2, r = 0.15, lambda = lambda' = 0.05
    params, _ = snap_params(256, 0.5, 0.5, 0.15, 0.15, 0.05, 0.05)
    leaks = []
    for run in generate_runs(params, 200, 7919):
        record = run.record
        for link in record["sets"]:
            # the public kappa and h of the unchosen label, and the key length k
            u = 1 - record["z"][link - 1]
            kappa = record["hashes"][link]["kappa"][u].matrix
            h = record["hashes"][link]["h"][u].matrix
            residual = _gf2_rank(np.vstack([kappa, h])) - _gf2_rank(h)
            leaks.append(kappa.shape[0] - residual)
    if len(leaks) != 400:
        pytest.fail(f"expected 400 published links, got {len(leaks)}")
    leaks = np.array(leaks)
    assert leaks.max() == 0, f"mean leak {leaks.mean():.2f} bits, P(leak > 0) {(leaks > 0).mean():.2f}"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "C4, ROADMAP item 4: simulate --variant p1 --n 400 --r1 0.4 --r2 0.4 --lambda 0.05 "
    "--lambda-prime 0.05 --trials 200 decodes 200 of 200 at key rate (0.35, 0.35), outside "
    "region_noncolluding_outer(0.5, 0.5), whose sum term is 0.25"))
def test_c4_every_executed_p1_rate_pair_lies_inside_the_outer_bound(tmp_path, capsys):
    out = tmp_path / "sim.json"
    if main(["simulate", "--variant", "p1", "--n", "400", "--r1", "0.4", "--r2", "0.4",
             "--lambda", "0.05", "--lambda-prime", "0.05", "--trials", "200",
             "--out", str(out)]) != 0:
        pytest.fail("the campaign did not run")
    capsys.readouterr()
    links = json.loads(out.read_text())["results"]["per_link"]
    if any(links[i]["counts"]["completed"] != 200 or links[i]["correctness_rate"] != 1.0
           for i in ("1", "2")):
        pytest.fail(f"the campaign did not decode 200 of 200 on both links: {links}")
    params, _ = snap_params(400, 0.5, 0.5, 0.4, 0.4, 0.05, 0.05)
    k1, k2 = params.plan().key
    assert region_noncolluding_outer(0.5, 0.5).feasible(k1 / 400, k2 / 400), (k1 / 400, k2 / 400)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "C3, ROADMAP item 4: at (0.5, 0.5) the noncolluding capacity region's vertices escape "
    "the noncolluding outer bound, so the two bounds do not coincide as coded"))
def test_c3_the_noncolluding_capacity_lies_inside_the_noncolluding_outer_bound():
    note = containment_note(region_noncolluding_outer(0.5, 0.5),
                            region_noncolluding_capacity(0.5, 0.5))
    assert note is None, note
