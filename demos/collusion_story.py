"""Why the two-phase variant exists: pool the receivers and attack each design.

Both links ride on the same broadcast block, so in the single-phase variant
receiver 2's intact positions reveal pad bits inside receiver 1's unchosen
set. The pooled guesser turns that into a real advantage over the blind
baseline. The two-phase variant re-keys link 1 from positions receiver 2
never saw, and the same attack collapses back to coin-flipping.
"""

from fractions import Fraction

import numpy as np

from otbec.adversary_audit import RunBlock, condition_suite, generate_runs, guess_unchosen_message
from otbec.protocol_core import snap_params

TRIALS = 4000
SEED = 2026


def attack(params, label):
    blocks = [RunBlock(generate_runs(params, TRIALS, master_seed=SEED))]
    report = guess_unchosen_message(blocks, attacker="pooled-receivers", link=1,
                                    rng=np.random.default_rng(SEED + 1))
    lo, hi = report.ci
    print(label)
    print("  guessing the unchosen link-1 message from both receivers' views")
    print(f"  advantage over blind baseline: {report.advantage:+.4f}"
          f"  (95% CI [{lo:+.4f}, {hi:+.4f}])  -> {report.verdict}")
    return blocks, report


def main():
    p1_params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8),
                               0.05, Fraction(1, 16), variant="noncolluding")
    _, report = attack(p1_params, "single-phase variant, n=64, p=0.5")
    rate = report.extras["knowledge_rate"]
    print(f"  receiver 2 exposed {rate:.1%} of the link-1 pad positions (expect ~50%)\n")

    p2_params, _ = snap_params(48, 0.75, 0.75, Fraction(3, 32), Fraction(3, 32),
                               Fraction(1, 16), Fraction(1, 32), variant="colluding")
    blocks, _ = attack(p2_params, "two-phase variant, n=48, p=0.75")
    print("  phase-2 pads live inside positions erased for receiver 2, so pooling adds nothing\n")

    print("full condition table for the two-phase variant:")
    for row in condition_suite(blocks):
        print(f"  {row.condition:<45} {row.verdict}")


if __name__ == "__main__":
    main()
