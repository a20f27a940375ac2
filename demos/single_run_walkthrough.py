"""Walk through one run of each protocol variant and print what every party saw.

Small block length so the whole run fits on a screen. The receiver
learns the message behind its choice bit, decodes it from the ciphertext pair,
and the decoded bits match the chosen message exactly.
"""

from fractions import Fraction

import numpy as np

from otbec.adversary_audit import assemble_pooled_view
from otbec.channel import erasure_count
from otbec.protocol_core import snap_params
from otbec.protocol_colluding import VisibilityModel, run_protocol2
from otbec.protocol_noncolluding import run_protocol1


def fresh_messages(params, rng):
    return tuple(
        tuple(rng.integers(0, 2, params.key_len(i), dtype=np.uint8) for _ in (0, 1))
        for i in (1, 2)
    )


def show(run, chosen):
    print(f"  input block x: {''.join(map(str, run.record['x']))}")
    for i in (1, 2):
        outcome = run.outcomes[i - 1]
        print(f"  receiver {i}: chose z{i}={chosen[i - 1]}, status {outcome.status}")
        if outcome.status == "completed":
            want = run.record["messages"][i - 1][chosen[i - 1]]
            print(f"    decoded {''.join(map(str, outcome.decoded))}"
                  f" == chosen {''.join(map(str, want))}:"
                  f" {outcome.diagnostics['correct']}")
    public = sorted(assemble_pooled_view(run, ()).fields["public"])
    print(f"  the public channel carried: {public}")


def main():
    rng = np.random.default_rng(7)

    print("single-phase variant (n=64, symmetric half-erasure links)")
    params, _ = snap_params(64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8),
                            0.05, Fraction(1, 16), variant="noncolluding")
    run = run_protocol1(params, fresh_messages(params, rng), (0, 1), rng)
    show(run, (0, 1))
    erased, intact = erasure_count(run.record["y1"])
    print(f"  receiver 1 saw {erased} erasures and {intact} intact of {params.n};"
          f" each announced set holds {params.mask_size(1)} positions\n")

    print("two-phase variant (n=48, p=0.75 so a leftover erased set survives phase 1)")
    params2, _ = snap_params(48, 0.75, 0.75, Fraction(3, 32), Fraction(3, 32),
                             Fraction(1, 16), Fraction(1, 32), variant="colluding")
    run2 = run_protocol2(params2, fresh_messages(params2, rng), (1, 0), rng,
                         visibility=VisibilityModel())
    show(run2, (1, 0))
    sprime = run2.record["sprime"]
    print(f"  leftover erased set carried {len(sprime)} positions into phase 2;"
          f" phase-2 sets were drawn from it alone")


if __name__ == "__main__":
    main()
