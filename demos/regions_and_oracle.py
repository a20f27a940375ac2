"""Print the rate-region geometry and the exact secrecy oracle side by side.

The regions say what rate pairs are conceivably reachable; the oracle says,
for an instance small enough to enumerate outright, exactly how many bits of
the secrets leak into each party's view. Zero means zero, not "below noise".
"""

from fractions import Fraction

from otbec.exact_oracle import (
    SPECS,
    enumerate_protocol,
    exact_mi,
    exact_mi_given_success,
    tiny_plan,
)
from otbec.rates import (
    containment_note,
    region_colluding_inner,
    region_colluding_outer,
    region_noncolluding_capacity,
    region_noncolluding_outer,
    vertices,
)


def print_region(region):
    pts = "  ".join(f"({x:.2f}, {y:.2f})" for x, y in vertices(region))
    print(f"  {region.label:<24} {pts}")


def main():
    for p1, p2 in ((0.5, 0.5), (0.7, 0.4)):
        print(f"erasure probabilities ({p1}, {p2})")
        for fn in (region_noncolluding_outer, region_noncolluding_capacity,
                   region_colluding_outer, region_colluding_inner):
            print_region(fn(p1, p2))
        note = containment_note(region_noncolluding_outer(p1, p2),
                                region_noncolluding_capacity(p1, p2))
        print(f"  note: {note}\n")

    half = Fraction(1, 2)
    tiny = tiny_plan(n=4, p1=half, p2=half, set_size=1, key_bits=1,
                     phase1_size=1, sprime_size=2)
    print("exact enumeration at n=4, p=1/2, rational mass arithmetic throughout")
    print("(a zero is the integer 0: the joint distribution factors exactly)")
    for name, spec in SPECS.items():
        joint = enumerate_protocol(name, tiny)
        mi = exact_mi(joint)
        cond = exact_mi_given_success(joint)
        fmt = lambda v: v if not isinstance(v, float) else f"{v:.4f}"
        print(f"  {spec.variant:<13} I({spec.secret}; {spec.view})"
              f" = {fmt(mi)}   given no abort: {fmt(cond)}")


if __name__ == "__main__":
    main()
