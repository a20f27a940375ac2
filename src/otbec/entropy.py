"""Finite-distribution information toolkit: entropies, distances, and extraction bounds.

FiniteDistribution and JointDistribution hold float or exact Fraction
probabilities for the toolkit functions. No run path builds them: the audit's
integer tallies and the oracle's integer numerators go straight to
`mutual_information_of`, the one mutual-information kernel, as (cells, total).
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "FiniteDistribution",
    "JointDistribution",
    "min_entropy",
    "cond_min_entropy",
    "smooth_min_entropy",
    "renyi2_entropy",
    "statistical_distance",
    "zero_entropy",
    "mutual_information",
    "mutual_information_of",
    "privacy_amp_bound",
    "dlhl_closeness",
]

MASS_TOL = 1e-9


def _check_mass(probs) -> None:
    if not probs:
        raise ValueError("distribution must have at least one outcome")
    total = sum(probs)
    if any(p < 0 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(total) - 1.0) > MASS_TOL:
        raise ValueError(f"probabilities must sum to 1 within {MASS_TOL}, got {float(total)}")


class FiniteDistribution:
    """Explicit probability vector over an enumerable outcome space.

    Probabilities may be floats or exact Fractions; operations preserve exactness
    where they can.
    """

    __slots__ = ("outcomes", "probs")

    def __init__(self, outcomes, probs):
        outcomes = tuple(outcomes)
        probs = tuple(probs)
        if len(outcomes) != len(probs):
            raise ValueError("outcomes and probs must have equal length")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcomes must be distinct")
        _check_mass(probs)
        self.outcomes = outcomes
        self.probs = probs

    @classmethod
    def from_mapping(cls, mapping) -> "FiniteDistribution":
        items = list(mapping.items())
        return cls([o for o, _ in items], [p for _, p in items])

    def as_mapping(self) -> dict:
        return dict(zip(self.outcomes, self.probs))

    def __len__(self) -> int:
        return len(self.outcomes)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{o!r}: {p}" for o, p in zip(self.outcomes, self.probs))
        return f"FiniteDistribution({{{pairs}}})"


class JointDistribution:
    """Distribution over (x, y) pairs, from a mapping of each pair to its probability."""

    __slots__ = ("_items", "built_as_product")

    def __init__(self, pairs_to_probs):
        items = list(pairs_to_probs.items())
        for pair, _ in items:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError("joint outcomes must be (x, y) pairs")
        _check_mass([p for _, p in items])
        self._items = tuple(items)
        self.built_as_product = False

    @classmethod
    def product(cls, px: FiniteDistribution, py: FiniteDistribution) -> "JointDistribution":
        j = cls({(x, y): p * q for x, p in zip(px.outcomes, px.probs)
                 for y, q in zip(py.outcomes, py.probs)})
        j.built_as_product = True
        return j

    def items(self):
        return self._items


def min_entropy(d: FiniteDistribution) -> float:
    """H_inf = log2(1 / max_x P(x))."""
    top = max(d.probs)
    if top <= 0:
        raise ValueError("distribution has no positive mass")
    return -math.log2(float(top))


def cond_min_entropy(j: JointDistribution) -> float:
    """H_inf(X|Y) = min over positive-mass y of H_inf(X | Y = y)."""
    rows: dict = {}
    masses: dict = {}
    for (x, y), p in j.items():
        if p > 0:
            rows[y] = max(rows.get(y, 0), p)
            masses[y] = masses.get(y, 0) + p
    if not rows:
        raise ValueError("joint has no positive mass")
    # max_x P(x|y) = max_x p(x,y) / p(y); minimize entropy over y
    worst = max(float(rows[y]) / float(masses[y]) for y in rows)
    return -math.log2(worst)


def smooth_min_entropy(d: FiniteDistribution, eps: float) -> float:
    """Greedy smoothing surrogate: level the largest atoms down, then report min-entropy.

    The neighborhood is mass removal without renormalization; total removed mass is
    capped at 2*eps so the trimmed vector stays within statistical distance eps
    (with the 1/2-sum convention) of the original. Equals min_entropy at eps = 0
    and is nondecreasing in eps. This is a documented stand-in for the exact
    optimization, validated exhaustively on small spaces.
    """
    if not 0 <= eps < 1:
        raise ValueError("smoothing budget must lie in [0, 1)")
    budget = 2 * float(eps)
    probs = sorted((float(p) for p in d.probs), reverse=True)
    if probs[0] <= 0:
        raise ValueError("distribution has no positive mass")
    if budget == 0:
        return -math.log2(probs[0])
    # Water-filling: find the lowest level L with sum_i max(p_i - L, 0) <= budget.
    removed = 0.0
    level = probs[0]
    for j in range(len(probs)):
        nxt = probs[j + 1] if j + 1 < len(probs) else 0.0
        step = (j + 1) * (probs[j] - nxt)
        if removed + step >= budget:
            level = probs[j] - (budget - removed) / (j + 1)
            break
        removed += step
        level = nxt
    if level <= 0:
        return math.inf
    return -math.log2(level)


def renyi2_entropy(d: FiniteDistribution) -> float:
    """H_2 = log2(1 / sum_x P(x)^2)."""
    coll = sum(p * p for p in d.probs)
    return -math.log2(float(coll))


def statistical_distance(p: FiniteDistribution, q: FiniteDistribution) -> float:
    """(1/2) sum_x |p(x) - q(x)| over a shared outcome space."""
    if set(p.outcomes) != set(q.outcomes):
        raise ValueError("distributions must share an outcome space")
    qm = q.as_mapping()
    total = sum(abs(pp - qm[o]) for o, pp in zip(p.outcomes, p.probs))
    if isinstance(total, Fraction):
        return total / 2
    return float(total) / 2


def zero_entropy(d) -> float:
    """H_0 = log2 |support|; for a joint, the conditional form max_y log2 |support(X|Y=y)|."""
    if isinstance(d, JointDistribution):
        support: dict = {}
        for (x, y), p in d.items():
            if p > 0:
                support.setdefault(y, set()).add(x)
        if not support:
            raise ValueError("joint has no positive mass")
        return math.log2(max(len(s) for s in support.values()))
    n = sum(1 for p in d.probs if p > 0)
    if n == 0:
        raise ValueError("distribution has no positive mass")
    return math.log2(n)


def mutual_information(j: JointDistribution):
    """Shannon mutual information in bits.

    Product structure is detected exactly (p(x,y) == p(x) p(y) for every pair,
    or the joint was built by JointDistribution.product), in which case an
    exact 0 is returned; this keeps rational-arithmetic joints exactly zero
    instead of accumulating rounding noise. Residual float rounding below
    1e-12 is clamped to zero so the plug-in estimate stays nonnegative.
    """
    if j.built_as_product:
        return _zero(c for _, c in j.items())
    return mutual_information_of(j.items(), 1)


def _zero(weights):
    """Exact 0 when every weight is exact (int or Fraction), else 0.0."""
    return 0 if all(isinstance(c, (Fraction, int)) for c in weights) else 0.0


def mutual_information_of(cells, total):
    """Mutual information in bits of the joint whose ((x, y), c) cells have probability c / total.

    cells is iterated several times, so it must be re-iterable: a list, a
    dict's items, or an object whose __iter__ walks its cells afresh, not a
    generator. With integer weights and total, the product test
    c * total == a * b is exact integer arithmetic, and each float(c / total)
    is the correctly rounded value of the rational, so the result equals the
    one on the normalised Fraction joint bit for bit. The result is the int 0
    when the joint factors and every weight is exact (an int or a Fraction),
    else a float. Exactness is read off the row marginals: a row's sum of
    exact weights is exact, and a float weight makes it a float.
    """
    px: dict = {}
    py: dict = {}
    for (x, y), c in cells:
        px[x] = px.get(x, 0) + c
        py[y] = py.get(y, 0) + c
    if all(c * total == px[x] * py[y] for (x, y), c in cells):
        return _zero(px.values())
    mi = 0.0
    for (x, y), c in cells:
        if c > 0:
            p = float(c / total)
            mi += p * math.log2(p / (float(px[x] / total) * float(py[y] / total)))
    if -1e-12 < mi < 0.0:
        return 0.0
    return mi


def privacy_amp_bound(l: float, c: float) -> float:
    """Extractable key entropy max(0, l - log2(1 + 2^(l - c))) for key length l and order-2 bound c."""
    t = l - c
    if t > 0:
        soft = t + math.log2(1.0 + 2.0 ** (-t))
    else:
        soft = math.log2(1.0 + 2.0 ** t)
    return max(0.0, l - soft)


def dlhl_closeness(m: int, eps: float, eps_prime: float) -> float:
    """Distance-from-uniform bound 2^m * eps / 2 + 2^m * eps_prime for m simultaneous hashes."""
    if eps < 0 or eps_prime < 0:
        raise ValueError("eps and eps_prime must be nonnegative")
    return (2 ** m) * eps / 2 + (2 ** m) * eps_prime

