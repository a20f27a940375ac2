"""Closed-form rate bounds and regions for the two-erasure broadcast setting.

Regions are stored as half-plane constraint sets a1*R1 + a2*R2 <= b over the
nonnegative quadrant, with provenance labels so plots can overlay them. The
general bounds evaluate information terms on an explicit channel law by a grid
scan over the binary input distribution with golden-section refinement (the
single-receiver terms are concave in the input law; refinement of the
conditional term assumes unimodality, which holds for independent erasures).

Worked examples (vertices, hand-derived from the closed forms):

(p1, p2) = (0.5, 0.5)
    noncolluding-outer     (0,0) (0.25,0) (0,0.25)
    noncolluding-capacity  (0,0) (0.5,0) (0.5,0.25) (0.25,0.5) (0,0.5)
    colluding-outer        (0,0) (0.25,0) (0,0.25)
    colluding-inner        (0,0) (0.25,0) (0,0.25)

(p1, p2) = (0.7, 0.4)
    noncolluding-outer     (0,0) (0.28,0) (0,0.28)
    noncolluding-capacity  (0,0) (0.3,0) (0.3,0.42) (0.12,0.6) (0,0.6)
    colluding-outer        (0,0) (0.12,0) (0.12,0.16) (0,0.28)
    colluding-inner        (0,0) (0.12,0) (0.12,0.16) (0,0.28)

(p1, p2) = (0.7, 0.7)
    noncolluding-outer     (0,0) (0.3,0) (0.3,0.19) (0.19,0.3) (0,0.3)
    noncolluding-capacity  (0,0) (0.3,0) (0.3,0.21) (0.21,0.3) (0,0.3)
    colluding-outer        (0,0) (0.21,0) (0.21,0.21) (0,0.21)
    colluding-inner        (0,0) (0.21,0) (0.21,0.12) (0.12,0.21) (0,0.21)

(p1, p2) = (1, 1)
    every region           (0,0)

The colluding-inner sum edge at (0.7, 0.7) is R1 + R2 <= 0.33, the
time-sharing bound between the two single-receiver corner boxes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RateRegion",
    "ChannelSpec",
    "bec_information_terms",
    "region_noncolluding_outer",
    "region_noncolluding_capacity",
    "region_colluding_outer",
    "region_colluding_inner",
    "region_timesharing",
    "REGIONS",
    "general_upper_bounds",
    "pt2pt_bounds",
    "vertices",
    "containment_note",
]

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class RateRegion:
    """Rate pairs satisfying every constraint, intersected with R1, R2 >= 0."""

    label: str
    constraints: tuple

    def __post_init__(self) -> None:
        for a1, a2, b in self.constraints:
            if b < -FEAS_TOL:
                raise ValueError(f"constraint {a1}*R1 + {a2}*R2 <= {b} excludes the origin")

    def feasible(self, r1: float, r2: float) -> bool:
        if r1 < -FEAS_TOL or r2 < -FEAS_TOL:
            return False
        return all(a1 * r1 + a2 * r2 <= b + FEAS_TOL for a1, a2, b in self.constraints)

    def as_json(self) -> dict:
        return {
            "label": self.label,
            "constraints": [[float(a1), float(a2), float(b)] for a1, a2, b in self.constraints],
            "vertices": [[float(x), float(y)] for x, y in vertices(self)],
        }


def _mins(p: float) -> float:
    return min(p, 1.0 - p)


def bec_information_terms(p: float) -> tuple[float, float]:
    """(max mutual information, max equivocation) for one erasure link.

    Both maxima are attained by the uniform input: the information term is the
    survival probability, the equivocation term the erasure probability.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"erasure probability {p} not in [0, 1]")
    return 1.0 - p, float(p)


def _check_probs(p1: float, p2: float) -> None:
    for p in (p1, p2):
        if not 0 <= p <= 1:
            raise ValueError(f"erasure probability {p} not in [0, 1]")


def region_noncolluding_outer(p1: float, p2: float) -> RateRegion:
    """Outer bound for receivers that do not share information."""
    _check_probs(p1, p2)
    return RateRegion(
        "noncolluding-outer",
        (
            (1.0, 0.0, _mins(p1)),
            (0.0, 1.0, _mins(p2)),
            (1.0, 1.0, min(p1 * p2, 1.0 - p1 * p2)),
        ),
    )


def region_noncolluding_capacity(p1: float, p2: float) -> RateRegion:
    """Claimed capacity region for independent erasure links without collusion.

    Not always contained in the outer bound; containment_note surfaces the
    discrepancy instead of resolving it.
    """
    _check_probs(p1, p2)
    return RateRegion(
        "noncolluding-capacity",
        (
            (1.0, 0.0, 1.0 - p1),
            (0.0, 1.0, 1.0 - p2),
            (1.0, 1.0, 1.0 - p1 * p2),
        ),
    )


def region_colluding_outer(p1: float, p2: float) -> RateRegion:
    """Outer bound when the receivers pool their views."""
    _check_probs(p1, p2)
    return RateRegion(
        "colluding-outer",
        (
            (1.0, 0.0, p2 * _mins(p1)),
            (0.0, 1.0, p1 * _mins(p2)),
            (1.0, 1.0, min(p1 * p2, 1.0 - p1 * p2)),
        ),
    )


def region_colluding_inner(p1: float, p2: float) -> RateRegion:
    """Achievable region under collusion: the per-link caps plus the
    time-sharing sum bound."""
    _check_probs(p1, p2)
    m1, m2 = _mins(p1), _mins(p2)
    return RateRegion(
        "colluding-inner",
        (
            (1.0, 0.0, p2 * m1),
            (0.0, 1.0, p1 * m2),
            (1.0, 1.0, p2 * m1 + p1 * m2 - m1 * m2),
        ),
    )


def _clamp01(v: float) -> float:
    return max(0.0, v)


def region_timesharing(p1: float, p2: float) -> tuple[RateRegion, RateRegion, RateRegion]:
    """The two ordered two-phase boxes and their convex combination hull.

    Running link 1 first caps R2 by the (2p1 - 1) leftover factor and vice
    versa; the factor is clamped at 0 below one half, where no leftover
    erasures exist. The hull's slanted edge reproduces the inner sum bound.
    """
    _check_probs(p1, p2)
    m1, m2 = _mins(p1), _mins(p2)
    box12 = RateRegion(
        "timesharing-1-first",
        ((1.0, 0.0, p2 * m1), (0.0, 1.0, _clamp01(2 * p1 - 1) * m2)),
    )
    box21 = RateRegion(
        "timesharing-2-first",
        ((1.0, 0.0, _clamp01(2 * p2 - 1) * m1), (0.0, 1.0, p1 * m2)),
    )
    points = list(vertices(box12)) + list(vertices(box21))
    hull = _convex_hull(points)
    return box12, box21, RateRegion("timesharing-hull", _hull_constraints(hull))


# every closed-form region by name, each a function of (p1, p2); "timesharing"
# names the hull of the two ordered boxes
REGIONS = {
    "noncolluding-outer": region_noncolluding_outer,
    "noncolluding-capacity": region_noncolluding_capacity,
    "colluding-outer": region_colluding_outer,
    "colluding-inner": region_colluding_inner,
    "timesharing": lambda p1, p2: region_timesharing(p1, p2)[2],
}


def _convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain convex hull, counterclockwise without repetition."""
    pts = sorted(set((round(x, 12), round(y, 12)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _hull_constraints(hull) -> tuple:
    """Half-planes of a counterclockwise hull, skipping the nonnegativity edges."""
    if len(hull) == 1:
        x, y = hull[0]
        return ((1.0, 0.0, x), (0.0, 1.0, y))
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        return ((1.0, 0.0, max(x0, x1)), (0.0, 1.0, max(y0, y1)))
    cons = []
    k = len(hull)
    for i in range(k):
        px, py = hull[i]
        qx, qy = hull[(i + 1) % k]
        nx, ny = qy - py, -(qx - px)
        if nx < FEAS_TOL and ny < FEAS_TOL:
            continue  # an axis edge; nonnegativity is implicit
        scale = max(abs(nx), abs(ny))
        nx, ny = nx / scale + 0.0, ny / scale + 0.0
        cons.append((nx, ny, nx * px + ny * py))
    return tuple(cons)


@dataclass(frozen=True)
class ChannelSpec:
    """Explicit binary-input broadcast law: rows are output pmfs per input."""

    outputs: tuple
    rows: tuple

    def __post_init__(self) -> None:
        for y in self.outputs:
            if not (isinstance(y, tuple) and len(y) == 2 and all(isinstance(s, (str, int)) for s in y)):
                raise ValueError(f"each output must be a (y1, y2) pair of symbols, got {y!r}")
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError("outputs must be distinct")
        if len(self.rows) != 2:
            raise ValueError("binary input needs exactly two rows")
        for row in self.rows:
            if len(row) != len(self.outputs):
                raise ValueError("row length must match the output alphabet")
            # finite, nonnegative, not booleans: checked before the sum reads them
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                       and v >= 0 for v in row) or abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"rows must be probability vectors of finite numbers, got {row!r}")

    @classmethod
    def bec_pair(cls, p1: float, p2: float) -> "ChannelSpec":
        _check_probs(p1, p2)
        outs = []
        rows: list[list[float]] = [[], []]
        for y1 in (0, 1, "e"):
            for y2 in (0, 1, "e"):
                outs.append((y1, y2))
                for x in (0, 1):
                    w1 = p1 if y1 == "e" else (1.0 - p1 if y1 == x else 0.0)
                    w2 = p2 if y2 == "e" else (1.0 - p2 if y2 == x else 0.0)
                    rows[x].append(w1 * w2)
        return cls(tuple(outs), (tuple(rows[0]), tuple(rows[1])))

    @classmethod
    def from_json(cls, obj: dict) -> "ChannelSpec":
        """The spec of a JSON object {"outputs": [[y1, y2], ...], "rows": [[...], [...]]}."""
        if not (isinstance(obj, dict) and isinstance(obj.get("outputs"), list)
                and isinstance(obj.get("rows"), list) and all(isinstance(r, list) for r in obj["rows"])):
            raise ValueError("a channel must be a JSON object with a list 'outputs' "
                             "and a list of row lists 'rows'")
        outs = tuple(tuple(o) if isinstance(o, list) else o for o in obj["outputs"])
        return cls(outs, tuple(tuple(row) for row in obj["rows"]))

    def to_json(self) -> dict:
        return {
            "outputs": [list(o) if isinstance(o, tuple) else o for o in self.outputs],
            "rows": [list(r) for r in self.rows],
        }


def _entropy(probs: np.ndarray) -> float:
    nz = probs[probs > 0]
    return float(-(nz * np.log2(nz)).sum())


def _projection(spec: ChannelSpec, which: str) -> list[int]:
    """Map each output index to a coarse symbol id (first, second, or both)."""
    symbols: dict = {}
    proj = []
    for y in spec.outputs:
        key = y if which == "both" else y[0] if which == "first" else y[1]
        proj.append(symbols.setdefault(key, len(symbols)))
    return proj


def _cond_entropy(spec: ChannelSpec, t: float, proj: list[int]) -> float:
    """H(X | projected output) at input law (1-t, t)."""
    w = np.asarray(spec.rows, dtype=float)
    px = np.array([1.0 - t, t])
    m = max(proj) + 1
    joint = np.zeros((2, m))
    for idx, s in enumerate(proj):
        joint[:, s] += px * w[:, idx]
    py = joint.sum(axis=0)
    h = 0.0
    for s in range(m):
        if py[s] > 0:
            h += py[s] * _entropy(joint[:, s] / py[s])
    return h


def _hx(t: float) -> float:
    return _entropy(np.array([1.0 - t, t]))


def _golden_max(fn, lo: float, hi: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(60):  # 0.618^60 < 3e-13 shrinks the two-cell bracket below 1e-14
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return max(fc, fd, fn((a + b) / 2.0))


def _max_term(fn, grid: int) -> float:
    ts = np.linspace(0.0, 1.0, grid)
    vals = [fn(float(t)) for t in ts]
    i = int(np.argmax(vals))
    lo = ts[max(0, i - 1)]
    hi = ts[min(grid - 1, i + 1)]
    return max(vals[i], _golden_max(fn, float(lo), float(hi)))


def general_upper_bounds(spec: ChannelSpec, theorem: str = "1", grid: int = 101) -> RateRegion:
    """Assemble the outer bound of the selected theorem from grid-maximized terms.

    theorem "1" uses the single-receiver information and equivocation terms;
    theorem "2" replaces the per-link equivocation with the pooled one and adds
    the cross-conditioned information term.
    """
    if theorem not in ("1", "2"):
        raise ValueError("theorem must be '1' or '2'")
    if grid < 101:
        raise ValueError("grid resolution must be at least 101")
    proj1 = _projection(spec, "first")
    proj2 = _projection(spec, "second")
    proj12 = _projection(spec, "both")

    def mi(proj):
        return lambda t: _hx(t) - _cond_entropy(spec, t, proj)

    def hcond(proj):
        return lambda t: _cond_entropy(spec, t, proj)

    def mi_cond(proj_own, t):
        return _cond_entropy(spec, t, proj_own) - _cond_entropy(spec, t, proj12)

    i1 = float(_max_term(mi(proj1), grid))
    i2 = float(_max_term(mi(proj2), grid))
    i12 = float(_max_term(mi(proj12), grid))
    h12 = float(_max_term(hcond(proj12), grid))
    if theorem == "1":
        b1 = min(i1, float(_max_term(hcond(proj1), grid)))
        b2 = min(i2, float(_max_term(hcond(proj2), grid)))
    else:
        i1c = float(_max_term(lambda t: mi_cond(proj2, t), grid))
        i2c = float(_max_term(lambda t: mi_cond(proj1, t), grid))
        b1 = min(i1, i1c, h12)
        b2 = min(i2, i2c, h12)
    return RateRegion(
        f"general-outer-theorem-{theorem}",
        ((1.0, 0.0, b1), (0.0, 1.0, b2), (1.0, 1.0, min(i12, h12))),
    )


def pt2pt_bounds(p) -> tuple[float, float]:
    """Single-link OT capacity sandwich for an erasure channel.

    Accepts the erasure probability, or a two-row conditional pmf over outputs
    (0, 1, e) which must be in erasure form for the lower bound to apply. Both
    bounds coincide at min(p, 1-p) with the uniform input.
    """
    if isinstance(p, (int, float)) and not isinstance(p, bool):
        if not 0 <= p <= 1:
            raise ValueError(f"erasure probability {p} not in [0, 1]")
        return _mins(float(p)), _mins(float(p))
    rows = [list(map(float, row)) for row in p]
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("expected a 2x3 conditional pmf over outputs (0, 1, e)")
    for r in rows:
        if any(v < -FEAS_TOL for v in r) or abs(sum(r) - 1.0) > 1e-9:
            raise ValueError("rows must be probability vectors")
    # erasure form: output equals the input or the erasure symbol, same p per row
    if rows[0][1] > FEAS_TOL or rows[1][0] > FEAS_TOL or abs(rows[0][2] - rows[1][2]) > 1e-9:
        raise ValueError("erasure-form channel required for the lower bound")
    return pt2pt_bounds(rows[0][2])


def vertices(r: RateRegion) -> list[tuple[float, float]]:
    """Vertices of the feasible polygon, counterclockwise from the origin side.

    Intersects every constraint pair (including the axes), keeps feasible
    points, and orders them around the centroid. Degenerate regions (segments,
    a single point) come back with fewer than three vertices; an unbounded
    region is rejected.
    """
    cons = list(r.constraints) + [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    if not any(a1 > FEAS_TOL for a1, _, _ in cons):
        raise ValueError(f"region {r.label} is unbounded in R1")
    if not any(a2 > FEAS_TOL for _, a2, _ in cons):
        raise ValueError(f"region {r.label} is unbounded in R2")
    pts = []
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            a1, a2, b1 = cons[i]
            c1, c2, b2 = cons[j]
            det = a1 * c2 - a2 * c1
            if abs(det) < 1e-12:
                continue
            x = (b1 * c2 - b2 * a2) / det
            y = (a1 * b2 - c1 * b1) / det
            if r.feasible(x, y):
                pts.append((max(0.0, x), max(0.0, y)))
    unique: list[tuple[float, float]] = []
    for pnt in pts:
        if not any(abs(pnt[0] - u[0]) <= 1e-9 and abs(pnt[1] - u[1]) <= 1e-9 for u in unique):
            unique.append(pnt)
    if len(unique) <= 2:
        return sorted(unique)
    cx = sum(x for x, _ in unique) / len(unique)
    cy = sum(y for _, y in unique) / len(unique)
    unique.sort(key=lambda v: math.atan2(v[1] - cy, v[0] - cx))
    start = min(range(len(unique)), key=lambda i: unique[i])
    return unique[start:] + unique[:start]


def containment_note(outer: RateRegion, inner: RateRegion) -> str | None:
    """Report the first inner vertex escaping the outer region, if any.

    Used to surface formula-level tensions between published regions; the
    caller decides what to do with the note, nothing is resolved silently.
    """
    for x, y in vertices(inner):
        if not outer.feasible(x, y):
            return (
                f"{inner.label} is not contained in {outer.label}: "
                f"vertex ({x:.6g}, {y:.6g}) violates a constraint"
            )
    return None
