"""Binary-erasure broadcast channel: two independent erasure processes over a common input."""

from __future__ import annotations

import numpy as np
import numpy.random  # every run draws from it: load it with the package, not in the first trial

__all__ = [
    "ERASED",
    "as_bits",
    "transmit_bec",
    "erasure_partition",
    "erasure_count",
    "restrict",
    "mix64",
    "trial_rng",
]

# Erasure symbol. Kept out of band (not a bit value) so bit vectors and
# observation vectors can never be confused.
ERASED = -1

_MASK64 = (1 << 64) - 1


def _all_bits(a: np.ndarray) -> bool:
    """Whether every entry of a is 0 or 1, checked before any cast.

    Integer arrays take one range test; other dtypes are compared with the
    allowed values, so 0.7 is refused, not truncated, while 1.0 passes.
    """
    if not a.size:
        return True
    if a.dtype.kind == "u":
        return bool(a.max() <= 1)
    if a.dtype.kind == "i":
        return bool(a.min() >= 0 and a.max() <= 1)
    return bool(np.isin(a, (0, 1)).all())


def as_bits(bits) -> np.ndarray:
    """Validate a {0,1} sequence (or '0'/'1' string) and return it as a uint8 vector."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    a = np.asarray(bits)
    if a.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    if not _all_bits(a):
        raise ValueError("bit vector entries must be 0 or 1")
    return a.astype(np.uint8)


def transmit_bec(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Send a bit vector through a BEC(p): each position erased independently with probability p.

    A one-dimensional uint8 block (what the executors send) takes one range
    check and no copy; any other input goes through `as_bits`.
    """
    if not 0.0 <= float(p) <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
    if not (isinstance(x, np.ndarray) and x.dtype == np.uint8 and x.ndim == 1 and _all_bits(x)):
        x = as_bits(x)
    y = x.astype(np.int8)
    y[rng.random(x.size) < p] = ERASED
    return y


def erasure_partition(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split positions of an observation into (erased E, non-erased Ebar), both int64."""
    erased = np.asarray(y) == ERASED
    return np.flatnonzero(erased).astype(np.int64, copy=False), \
        np.flatnonzero(~erased).astype(np.int64, copy=False)


def erasure_count(y: np.ndarray) -> tuple[int, int]:
    """Return (erased count, non-erased count) of an observation."""
    y = np.asarray(y)
    erased = int((y == ERASED).sum())
    return erased, y.size - erased


def restrict(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Restrict a vector to a sorted index set the run drew: j-th entry = v at the j-th smallest index."""
    return v[s]


def mix64(master_seed: int, index: int) -> int:
    """Derive a 64-bit child seed from (master seed, index) with a splitmix64 avalanche.

    Every trial of a campaign gets child seed mix64(master, trial_index), so results
    are reproducible no matter how trials are scheduled.
    """
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Seeded generator for one trial, derived via mix64."""
    return np.random.default_rng(mix64(master_seed, trial_index))
