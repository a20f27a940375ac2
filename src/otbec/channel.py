"""Binary-erasure broadcast channel: two independent erasure processes over a common input."""

from __future__ import annotations

import numpy as np

__all__ = [
    "ERASED",
    "as_bits",
    "as_observation",
    "as_index_set",
    "obs_to_string",
    "transmit_bec",
    "erasure_partition",
    "erasure_count",
    "restrict",
    "compose_index_sets",
    "mix64",
    "trial_rng",
]

# Erasure symbol. Kept out of band (not a bit value) so bit vectors and
# observation vectors can never be confused.
ERASED = -1

_MASK64 = (1 << 64) - 1


def _entries_in(a: np.ndarray, lo: int, hi: int) -> bool:
    """Whether every entry of a is an integer in [lo, hi], checked before any cast.

    Integer arrays take one range test; other dtypes are compared with the
    allowed values, so 0.7 is refused, not truncated, while 1.0 passes.
    """
    if not a.size:
        return True
    if a.dtype == np.uint8 and lo == 0:
        return bool(a.max() <= hi)
    if a.dtype.kind in "iu":
        return bool(a.min() >= lo and a.max() <= hi)
    return bool(np.isin(a, np.arange(lo, hi + 1)).all())


def as_bits(bits) -> np.ndarray:
    """Validate a {0,1} sequence (or '0'/'1' string) and return it as a uint8 vector."""
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    a = np.asarray(bits)
    if a.ndim != 1:
        raise ValueError("bit vector must be one-dimensional")
    if not _entries_in(a, 0, 1):
        raise ValueError("bit vector entries must be 0 or 1")
    return a.astype(np.uint8)


def as_observation(symbols) -> np.ndarray:
    """Validate a {0,1,e} sequence and return it as an int8 vector with e = ERASED.

    Accepts strings like '1e0e' with 'e' marking erasures.
    """
    if isinstance(symbols, str):
        symbols = [ERASED if c == "e" else int(c) for c in symbols]
    a = np.asarray(symbols)
    if a.ndim != 1:
        raise ValueError("observation vector must be one-dimensional")
    if not _entries_in(a, ERASED, 1):
        raise ValueError("observation entries must be 0, 1 or the erasure symbol")
    return a.astype(np.int8)


def obs_to_string(y: np.ndarray) -> str:
    """Render an observation vector as a string, erasures as 'e'."""
    return "".join("e" if s == ERASED else str(int(s)) for s in y)


def as_index_set(indices, n: int | None = None) -> np.ndarray:
    """Validate a strictly increasing duplicate-free index set, optionally bounded by n."""
    if isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu":
        a = np.sort(indices.astype(np.int64, copy=False))
    else:
        a = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    if a.size:
        if a[0] < 0:
            raise ValueError("indices must be nonnegative")
        if (a[1:] <= a[:-1]).any():
            raise ValueError("index set must not contain duplicates")
        if n is not None and a[-1] >= n:
            raise ValueError(f"index {int(a[-1])} out of range for length {n}")
    return a


def transmit_bec(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Send a bit vector through a BEC(p): each position erased independently with probability p."""
    if not 0.0 <= float(p) <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
    x = as_bits(x)
    y = x.astype(np.int8)
    erase = rng.random(x.size) < p
    y[erase] = ERASED
    return y


def erasure_partition(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split positions of an observation into (erased E, non-erased Ebar)."""
    y = np.asarray(y)
    e = np.flatnonzero(y == ERASED).astype(np.int64)
    ebar = np.flatnonzero(y != ERASED).astype(np.int64)
    return e, ebar


def erasure_count(y: np.ndarray) -> tuple[int, int]:
    """Return (erased count, non-erased count) of an observation."""
    y = np.asarray(y)
    erased = int((y == ERASED).sum())
    return erased, y.size - erased


def restrict(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Restrict a vector to an index set: output j-th entry = v at the j-th smallest index."""
    v = np.asarray(v)
    s = as_index_set(s, n=v.size)
    return v[s]


def compose_index_sets(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Map positions of t through s, so restrict(restrict(v, s), t) == restrict(v, compose(s, t))."""
    s = np.asarray(s, dtype=np.int64)
    t = as_index_set(t, n=s.size)
    return s[t]


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
