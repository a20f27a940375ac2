"""Two-universal hashing as uniformly random GF(2) linear maps, with exact family enumeration."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import _all_bits, as_bits

__all__ = [
    "LinearHash",
    "sample_linear_hash",
    "sample_linear_hashes",
    "apply",
    "collision_probability",
    "joint_collision_probability",
]

# The exact collision probabilities enumerate the whole family; 2^(m*k) matrices must stay enumerable.
EXACT_GUARD_BITS = 20


@dataclass(frozen=True, eq=False)
class LinearHash:
    """A GF(2) linear map given by a k x m bit matrix; output = matrix . input mod 2.

    A matrix given from outside is checked; `sample_linear_hash` builds its
    own draws through `_drawn`, unchecked. Calling the hash applies it to a
    vector the caller vouches for; `apply` checks the vector first.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix)
        if m.ndim != 2:
            raise ValueError("hash matrix must be two-dimensional")
        if not _all_bits(m):
            raise ValueError("hash matrix entries must be bits")
        object.__setattr__(self, "matrix", m.astype(np.uint8, copy=False))

    @classmethod
    def _drawn(cls, matrix: np.ndarray) -> LinearHash:
        """The hash of a two-dimensional uint8 bit matrix the caller drew itself."""
        h = object.__new__(cls)
        object.__setattr__(h, "matrix", matrix)
        return h

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """matrix . x over GF(2) for a uint8 bit vector of length cols.

        The product stays in uint8: its sums wrap modulo 256, which is even,
        so their low bit is still the parity.
        """
        return (self.matrix @ x) & 1

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def cols(self) -> int:
        return self.matrix.shape[1]

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearHash) and self.matrix.shape == other.matrix.shape \
            and bool((self.matrix == other.matrix).all())

    def __hash__(self) -> int:
        return hash((self.matrix.shape, self.matrix.tobytes()))


def sample_linear_hash(m: int, k: int, rng: np.random.Generator) -> LinearHash:
    """Draw a uniformly random k x m GF(2) matrix (every entry i.i.d. uniform)."""
    if m < 0 or k < 0:
        raise ValueError("hash dimensions must be nonnegative")
    return LinearHash._drawn(rng.integers(0, 2, size=(k, m), dtype=np.uint8))


def sample_linear_hashes(shapes, rng: np.random.Generator) -> tuple[LinearHash, ...]:
    """One hash per (rows, cols) shape, in one draw: the matrices and the stream
    of one `sample_linear_hash(cols, rows, rng)` call per shape, in order.

    numpy draws a uint8 in {0, 1} as the top bit of one byte of a 32-bit word
    (its Lemire path for a range of two never rejects), takes a call's bytes
    from its words in little-endian order, and drops the unused bytes of the
    call's last word. So ceil(rows * cols / 4) words per shape, drawn in one
    uint32 call, give each matrix from the top bits of the first rows * cols
    bytes of its words. The shapes are the caller's, unchecked.
    """
    sizes = [rows * cols for rows, cols in shapes]
    spans = [-(-size // 4) * 4 for size in sizes]
    words = rng.integers(0, 2**32, size=sum(spans) // 4, dtype=np.uint32)
    draws = words.astype("<u4", copy=False).view(np.uint8)
    hashes, at = [], 0
    for (rows, cols), size, span in zip(shapes, sizes, spans):
        # shifting the reshaped view leaves each matrix one array that owns its bytes
        hashes.append(LinearHash._drawn(draws[at:at + size].reshape(rows, cols) >> 7))
        at += span
    return tuple(hashes)


def apply(h: LinearHash, x) -> np.ndarray:
    """Apply the linear map to a checked bit vector: output = h.matrix . x over GF(2)."""
    x = as_bits(x)
    if x.size != h.cols:
        raise ValueError(f"input length {x.size} does not match hash input length {h.cols}")
    return h(x)


def _even_parity_row_counts(m: int) -> np.ndarray:
    """For every m-bit difference d, count the m-bit rows r with <r, d> = 0 over GF(2).

    Computed by a fast Walsh-Hadamard transform over the full row space, so the
    result is an exhaustive enumeration of the row family: F(d) = sum_r (-1)^<r,d>
    and the even-parity count is (2^m + F(d)) / 2.
    """
    size = 1 << m
    f = np.ones(size, dtype=np.int64)
    h = 1
    while h < size:
        g = f.reshape(-1, 2 * h)
        x = g[:, :h].copy()
        y = g[:, h:].copy()
        g[:, :h] = x + y
        g[:, h:] = x - y
        h *= 2
    return (size + f) // 2


def _exact_max_collision(m: int, k: int) -> Fraction:
    """Exact max over distinct input pairs of Pr_h[h(x0) = h(x1)] for the k x m family.

    For a linear map, h(x0) = h(x1) iff h(x0 xor x1) = 0, so the collision
    probability of a pair depends only on its nonzero difference d. The family
    is a product of k independent uniform rows, so the number of matrices with
    h(d) = 0 is (even-parity row count for d)^k.
    """
    if m < 1:
        raise ValueError("collision probability needs at least one input bit")
    counts = _even_parity_row_counts(m)[1:]  # skip d = 0 (identical inputs)
    total = 1 << (m * k)
    best = max(int(c) ** k for c in counts)
    return Fraction(best, total)


def collision_probability(m: int, k: int) -> Fraction:
    """Exact maximum collision probability over distinct input pairs for the k x m family.

    Enumerates the whole family, so m*k must stay within EXACT_GUARD_BITS.
    """
    if m * k > EXACT_GUARD_BITS:
        raise ValueError(f"exact enumeration rejected: m*k = {m * k} exceeds guard {EXACT_GUARD_BITS}")
    return _exact_max_collision(m, k)


def joint_collision_probability(
    m1: int,
    k1: int,
    m2: int,
    k2: int,
    identical1: bool = False,
    identical2: bool = False,
) -> Fraction:
    """Exact max joint collision probability for two independently seeded hashes.

    The two family draws are independent, so the joint probability is the product
    of the per-family exact maxima. A component whose input pair is identical
    collides with probability 1, reducing the joint to the other component.
    """
    for m, k in ((m1, k1), (m2, k2)):
        if m * k > EXACT_GUARD_BITS:
            raise ValueError(f"exact enumeration rejected: m*k = {m * k} exceeds guard {EXACT_GUARD_BITS}")
    p1 = Fraction(1) if identical1 else _exact_max_collision(m1, k1)
    p2 = Fraction(1) if identical2 else _exact_max_collision(m2, k2)
    return p1 * p2
