"""Shared protocol substrate: parameters, outcome codes, the run record, the link step."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .channel import ERASED, as_bits, erasure_partition, restrict
from .hashing import LinearHash, apply, sample_linear_hash

__all__ = [
    "ParamError",
    "OtCode",
    "AbortSignal",
    "DecodeError",
    "ProtocolParams",
    "validate_params",
    "snap_params",
    "OtOutcome",
    "ProtocolRun",
    "sample_subset",
    "select_subsets",
    "encrypt",
    "decode_chosen",
    "check_messages",
    "announce_sets",
    "draw_sprime",
    "send_link",
    "receive_link",
]


class ParamError(ValueError):
    """Parameter rejection; .constraint names the violated invariant."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint
        self.message = message


class OtCode(Enum):
    """Structured outcome of one OT link; callers branch on it, never on reason text."""

    COMPLETED = "completed"
    SET_SHORTFALL = "set-shortfall"  # the erasure partition cannot host the index sets
    UPSTREAM_ABORT = "upstream-abort"  # the phase-1 link aborted, so phase 2 has no input
    LEFTOVER_SHORTFALL = "leftover-shortfall"  # too few leftover erasures to draw S'
    NO_SECOND_PHASE = "no-second-phase"  # the parameters leave no leftover set at all
    ERASED_CHOSEN = "erased-chosen"  # a chosen-set position was erased
    HASH_MISMATCH = "hash-mismatch"  # the verification hash disagrees with the commitment

    @property
    def status(self) -> str:
        """The coarse outcome status reports count this code under."""
        if self in (OtCode.ERASED_CHOSEN, OtCode.HASH_MISMATCH):
            return "decode-error"
        return self.value if self in (OtCode.COMPLETED, OtCode.NO_SECOND_PHASE) else "aborted"


class _LinkStop(Exception):
    """A link that ends without a decoded message: its code and human reason."""

    def __init__(self, code: OtCode, reason: str):
        super().__init__(reason)
        self.code = code
        self.reason = reason

    def outcome(self) -> OtOutcome:
        return OtOutcome(self.code, None, {"reason": self.reason})


class AbortSignal(_LinkStop):
    """Protocol abort (set-size shortfall); not an error, surfaces in the outcome."""


class DecodeError(_LinkStop):
    """Decoding failure (erased chosen position or verification mismatch)."""


def _near_int(x, tol: float = 1e-9):
    """Integer value of x if x is within tol of one, else None."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    r = round(float(x))
    return r if abs(float(x) - r) <= tol else None


def _ceil(x) -> int:
    if isinstance(x, Fraction):
        return math.ceil(x)
    return math.ceil(float(x) - 1e-12)


def _floor(x) -> int:
    if isinstance(x, Fraction):
        return math.floor(x)
    return math.floor(float(x) + 1e-12)


def _once(method):
    """Cache a ProtocolParams method's value per (object, arguments).

    The fields are frozen, so a cached value never goes stale; a call that
    raises caches nothing and raises again on the next call. The cache lives
    outside the fields, so asdict, equality and hashing do not see it.
    """
    name = method.__name__

    @functools.wraps(method)
    def cached(self, *args):
        memo = self.__dict__.setdefault("_memo", {})
        key = (name, *args)
        if key not in memo:
            memo[key] = method(self, *args)
        return memo[key]

    return cached


@dataclass(frozen=True)
class ProtocolParams:
    """Parameters shared by both protocol variants.

    Rates and slacks may be floats or exact Fractions; integrality checks are
    exact for Fractions and tolerance-based (1e-9) for floats. `order` names the
    phase-1 receiver of the colluding variant.
    """

    n: int
    p1: float
    p2: float
    r1: float
    r2: float
    lam: float
    lam_prime: float
    s1: float | None = None
    s2: float | None = None
    variant: str = "noncolluding"
    order: int = 1

    def __post_init__(self) -> None:
        if self.s1 is None:
            object.__setattr__(self, "s1", self.lam_prime)
        if self.s2 is None:
            object.__setattr__(self, "s2", self.lam_prime)

    def p(self, i: int) -> float:
        return self.p1 if i == 1 else self.p2

    def r(self, i: int):
        return self.r1 if i == 1 else self.r2

    def s(self, i: int):
        return self.s1 if i == 1 else self.s2

    @_once
    def mask_size(self, i: int) -> int:
        """Label-set size r_i * n of the plain protocol (and the abort threshold of both)."""
        v = _near_int(self.r(i) * self.n)
        if v is None:
            raise ParamError("set size integrality", f"r{i}*n = {float(self.r(i)) * self.n} is not an integer")
        return v

    @_once
    def key_len(self, i: int) -> int:
        """Message length k_i = n(r_i - lambda')."""
        v = _near_int((self.r(i) - self.lam_prime) * self.n)
        if v is None:
            raise ParamError("integrality", f"n(r{i} - lambda') = {(float(self.r(i)) - float(self.lam_prime)) * self.n} is not an integer")
        return v

    @_once
    def verify_bits(self, i: int) -> int:
        """Verification hash output length s_i * n."""
        v = _near_int(self.s(i) * self.n)
        if v is None:
            raise ParamError("verification hash length", f"s{i}*n = {float(self.s(i)) * self.n} is not an integer")
        return v

    @_once
    def phase1_size(self, i: int) -> int:
        """Colluding phase-1 label-set size ceil(r_i / (p_other - lambda') * n)."""
        other = self.p(3 - i)
        denom = other - self.lam_prime
        if denom <= 0:
            raise ParamError("phase-one inflation", f"p{3 - i} - lambda' = {float(denom)} must be positive")
        if isinstance(self.r(i), Fraction) and isinstance(self.lam_prime, Fraction):
            return _ceil(Fraction(self.r(i)) / Fraction(denom) * self.n)
        return _ceil(float(self.r(i)) / float(denom) * self.n)

    @_once
    def sprime_size(self) -> int:
        """Leftover-erasure set size for the phase-1 receiver; 0 when p_i <= 1/2."""
        i = self.order
        if not float(self.p(i)) > 0.5:
            return 0
        inner = float(self.p(i)) - float(self.lam) - float(self.r(i)) / (float(self.p(3 - i)) - float(self.lam_prime))
        return max(0, _floor(inner * self.n))


def validate_params(params: ProtocolParams) -> ProtocolParams:
    """Check every parameter invariant; raise ParamError naming the violated constraint.

    The checks run once per params object: the fields are frozen, so a pass
    stays valid, while a failure is not recorded and fails again.
    """
    if params.__dict__.get("_valid"):
        return params
    p = params
    if not (isinstance(p.n, int) and p.n >= 1):
        raise ParamError("block length", f"n must be a positive integer, got {p.n}")
    for i in (1, 2):
        if not 0 <= float(p.p(i)) <= 1:
            raise ParamError("erasure probability", f"p{i} = {p.p(i)} not in [0, 1]")
    if not 0 < float(p.lam) < 1:
        raise ParamError("lambda range", f"lambda = {p.lam} not in (0, 1)")
    if p.variant not in ("noncolluding", "colluding"):
        raise ParamError("variant", f"unknown variant {p.variant!r}")
    if p.order not in (1, 2):
        raise ParamError("order", f"phase-1 receiver must be 1 or 2, got {p.order}")
    for i in (1, 2):
        if not 0 < float(p.lam_prime) < float(p.r(i)):
            raise ParamError("lambda-prime range", f"need 0 < lambda' < r{i}, got lambda' = {p.lam_prime}, r{i} = {p.r(i)}")
        if p.mask_size(i) < 1:
            raise ParamError("set size integrality", f"r{i}*n must be a positive integer")
        if p.key_len(i) < 1:
            raise ParamError("integrality", f"n(r{i} - lambda') must be a positive integer")
        if p.verify_bits(i) < 1:
            raise ParamError("verification hash length", f"s{i}*n must be a positive integer")
        cap = min(float(p.p(i)), 1 - float(p.p(i)))
        if p.variant == "noncolluding":
            if not float(p.r(i)) < cap - float(p.lam):
                raise ParamError("rate constraint", f"need r{i} < min(p{i}, 1-p{i}) - lambda = {cap - float(p.lam)}, got {float(p.r(i))}")
        else:
            bound = float(p.p(3 - i)) * cap - float(p.lam)
            if not float(p.r(i)) < bound:
                raise ParamError("rate constraint", f"need r{i} < p{3 - i}*min(p{i}, 1-p{i}) - lambda = {bound}, got {float(p.r(i))}")
    if p.variant == "colluding":
        for i in (1, 2):
            p.phase1_size(i)  # raises on nonpositive inflation denominator
        i = p.order
        if float(p.p(i)) > 0.5:
            inner = float(p.p(i)) - float(p.lam) - float(p.r(i)) / (float(p.p(3 - i)) - float(p.lam_prime))
            if inner <= 0:
                raise ParamError("leftover set size", f"p{i} - lambda - r{i}/(p{3 - i} - lambda') = {inner} must be positive")
    params.__dict__["_valid"] = True
    return params


def snap_params(
    n: int,
    p1: float,
    p2: float,
    r1,
    r2,
    lam,
    lam_prime,
    s1=None,
    s2=None,
    variant: str = "noncolluding",
    order: int = 1,
) -> tuple[ProtocolParams, dict]:
    """Build validated params from possibly non-integral rate requests.

    Set sizes, key lengths and verification lengths are rounded to integers, so
    effective rates become multiples of 1/n (stored as exact Fractions). Returns
    the params plus a record of every adjusted quantity. The strict validator
    still runs; constraint violations that survive snapping are real rejections.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParamError("block length", f"n must be a positive integer, got {n}")
    adjustments: dict = {}

    def snap(label, value, minimum=1):
        bits = max(minimum, round(float(value) * n))
        eff = Fraction(bits, n)
        if abs(float(eff) - float(value)) > 1e-12:
            adjustments[label] = {"requested": float(value), "effective": float(eff)}
        return bits, eff

    mask1, r1_eff = snap("r1", r1)
    mask2, r2_eff = snap("r2", r2)
    lp_bits = max(1, round(float(lam_prime) * n))
    # keep both key lengths positive: k_i = mask_i - lp_bits
    lp_bits = min(lp_bits, mask1 - 1, mask2 - 1)
    if lp_bits < 1:
        raise ParamError("integrality", f"block length {n} too small to separate r*n from n(r - lambda')")
    lp_eff = Fraction(lp_bits, n)
    if abs(float(lp_eff) - float(lam_prime)) > 1e-12:
        adjustments["lambda_prime"] = {"requested": float(lam_prime), "effective": float(lp_eff)}
    _, s1_eff = snap("s1", lam_prime if s1 is None else s1)
    _, s2_eff = snap("s2", lam_prime if s2 is None else s2)
    params = ProtocolParams(
        n=n, p1=p1, p2=p2, r1=r1_eff, r2=r2_eff, lam=lam,
        lam_prime=lp_eff, s1=s1_eff, s2=s2_eff, variant=variant, order=order,
    )
    return validate_params(params), adjustments


# --- outcomes and runs -------------------------------------------------------


@dataclass
class OtOutcome:
    """Result of one OT link: outcome code, decoded message if completed, diagnostics.

    diagnostics holds the human-readable "reason" next to an abort or decode
    code, and "correct" for a completed link.
    """

    code: OtCode
    decoded: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.decoded is not None) != (self.code is OtCode.COMPLETED):
            raise ValueError("decoded message present iff the link completed")

    @property
    def status(self) -> str:
        return self.code.status


@dataclass
class ProtocolRun:
    """Full result of one protocol execution over both links.

    `record` is the omniscient trace (inputs, observations, subset draws, hash
    draws, ciphertexts) and the only copy of the run's data. A party's view
    (its own inputs and channel outputs plus the public messages) is built
    from it by `adversary_audit.assemble_pooled_view`; the empty coalition
    gives the wiretapper's view, the public messages alone.
    """

    params: ProtocolParams
    outcomes: tuple
    record: dict


# --- core operations ----------------------------------------------------------


def sample_subset(pool: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-subset of pool via a seeded partial Fisher-Yates shuffle, returned sorted."""
    pool = np.asarray(pool, dtype=np.int64)
    if size > pool.size:
        raise AbortSignal(OtCode.SET_SHORTFALL, f"cannot draw {size} indices from a pool of {pool.size}")
    # one draw of all swap offsets; it consumes the stream exactly as one
    # rng.integers(0, pool.size - j) call per swap j would
    offsets = rng.integers(0, pool.size - np.arange(size)).tolist()
    a = pool.tolist()
    for j, offset in enumerate(offsets):
        t = j + offset
        a[j], a[t] = a[t], a[j]
    return np.sort(np.array(a[:size], dtype=np.int64))


def select_subsets(
    e: np.ndarray, ebar: np.ndarray, z: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the label-indexed pair (S_0, S_1): the chosen label's set from the
    non-erased positions, the other from the erased ones.

    Draw order is fixed (chosen set first) so runs replay identically.
    """
    if z not in (0, 1):
        raise ValueError("choice bit must be 0 or 1")
    if ebar.size < size or e.size < size:
        raise AbortSignal(
            OtCode.SET_SHORTFALL,
            f"cannot host index sets of size {size}: |Ebar| = {ebar.size}, |E| = {e.size}"
        )
    s_chosen = sample_subset(ebar, size, rng)
    s_other = sample_subset(e, size, rng)
    return (s_chosen, s_other) if z == 0 else (s_other, s_chosen)


def encrypt(m: np.ndarray, kappa: LinearHash, key_material: np.ndarray) -> np.ndarray:
    """One-time-pad the message with the hashed key material: m xor kappa(key)."""
    m = as_bits(m)
    if m.size != kappa.rows:
        raise ValueError(f"message length {m.size} does not match hash output length {kappa.rows}")
    return (m ^ apply(kappa, key_material)).astype(np.uint8)


def decode_chosen(
    y: np.ndarray,
    s_z: np.ndarray,
    kappa_z: LinearHash,
    h_z: LinearHash,
    h_commitment: np.ndarray,
    ciphertext: np.ndarray,
) -> np.ndarray:
    """Recover the chosen message from the receiver's observation.

    On an erasure channel the non-erased symbols determine the key material
    exactly, so decoding is a direct read-off followed by the verification-hash
    equality check against the sender's commitment.
    """
    picked = restrict(y, s_z)
    if (picked == ERASED).any():
        raise DecodeError(OtCode.ERASED_CHOSEN, "erased position in the chosen index set")
    x_hat = picked.astype(np.uint8)
    if not np.array_equal(apply(h_z, x_hat), as_bits(h_commitment)):
        raise DecodeError(OtCode.HASH_MISMATCH, "verification hash mismatch")
    return (as_bits(ciphertext) ^ apply(kappa_z, x_hat)).astype(np.uint8)


# --- the string-OT link step --------------------------------------------------
# announce_sets, send_link and receive_link are the three steps of one link;
# each draws one fixed block of randomness, so every composition replays.


def check_messages(params: ProtocolParams, messages) -> tuple:
    """Coerce ((m10, m11), (m20, m21)) to bit vectors of lengths k1 and k2."""
    out = []
    for i in (1, 2):
        pair = messages[i - 1]
        if len(pair) != 2:
            raise ValueError(f"link {i} needs a message pair")
        k = params.key_len(i)
        coerced = tuple(as_bits(m) for m in pair)
        for m in coerced:
            if m.size != k:
                raise ValueError(f"link {i} messages must have length k{i} = {k}, got {m.size}")
        out.append(coerced)
    return tuple(out)


def announce_sets(
    y: np.ndarray, z: int, size: int, rng: np.random.Generator
) -> tuple[tuple, np.ndarray]:
    """Receiver step: draw the label pair to announce; returns it with the erased positions.

    On a shortfall the AbortSignal propagates; the run records the abort, which is public.
    """
    e, ebar = erasure_partition(y)
    return select_subsets(e, ebar, z, size, rng), e


def draw_sprime(
    e: np.ndarray, unchosen: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Phase-1 receiver step: draw S' from its erasures outside the unchosen set.

    The erasure count can host the phase-1 sets yet fall short of the
    unchosen set plus S'; that raises AbortSignal(LEFTOVER_SHORTFALL).
    e is sorted and the unchosen set was drawn from it.
    """
    keep = np.ones(e.size, dtype=bool)
    keep[np.searchsorted(e, unchosen)] = False
    leftover = e[keep]
    if leftover.size < size:
        raise AbortSignal(OtCode.LEFTOVER_SHORTFALL,
                          f"leftover erasure set too small: {leftover.size} < {size}")
    return sample_subset(leftover, size, rng)


def send_link(
    x: np.ndarray, pair: tuple, messages: tuple, verify_bits: int, rng: np.random.Generator
) -> tuple[dict, tuple, tuple]:
    """Sender step: draw the h and kappa pairs, commit to and pad both messages.

    Returns ({"h": h pair, "kappa": kappa pair}, commitments, ciphertexts).
    """
    mask = pair[0].size
    h_pair = tuple(sample_linear_hash(mask, verify_bits, rng) for _ in range(2))
    kappa_pair = tuple(sample_linear_hash(mask, messages[0].size, rng) for _ in range(2))
    keys = tuple(restrict(x, pair[j]).astype(np.uint8) for j in (0, 1))
    commit = tuple(apply(h_pair[j], keys[j]) for j in (0, 1))
    cipher = tuple(encrypt(messages[j], kappa_pair[j], keys[j]) for j in (0, 1))
    return {"h": h_pair, "kappa": kappa_pair}, commit, cipher


def receive_link(
    y: np.ndarray, pair: tuple, z: int, hashes: dict, commitments: tuple, ciphertexts: tuple,
    messages: tuple,
) -> OtOutcome:
    """Receiver step: decode the chosen message; `correct` compares it with the sent one."""
    try:
        decoded = decode_chosen(y, pair[z], hashes["kappa"][z], hashes["h"][z],
                                commitments[z], ciphertexts[z])
    except DecodeError as err:
        return err.outcome()
    return OtOutcome(OtCode.COMPLETED, decoded,
                     {"correct": bool(np.array_equal(decoded, messages[z]))})
