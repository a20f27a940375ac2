"""Shared protocol substrate: parameters, outcome codes, the run record, the link step."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .channel import ERASED, as_bits, erasure_partition
from .hashing import LinearHash, sample_linear_hashes

__all__ = [
    "ParamError",
    "OtCode",
    "AbortSignal",
    "DecodeError",
    "as_fraction",
    "ProtocolParams",
    "validate_params",
    "snap_params",
    "OtOutcome",
    "ProtocolRun",
    "sample_subset",
    "select_subsets",
    "encrypt",
    "decode_chosen",
    "check_run_inputs",
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

    def __reduce__(self):
        """Pickle by the fields, which rebuild the text: a worker process sends it back."""
        return type(self), (self.constraint, self.message)


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

    def __reduce__(self):
        """Pickle by the fields, which rebuild the text: a worker process sends it back."""
        return type(self), (self.code, self.reason)

    def outcome(self) -> OtOutcome:
        return OtOutcome(self.code, None, {"reason": self.reason})


class AbortSignal(_LinkStop):
    """Protocol abort (set-size shortfall); not an error, surfaces in the outcome."""


class DecodeError(_LinkStop):
    """Decoding failure (erased chosen position or verification mismatch)."""


def as_fraction(v) -> Fraction:
    """The exact value of a parameter: a float reads as the decimal its repr prints.

    So 0.3 is 3/10, not the float's binary value; ints, Fractions and strings
    such as "3/10" go through Fraction unchanged.
    """
    return Fraction(repr(float(v))) if isinstance(v, float) else Fraction(v)


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

    Rates and slacks may be given as floats or exact Fractions; the fields keep
    them as given. Every derived size and every check computes on their exact
    values (`as_fraction`: a float is the decimal its repr prints), so
    integrality and the strict rate bounds hold or fail exactly. `order` names
    the phase-1 receiver of the colluding variant.
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
        return _whole(as_fraction(self.r(i)) * self.n, "set size integrality", f"r{i}*n")

    @_once
    def key_len(self, i: int) -> int:
        """Message length k_i = n(r_i - lambda')."""
        return _whole((as_fraction(self.r(i)) - as_fraction(self.lam_prime)) * self.n,
                      "integrality", f"n(r{i} - lambda')")

    @_once
    def verify_bits(self, i: int) -> int:
        """Verification hash output length s_i * n."""
        return _whole(as_fraction(self.s(i)) * self.n, "verification hash length", f"s{i}*n")

    @_once
    def phase1_size(self, i: int) -> int:
        """Colluding phase-1 label-set size ceil(r_i / (p_other - lambda') * n)."""
        denom = as_fraction(self.p(3 - i)) - as_fraction(self.lam_prime)
        if denom <= 0:
            raise ParamError("phase-one inflation", f"p{3 - i} - lambda' = {float(denom)} must be positive")
        return math.ceil(as_fraction(self.r(i)) / denom * self.n)

    @_once
    def _leftover_rate(self) -> Fraction:
        """p_i - lambda - r_i/(p_j - lambda') for the phase-1 receiver i.

        The share of the block the phase-1 receiver expects to hold erased
        beyond its unchosen set: the rate of S'.
        """
        i = self.order
        return (as_fraction(self.p(i)) - as_fraction(self.lam) - as_fraction(self.r(i))
                / (as_fraction(self.p(3 - i)) - as_fraction(self.lam_prime)))

    @_once
    def sprime_size(self) -> int:
        """Leftover-erasure set size for the phase-1 receiver; 0 when p_i <= 1/2."""
        if as_fraction(self.p(self.order)) <= Fraction(1, 2):
            return 0
        return max(0, math.floor(self._leftover_rate() * self.n))


def _whole(v: Fraction, constraint: str, label: str) -> int:
    """The integer v; ParamError(constraint) naming label when v is not one."""
    if v.denominator != 1:
        raise ParamError(constraint, f"{label} = {float(v)} is not an integer")
    return v.numerator


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
    prob = {i: as_fraction(p.p(i)) for i in (1, 2)}
    for i in (1, 2):
        if not 0 <= prob[i] <= 1:
            raise ParamError("erasure probability", f"p{i} = {p.p(i)} not in [0, 1]")
    lam, lam_prime = as_fraction(p.lam), as_fraction(p.lam_prime)
    if not 0 < lam < 1:
        raise ParamError("lambda range", f"lambda = {p.lam} not in (0, 1)")
    if p.variant not in ("noncolluding", "colluding"):
        raise ParamError("variant", f"unknown variant {p.variant!r}")
    if p.order not in (1, 2):
        raise ParamError("order", f"phase-1 receiver must be 1 or 2, got {p.order}")
    for i in (1, 2):
        rate = as_fraction(p.r(i))
        if not 0 < lam_prime < rate:
            raise ParamError("lambda-prime range", f"need 0 < lambda' < r{i}, got lambda' = {p.lam_prime}, r{i} = {p.r(i)}")
        if p.mask_size(i) < 1:
            raise ParamError("set size integrality", f"r{i}*n must be a positive integer")
        if p.key_len(i) < 1:
            raise ParamError("integrality", f"n(r{i} - lambda') must be a positive integer")
        if p.verify_bits(i) < 1:
            raise ParamError("verification hash length", f"s{i}*n must be a positive integer")
        cap = min(prob[i], 1 - prob[i])
        if p.variant == "noncolluding":
            if not rate < cap - lam:
                raise ParamError("rate constraint", f"need r{i} < min(p{i}, 1-p{i}) - lambda = {float(cap - lam)}, got {float(rate)}")
        else:
            bound = prob[3 - i] * cap - lam
            if not rate < bound:
                raise ParamError("rate constraint", f"need r{i} < p{3 - i}*min(p{i}, 1-p{i}) - lambda = {float(bound)}, got {float(rate)}")
    if p.variant == "colluding":
        for i in (1, 2):
            p.phase1_size(i)  # raises on nonpositive inflation denominator
        i = p.order
        leftover = p._leftover_rate()
        if prob[i] > Fraction(1, 2) and leftover <= 0:
            raise ParamError("leftover set size", f"p{i} - lambda - r{i}/(p{3 - i} - lambda') = {float(leftover)} must be positive")
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
    the params plus a record of every quantity whose effective value differs
    from the exact requested one. The strict validator still runs; constraint
    violations that survive snapping are real rejections.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ParamError("block length", f"n must be a positive integer, got {n}")
    adjustments: dict = {}

    def snap(label, value, bits=None):
        exact = as_fraction(value)
        if bits is None:
            bits = max(1, round(exact * n))
        eff = Fraction(bits, n)
        if eff != exact:
            adjustments[label] = {"requested": float(value), "effective": float(eff)}
        return bits, eff

    mask1, r1_eff = snap("r1", r1)
    mask2, r2_eff = snap("r2", r2)
    # keep both key lengths positive: k_i = mask_i - lp_bits
    lp_bits = min(max(1, round(as_fraction(lam_prime) * n)), mask1 - 1, mask2 - 1)
    if lp_bits < 1:
        raise ParamError("integrality", f"block length {n} too small to separate r*n from n(r - lambda')")
    _, lp_eff = snap("lambda_prime", lam_prime, lp_bits)
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
    draws, ciphertexts) and the only copy of the run's data. Both variants
    write the same keys: `y_phase1` and `y_phase2` map each receiver to what
    it observed of the input block and of the retransmitted block S' (None
    where it received nothing), and the single-phase variant sets `order`,
    `sprime` and `x_sprime` to None. `adversary_audit.public_messages` gives
    the wiretapper's view, the public messages alone.
    """

    params: ProtocolParams
    outcomes: tuple
    record: dict


# --- the run boundary --------------------------------------------------------
# Each executor calls check_run_inputs first. The steps below trust their
# arrays: the boundary checked the parties' inputs, and the run drew the rest.

_EXECUTORS = {"noncolluding": "run_protocol1", "colluding": "run_protocol2"}


def check_run_inputs(params: ProtocolParams, variant: str, messages, z) -> tuple[tuple, tuple]:
    """The run boundary: check a run's parameters and the parties' inputs once.

    params must validate and be of `variant`; messages must be two pairs
    ((m10, m11), (m20, m21)) of bit vectors of lengths k1 and k2; z must be
    two choice bits, each 0 or 1 (tested before any cast, so 0.7 is refused,
    not truncated). Returns (messages as uint8 vectors, z as ints). Nothing
    after this point re-checks the run's arrays.
    """
    validate_params(params)
    if params.variant != variant:
        raise ParamError("variant", f"{_EXECUTORS[variant]} executes the {variant} variant only")
    if len(messages) != 2:
        raise ValueError("messages must hold one message pair per link")
    out = []
    for i, pair in zip((1, 2), messages):
        if len(pair) != 2:
            raise ValueError(f"link {i} needs a message pair")
        k = params.key_len(i)
        coerced = tuple(as_bits(m) for m in pair)
        for m in coerced:
            if m.size != k:
                raise ValueError(f"link {i} messages must have length k{i} = {k}, got {m.size}")
        out.append(coerced)
    if len(z) != 2:
        raise ValueError("need one choice bit per receiver")
    if any(bit not in (0, 1) for bit in z):
        raise ValueError("choice bit must be 0 or 1")
    return tuple(out), (int(z[0]), int(z[1]))


# --- core operations ----------------------------------------------------------


# A bounded int64 draw below 2**32 takes the generator's 32-bit words one
# value at a time (a rejected word is followed by the next), and the
# generator keeps its spare half-word between calls, so one rng.integers call
# over a list of bounds consumes the stream exactly as one call per bound
# would. The steps below draw consecutive bounded values in one call.


def _shuffled_prefix(pool: list, offsets: list) -> np.ndarray:
    """The sorted prefix a partial Fisher-Yates shuffle leaves: swap j takes j + offsets[j]."""
    for j, offset in enumerate(offsets):
        t = j + offset
        pool[j], pool[t] = pool[t], pool[j]
    return np.array(sorted(pool[:len(offsets)]), dtype=np.int64)


def sample_subset(pool: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-subset of an int64 pool via a seeded partial Fisher-Yates shuffle, sorted.

    Swap j's offset is one rng.integers(0, pool.size - j) draw; all of them
    are drawn in one call.
    """
    if size > pool.size:
        raise AbortSignal(OtCode.SET_SHORTFALL, f"cannot draw {size} indices from a pool of {pool.size}")
    return _shuffled_prefix(pool.tolist(), rng.integers(0, pool.size - np.arange(size)).tolist())


def select_subsets(
    e: np.ndarray, ebar: np.ndarray, z: int, size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the label-indexed pair (S_0, S_1): the chosen label's set from the
    non-erased positions, the other from the erased ones.

    z is a choice bit the run boundary checked. Draw order is fixed (chosen
    set first) so runs replay identically: the draw is that of
    sample_subset(ebar, size) followed by sample_subset(e, size), in one call.
    """
    if ebar.size < size or e.size < size:
        raise AbortSignal(
            OtCode.SET_SHORTFALL,
            f"cannot host index sets of size {size}: |Ebar| = {ebar.size}, |E| = {e.size}"
        )
    offsets = rng.integers(0, [*range(ebar.size, ebar.size - size, -1),
                               *range(e.size, e.size - size, -1)]).tolist()
    s_chosen = _shuffled_prefix(ebar.tolist(), offsets[:size])
    s_other = _shuffled_prefix(e.tolist(), offsets[size:])
    return (s_chosen, s_other) if z == 0 else (s_other, s_chosen)


def encrypt(m: np.ndarray, kappa: LinearHash, key_material: np.ndarray) -> np.ndarray:
    """One-time-pad a checked uint8 message of kappa's output length: m xor kappa(key)."""
    return m ^ kappa(key_material)


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
    equality check against the commitment. All inputs are the run's own arrays.
    """
    picked = y[s_z]
    if ERASED in picked:
        raise DecodeError(OtCode.ERASED_CHOSEN, "erased position in the chosen index set")
    x_hat = picked.astype(np.uint8)
    if (h_z(x_hat) != h_commitment).any():
        raise DecodeError(OtCode.HASH_MISMATCH, "verification hash mismatch")
    return ciphertext ^ kappa_z(x_hat)


# --- the string-OT link step --------------------------------------------------
# announce_sets, send_link and receive_link are the three steps of one link;
# each draws one fixed block of randomness, so every composition replays.


def announce_sets(
    y: np.ndarray, z: int, size: int, rng: np.random.Generator
) -> tuple[tuple, np.ndarray]:
    """Receiver step: draw the label pair to announce; returns it with the erased positions.

    y is the receiver's observation as the run drew it. On a shortfall the
    AbortSignal propagates; the run records the abort, which is public.
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

    x is the run's uint8 block and messages the link's checked pair. Returns
    ({"h": h pair, "kappa": kappa pair}, commitments, ciphertexts).
    """
    mask, k = pair[0].size, messages[0].size
    drawn = sample_linear_hashes(((verify_bits, mask),) * 2 + ((k, mask),) * 2, rng)
    h_pair, kappa_pair = drawn[:2], drawn[2:]
    keys = (x[pair[0]], x[pair[1]])
    commit = (h_pair[0](keys[0]), h_pair[1](keys[1]))
    cipher = (encrypt(messages[0], kappa_pair[0], keys[0]),
              encrypt(messages[1], kappa_pair[1], keys[1]))
    return {"h": h_pair, "kappa": kappa_pair}, commit, cipher


def receive_link(
    y: np.ndarray, pair: tuple, z: int, hashes: dict, commitments: tuple, ciphertexts: tuple,
    messages: tuple,
) -> OtOutcome:
    """Receiver step: decode the chosen message from the run's arrays; `correct` checks it."""
    try:
        decoded = decode_chosen(y, pair[z], hashes["kappa"][z], hashes["h"][z],
                                commitments[z], ciphertexts[z])
    except DecodeError as err:
        return err.outcome()
    return OtOutcome(OtCode.COMPLETED, decoded, {"correct": not (decoded != messages[z]).any()})
