"""The reports' two quantiles, on the standard library alone.

Every rate and attack in a report carries a Clopper–Pearson interval, and every
condition-suite verdict compares the G statistic with a chi-square quantile.
Both are roots of a tail probability that has a finite form at the integer
arguments the reports use, so neither needs scipy. Both roots are found the
same way: Newton's method on the log of the tail, from a textbook estimate,
with a bisection guard, until two adjacent doubles bracket the root; the
nearer one is returned.

**Clopper–Pearson** (Clopper & Pearson, Biometrika 1934). With k successes in
n trials, the lower bound is the x with P[Bin(n, x) >= k] = I_x(k, n-k+1) =
alpha/2, and the upper bound the x with P[Bin(n, x) <= k] = 1 - I_x(k+1, n-k)
= alpha/2. Below x = (a+1)/(a+b+2), I_x(a, b) is its continued fraction
(Press et al., *Numerical Recipes* §6.4) evaluated by modified Lentz; above
it, 1 - I_x(a, b) = P[Bin(a+b-1, x) <= a-1] is a sum of positive binomial
terms taken down from the largest. Both are in x itself: a fraction in
1 - x, rounded, would cost hundreds of ulps on upper bounds near 0. Both
multiply the prefactor C(a+b-1, j)·x^a·(1-x)^b, held in scaled linear form
(a float or integer mantissa and a binary exponent, `frexp`/`ldexp`), never as
the exp of a sum of large logs, which loses about n·2^-53. x = X/2^s is exact,
so 1 - x = (2^s - X)/2^s is too, and the powers are 96-bit integer
mantissas. C(n, j) is a product of ratios: `math.comb`'s exact integer costs
several ms at n = 10^4, and the product's few tens of ulps move the root by
less than one, since the tail's log-slope grows like sqrt(k). The estimate is
Abramowitz & Stegun 26.5.22. k = 0 and k = n use the closed forms
x = 1 - (alpha/2)^(1/n) and x = (alpha/2)^(1/n). Each bound lies within
CLOPPER_PEARSON_ULPS = 8 units in the last place of the true root; the worst
seen is 2.5, for every k at n <= 300 against exact rational tails and for
sampled k at n <= 10^4.

**Chi-square quantile** at integer df and q >= 1/2 (Abramowitz & Stegun
26.4.4–26.4.5). With lam = x/2, the survival function is the finite sum
e^-lam · sum_{j<df/2} lam^j/j! for even df (a Poisson sum), and
erfc(sqrt(lam)) + e^-lam · sum_{j=1}^{(df-1)/2} lam^(j-1/2)/Gamma(j+1/2) for
odd df. The sum is taken downward from its largest index term, which is twice
the density. That term is held in the same scaled form (e^-lam squared up from
exactly halved arguments, lam's power and the factorials as integer
mantissas), so a large df loses nothing to the log of a huge product. The
estimate is Wilson–Hilferty, and the root is bracketed above by the
Laurent–Massart bound. Each quantile lies within CHI2_PPF_ULPS = 4 units in
the last place of the true root; the worst seen is 0.64, for df 1..2000 at
q = 0.999 against 50-digit roots.
"""

from __future__ import annotations

import math
import operator

__all__ = ["CHI2_PPF_ULPS", "CLOPPER_PEARSON_ULPS", "chi2_ppf", "clopper_pearson"]

# worst distance from the true root, in units in the last place of the result
CLOPPER_PEARSON_ULPS = 8
CHI2_PPF_ULPS = 4

_BITS = 96  # the mantissa bits the scaled integer products keep
_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_LN2 = math.log(2.0)


def _trim(m: int, e: int) -> tuple[int, int]:
    """m·2^e with m cut to _BITS bits (relative error below 2^(1-_BITS))."""
    extra = m.bit_length() - _BITS
    return (m >> extra, e + extra) if extra > 0 else (m, e)


def _pow(base: int, p: int) -> tuple[int, int]:
    """base^p as a trimmed (mantissa, exponent), by repeated squaring."""
    m, e = 1, 0
    b, be = _trim(base, 0)
    while p:
        if p & 1:
            m, e = _trim(m * b, e + be)
        p >>= 1
        if p:
            b, be = _trim(b * b, 2 * be)
    return m, e


def _quotient(num: tuple[int, int], den: tuple[int, int]) -> tuple[float, int]:
    """num/den as (float, exponent); the integer division rounds correctly."""
    frac, shift = math.frexp(num[0] / den[0])
    return frac, num[1] - den[1] + shift


def _solve(tail, x: float, lo: float, hi: float, rising: bool) -> float:
    """The double nearest the root of a monotone tail, by guarded Newton steps.

    tail(x) returns (f, slope): f = log(T(x)/target) and slope = df/dx, with T
    rising or falling in x. The root stays bracketed by [lo, hi]; a Newton
    step that leaves the bracket is replaced by the midpoint, and a step
    below one ulp by the next double, so the bracket closes to two adjacent
    doubles.
    """
    f_lo = f_hi = math.inf
    while True:
        f, slope = tail(x)
        if f == 0.0:
            return x
        if (f < 0) == rising:
            lo, f_lo = x, abs(f)
        else:
            hi, f_hi = x, abs(f)
        if math.nextafter(lo, hi) == hi:
            return lo if f_lo < f_hi else hi
        step = x - f / slope if slope else math.nan  # nan bisects
        if step == x:
            step = math.nextafter(x, hi if x == lo else lo)
        x = step if lo < step < hi else lo + (hi - lo) / 2


def _log(value: float, frac: float, e: int) -> float:
    """log(value), or from its scaled form frac·2^e where value underflowed."""
    return math.log(value) if value > 0.0 else math.log(frac) + e * _LN2


# --- Clopper–Pearson ---------------------------------------------------------------


def _beta_fraction(a: int, b: int, x: float, first: float) -> float:
    """The continued fraction of I_x(a, b), by modified Lentz.

    first is 1 - (a+b)x/(a+1), rounded once by the caller. For integer b the
    fraction ends where its term m(b-m) is zero.
    """
    d = 1.0 / (first if abs(first) > _TINY else _TINY)
    c, h = 1.0, d
    for m in range(1, b + 1):
        m2 = 2 * m
        for aa in (m * (b - m) / ((a - 1 + m2) * (a + m2)) * x,
                   -(a + m) * (a + b + m) / ((a + m2) * (a + 1 + m2)) * x):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 2.3e-16:
            break
    return h


def _binomial_head(n: int, top: int, odds: float) -> float:
    """sum_{j<=top} P[Bin(n, x) = j] / P[Bin(n, x) = top], with odds = (1-x)/x.

    All terms are positive and fall from the top, so the sum is summed down
    until they stop counting.
    """
    total = term = 1.0
    for j in range(top, 0, -1):
        term *= j * odds / (n - j + 1)
        total += term
        if term < total * 1e-17:
            break
    return total


def _comb(n: int, k: int) -> tuple[float, int]:
    """C(n, k) as (float, exponent): a product of ratios, renormalized per block."""
    k = min(k, n - k)
    block = max(1, 1000 // n.bit_length())  # n^block stays below 2^1000
    frac, e = 1.0, 0
    for i in range(1, k + 1, block):
        j = min(i + block, k + 1)
        ratios = map(operator.truediv, range(n - k + i, n - k + j), range(i, j))
        frac, shift = math.frexp(frac * math.prod(ratios))
        e += shift
    return frac, e


def _beta_tail(a_b: tuple[int, int], x: float, upper: bool, log_target: float, comb):
    """(log(T/target), d/dx of it) for T = I_x(a, b), or 1 - I_x(a, b) if upper.

    comb(j) is C(a+b-1, j) as (float, exponent).
    """
    a, b = a_b
    num, den = x.as_integer_ratio()
    # x^a (1-x)^b with x = num/den and 1 - x = (den-num)/den, both exact
    (m_x, e_x), (m_y, e_y) = _pow(num, a), _pow(den - num, b)
    m, e = _trim(m_x * m_y, e_x + e_y - (den.bit_length() - 1) * (a + b))
    if x * (a + b + 2) < a + 1:
        # I_x(a, b) = C(a+b-1, a) x^a (1-x)^b · fraction
        p, upper_part = a, False
        series = _beta_fraction(a, b, x, ((a + 1) * den - (a + b) * num) / ((a + 1) * den))
    else:
        # 1 - I_x(a, b) = P[Bin(a+b-1, x) <= a-1], whose top term is C(a+b-1, b) x^(a-1) (1-x)^b
        p, upper_part = b, True
        series = _binomial_head(a + b - 1, a - 1, (den - num) / num) / x
    c_frac, c_e = comb(p)
    frac, shift = math.frexp(float(m) * c_frac * series)
    e += shift + c_e
    part = math.ldexp(frac, e)
    # the density is C(a+b-1, p) x^a (1-x)^b · p/(x(1-x)); rate is its ratio to T
    rate = p / (x * (1.0 - x) * series)
    if upper_part == upper:
        log_value = _log(part, frac, e)
    else:
        value = 1.0 - part
        log_value = math.log(value) if value > 0.0 else -math.inf
        rate *= part / value if value > 0.0 else 1.0
    return log_value - log_target, -rate if upper else rate


def _beta_guess(a: int, b: int, p: float) -> float:
    """The p-quantile of Beta(a, b), roughly (Abramowitz & Stegun 26.5.22)."""
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    if p < 0.5:
        z = -z
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = (z * math.sqrt(al + h) / h
         - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
    return a / (a + b * math.exp(2.0 * w))


def _bound(k: int, n: int, tail_prob: float, upper: bool, comb) -> float:
    """The x with P[Bin(n, x) >= k] = tail_prob, or P[Bin(n, x) <= k] if upper."""
    a_b = (k + 1, n - k) if upper else (k, n - k + 1)
    log_target = math.log(tail_prob)
    # P[Bin(n, k/n) >= k] and P[Bin(n, k/n) <= k] are at least 1/2
    lo, hi = (k / n, 1.0) if upper else (0.0, k / n)
    x = _beta_guess(*a_b, 1.0 - tail_prob if upper else tail_prob)
    if not lo < x < hi:
        x = lo + (hi - lo) / 2
    return _solve(lambda x: _beta_tail(a_b, x, upper, log_target, comb), x, lo, hi, not upper)


def clopper_pearson(successes: int, trials: int) -> tuple[float, float]:
    """Exact two-sided 95% interval for a binomial proportion (Clopper & Pearson, 1934)."""
    k, n = successes, trials
    tail_prob = 0.05 / 2  # alpha / 2
    log_tail = math.log(tail_prob)
    if k == 0:
        return 0.0, -math.expm1(log_tail / n)
    if k == n:
        return math.exp(log_tail / n), 1.0
    # both bounds need C(n, j) = C(n, n - j) only for j = k - 1, k, k + 1
    c_frac, c_e = _comb(n, k)
    combs = {k - 1: (c_frac * k / (n - k + 1), c_e), k: (c_frac, c_e),
             k + 1: (c_frac * (n - k) / (k + 1), c_e)}

    def comb(j):
        return combs[j] if j in combs else combs[n - j]

    return _bound(k, n, tail_prob, False, comb), _bound(k, n, tail_prob, True, comb)


# --- chi-square quantile -----------------------------------------------------------


def _exp_neg(lam: float) -> tuple[float, int]:
    """e^-lam as (float, exponent), squared up from e^(-lam/2^j) so it never underflows."""
    halvings = 0
    while lam > 700.0:
        lam /= 2.0
        halvings += 1
    frac, e = math.frexp(math.exp(-lam))
    for _ in range(halvings):
        frac, shift = math.frexp(frac * frac)
        e = 2 * e + shift
    return frac, e


def _chi2_tail(df: int, scale: tuple[float, int], x: float, log_target: float):
    """(log(Q/target), d/dx of it) for the chi-square survival function Q at x.

    With top the sum's largest index, scale is 1/top! for even df and
    4^top top!/(2 top)! = 2^top/(2 top - 1)!! for odd df, as (float, exponent).
    """
    lam = x / 2.0
    odd = df % 2 == 1
    top = df // 2 if odd else df // 2 - 1
    if top == 0 and odd:
        value = math.erfc(math.sqrt(lam))
        return (math.log(value) - log_target,
                -0.5 * math.exp(-lam) / (math.sqrt(math.pi * lam) * value))
    # the top term, twice the density at x: e^-lam lam^top / top! (even df), or
    # e^-lam lam^(top-1/2) / Gamma(top+1/2) = e^-lam lam^top scale / sqrt(pi lam) (odd df)
    num, den = lam.as_integer_ratio()
    m, e = _pow(num, top)
    exp_frac, exp_e = _exp_neg(lam)
    frac = float(m) * scale[0] * exp_frac
    if odd:
        frac /= math.sqrt(math.pi * lam)
    frac, shift = math.frexp(frac)
    e += shift + scale[1] + exp_e - (den.bit_length() - 1) * top
    # the sum downward from the top term, as a multiple of it
    ratio = term = 1.0
    j = top - 0.5 if odd else float(top)
    last = 1.5 if odd else 1.0
    while j >= last and term > ratio * 1e-17:
        term *= j / lam
        ratio += term
        j -= 1.0
    head = math.ldexp(frac * ratio, e)
    value = head + math.erfc(math.sqrt(lam)) if odd else head
    slope = -0.5 * math.ldexp(frac, e) / value if value else -0.5 / ratio
    return _log(value, frac * ratio, e) - log_target, slope


def _normal_upper(p: float) -> float:
    """The z with P[N(0, 1) > z] = p, for p <= 1/2, to 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = math.sqrt(-2.0 * math.log(p))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def chi2_ppf(q: float, df: int) -> float:
    """Quantile q of the chi-square law with df degrees of freedom, for q in [1/2, 1)."""
    if not 0.5 <= q < 1.0:
        raise ValueError(f"chi2_ppf takes q in [1/2, 1), got {q}")
    if not (isinstance(df, int) and df >= 1):
        raise ValueError(f"chi2_ppf takes a positive integer df, got {df}")
    upper = 1.0 - q  # exact for q >= 1/2
    log_target = math.log(upper)
    # P[X >= df + 2 sqrt(df t) + 2t] <= e^-t (Laurent & Massart, 2000) bounds the
    # root; the 1 covers rounding
    t = -log_target
    hi = df + 2.0 * math.sqrt(df * t) + 2.0 * t + 1.0
    # Wilson–Hilferty: (x/df)^(1/3) is about normal
    c = 2.0 / (9.0 * df)
    x = df * max(1.0 - c + _normal_upper(upper) * math.sqrt(c), 0.1) ** 3
    if not 0.0 < x < hi:
        x = hi / 2
    top = df // 2 if df % 2 else df // 2 - 1
    if df % 2:
        scale = _quotient(_trim(math.factorial(top), 2 * top),
                          _trim(math.factorial(2 * top), 0))
    else:
        scale = _quotient((1, 0), _trim(math.factorial(top), 0))
    return _solve(lambda x: _chi2_tail(df, scale, x, log_target), x, 0.0, hi, False)
