"""The package's only use of scipy: two quantiles and a binomial tail.

Every rate and attack in a report carries a Clopper–Pearson interval, every
condition-suite verdict compares the G statistic with a chi-square quantile,
and the exact abort probability is a binomial tail. All three come from
scipy.special's kernels. The scipy.stats distributions reach the same kernels
for the two quantiles (so the values are equal, not close), but importing
scipy.stats costs most of an invocation's start-up time and memory.
"""

from __future__ import annotations

from scipy.special import bdtr, betaincinv, gammaincinv


def clopper_pearson(successes: int, trials: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact two-sided 1 - alpha interval for a binomial proportion (Clopper & Pearson, 1934)."""
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


def chi2_ppf(q: float, df: int) -> float:
    """Quantile q of the chi-square law with df degrees of freedom."""
    return float(2 * gammaincinv(df / 2, q))


def binom_cdf(k: int, n: int, p: float) -> float:
    """P[Binomial(n, p) <= k], for 0 <= k <= n."""
    return float(bdtr(k, n, p))
