"""The reports' quantiles against their true roots, the exact abort law, and a scipy-free CLI.

Clopper–Pearson bounds are checked against exact rational binomial tails: a
bound x lies within K ulps of the true root when the tail at x - K·ulp(x) and
at x + K·ulp(x) brackets alpha/2. Past n = 300 the exact integers grow too
large, so the tails are 40-digit mpmath sums. Chi-square quantiles are
bracketed the same way by 50-digit mpmath survival functions.
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import otbec
from otbec._stats import CHI2_PPF_ULPS, CLOPPER_PEARSON_ULPS, chi2_ppf, clopper_pearson
from otbec.protocol_noncolluding import exact_abort_probability

TAIL = Fraction(0.05 / 2)  # clopper_pearson's alpha/2, as the double it is


def _cdf(n, k, x):
    """Exact P[Bin(n, x) <= k] for a Fraction x, by Horner's rule in integers."""
    a, d = x.numerator, x.denominator
    b = d - a
    acc, a_pow = 0, 1
    for j in range(k + 1):  # acc = sum_{i<=j} C(n, i) a^i b^(j-i)
        acc = acc * b + math.comb(n, j) * a_pow
        a_pow *= a
    return Fraction(acc * b ** (n - k), d**n)


def _mp_cdf(n, k, x):
    """P[Bin(n, x) <= k] to 40 digits, summed down from its top term, as a Fraction."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x.numerator) / x.denominator
        term = mpmath.binomial(n, k) * x**k * (1 - x) ** (n - k)
        total, odds = term, (1 - x) / x
        for j in range(k, 0, -1):
            term *= j * odds / (n - j + 1)
            total += term
            if term < total * mpmath.mpf(10) ** -40:
                break
        man, exp = total.man_exp
        return man * Fraction(2) ** exp


def _brackets(n, k, lo, hi, cdf):
    """Whether the tails at lo ± K ulps and hi ± K ulps bracket alpha/2."""
    checks = []
    if k == 0:
        checks.append(lo == 0.0)
    else:  # P[Bin(n, x) >= k] = 1 - P[Bin(n, x) <= k-1] rises through alpha/2
        step = CLOPPER_PEARSON_ULPS * Fraction(math.ulp(lo))
        checks.append(1 - cdf(n, k - 1, Fraction(lo) - step) <= TAIL
                      <= 1 - cdf(n, k - 1, Fraction(lo) + step))
    if k == n:
        checks.append(hi == 1.0)
    else:  # P[Bin(n, x) <= k] falls through alpha/2
        step = CLOPPER_PEARSON_ULPS * Fraction(math.ulp(hi))
        checks.append(cdf(n, k, Fraction(hi) - step) >= TAIL >= cdf(n, k, Fraction(hi) + step))
    return all(checks)


@pytest.mark.parametrize("trials", [1, 2, 3, 10, 64, 300, 4500, 5000, 10_000])
def test_clopper_pearson_equals_beta_quantiles(trials):
    # every k by exact rational tails up to n = 300; past it, the audit's and
    # the edges' k by 40-digit tails (far tighter than an ulp of a tail)
    n = trials
    if n <= 300:
        ks, cdf = range(n + 1), _cdf
    else:
        ks = sorted({0, 1, 2, 3, 30, 307, 2223, n // 3, n // 2, n - 30, n - 1, n})
        cdf = _mp_cdf
    misses = [k for k in ks if not _brackets(n, k, *clopper_pearson(k, n), cdf)]
    assert misses == []


def test_chi2_quantile_within_k_ulps_of_the_true_root():
    # df 1..2000 at 0.999, against 50-digit survival functions
    with mpmath.workdps(50):
        target = 1 - mpmath.mpf(0.999)
        misses = []
        for df in range(1, 2001):
            x = chi2_ppf(0.999, df)
            step = CHI2_PPF_ULPS * math.ulp(x)
            below, above = (mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(y) / 2, mpmath.inf,
                                            regularized=True) for y in (x - step, x + step))
            if not below >= target >= above:
                misses.append(df)
    assert misses == []


def test_exact_abort_probability_is_the_rounded_rational_tail():
    # P[|E| < need] + P[|E| > n - need] for |E| ~ Binomial(n, p), on the exact p
    for p in (0.3, 0.5, Fraction(2, 7), 0.75, 0.0):
        q = Fraction(str(p)) if isinstance(p, float) else p
        for n in range(1, 65):
            for need in sorted({1, max(1, n // 4), max(1, n // 2), n // 2 + 1}):
                tail = sum(math.comb(n, j) * q**j * (1 - q) ** (n - j)
                           for j in range(n + 1) if j < need or j > n - need)
                assert exact_abort_probability(n, p, Fraction(need, n)) == float(tail)


def test_cli_runs_load_no_scipy_module(tmp_path):
    # the package imports no scipy module, not even lazily on a run path
    src = str(Path(otbec.__file__).resolve().parent.parent)
    code = (
        "import sys, contextlib, io, otbec.cli\n"
        "runs = (['simulate', '--n', '64', '--trials', '20'], ['audit', '--trials', '20'],\n"
        "        ['oracle', '--n', '3', '--compare-mc', '20'])\n"
        "for i, argv in enumerate(runs):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert otbec.cli.main([*argv, '--out', f'{sys.argv[1]}/r{i}.json']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
