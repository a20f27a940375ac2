"""The scipy.special kernels behind the reports' intervals and verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta, chi2

import otbec
from otbec._stats import chi2_ppf, clopper_pearson


@pytest.mark.parametrize("trials", [1, 2, 3, 10, 64, 300, 4500, 5000, 10_000])
def test_clopper_pearson_equals_beta_quantiles(trials):
    # equal, not approximately equal: the report bytes depend on every bit
    s = np.arange(trials + 1)
    with np.errstate(invalid="ignore"):
        lo = beta.ppf(0.025, s, trials - s + 1)
        hi = beta.ppf(0.975, s + 1, trials - s)
    lo[0], hi[-1] = 0.0, 1.0
    assert [clopper_pearson(int(k), trials) for k in s] == list(zip(lo.tolist(), hi.tolist()))


def test_chi2_quantile_equals_scipy_stats():
    df = np.arange(1, 2001)
    assert [chi2_ppf(0.999, int(d)) for d in df] == chi2.ppf(0.999, df).tolist()


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats would cost most of every invocation's start-up
    src = str(Path(otbec.__file__).resolve().parent.parent)
    code = "import sys, otbec.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
