"""Shared fixtures: seeded generators and cached run batches.

Run batches are expensive, so the audit tests share session-scoped caches.
Every fixture is deterministic; nothing here reads the clock or the host.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from otbec.adversary_audit import RunBlock, generate_runs
from otbec.protocol_core import snap_params

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def p1_params():
    params, _ = snap_params(
        64, 0.5, 0.5, Fraction(1, 8), Fraction(1, 8), 0.05, Fraction(1, 16),
        variant="noncolluding",
    )
    return params


@pytest.fixture(scope="session")
def p2_params():
    # p > 1/2 keeps the leftover erasure set nonempty so phase 2 actually runs
    params, _ = snap_params(
        48, 0.75, 0.75, Fraction(3, 32), Fraction(3, 32), Fraction(1, 16), Fraction(1, 32),
        variant="colluding",
    )
    return params


@pytest.fixture(scope="session")
def p1_runs(p1_params):
    return list(generate_runs(p1_params, 3000, master_seed=77))


@pytest.fixture(scope="session")
def p2_runs(p2_params):
    return list(generate_runs(p2_params, 3000, master_seed=78))


@pytest.fixture(scope="session")
def p1_blocks(p1_runs):
    return [RunBlock(p1_runs)]


@pytest.fixture(scope="session")
def p2_blocks(p2_runs):
    return [RunBlock(p2_runs)]


# one case per kind of stop: p1 and p2 at p = 0.75 (set shortfall; p2 also
# upstream and leftover), p2 at p = 1/2 (no second phase)
_ABORTING = {
    "p1": (dict(variant="noncolluding", n=64, p1=0.75, p2=0.75, r1=Fraction(3, 16),
                r2=Fraction(3, 16), lam=0.05, lam_prime=Fraction(1, 16)), {"set-shortfall"}),
    "p2": (dict(variant="colluding", n=64, p1=0.75, p2=0.75, r1=Fraction(1, 8),
                r2=Fraction(1, 8), lam=0.05, lam_prime=Fraction(1, 16)),
           {"set-shortfall", "upstream-abort", "leftover-shortfall"}),
    "p2-no-second-phase": (dict(variant="colluding", n=64, p1=0.5, p2=0.5, r1=Fraction(1, 16),
                                r2=Fraction(1, 16), lam=Fraction(1, 32), lam_prime=Fraction(1, 64)),
                           {"no-second-phase"}),
}


@pytest.fixture(scope="session", params=tuple(_ABORTING))
def aborting_runs(request):
    """(params, 100 runs at master seed 3, the stop codes they reach) of one aborting case."""
    fields, codes = _ABORTING[request.param]
    params, _ = snap_params(**fields)
    return params, list(generate_runs(params, 100, master_seed=3)), codes
