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
    return generate_runs(p1_params, 3000, master_seed=77)


@pytest.fixture(scope="session")
def p2_runs(p2_params):
    return generate_runs(p2_params, 3000, master_seed=78)


@pytest.fixture(scope="session")
def p1_blocks(p1_runs):
    return [RunBlock(p1_runs)]


@pytest.fixture(scope="session")
def p2_blocks(p2_runs):
    return [RunBlock(p2_runs)]
