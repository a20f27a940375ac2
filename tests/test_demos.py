"""Smoke tests: the quick demos run to completion and print what they promise.

collusion_story.py is left out for its run time; the acceptance criteria
cover the calls it makes.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("single_run_walkthrough.py", "the public channel carried: ['aborted', 'ciphertexts'"),
    ("regions_and_oracle.py", "I(z1; announced-sets-1) = 0"),
])
def test_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out
