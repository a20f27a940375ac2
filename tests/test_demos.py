"""Smoke tests: the demos run to completion and print what they promise."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name, expected", [
    ("single_run_walkthrough.py", "the public channel carried: ['aborted', 'ciphertexts'"),
    ("regions_and_oracle.py", "I(z1; announced-sets-1) = 0"),
    ("collusion_story.py", "link 1 secrets vs receiver 2 alone"),
])
def test_demo_runs(capsys, name, expected):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert expected in out
