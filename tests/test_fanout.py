"""Worker fan-out: task order, errors, reaping, identical reports for any worker count, memory."""

import os
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from otbec import _fanout, cli
from otbec.cli import main
from otbec.exact_oracle import BudgetError
from otbec.protocol_core import AbortSignal, DecodeError, OtCode, ParamError

ORACLE_SPECS = ("choice-vs-sets", "choice-pair-vs-sets", "unchosen-vs-own", "unchosen-vs-pooled",
                "phase2-unchosen-vs-pooled", "phase1-cross-knowledge")


parent = os.getpid()


def workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: count)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_results_come_back_in_task_order(monkeypatch, count):
    workers(monkeypatch, count)
    assert _fanout.fan_out(lambda t: (t, os.getpid() == parent), range(7)) == [
        (t, count == 1 or t % count == 0) for t in range(7)]
    assert_no_child_left()


def test_a_worker_exception_reaches_the_caller_with_its_type(monkeypatch):
    workers(monkeypatch, 2)

    def task(t):
        if t == 3:
            raise KeyError(t)
        return t

    with pytest.raises(KeyError, match="3"):
        _fanout.fan_out(task, range(4))
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2])
def test_the_first_failing_task_in_order_is_raised(monkeypatch, count):
    # task 1 runs in the worker and task 2 here; a serial run would stop at task 1
    workers(monkeypatch, count)

    def task(t):
        if t == 1:
            raise LookupError("task 1")
        if t == 2:
            raise ValueError("task 2")
        return t

    with pytest.raises(LookupError, match="task 1"):
        _fanout.fan_out(task, range(4))
    assert_no_child_left()


@pytest.mark.parametrize("error, fields", [
    (ParamError("rates", "r1 too large"), ("constraint", "message")),
    (BudgetError("n = 9 exceeds budget n <= 8", 7225344), ("message", "estimate")),
    (AbortSignal(OtCode.SET_SHORTFALL, "too few erasures"), ("code", "reason")),
    (DecodeError(OtCode.HASH_MISMATCH, "hash mismatch"), ("code", "reason")),
])
def test_otbec_exceptions_survive_pickling(error, fields):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert all(getattr(back, name) == getattr(error, name) for name in fields)


def test_a_budget_refusal_in_a_worker_still_exits_3(monkeypatch, tmp_path, capsys):
    # the phase-1 set size is over budget only for the second spec, which the worker runs
    workers(monkeypatch, 2)
    code = main(["oracle", "--spec", "choice-vs-sets", "--spec", "phase1-cross-knowledge",
                 "--phase1-size", "3", "--out", str(tmp_path / "o.json")])
    assert code == 3
    assert "enumeration budget exceeded: set size 3 exceeds budget 2" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
    assert_no_child_left()


def test_a_failing_chunk_in_a_worker_exits_2_and_leaves_no_child(monkeypatch, tmp_path, capsys):
    workers(monkeypatch, 2)
    generate_runs = cli.generate_runs

    def failing(params, trials, seed, visibility, start):
        if start == 256:  # the second chunk, which the worker runs
            raise ValueError("chunk at 256 refused")
        return generate_runs(params, trials, seed, visibility, start=start)

    monkeypatch.setattr(cli, "generate_runs", failing)
    out = tmp_path / "r.json"
    code = main(["simulate", "--n", "64", "--r1", "1/8", "--r2", "1/8", "--lambda-prime", "1/16",
                 "--trials", "600", "--out", str(out)])
    assert code == 2
    assert "error: chunk at 256 refused" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


CAMPAIGNS = {
    "p1": ["simulate", "--variant", "p1", "--n", "64", "--r1", "1/8", "--r2", "1/8",
           "--lambda-prime", "1/16", "--trials", "600"],
    "p2-broadcast": ["simulate", "--variant", "p2", "--n", "48", "--p1", "0.75", "--p2", "0.75",
                     "--r1", "3/32", "--r2", "3/32", "--lambda", "1/16", "--lambda-prime", "1/32",
                     "--visibility-phase1", "broadcast-both",
                     "--visibility-phase2", "broadcast-both", "--trials", "600"],
    "oracle": ["oracle", *(arg for spec in ORACLE_SPECS for arg in ("--spec", spec)),
               "--compare-mc", "100"],
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_reports_are_identical_for_any_worker_count(name, monkeypatch, tmp_path, capsys):
    # the config echoes --out, so both runs write the same path
    out = tmp_path / "report.json"
    reports = []
    for count in (1, 2):
        workers(monkeypatch, count)
        assert main([*CAMPAIGNS[name], "--seed", "17", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    assert_no_child_left()


def test_campaign_memory_stays_bounded_as_trials_grow(monkeypatch, tmp_path, capsys):
    # one worker: every chunk runs here, one after another
    workers(monkeypatch, 1)
    argv = ["simulate", "--n", "64", "--r1", "1/8", "--r2", "1/8", "--lambda-prime", "1/16",
            "--out", str(tmp_path / "r.json")]
    peaks = []
    tracemalloc.start()
    try:
        for chunks in (1, 4):
            tracemalloc.reset_peak()
            assert main([*argv, "--trials", str(256 * chunks)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= Fraction(3, 2) * peaks[0], peaks
