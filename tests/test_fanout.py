"""Worker fan-out: task order, errors, reaping, identical reports for any worker count, memory."""

import fcntl
import gc
import os
import pickle
import select
import time
import tracemalloc
import weakref
from contextlib import closing
from fractions import Fraction

import pytest

from otbec import _fanout, adversary_audit, cli
from otbec.adversary_audit import generate_runs
from otbec.cli import main
from otbec.exact_oracle import BudgetError
from otbec.protocol_core import AbortSignal, DecodeError, OtCode, ParamError, snap_params

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
    assert list(_fanout.fan_out(lambda t: (t, os.getpid() == parent), range(7))) == [
        (t, count == 1 or t % count == 0) for t in range(7)]
    assert_no_child_left()


def slow_in_workers(t):
    """(t, t * t), after a pause when a worker runs it."""
    if os.getpid() != parent:
        time.sleep(0.02)
    return t, t * t


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_the_stream_is_the_serial_list_when_worker_tasks_are_slower(monkeypatch, count):
    # and a stream: result 0 is consumed before this process runs its next task
    workers(monkeypatch, count)
    events = []

    def task(t):
        if os.getpid() == parent:
            events.append(("run", t))
        return slow_in_workers(t)

    results = []
    for result in _fanout.fan_out(task, range(10)):
        events.append(("got", result[0]))
        results.append(result)
    assert results == [slow_in_workers(t) for t in range(10)]
    assert events[:2] == [("run", 0), ("got", 0)]
    assert_no_child_left()


def test_the_caller_runs_its_next_task_while_a_worker_result_is_late(monkeypatch):
    # the worker's task 1 cannot end before the caller has run task 2: a
    # caller that waited for task 1 before starting task 2 would stall it
    workers(monkeypatch, 2)
    read_end, write_end = os.pipe()
    events = []

    def task(t):
        if os.getpid() != parent:
            if t == 1 and not select.select([read_end], [], [], 30)[0]:
                raise TimeoutError("the caller never ran task 2")
            return t
        events.append(("run", t))
        if t == 2:
            os.write(write_end, b"2")
        return t

    try:
        for result in _fanout.fan_out(task, range(4)):
            events.append(("got", result))
    finally:
        os.close(read_end)
        os.close(write_end)
    assert events == [("run", 0), ("got", 0), ("run", 2), ("got", 1), ("got", 2), ("got", 3)]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipes cannot grow here")
def test_a_worker_runs_ahead_by_several_results_larger_than_a_default_pipe(monkeypatch):
    # the caller's task 0 waits for the worker to reach task 5, which it can
    # only do once results 1 and 3, 200 KB each, sit unread in its pipe
    workers(monkeypatch, 2)
    read_end, write_end = os.pipe()

    def task(t):
        if t == 0 and not select.select([read_end], [], [], 10)[0]:
            raise TimeoutError("the worker blocked on its pipe")
        if t == 5:
            os.write(write_end, b"5")
        return bytes(200_000)

    try:
        assert list(_fanout.fan_out(task, range(6))) == [bytes(200_000)] * 6
    finally:
        os.close(read_end)
        os.close(write_end)
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("bad", [3, 4])
def test_an_exception_surfaces_after_the_results_before_it(monkeypatch, count, bad):
    workers(monkeypatch, count)

    def task(t):
        if t == bad:
            raise ValueError(f"task {t}")
        return slow_in_workers(t)

    got = []
    with pytest.raises(ValueError, match=f"task {bad}"):
        for result in _fanout.fan_out(task, range(8)):
            got.append(result)
    assert got == [slow_in_workers(t) for t in range(bad)]
    assert_no_child_left()


@pytest.mark.parametrize("count", [2, 3])
def test_a_consumer_that_stops_early_leaves_no_child(monkeypatch, count):
    # with the cycle collector off, nothing but closing the stream reaps the
    # workers, one of which is still in a long task
    workers(monkeypatch, count)

    def task(t):
        if t >= count and os.getpid() != parent:
            time.sleep(60)
        return t

    gc.disable()
    try:
        with closing(_fanout.fan_out(task, range(4 * count))) as stream:
            for result in stream:
                if result == 1:
                    break
        assert_no_child_left()
    finally:
        gc.enable()


@pytest.mark.parametrize("count", [2, 3])
def test_a_consumer_that_raises_mid_stream_leaves_no_child(monkeypatch, count):
    workers(monkeypatch, count)
    gc.disable()
    try:
        with pytest.raises(RuntimeError, match="consumer failed"):
            with closing(_fanout.fan_out(slow_in_workers, range(4 * count))) as stream:
                for result in stream:
                    if result[0] == 2:
                        raise RuntimeError("consumer failed")
        assert_no_child_left()
    finally:
        gc.enable()


def test_an_audit_whose_analysis_fails_mid_stream_exits_2_and_leaves_no_child(
        monkeypatch, tmp_path, capsys):
    workers(monkeypatch, 2)
    add = adversary_audit.ConditionSuiteFold.add

    def failing(self, block):
        if self.outcomes["trials"] >= 256:  # the second block, a worker's
            raise ValueError("second block refused")
        add(self, block)

    monkeypatch.setattr(adversary_audit.ConditionSuiteFold, "add", failing)
    out = tmp_path / "r.json"
    assert main(["audit", "--trials", "1200", "--out", str(out)]) == 2
    assert "error: second block refused" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


def test_a_worker_exception_reaches_the_caller_with_its_type(monkeypatch):
    workers(monkeypatch, 2)

    def task(t):
        if t == 3:
            raise KeyError(t)
        return t

    with pytest.raises(KeyError, match="3"):
        list(_fanout.fan_out(task, range(4)))
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
        list(_fanout.fan_out(task, range(4)))
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


@pytest.mark.parametrize("command", ["simulate", "audit"])
def test_a_failing_chunk_in_a_worker_exits_2_and_leaves_no_child(command, monkeypatch, tmp_path,
                                                                 capsys):
    workers(monkeypatch, 2)
    generate_runs = cli.generate_runs

    def failing(params, trials, seed, visibility, start):
        if start == 256:  # the second chunk, which the worker runs
            raise ValueError("chunk at 256 refused")
        return generate_runs(params, trials, seed, visibility, start=start)

    monkeypatch.setattr(cli, "generate_runs", failing)
    out = tmp_path / "r.json"
    code = main([command, "--n", "64", "--r1", "1/8", "--r2", "1/8", "--lambda-prime", "1/16",
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
    "audit-p1": ["audit", "--variant", "p1", "--trials", "600"],
    "audit-p2-broadcast-wiretapper": [
        "audit", "--variant", "p2", "--p1", "0.75", "--p2", "0.75",
        "--visibility-phase1", "broadcast-both", "--visibility-phase2", "broadcast-both",
        "--attacker", "wiretapper", "--link", "2", "--trials", "600"],
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


@pytest.mark.parametrize("name, count", [
    ("p1", 1), ("audit-p1", 1), ("audit-p2-broadcast-wiretapper", 1),
    ("audit-p1", 2), ("audit-p2-broadcast-wiretapper", 2),
], ids=["p1", "audit-p1", "audit-p2-broadcast-wiretapper", "audit-p1-two-workers",
        "audit-p2-broadcast-wiretapper-two-workers"])
def test_campaign_memory_stays_bounded_as_trials_grow(name, count, monkeypatch, tmp_path, capsys):
    # one process runs every chunk itself; with two, every other chunk comes
    # back through a worker's pipe (tracemalloc sees this process only). The
    # condition suite's tallies fill most of their feature alphabet over the
    # first thousand trials, growth bounded by the alphabet and not by the
    # trial count, so the peaks compare 4 and 16 chunks; the later --trials wins
    workers(monkeypatch, count)
    argv = [*CAMPAIGNS[name], "--out", str(tmp_path / "r.json")]
    peaks = []
    tracemalloc.start()
    try:
        for chunks in (4, 16):
            tracemalloc.reset_peak()
            assert main([*argv, "--trials", str(256 * chunks)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peaks[1] <= Fraction(5, 4) * peaks[0], peaks
    assert_no_child_left()


@pytest.mark.parametrize("variant, rate", [("noncolluding", Fraction(3, 16)),
                                           ("colluding", Fraction(1, 8))], ids=["p1", "p2"])
def test_runs_die_with_their_list_even_when_links_abort(variant, rate):
    # with the cycle collector off, only reference counts free the runs: an
    # aborted link must keep no frame of generate_runs, and so its list, alive
    params, _ = snap_params(64, 0.75, 0.75, rate, rate, 0.05, Fraction(1, 16), variant=variant)
    gc.disable()
    try:
        runs = generate_runs(params, 300, master_seed=3)
        assert sum(run.record["aborted"] != {} for run in runs) > 20
        blocks = [weakref.ref(run.record["x"]) for run in runs]
        del runs
        assert all(block() is None for block in blocks)
    finally:
        gc.enable()
