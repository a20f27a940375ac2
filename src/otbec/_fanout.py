"""Run independent tasks over forked worker processes; results come back in task order.

Every campaign trial and every oracle spec draws from its own seed, so a
task's result does not depend on the process that runs it, and a caller's
report is the same for any worker count.

Workers are forked, not spawned: they start from the caller's state, with
otbec already imported and the parameters checked, and the tasks and the
function reach them without pickling. Only results travel back, pickled
through a pipe. otbec starts no threads of its own, so forking is safe here.
"""

from __future__ import annotations

import os
import pickle

__all__ = ["fan_out"]

# set in a forked worker only, which never returns to its caller
_in_worker = False


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(fn, tasks: list, first: int, stride: int) -> tuple:
    """(results, None) of tasks first, first + stride, ...; or (None, (index, exception))
    of the first of them that raises."""
    results = []
    for index in range(first, len(tasks), stride):
        try:
            results.append(fn(tasks[index]))
        except Exception as exc:  # sent to the caller and raised there
            return None, (index, exc)
    return results, None


def _work(fn, tasks: list, first: int, stride: int, write_end: int, inherited: list) -> None:
    """A forked worker: close the read ends it inherited, run its share, pipe
    the pickled outcome back, and exit."""
    global _in_worker
    _in_worker = True
    try:
        for fd in inherited:
            os.close(fd)
        payload = pickle.dumps(_share(fn, tasks, first, stride))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
    finally:
        # never unwind into the caller's stack, which is the parent's; a
        # worker that could not send its outcome sends nothing, and the
        # caller raises for it
        os._exit(0)


def _receive(read_end: int) -> tuple:
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    if not payload:
        raise RuntimeError("a worker process ended without sending its result")
    return pickle.loads(payload)


def fan_out(fn, tasks) -> list:
    """[fn(task) for task in tasks], run on up to one process per CPU.

    With W processes, this one runs tasks 0, W, 2W, ... itself, and each of
    W - 1 forked workers runs its own stride and sends its results back. If
    tasks raise, the exception raised here is that of the first of them in
    task order, as in a serial run. Every worker is reaped before this
    returns or raises. With one CPU or one task, without os.fork, or inside
    a worker, the tasks run here one after another.
    """
    tasks = list(tasks)
    workers = min(len(tasks), _cpu_count())
    if workers < 2 or _in_worker or not hasattr(os, "fork"):
        return [fn(task) for task in tasks]
    pids, open_ends = [], []
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            open_ends.append(read_end)
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                raise
            if pid == 0:
                _work(fn, tasks, first, workers, write_end, open_ends)
            os.close(write_end)
            pids.append(pid)
        shares = [_share(fn, tasks, 0, workers)]
        while open_ends:
            shares.append(_receive(open_ends.pop(0)))
    finally:
        for fd in open_ends:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for first, (share, _) in enumerate(shares):
        results[first::workers] = share
    return results
