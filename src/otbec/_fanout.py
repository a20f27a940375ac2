"""Run independent tasks over forked worker processes; results stream back in task order.

Every campaign trial and every oracle spec draws from its own seed, so a
task's result does not depend on the process that runs it, and a caller's
report is the same for any worker count.

Workers are forked, not spawned: they start from the caller's state, with
otbec already imported and the parameters checked, and the tasks and the
function reach them without pickling. Only results travel back, each pickled
through the worker's pipe as soon as it is worked out. otbec starts no
threads of its own, so forking is safe here.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

__all__ = ["fan_out"]

# set in a forked worker only, which never returns to its caller
_in_worker = False

# the results a worker's pipe holds before the worker blocks: several audit
# blocks of about 150 KB, so that a worker keeps working while the caller
# analyses, where the default 64 KiB would stop it after one block
_PIPE_BYTES = 1 << 20


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(fn, tasks: list, first: int, stride: int):
    """Yield (result, None) of tasks first, first + stride, ... in turn, up to
    (None, exception) of the first of them that raises."""
    for index in range(first, len(tasks), stride):
        try:
            yield fn(tasks[index]), None
        except Exception as exc:  # sent to the caller and raised there, in task order
            yield None, exc
            return


def _work(fn, tasks: list, first: int, stride: int, write_end: int, inherited: list) -> None:
    """A forked worker: close the read ends it inherited, pipe back the pickled
    outcome of each task of its share as it is worked out, and exit."""
    global _in_worker
    _in_worker = True
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(write_end, "wb") as pipe:
            for outcome in _share(fn, tasks, first, stride):
                # pickled whole before any of it is written, so the pipe
                # carries whole outcomes only; a write blocks while the pipe
                # is full, so a worker runs ahead by at most a pipe's worth
                pipe.write(pickle.dumps(outcome))
                pipe.flush()
    finally:
        # never unwind into the caller's stack, which is the parent's; a
        # worker that could not send an outcome sends nothing more, and the
        # caller raises for it
        os._exit(0)


def _pipe() -> tuple[int, int]:
    """(read end, write end) of a pipe holding _PIPE_BYTES, where the platform can grow one."""
    import fcntl  # POSIX, as os.fork is

    read_end, write_end = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        try:
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # over the system's per-pipe or per-user limit: the default still works
            pass
    return read_end, write_end


def _arrived(pipe) -> bool:
    """Whether a worker's next outcome has begun to arrive, without waiting for it."""
    return bool(select.select([pipe], [], [], 0)[0])


def _receive(pipe) -> tuple:
    try:
        return pickle.load(pipe)
    except EOFError:
        raise RuntimeError("a worker process ended without sending its result") from None


def fan_out(fn, tasks):
    """Yield fn(task) for each task, in task order, run on up to one process per CPU.

    With W processes, this one runs tasks 0, W, 2W, ... itself, and each of
    W - 1 forked workers runs its own stride and sends each result back as
    soon as it is worked out. When the next result in order is a worker's
    that has not arrived, this process runs its own next task instead of
    waiting, holding at most that one result ahead. A worker blocks once
    its pipe is full, which holds a few results (_PIPE_BYTES). So the
    results held at once stay a few per process, however many tasks there
    are.

    If tasks raise, the exception raised here is that of the first of them
    in task order, after the results before it were yielded, as in a serial
    run. Every worker is killed, if still running, and reaped when the
    stream ends, raises or is closed; a consumer that may stop early closes
    it (contextlib.closing), and list() collects it. With one CPU or one
    task, without os.fork, or inside a worker, the tasks run here one after
    another.
    """
    tasks = list(tasks)
    workers = min(len(tasks), _cpu_count())
    if workers < 2 or _in_worker or not hasattr(os, "fork"):
        for task in tasks:
            yield fn(task)
        return
    pids, pipes = [], []
    try:
        for first in range(1, workers):
            read_end, write_end = _pipe()
            pipes.append(os.fdopen(read_end, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                raise
            if pid == 0:
                _work(fn, tasks, first, workers, write_end, [pipe.fileno() for pipe in pipes])
            os.close(write_end)
            pids.append(pid)
        own = _share(fn, tasks, 0, workers)
        ahead = None  # this process's next outcome, worked out while a worker's was late
        for index in range(len(tasks)):
            if index % workers == 0:
                result, exc = ahead or next(own)
                ahead = None
            else:
                pipe = pipes[index % workers - 1]
                if ahead is None and not _arrived(pipe):
                    ahead = next(own, None)
                result, exc = _receive(pipe)
            if exc is not None:
                raise exc
            yield result
            del result  # not held while the next result is worked out
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # a worker still running has nothing left that anyone reads
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
