"""Shares of one job computed side by side, all but the first in forked children.

``fan_out(fn, workers, task)`` computes fn(0) in this process while forked
children, which share this process's memory copy-on-write, compute
fn(1), ..., fn(workers - 1) and send their result back pickled through a
pipe.  The snapshot writer runs through it, with ``worker_count`` deciding
how many processes to use: one below a work gate that the caller derives
from the measured fork cost.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import warnings

from .errors import WavemodelsError

MAX_WORKERS = 4  # processes that one call keeps busy


def worker_count(tasks: int, work: float, gate: float) -> int:
    """Processes for ``tasks`` independent tasks that together cost ``work``:
    one below ``gate``, where forking would cost more than it saves (each
    caller derives its gate at the constant), otherwise one per core, up to
    MAX_WORKERS and the task count.  Forking is safe only without other
    Python threads (numpy's native BLAS threads are never called by a task)
    and only where fork and sched_getaffinity exist (Linux); otherwise the
    tasks run inline, in one process."""
    if (work < gate or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), tasks, MAX_WORKERS))


def _pickled_error(err: BaseException) -> bytes:
    try:
        payload = pickle.dumps((False, err), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)  # some exception types cannot be rebuilt from their args
        return payload
    except Exception:
        return pickle.dumps((False, WavemodelsError(str(err) or repr(err))))


def _start(fn, item):
    """Fork a child that sends the pickled (True, fn(item)), or (False, the
    exception it raised), down a pipe; return (pid, read end of the pipe)."""
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns that fork in a multi-threaded process may
        # deadlock.  The only other threads are numpy's BLAS pool, which a
        # task never calls, and the warning would be an extra stderr line.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        # The child leaves only through os._exit: it runs no atexit handler
        # or finally clause of its caller and flushes no inherited stdio buffer.
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn(item)), pickle.HIGHEST_PROTOCOL)
            except BaseException as err:
                payload = _pickled_error(err)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _join(pid: int, read_fd: int, task: str):
    """The result of a child, which is reaped; its exception is re-raised."""
    try:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise WavemodelsError(f"{task} was killed by signal {-code}")
    if code != 0 or not payload:
        raise WavemodelsError(f"{task} exited with status {code}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


def fan_out(fn, workers: int, task) -> None:
    """Compute fn(0) in this process and fn(1), ..., fn(workers - 1) in
    forked children, which are joined in order.

    A child's exception is re-raised, and a child killed by a signal raises
    WavemodelsError naming ``task(r)``.  When an exception leaves, the
    children not yet joined are killed and reaped.
    """
    children = {}  # r -> (pid, read end of its pipe)
    try:
        for r in range(1, workers):
            children[r] = _start(fn, r)
        fn(0)
        for r in range(1, workers):
            _join(*children.pop(r), task(r))
    finally:
        for pid, read_fd in children.values():
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
