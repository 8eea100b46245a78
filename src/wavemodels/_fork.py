"""Shares of one job computed side by side, all but the first in forked children.

``fan_out(fn, workers, task)`` computes fn(0) in this process while forked
children, which share this process's memory copy-on-write, compute
fn(1), ..., fn(workers - 1).  A child reports only its exit status: a share
whose child failed is computed again here, which raises the failure with
its own type and message, or completes the share if it does not recur.  The
snapshot writer runs through it, with ``worker_count`` deciding how many
processes to use: one below a work gate that the caller derives from the
measured fork cost.
"""

from __future__ import annotations

import os
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


def fan_out(fn, workers: int, task) -> None:
    """Compute fn(0) in this process and fn(1), ..., fn(workers - 1) in
    forked children, which are reaped in order.  ``fn`` returns nothing.

    A child that exits nonzero has its share computed again in this process,
    so share r may run twice: ``fn`` must be safe to repeat (the snapshot
    writer truncates and rewrites its files).  A child killed by a signal
    raises WavemodelsError naming ``task(r)``.  When an exception leaves,
    the children not yet reaped are killed and reaped.
    """
    children = {}  # r -> pid
    try:
        for r in range(1, workers):
            with warnings.catch_warnings():
                # Python >= 3.12 warns that fork in a multi-threaded process may
                # deadlock.  The only other threads are numpy's BLAS pool, which a
                # task never calls, and the warning would be an extra stderr line.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                # The child leaves only through os._exit: it runs no atexit
                # handler or finally clause of its caller, flushes no inherited
                # stdio buffer and prints no traceback.
                status = 1
                try:
                    fn(r)
                    status = 0
                finally:
                    os._exit(status)
            children[r] = pid
        fn(0)
        for r in range(1, workers):
            code = os.waitstatus_to_exitcode(os.waitpid(children[r], 0)[1])
            del children[r]
            if code < 0:
                raise WavemodelsError(f"{task(r)} was killed by signal {-code}")
            if code != 0:
                fn(r)
    finally:
        for pid in children.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
