"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """A test leaves no child process, running or unreaped: the snapshot
    writers' children are all reaped by the run that forked them."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid}" if pid
                else "the test left a running child process")
