"""Helpers for the tests that run work on forked worker processes."""

import os
import signal

import pytest

import covsel._workers as _workers

#: Python 3.12 warns when a process with threads (an unpinned BLAS pool) forks;
#: these tests fork at a pinned worker count whatever the thread count.
forks_regardless = pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pin_workers(monkeypatch, workers):
    """Count ``workers`` CPUs: at most one process per unit, and one inside a share, as such a machine gives."""
    monkeypatch.setattr(_workers, "_worker_count", lambda units: 1 if _workers._sharing else min(workers, units))


def count_forks(monkeypatch, path):
    """Record every ``os.fork`` call, in this process or in any child, as a line of the file at ``path``.

    Returns a function that gives the number of calls so far.
    """
    real = os.fork

    def recorded():
        with open(path, "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()}\n")
        return real()

    monkeypatch.setattr(os, "fork", recorded)
    return lambda: len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0


@pytest.fixture
def deadline():
    """Fail a run that hangs on a worker; the interrupted run kills and reaps its children."""
    def expire(signum, frame):
        raise TimeoutError("a run on workers took over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
