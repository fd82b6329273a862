"""Forked worker processes for work that splits into independent shares.

:func:`_in_workers` runs a list of shares, the first in this process and
each other in a child made by ``os.fork``, and returns their results in
share order; :func:`_worker_count` says how many processes a piece of
work may use.  Callers split their own work into shares and merge the
results, so that they are the same at any worker count;
:func:`_round_robin` does both for a list of units that any share may
take.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

#: True while :func:`_in_workers` runs more than one share, in this process
#: and in the children it forks, which inherit it.
_sharing = False


def _worker_count(units: int) -> int:
    """How many processes share ``units`` independent units of work: replications, folds.

    On Linux, a process with a single OS thread uses every CPU it may run
    on (``taskset`` limits them), at most one per unit.  Any other process
    runs its units itself: one with more threads, a BLAS thread pool
    say, uses more than one core already, and forking it would
    oversubscribe them.  So does a process running a share of
    :func:`_in_workers`, whose siblings have the other CPUs: work inside a
    share never forks again.
    """
    if _sharing:
        return 1
    try:
        if sys.platform != "linux" or len(os.listdir("/proc/self/task")) != 1:
            return 1
        return min(len(os.sched_getaffinity(0)), units)
    except OSError:
        return 1


class _WorkerTraceback(Exception):
    """A worker process's traceback text, the cause of its exception when re-raised in the parent."""


def _in_workers(run, shares: list) -> list:
    """``[run(share) for share in shares]``, share 0 run here and every other share in a forked child.

    A child sends its result, or the exception it raised and its
    traceback text, down a pipe and leaves through ``os._exit`` alone.
    Each pipe is read to its end before its child is reaped, so no child
    waits on a full pipe.  A child's exception is raised here with its
    traceback as the cause, and a child that ends without a complete
    result is an error naming its exit status.  Whatever ends this
    function early kills and reaps every child not reaped yet.  A single
    share runs here and forks nothing.
    """
    global _sharing
    if len(shares) == 1:
        return [run(shares[0])]
    children = {}  # pid -> the read end of the child's pipe, until the child is reaped
    nested, _sharing = _sharing, True
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(run, share, read, write)
            children[pid] = os.fdopen(read, "rb")
            os.close(write)
        results = [run(shares[0])]
        for pid, pipe in list(children.items()):
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            results.append(_child_result(pid, payload, status))
        return results
    finally:
        _sharing = nested
        if children:
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(run, share, read: int, write: int) -> None:
    """In a forked child: send the outcome of ``run(share)`` down ``write`` and exit, never returning."""
    status = 1
    try:
        os.close(read)
        try:
            message = ("result", run(share))
        except BaseException as exc:  # KeyboardInterrupt too: the parent raises whatever ended the share
            text = traceback.format_exc()
            message = ("error", _picklable(exc), text)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a ``RuntimeError`` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _child_result(pid: int, payload: bytes, status: int):
    """The result child ``pid`` sent; its exception is raised here instead."""
    try:
        kind, *body = pickle.loads(payload)
    except Exception:
        kind = None
    if kind is None or status != 0:
        raise RuntimeError(f"worker process {pid} ended without a complete result (exit status {status})")
    if kind == "error":
        exc, text = body
        raise exc from _WorkerTraceback(text)
    return body[0]


def _round_robin(run, units: int, workers: int) -> list:
    """``[run(unit) for unit in range(units)]``, unit ``i`` run by share ``i mod workers`` of :func:`_in_workers`.

    Raises what that loop raises: each share stops at its first failing
    unit, and once every share has ended, the lowest failing unit's
    exception is raised, a child's with its traceback as the cause.
    """

    def share(first: int) -> tuple[list, tuple | None]:
        done = []
        for unit in range(first, units, workers):
            try:
                done.append(run(unit))
            except Exception as exc:
                return done, (unit, exc if first == 0 else (_picklable(exc), traceback.format_exc()))
        return done, None

    results: list = [None] * units
    failed = []
    for first, (done, failure) in enumerate(_in_workers(share, list(range(workers)))):
        for unit, result in zip(range(first, units, workers), done):
            results[unit] = result
        if failure is not None:
            failed.append((failure[0], first, failure[1]))
    if failed:
        _, first, error = min(failed, key=lambda failure: failure[0])
        if first == 0:
            raise error
        exc, text = error
        raise exc from _WorkerTraceback(text)
    return results
