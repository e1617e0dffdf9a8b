"""The two halves of an O(n) conversion, the second in a forked child: the
CSV parse and render in :mod:`linefit.cli` and the SVG's point markers."""

from __future__ import annotations

import marshal
import os
import threading

# Below this many points a fork costs more than the half it takes off this
# process saves (BENCH_two_process_convert.json holds the measurement).
_FORK_MIN_POINTS = 10_000


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _halves(fn, n: int) -> tuple:
    """``(fn(slice(0, n // 2)), fn(slice(n // 2, n)))``, the second half
    computed in a forked child while this process computes the first.

    It forks only for at least ``_FORK_MIN_POINTS`` points, where ``os.fork``
    exists, when this process may run on two CPUs (on one, the child only
    adds its cost) and when it runs a single thread; else it computes both
    halves here.  The child returns its result through a pipe as ``marshal``
    bytes, which keep every double bit for bit, and ends with ``os._exit``, so
    it flushes no inherited stdio buffer and runs no ``atexit`` handler.  If
    the child fails in any way, this process computes the second half itself,
    so every result and every exception is the one the serial code gives.
    """
    first, second = slice(0, n // 2), slice(n // 2, n)
    if (n < _FORK_MIN_POINTS or not hasattr(os, "fork") or _cpus() < 2
            or threading.active_count() != 1):
        return fn(first), fn(second)
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: compute both halves here
        os.close(r)
        os.close(w)
        return fn(first), fn(second)
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps(fn(second)))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    try:
        with open(r, "rb") as pipe:  # closed before the wait: a blocked child sees EPIPE
            head = fn(first)
            blob = pipe.read()
    finally:
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # an ignored SIGCHLD reaped it: its status is lost
            status = -1
    if status == 0:
        try:
            return head, marshal.loads(blob)
        except (EOFError, ValueError, TypeError):
            pass
    return head, fn(second)
