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


def _csv_rows(data: bytes) -> int:
    """The rows of CSV ``data`` as the fork rule counts them: its line feeds
    but one (a header's, or the last row's), counted in doubling windows only
    until they pass the threshold, so that it reads O(threshold) rows."""
    most, found, start, end = _FORK_MIN_POINTS + 1, 0, 0, _FORK_MIN_POINTS
    while found < most and start < len(data):
        found, start, end = found + data.count(b"\n", start, end), end, 2 * end
    return found - 1


def _halves(fn, n: int, cut: int | None = None) -> tuple:
    """``(fn(slice(0, cut)), fn(slice(cut, None)))``, ``cut`` by default
    ``n // 2``, the second in a forked child while this process does the first.

    It forks only for at least ``_FORK_MIN_POINTS`` points ``n``, where ``os.fork``
    exists, when this process may run on two CPUs (on one, the child only
    adds its cost) and when it runs a single thread; else it computes both
    halves here.  The child returns its result through a pipe as ``marshal``
    bytes, which keep every double bit for bit, and ends with ``os._exit``, so
    it flushes no inherited stdio buffer and runs no ``atexit`` handler.  If
    the child fails in any way, this process computes the second half itself,
    so every result and every exception is the one the serial code gives.
    """
    cut = n // 2 if cut is None else cut
    first, second = slice(0, cut), slice(cut, None)
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
