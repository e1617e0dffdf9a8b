"""The two halves of an O(n) job, the second in a forked child, in rounds.

A ``linefit fit`` or ``transform`` run forks once, and each half of the input
is parsed, summed and drawn or moved by the process that parsed it
(:mod:`linefit.cli`); ``render_csv`` and ``render_svg`` take one round."""

from __future__ import annotations

import marshal
import os
import threading
from contextlib import closing, suppress

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


def _send(pipe, value) -> None:
    blob = marshal.dumps(value)
    pipe.write(len(blob).to_bytes(8, "little"))
    pipe.write(blob)
    pipe.flush()


def _receive(pipe):  # EOFError or ValueError where the sender failed
    return marshal.loads(pipe.read(int.from_bytes(pipe.read(8), "little")))


def _halves(half, n: int, cut: int | None = None):
    """A generator of the rounds of two halves of ``n`` points: ``next`` gives
    the pair of their first replies, ``send(request)`` the pair of answers, and
    closing it ends them.  ``half(s)`` is a generator over slice ``s`` of the
    points that yields its first reply unasked, then answers each request.

    Below ``_FORK_MIN_POINTS`` points the first half is ``slice(None)``.  From
    there up they meet at ``cut`` (``n // 2`` by default) whatever the CPU
    count, and the second runs in a child forked once, where ``os.fork``
    exists, this process may run on two CPUs and it runs one thread.  The
    child answers through a pipe in ``marshal`` bytes, which keep every double,
    and ends with ``os._exit``: no inherited stdio buffer flushed, no
    ``atexit`` handler run.  If it fails at any round, this process replays
    its requests itself, so the results and errors are those of one process.
    """
    split = n >= _FORK_MIN_POINTS
    cut = n // 2 if cut is None else cut
    head = half(slice(0, cut) if split else slice(None))
    tail = half(slice(cut, None) if split else slice(0, 0))
    pid = None
    if split and hasattr(os, "fork") and _cpus() > 1 and threading.active_count() == 1:
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # no descriptor or process to spare: both halves run here
            for fd in fds:
                os.close(fd)
        else:
            ask_r, ask_w, reply_r, reply_w = fds
    if pid == 0:  # the child: answer until the requests end
        try:
            os.close(ask_w)
            os.close(reply_r)
            with open(ask_r, "rb") as asks, open(reply_w, "wb") as replies:
                reply = next(tail)
                while True:
                    _send(replies, reply)
                    reply = tail.send(_receive(asks))
        finally:
            os._exit(0)
    if pid is not None:
        os.close(ask_r)
        os.close(reply_w)
        # unbuffered: a request, a few floats, goes out whole in one write
        asks, replies = open(ask_w, "wb", buffering=0), open(reply_r, "rb")
    asked = []  # the requests after the first round, for a replay
    try:
        request = None
        while True:
            forked = pid is not None and not replies.closed
            if forked and asked:
                with suppress(OSError):  # a child that is gone fails below
                    _send(asks, request)
            mine = head.send(request)
            if not forked:
                theirs = tail.send(request)
            else:
                try:
                    theirs = _receive(replies)
                except (EOFError, ValueError, TypeError):  # the child failed
                    asks.close()  # a child still waiting reads the end
                    replies.close()
                    theirs = next(tail)
                    for old in asked:
                        theirs = tail.send(old)
            request = yield mine, theirs
            asked.append(request)
    finally:
        if pid is not None:
            asks.close()  # before the wait: a child blocked writing sees EPIPE
            replies.close()
            with suppress(ChildProcessError):  # an ignored SIGCHLD reaped it
                os.waitpid(pid, 0)


def _both(fn, n: int) -> tuple:
    """``(fn(first slice), fn(second slice))``: one round of :func:`_halves`."""
    def half(s):
        yield fn(s)

    with closing(_halves(half, n)) as rounds:
        return next(rounds)
