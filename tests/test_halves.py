"""The round-based halves of a run: the merged centroid and statistics, and a
run's outputs, errors and child failures above the fork threshold."""

import contextlib
import errno
import json
import math
import os
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import (
    _FAILURES,
    _big_csv,
    _failing_marshal,
    _no_child_left,
    _parse_csv_by_line,
)
from test_stats import far_paired_samples

import linefit.cli as cli
from linefit import halves, stats
from linefit.cli import main
from linefit.errors import CsvParseError
from linefit.stats import PairedSample, mean, summarize

ROWS = halves._FORK_MIN_POINTS + 1
BIG = 1.7976931348623157e308


# --- the merged centroid -------------------------------------------------------------

@st.composite
def columns(draw):
    """Columns of 2 to 40 finite values: any, near 1.6e9, constant (zeros of
    either sign), near 1e300 with sums that overflow, and near 1e-300."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["any", "offset", "constant", "huge", "tiny"]))
    if kind == "constant":
        v = draw(st.sampled_from([0.0, 1.6e9, 5e-324, -BIG]))
        return [draw(st.sampled_from([v, -v])) if v == 0.0 else v for _ in range(n)]
    values = {
        "any": st.floats(allow_nan=False, allow_infinity=False),
        "offset": st.floats(-1e3, 1e3).map(lambda v: 1.6e9 + v),
        "huge": st.floats(1e300, BIG).flatmap(lambda v: st.sampled_from([v, -v])),
        "tiny": st.floats(-1e-300, 1e-300),
    }[kind]
    return draw(st.lists(values, min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(columns(), st.integers(0, 40))
@example([BIG, BIG, -BIG, -BIG], 2)  # math.fsum of the whole overflows
@example([0.0, -0.0, 0.0], 1)
def test_the_merged_mean_is_mean_bit_for_bit(values, cut):
    cut = min(cut, len(values))  # the halves meet anywhere
    got, lo, hi = stats._merged([stats._column(values[:cut]), stats._column(values[cut:])],
                                len(values))
    assert (lo, hi) == (min(values), max(values))
    if got is None:  # the run takes mean of the whole column
        assert len(values) * max(map(abs, values)) >= 2.0 ** 1023
    else:
        assert got.hex() == mean(values).hex()


def _rows_column(rows: list[str]) -> bytes:
    """``ROWS`` rows, cycling through ``rows``."""
    return "".join(rows[i % len(rows)] + "\n" for i in range(ROWS)).encode()


_CENTROIDS = {
    "offset": _big_csv(),
    "constant-x": _rows_column(["0.0,1", "-0.0,2", "0.0,3.5"]),
    "near-1.6e9": _rows_column([f"{1.6e9 + k / 7!r},{-1.6e9 - k!r}" for k in range(13)]),
    "overflow-first": _rows_column([f"{BIG!r},1", f"{BIG!r},2"]) + b"-1e308,3\n" * ROWS,
    "overflow-second": b"1e300,1\n" * ROWS + _rows_column([f"{BIG!r},1", f"{-BIG!r},-1"]),
    "tiny": _rows_column(["1e-300,5e-324", "-3e-300,1e-310", "2.5e-301,0"]),
}


@pytest.mark.parametrize("shape", list(_CENTROIDS))
def test_a_run_takes_the_centroid_of_mean(monkeypatch, forks, shape):
    data = _CENTROIDS[shape]
    p = _parse_csv_by_line(data)
    want = [mean(p.xs).hex(), mean(p.ys).hex()]
    forks.clear()
    n, _, centroid, box, _ = cli._rows(data, False, lambda *_: None)
    assert [v.hex() for v in centroid] == want and n == p.n
    assert box == [min(p.xs), max(p.xs), min(p.ys), max(p.ys)]
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    centroid = cli._rows(data, False, lambda *_: None)[2]
    assert [v.hex() for v in centroid] == want


# --- the merged statistics -------------------------------------------------------------

def _exact(p):
    """(var_x, var_y, cov_xy) of ``p`` in Fractions."""
    xs, ys = list(map(Fraction, p.xs)), list(map(Fraction, p.ys))
    mx, my = sum(xs) / p.n, sum(ys) / p.n
    return (sum((x - mx) ** 2 for x in xs) / p.n, sum((y - my) ** 2 for y in ys) / p.n,
            sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / p.n)


@settings(max_examples=300, deadline=None)
@given(far_paired_samples(), st.integers(0, 30))
@example(PairedSample.from_xy([0.0, 0.0], [0.0, 1.353468893579037e-228]), 0)
def test_the_merged_statistics_match_an_exact_oracle_as_summarize_does(p, cut):
    cut = min(cut, p.n)  # the halves meet anywhere
    mean_x, mean_y = p.centroid()
    sums = [stats._centred_sums(p.xs[s], p.ys[s], mean_x, mean_y)
            for s in (slice(0, cut), slice(cut, None))]
    merged = stats._summary(p.n, mean_x, mean_y, *map(add, *sums))
    whole = summarize(p)
    assert merged[:3] == whole[:3]
    exact = _exact(p)
    # the bound summarize meets (its worst is ~6.5e-16 on such samples), offsets to
    # 1e12, plus a few subnormal ulps: squares of offsets below 1e-162 underflow
    tol = 2e-15 * (exact[0] + exact[1]) + 2.0 ** -1070
    for s in (merged, whole):
        assert all(abs(Fraction(got) - want) <= tol for got, want in zip(s[3:], exact))


# --- whole runs above the threshold -----------------------------------------------------

def _fit(tmp_path, data: bytes, *options):
    """(exit code, stdout, stderr, JSON text, SVG text) of `linefit fit --json --svg`."""
    src, out_json, out_svg = tmp_path / "in.csv", tmp_path / "r.json", tmp_path / "r.svg"
    src.write_bytes(data)
    for f in (out_json, out_svg):
        f.unlink(missing_ok=True)
    out, err = tmp_path / "out.txt", tmp_path / "err.txt"
    with open(out, "w") as o, open(err, "w") as e, contextlib.redirect_stdout(o), \
            contextlib.redirect_stderr(e):
        code = main(["fit", "--input", str(src), "--json", str(out_json), "--svg", str(out_svg),
                     *options])
    return (code, out.read_text(), err.read_text(),
            *(f.read_text() if f.exists() else None for f in (out_json, out_svg)))


def _spaced() -> bytes:
    """A big CSV whose rows past the middle hold a spaced one: no echo, the halves spell
    the points."""
    return _big_csv(tail="1.5, 2.5")


def _requests(monkeypatch) -> list:
    """The requests that the halves run in this process take after their first reply."""
    original, requests = cli._half, []

    def spy(*args):
        half = original(*args)
        reply = next(half)
        while True:
            request = yield reply
            requests.append(request)
            reply = half.send(request)

    monkeypatch.setattr(cli, "_half", spy)
    return requests


@pytest.mark.parametrize("shape", ["spaced", "echo", "overflow-first", "overflow-second"])
def test_a_run_asks_its_halves_once_after_the_parse(monkeypatch, forks, tmp_path, shape):
    data = {"spaced": _spaced(), "echo": _big_csv()}.get(shape) or _CENTROIDS[shape]
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        expected = _fit(tmp_path, data)
    requests = _requests(monkeypatch)
    forks.clear()
    assert _fit(tmp_path, data) == expected
    assert len(forks) == 1  # the first half runs here and the child takes the same requests
    _no_child_left()
    # the job's round alone; a centroid whose sum overflows asks for the columns first
    overflow = shape.startswith("overflow")
    assert [r is None for r in requests] == [True] * overflow + [False]
    p = _parse_csv_by_line(data)
    box = [min(p.xs), max(p.xs), min(p.ys), max(p.ys)]
    # the halves spell the JSON points where the echo cannot splice the input's text
    assert requests[-1] == ((mean(p.xs), mean(p.ys)), box, shape != "echo")


def test_the_echo_fallback_writes_the_points_as_reprs(monkeypatch, forks, tmp_path):
    data = _spaced()
    forks.clear()
    forked = _fit(tmp_path, data)
    assert len(forks) == 1
    _no_child_left()
    assert forked[0] == 0 and forked[2] == ""
    doc = json.loads(forked[3])
    assert [tuple(p) for p in doc["points"]] == list(_parse_csv_by_line(data).points())
    assert '"points":[[' in forked[3] and "1.5, 2.5" not in forked[3]
    monkeypatch.delattr(os, "fork")
    assert _fit(tmp_path, data) == forked


_ROUNDS = {  # an input, and the round whose reply the child fails
    "parse": ("spaced", 1),
    "sums-and-markers": ("spaced", 2),
    "columns": ("overflow-first", 2),  # its centroid's sum overflows
    "sums-after-columns": ("overflow-first", 3),
}


@pytest.mark.parametrize("at", list(_ROUNDS))
@pytest.mark.parametrize("failure", _FAILURES)
def test_a_child_failed_at_any_round_leaves_the_run_unchanged(monkeypatch, forks, tmp_path,
                                                             failure, at):
    shape, at_round = _ROUNDS[at]
    data = _spaced() if shape == "spaced" else _CENTROIDS[shape]
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        expected = _fit(tmp_path, data)
    forks.clear()
    monkeypatch.setattr(halves, "marshal", _failing_marshal(failure, at_round))
    assert _fit(tmp_path, data) == expected
    assert len(forks) == 1
    _no_child_left()


def _bad(kind: str, where: str) -> bytes:
    """A big CSV with one bad line of ``kind`` near its start or near its end."""
    lines = _big_csv().splitlines(keepends=True)
    i = 10 if where == "first" else len(lines) - 10
    lines[i] = {"row": b"1.5;2.5\n", "non-finite": b"1.5,inf\n", "utf-8": b"1.5,\xff2\n",
                "late-header": b"x,y\n"}[kind]
    return b"".join(lines)


@pytest.mark.parametrize("where", ["first", "second"])
@pytest.mark.parametrize("kind", ["row", "non-finite", "utf-8", "late-header"])
def test_a_bad_line_in_either_half_ends_the_run_as_in_one_process(monkeypatch, forks, tmp_path,
                                                                  kind, where):
    data = _bad(kind, where)
    with pytest.raises(CsvParseError) as exc:
        _parse_csv_by_line(data)
    forks.clear()
    forked = _fit(tmp_path, data)
    assert len(forks) == 1
    _no_child_left()
    assert forked == (2, "", f"error: {exc.value}\n", None, None)
    if kind != "utf-8":  # the decoder names no line
        assert f"line {exc.value.line}:" in forked[2]
    monkeypatch.delattr(os, "fork")
    assert _fit(tmp_path, data) == forked


def _transform(tmp_path, data: bytes) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `linefit transform --rotate 0.3`."""
    src, out, err = tmp_path / "in.csv", tmp_path / "out.txt", tmp_path / "err.txt"
    src.write_bytes(data)
    with open(out, "w") as o, open(err, "w") as e, contextlib.redirect_stdout(o), \
            contextlib.redirect_stderr(e):
        code = main(["transform", "--input", str(src), "--rotate", "0.3"])
    return code, out.read_text(), err.read_text()


@pytest.mark.parametrize("where", ["first", "second"])
@pytest.mark.parametrize("kind", ["row", "non-finite", "utf-8", "late-header"])
def test_a_bad_line_in_either_half_ends_a_transform_as_a_fit(monkeypatch, forks, tmp_path,
                                                            kind, where):
    data = _bad(kind, where)
    with pytest.raises(CsvParseError) as exc:
        _parse_csv_by_line(data)
    forks.clear()
    forked = _transform(tmp_path, data)
    assert len(forks) == 1
    _no_child_left()
    assert forked == (2, "", f"error: {exc.value}\n")  # the message and line of `fit`'s
    monkeypatch.delattr(os, "fork")
    assert _transform(tmp_path, data) == forked


def test_a_run_over_one_cpu_gives_the_bytes_of_two(monkeypatch, forks, tmp_path):
    # the halves meet at the byte middle whatever the CPU count
    data = _big_csv()
    forked = _fit(tmp_path, data)
    assert len(forks) == 1 and forked[0] == 0
    _no_child_left()
    monkeypatch.setattr(halves, "_cpus", lambda: 1)
    assert _fit(tmp_path, data) == forked
    assert len(forks) == 1
    p = _parse_csv_by_line(data)
    got = json.loads(forked[3])["stats"]
    assert [got["mean_x"], got["mean_y"]] == [mean(p.xs), mean(p.ys)]
    whole = summarize(p)
    for key in ("var_x", "var_y", "cov_xy"):
        assert math.isclose(got[key], getattr(whole, key), rel_tol=1e-14)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("short", ["first-pipe", "second-pipe", "fork"])
def test_no_descriptor_or_process_to_spare_runs_both_halves_here(monkeypatch, forks, tmp_path,
                                                                 short):
    data = _spaced()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        expected = _fit(tmp_path, data)
    pipe, pipes = os.pipe, []

    def scarce_pipe():
        pipes.append(short)
        if short == ("first-pipe", "second-pipe")[len(pipes) - 1]:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return pipe()

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", scarce_pipe)
    if short == "fork":
        monkeypatch.setattr(os, "fork", no_fork)
    forks.clear()
    open_fds = sorted(os.listdir("/proc/self/fd"))
    assert _fit(tmp_path, data) == expected
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    assert forks == [] and len(pipes) == {"first-pipe": 1}.get(short, 2)
