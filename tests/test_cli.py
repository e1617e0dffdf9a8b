import contextlib
import io
import json
import marshal
import math
import operator
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import xml.etree.ElementTree as ET
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from test_svg import samples

import linefit
import linefit.cli as cli
from linefit import halves, stats
from linefit.cli import (
    RunConfig,
    main,
    parse_csv,
    render_csv,
    render_json,
    run,
)
from linefit.errors import CsvParseError, InsufficientDataError
from linefit.fitters import fit_d, fit_d_report, fit_x, fit_y
from linefit.generators import gen_circle
from linefit.geometry import Point
from linefit.stats import PairedSample, summarize
from linefit.svg import _Frame, render_svg
from linefit.transforms import Rotation, Translation, apply_motion_point, apply_motion_points

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

THREE_CSV = "0,0\n1,0\n2,1\n"


def run_cli(args, stdin_text=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "linefit", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO,
    )


# --- CSV parsing ------------------------------------------------------------------

def test_parse_csv_reference_points():
    p = parse_csv(THREE_CSV.encode())
    assert p.points() == ((0.0, 0.0), (1.0, 0.0), (2.0, 1.0))


def test_parse_csv_skips_single_header_and_blanks():
    p = parse_csv(b"x,y\n\n5,5\n\n6,7\n")
    assert p.points() == ((5.0, 5.0), (6.0, 7.0))


def test_parse_csv_crlf():
    p = parse_csv(b"1,2\r\n3,4\r\n")
    assert p.points() == ((1.0, 2.0), (3.0, 4.0))


def test_parse_csv_names_the_bad_line():
    with pytest.raises(CsvParseError) as err:
        parse_csv(b"1,2\n3\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_parse_csv_rejects_non_finite():
    with pytest.raises(CsvParseError) as err:
        parse_csv(b"1,2\n3,nan\n")
    assert err.value.line == 2


def test_parse_csv_rejects_single_point():
    with pytest.raises(InsufficientDataError):
        parse_csv(b"1,2\n")


def test_parse_csv_echoes_input_with_blank_lines_and_a_spaced_header():
    data = b"\n x , y \r\n1.5,-2.0\n\n3.0,4e-3\n  \n"
    assert _json_points(data) == "[[1.5,-2.0],[3.0,4e-3]]"
    assert parse_csv(data).points() == ((1.5, -2.0), (3.0, 4e-3))


def _parse_csv_by_line(data: bytes) -> PairedSample:
    """:func:`parse_csv` one line at a time: the judge of irregular input."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not UTF-8 text: {exc}") from exc
    points: list[tuple[float, float]] = []
    seen_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if not seen_content and fields == ["x", "y"]:
            seen_content = True
            continue
        seen_content = True
        if len(fields) != 2:
            raise CsvParseError(
                f"line {lineno}: expected 'x,y', got {raw!r}", line=lineno
            )
        try:
            x, y = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise CsvParseError(
                f"line {lineno}: could not parse numbers from {raw!r}", line=lineno
            ) from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise CsvParseError(
                f"line {lineno}: non-finite value in {raw!r}", line=lineno
            )
        points.append((x, y))
    if len(points) < 2:
        raise InsufficientDataError(
            f"need at least 2 data points, got {len(points)}"
        )
    return PairedSample.from_points(points)


_pad = st.sampled_from(["", " ", "\t", "\xa0", "\x1f"])
_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_row = st.tuples(_pad, _number, _pad, _pad, _number, _pad).map(
    lambda t: f"{t[0]}{t[1]}{t[2]},{t[3]}{t[4]}{t[5]}"
)
_irregular = st.sampled_from([
    "", "   ", "x,y", " x , y ", "X,Y", "1", "1,2,3", ",", "1,", "a,b",
    "nan,1", "1,inf", "-Infinity,0", "1e400,0", "1_0,2", "0x10,1",
])


@st.composite
def csv_inputs(draw):
    rows = draw(st.lists(_row, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(_irregular))
    if draw(st.booleans()):
        rows.insert(0, "x,y")
    # every line break str.splitlines reads
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                "\x85", "\u2028", "\u2029"]))
    data = (eol.join(rows) + (eol if draw(st.booleans()) else "")).encode()
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(data)))
        data = data[:i] + b"\xff" + data[i:]
    return data


def _parse_outcome(parse, data):
    try:
        return parse(data).points()
    except (CsvParseError, InsufficientDataError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)


@given(csv_inputs())
@example(b"1,2,3\n4\n")  # the field count adds up, the lines do not
@example(b"0.5,1\x1f\n2,3\n")  # str.strip takes U+001F; float() alone does not
def test_parse_csv_agrees_with_the_line_parser(data):
    assert _parse_outcome(parse_csv, data) == _parse_outcome(_parse_csv_by_line, data)
    with contextlib.suppress(CsvParseError, InsufficientDataError):
        expected = _parse_csv_by_line(data).points()
        points_json = _json_points(data)
        if points_json is not None:
            # the JSON points, an echo of the input or reprs, read back to the line parser's doubles
            assert _hex_points(json.loads(points_json)) == _hex_points(expected)


def test_csv_round_trip():
    p = PairedSample.from_points([(0.1, -0.7), (2.5, 3.25), (1 / 3, 1e-17)])
    assert parse_csv(render_csv(p).encode()).points() == p.points()


# --- the two-process conversion ------------------------------------------------------

def _big_csv(n: int = halves._FORK_MIN_POINTS + 1, tail: str | None = None) -> bytes:
    """A header and n repr rows, with ``tail`` in place of the last but one."""
    rng = random.Random(n)
    rows = [f"{rng.uniform(-9, 9)!r},{rng.uniform(-1e9, 1e9)!r}" for _ in range(n)]
    if tail is not None:
        rows[-2] = tail
    return ("x,y\n" + "\n".join(rows) + "\n").encode()


def _conversions(data: bytes):
    """Hex points, JSON points and rendered CSV of ``data``, or parse_csv's error."""
    try:
        sample = parse_csv(data)
    except (CsvParseError, InsufficientDataError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return _hex_points(sample.points()), _json_points(data), render_csv(sample)


def _json_points(data: bytes) -> str | None:
    """The text of the ``points`` array in the report `linefit fit --json` writes,
    None where the statistics overflow and it writes none."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err, text = _written_report(Path(tmp), data)
    if code == 2:
        assert text is None and "overflow a double" in err
        return None
    return text[len('{"points":'):text.index(',"stats":')]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("tail", [
    None, "1.5,abc", "1.5,2.5,3.5", "nan,1.0", "1e400,0.5", "3,2.5", " 1.5,2.5",
], ids=["repr", "bad-number", "three-fields", "nan", "overflow", "integer", "padded"])
def test_the_forked_half_converts_bit_for_bit_as_in_process(monkeypatch, forks, tail):
    # the odd field lies in the second half only, which the child converts
    data = _big_csv(tail=tail)
    forked = _conversions(data)
    assert forks and forks[0] > 0
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert forked == _conversions(data)
    if tail is None:  # the echo survives the split
        assert forked[1] == "[[%s]]" % "],[".join(data.decode().splitlines()[1:])
    elif tail in ("3,2.5", " 1.5,2.5"):  # the points go out as reprs
        x, y = map(float, tail.split(","))
        assert f"],[{x!r},{y!r}],[" in forked[1]
    else:
        assert forked[1] == len(data.splitlines()) - 1  # the line of the bad row


_FAILURES = ["raise", "exit", "kill", "short-blob", "bad-blob"]


def _failing_marshal(failure: str, at_round: int = 1):
    """A ``marshal`` whose ``dumps`` fails as named in a forked child, at its
    reply to round ``at_round``; this process's requests go out unharmed."""
    parent, replies = os.getpid(), []

    def dumps(value):
        blob = marshal.dumps(value)
        if os.getpid() == parent:
            return blob
        replies.append(value)  # the child's own copy of the list
        if len(replies) < at_round:
            return blob
        if failure == "raise":
            raise MemoryError
        if failure == "exit":
            os._exit(3)
        if failure == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return blob[:-5] if failure == "short-blob" else b"\xff" + blob

    return SimpleNamespace(dumps=dumps, loads=marshal.loads)


@pytest.mark.parametrize("failure", _FAILURES)
def test_a_failed_child_leaves_the_result_unchanged(monkeypatch, forks, failure):
    data = _big_csv()
    expected = _conversions(data)
    forks.clear()
    monkeypatch.setattr(halves, "marshal", _failing_marshal(failure))
    assert _conversions(data) == expected
    assert len(forks) == 3  # parse_csv's, the run's and render_csv's
    _no_child_left()


def test_a_child_reaped_by_an_ignored_sigchld_leaves_the_result_unchanged(forks):
    # with SIGCHLD ignored the kernel reaps every child, so waitpid finds none
    data = _big_csv()
    expected = _conversions(data)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _conversions(data) == expected
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert len(forks) == 6
    _no_child_left()


def test_a_raising_first_half_still_reaps_the_child(forks):
    for at_round in (1, 2):
        def half(s):
            for round_ in range(1, 3):
                if s.start == 0 and round_ == at_round:  # the first half, in this process
                    raise KeyError("first")
                yield "x" * 10**6  # more than a pipe holds: the child blocks writing

        forks.clear()
        with pytest.raises(KeyError), contextlib.closing(
                halves._halves(half, halves._FORK_MIN_POINTS)) as rounds:
            next(rounds)
            rounds.send("again")
        assert forks
        _no_child_left()


def _figure(p: PairedSample) -> str:
    """The SVG of ``p`` and of the fits that succeed, as `linefit fit --svg` draws it."""
    return render_svg(p, cli.report(p.summary, ("Y", "X", "D"))["fits"])


_BIG_FIGURES = {
    "repr": lambda n: parse_csv(_big_csv(n)),
    # the frame's 1.0 floor; every fit but D's degenerate family fails
    "identical": lambda n: PairedSample.from_points([(2.5, -1.5)] * n),
    "degenerate-d": lambda n: gen_circle(n),  # isotropic: D draws the centroid marker
}


@pytest.mark.parametrize("shape", list(_BIG_FIGURES))
def test_the_forked_markers_render_bit_for_bit_as_in_process(monkeypatch, forks, shape):
    p = _BIG_FIGURES[shape](halves._FORK_MIN_POINTS + 1)
    forks.clear()
    forked = _figure(p)
    assert len(forks) == 1 and forks[0] > 0
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert forked == _figure(p)
    markers = [line for line in forked.splitlines() if 'class="data-point"' in line]
    assert len(markers) == p.n
    assert ('class="centroid-marker"' in forked) == (shape != "repr")
    if shape == "identical":
        assert all('cx="400.00" cy="300.00"' in line for line in markers)


@pytest.mark.parametrize("failure", _FAILURES)
def test_a_failed_child_leaves_the_markers_unchanged(monkeypatch, forks, failure):
    p = parse_csv(_big_csv())
    expected = _figure(p)
    forks.clear()
    monkeypatch.setattr(halves, "marshal", _failing_marshal(failure))
    assert _figure(p) == expected
    assert len(forks) == 1
    _no_child_left()


def _reference_markers(p: PairedSample) -> list[str]:
    """The data-point markers of ``p`` by one ``_Frame.to_pixel`` call per point."""
    frame = _Frame(min(p.xs), max(p.xs), min(p.ys), max(p.ys))
    return [f'<circle class="data-point" cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#444444"/>'
            for px, py in (frame.to_pixel(x, y) for x, y in p.points())]


def test_the_forked_markers_match_the_per_point_reference(forks):
    p = parse_csv(_big_csv())
    forks.clear()
    rendered = render_svg(p, {}).splitlines()
    assert forks
    _no_child_left()
    assert [line for line in rendered if 'class="data-point"' in line] == _reference_markers(p)


def test_small_inputs_one_cpu_and_threads_convert_in_process(monkeypatch, forks):
    _conversions(_big_csv(halves._FORK_MIN_POINTS - 1))
    with monkeypatch.context() as m:
        m.setattr(halves, "_cpus", lambda: 1)
        _conversions(_big_csv())
    done = threading.Event()
    waiting = threading.Thread(target=done.wait)
    waiting.start()
    try:
        _conversions(_big_csv())
    finally:
        done.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert forks == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_process_pinned_to_one_cpu_may_run_on_one():
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert halves._cpus() == 1
    finally:
        os.sched_setaffinity(0, cpus)
    assert halves._cpus() == len(cpus)


# --- the byte split of parse_csv ------------------------------------------------------

def _split_agrees(monkeypatch, data: bytes, forks: int):
    """``data``'s conversions in ``forks`` forks, which must match those without one."""
    with monkeypatch.context() as m:
        m.setattr(halves, "_cpus", lambda: 2)
        pids, fork = [], os.fork
        m.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
        got = _conversions(data)
    assert len(pids) == forks
    _no_child_left()
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        assert got == _conversions(data)
    return got


def _pad_to_middle(data: bytes, middle: int) -> bytes:
    """``data`` with trailing spaces, a blank last line, so that its
    ``len // 2`` is ``middle``."""
    return data + b" " * (2 * middle - len(data))


@pytest.mark.parametrize("shift", [0, 1, 2], ids=["on-cr", "on-lf", "after-lf"])
def test_a_split_next_to_a_crlf_converts_as_in_process(monkeypatch, shift):
    data = _big_csv().replace(b"\n", b"\r\n")
    cr = data.index(b"\r\n", len(data) // 2 + 1)
    padded = _pad_to_middle(data, cr + shift)
    assert padded[len(padded) // 2:].startswith(b"\r\n"[shift:])
    got = _split_agrees(monkeypatch, padded, 3)
    assert got == _conversions(_big_csv())


def test_a_run_of_blank_lines_across_the_split_converts_as_in_process(monkeypatch):
    rows = _big_csv().splitlines(keepends=True)
    half = len(rows) // 2
    blank = b"\n \n\t\r\n\x0c\n" * 500  # whitespace-only lines on both sides of the middle
    data = b"".join(rows[:half]) + blank + b"".join(rows[half:])
    middle = len(data) // 2
    assert data.find(blank) < middle < data.find(blank) + len(blank)
    got = _split_agrees(monkeypatch, data, 3)
    assert got[2] == _conversions(_big_csv())[2]


@pytest.mark.parametrize("eol", ["\r", "\u2028"], ids=["cr", "u2028"])
def test_input_without_a_line_feed_parses_in_one_process(monkeypatch, eol):
    data = _big_csv().decode().replace("\n", eol).encode()
    got = _split_agrees(monkeypatch, data, 1)  # render_csv's fork alone
    assert got[2] == _conversions(_big_csv())[2]


def test_no_line_feed_past_the_middle_leaves_the_child_no_rows(monkeypatch):
    n = 2 * halves._FORK_MIN_POINTS + 2
    rows = _big_csv(n).decode().splitlines()
    half = len(rows) // 2
    data = ("\n".join(rows[:half]) + "\n" + "\r".join(rows[half:])).encode()
    assert b"\n" not in data[len(data) // 2:]
    got = _split_agrees(monkeypatch, data, 3)
    assert len(got[0]) == n


@pytest.mark.parametrize("first, late, ok", [
    (b"", b"x,y", True),  # the header follows blank lines only
    (b" x , y ", b"", True),  # the header, then blank lines past the middle
    (b"x,y", b"x,y", False),  # a second header is a bad row
    (b"0.5,1.5", b"x,y", False),
], ids=["blank-then-header", "header-then-blank", "two-headers", "row-then-header"])
def test_a_first_half_without_data_rows_leaves_the_header_to_the_child(monkeypatch, first,
                                                                       late, ok):
    body = _big_csv().split(b"\n", 1)[1]
    blank = b"\n" * (len(body) + 64)  # the blank lines reach past the middle
    data = first + blank + (late + b"\n" if late else b"") + body
    got = _split_agrees(monkeypatch, data, 3 if ok else 1)
    if ok:
        assert got == _conversions(_big_csv())
    else:
        assert got[:2] == (CsvParseError, data.count(b"\n", 0, data.index(late + b"\n", 1)) + 1)


@pytest.mark.parametrize("where", ["first", "second", "both"])
def test_a_bad_row_in_either_half_names_its_line(monkeypatch, where):
    rows = _big_csv().splitlines()
    bad = {"first": [100], "second": [len(rows) - 100], "both": [100, len(rows) - 100]}[where]
    for i in bad:
        rows[i] = b"1.5;2.5"
    got = _split_agrees(monkeypatch, b"\n".join(rows) + b"\n", 1)
    assert got[:2] == (CsvParseError, bad[0] + 1)
    assert got[2] == f"line {bad[0] + 1}: expected 'x,y', got '1.5;2.5'"


# --- transform: the moved render halves -------------------------------------------------

def _transform(capsys, path, motion):
    code = main(["transform", "--input", str(path), *motion])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _moved_one_by_one(data: bytes, motions) -> str:
    """The CSV of every point moved by ``apply_motion_points``, one motion after another."""
    p = parse_csv(data)
    for g in motions:
        p = apply_motion_points(p, g)
    return render_csv(p)


_MOTIONS = {
    "rotate": (["--rotate", "0.3"], [Rotation(0.3)]),
    "translate": (["--translate", "1,-2"], [Translation(1.0, -2.0)]),
    "both": (["--rotate", "0.3", "--translate", "1,-2"], [Rotation(0.3), Translation(1.0, -2.0)]),
    "center": (["--rotate", "0.3", "--center", "1,-2"], [Rotation(0.3, Point(1.0, -2.0))]),
}


@pytest.mark.parametrize("motion", list(_MOTIONS))
def test_the_forked_halves_move_the_points_as_apply_motion_points_does(monkeypatch, forks,
                                                                     tmp_path, capsys, motion):
    argv, motions = _MOTIONS[motion]
    src = tmp_path / "in.csv"
    src.write_bytes(_big_csv())
    forks.clear()
    forked = _transform(capsys, src, argv)
    assert len(forks) == 1 and forks[0] > 0  # one for the run
    _no_child_left()
    assert forked == (0, _moved_one_by_one(src.read_bytes(), motions), "")
    monkeypatch.delattr(os, "fork")
    assert forked == _transform(capsys, src, argv)


def _span_max_csv() -> bytes:
    rows = [f"{x!r},{y!r}\n" for x, y in SPAN_MAX] * (halves._FORK_MIN_POINTS // 3 + 1)
    return "".join(rows).encode()


@pytest.mark.parametrize("angle, code", [("0.3", 0), ("1.5707963267948966", 2)],
                         ids=["half-offsets", "overflow"])
def test_each_half_turns_its_points_whose_offsets_overflow(monkeypatch, forks, tmp_path, capsys,
                                                           angle, code):
    # x - mean_x overflows: each half turns those points' half offsets (exit 0),
    # or a quarter turn overflows a moved point (exit 2)
    src = tmp_path / "in.csv"
    src.write_bytes(_span_max_csv())
    forks.clear()
    forked = _transform(capsys, src, ["--rotate", angle])
    assert len(forks) == 1
    _no_child_left()
    if code == 0:
        assert forked == (0, _moved_one_by_one(src.read_bytes(), [Rotation(0.3)]), "")
    else:
        assert forked == (2, "", "error: transform: the options overflow a double "
                                 "(a coordinate came out non-finite)\n")
    monkeypatch.delattr(os, "fork")
    assert forked == _transform(capsys, src, ["--rotate", angle])


@pytest.mark.parametrize("failure", _FAILURES)
def test_a_failed_child_leaves_the_moved_points_unchanged(monkeypatch, forks, tmp_path, capsys,
                                                         failure):
    argv, motions = _MOTIONS["both"]
    src = tmp_path / "in.csv"
    src.write_bytes(_big_csv())
    expected = (0, _moved_one_by_one(src.read_bytes(), motions), "")
    forks.clear()
    monkeypatch.setattr(halves, "marshal", _failing_marshal(failure))
    assert _transform(capsys, src, argv) == expected
    assert len(forks) == 1
    _no_child_left()


# --- JSON serialization --------------------------------------------------------------

def test_render_json_floats_round_trip():
    doc = render_json({"a": 0.1, "b": [1 / 3, 1e-300], "c": {"d": -0.0, "n": 5}})
    parsed = json.loads(doc)
    assert parsed["a"] == 0.1
    assert parsed["b"][0] == 1 / 3
    assert parsed["b"][1] == 1e-300
    assert parsed["c"]["n"] == 5


# --- the JSON point echo ---------------------------------------------------------------

# RFC 8259 float literals: a fraction or an exponent, up to 30-digit mantissas,
# magnitudes whose variances stay finite
_float_literal = st.one_of(
    st.floats(-1e60, 1e60).map(repr),
    st.sampled_from(["-0.0", "1e-400", "1E5", "1.50", "0.10000000000000001",
                     "123456789012345678901234567890.123456789012345678901234567890"]),
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", "-"]),
            st.from_regex(r"0|[1-9][0-9]{0,29}", fullmatch=True),
            st.from_regex(r"(\.[0-9]{1,30})?", fullmatch=True),
            st.from_regex(r"([eE][+-]?0?[0-9])?", fullmatch=True),
        ),
    ).filter(lambda t: "." in t or "e" in t or "E" in t),
)


def _written_report(tmp_dir: Path, data: bytes) -> tuple[int, str, str | None]:
    """(exit code, stderr, JSON report text or None) of a `fit --json` run."""
    csv, out = tmp_dir / "in.csv", tmp_dir / "report.json"
    csv.write_bytes(data)
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(RunConfig(input=csv, output_json=out), out=io.StringIO())
    return code, err.getvalue(), out.read_text() if out.exists() else None


def _hex_points(points) -> list[list[str]]:
    return [[float.hex(x), float.hex(y)] for x, y in points]


@given(st.lists(st.tuples(_float_literal, _float_literal), min_size=2, max_size=12),
       st.booleans())
def test_json_points_echo_the_input_text_bit_for_bit(tmp_path_factory, rows, header):
    body = "".join(f"{x},{y}\n" for x, y in rows)
    data = (("x,y\n" if header else "") + body).encode()
    code, _, text = _written_report(tmp_path_factory.mktemp("echo"), data)
    assert code in (0, 3)
    assert text.startswith('{"points":[[' + "],[".join(body.splitlines()) + "]],")
    points = json.loads(text)["points"]
    assert all(type(v) is float for row in points for v in row)
    assert _hex_points(points) == _hex_points(parse_csv(data).points())
    assert _hex_points(points) == _hex_points(_parse_csv_by_line(data).points())


@given(st.lists(st.tuples(st.floats(-1e60, 1e60), st.floats(-1e60, 1e60)),
                min_size=2, max_size=12))
def test_json_report_on_repr_input_is_what_json_dumps_writes(tmp_path_factory, rows):
    # the echo of repr fields is the repr echo: re-encoding the parsed report
    # gives back the same bytes
    data = "".join(f"{x!r},{y!r}\n" for x, y in rows).encode()
    code, _, text = _written_report(tmp_path_factory.mktemp("repr"), data)
    assert code in (0, 3)
    assert render_json(json.loads(text)) == text


@pytest.mark.parametrize("token", [
    "1", "-0", "9007199254740993", "%.17g" % 250.0, "+1.5", ".5", "1.",
    "1_0", " 1.5", "1.5\t", "\xa01.5", "true", "[1", "[" * 10**5 + "1.5", "NaN",
    "Infinity", "-Infinity", "1e400", '"1.5"',
], ids=lambda t: repr(t) if len(t) < 20 else f"{len(t)}-char {t[:3]!r}...")
def test_json_points_of_other_fields_are_reprs_or_the_line_parsers_error(tmp_path, token):
    data = f"x,y\n{token},2.5\n3.5,{token}\n4.25,-1.0\n".encode()
    code, err, text = _written_report(tmp_path, data)
    try:
        parsed = _parse_csv_by_line(data)
    except (CsvParseError, InsufficientDataError) as exc:
        assert (code, err, text) == (2, f"error: {exc}\n", None)
        return
    assert code in (0, 3)
    assert render_json(json.loads(text)) == text
    assert _hex_points(json.loads(text)["points"]) == _hex_points(parsed.points())


def test_parse_csv_echo_keeps_the_input_digits():
    data = b"x,y\n1.50,1e5\n0.10000000000000001,-0.0\n"
    assert _json_points(data) == "[[1.50,1e5],[0.10000000000000001,-0.0]]"
    assert _json_points(b"1.5,1\n2.5,3.5\n") == "[[1.5,1.0],[2.5,3.5]]"  # an integer field
    assert _json_points(b"1.5, 2.0\n2.5,3.5\n") == "[[1.5,2.0],[2.5,3.5]]"  # padding


def test_only_a_json_report_builds_the_echo(tmp_path, monkeypatch, capsys):
    import linefit.cli as cli

    csv = tmp_path / "pts.csv"
    csv.write_text("x,y\n0.5,1.5\n1.5,2.0\n2.5,4.0\n")
    original, calls = cli._half, []

    def spy(data, s, echo, job):
        calls.append(echo)
        return original(data, s, echo, job)

    monkeypatch.setattr(cli, "_half", spy)
    assert run(RunConfig(input=csv)) == 0
    assert run(RunConfig(input=csv, output_svg=tmp_path / "f.svg")) == 0
    assert main(["transform", "--input", str(csv), "--rotate", "0.3"]) == 0
    assert calls == [False] * 6  # each run's two halves
    assert run(RunConfig(input=csv, output_json=tmp_path / "r.json")) == 0
    assert calls[-2:] == [True, True]
    assert json.loads((tmp_path / "r.json").read_text())["points"] == [
        [0.5, 1.5], [1.5, 2.0], [2.5, 4.0]]
    assert '"points":[[0.5,1.5],[1.5,2.0],[2.5,4.0]]' in (tmp_path / "r.json").read_text()


# --- run() ----------------------------------------------------------------------------

def test_run_writes_consistent_json(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text(THREE_CSV)
    out_json = tmp_path / "report.json"
    code = run(RunConfig(input=csv, output_json=out_json))
    assert code == 0
    report = json.loads(out_json.read_text())
    # refitting the echoed points reproduces the reported parameters
    p = PairedSample.from_points(report["points"])
    assert abs(fit_y(p).line.m - report["fits"]["y"]["m"]) < 1e-12
    assert abs(fit_y(p).line.b - report["fits"]["y"]["b"]) < 1e-12
    assert abs(fit_x(p).line.mu - report["fits"]["x"]["mu"]) < 1e-12
    assert abs(fit_d(p).line.theta - report["fits"]["d"]["theta"]) < 1e-12
    # the printed table shows the same numbers at its own precision
    table = capsys.readouterr().out
    assert format(report["fits"]["y"]["m"], ".6g") in table
    assert format(report["fits"]["d"]["objective_min"], ".6g") in table


def test_run_svg_structure(tmp_path):
    csv = tmp_path / "pts.csv"
    csv.write_text(THREE_CSV)
    out_svg = tmp_path / "fig.svg"
    assert run(RunConfig(input=csv, output_svg=out_svg)) == 0
    root = ET.fromstring(out_svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f".//{ns}path")
    points = [
        c for c in root.findall(f".//{ns}circle") if c.get("class") == "data-point"
    ]
    assert len(paths) == 3  # one per successful method
    assert len(points) == 3  # one marker per input point


def write_circle(tmp_path, n):
    csv = tmp_path / "circle.csv"
    csv.write_text(render_csv(gen_circle(n=n)))
    return csv


def test_run_degenerate_circle_reports_the_family(tmp_path, capsys):
    out_json = tmp_path / "circle.json"
    csv = write_circle(tmp_path, 12)
    code = run(RunConfig(input=csv, methods=("D",), output_json=out_json))
    assert code == 0
    report = json.loads(out_json.read_text())
    d = report["fits"]["d"]
    assert d["status"] == "all_lines_through_centroid"
    assert abs(d["centroid"][0]) < 1e-12
    assert abs(d["objective"] - 0.5) < 1e-12
    assert "every line through centroid" in capsys.readouterr().out


def test_run_degenerate_svg_marks_the_centroid(tmp_path):
    out_svg = tmp_path / "circle.svg"
    assert run(RunConfig(input=write_circle(tmp_path, 10), output_svg=out_svg)) == 0
    root = ET.fromstring(out_svg.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    classes = [c.get("class") for c in root.findall(f".//{ns}circle")]
    assert "centroid-marker" in classes
    # Y and X still draw lines; the degenerate D does not
    assert len(root.findall(f".//{ns}path")) == 2


def test_run_vertical_data_method_mix(tmp_path, capsys):
    csv = tmp_path / "vertical.csv"
    csv.write_text("2,0\n2,1\n2,5\n")
    # Y alone: nothing succeeds
    assert run(RunConfig(input=csv, methods=("Y",))) == 3
    # all methods: X and D still succeed
    out_json = tmp_path / "vertical.json"
    assert run(RunConfig(input=csv, output_json=out_json)) == 0
    report = json.loads(out_json.read_text())
    assert report["fits"]["y"]["status"] == "precondition-failed"
    assert report["fits"]["x"]["status"] == "ok"
    assert report["fits"]["d"]["status"] == "ok"
    assert abs(report["fits"]["d"]["theta"] - math.pi / 2) < 1e-12


_OK_Y = ["status", "m", "b", "normal_form", "objective_min"]
_OK_X = ["status", "mu", "beta", "normal_form", "objective_min"]
_OK_D = ["status", "theta", "c", "case", "e_ratio", "normal_form", "objective_min"]
_FAILED = ["status", "error"]


@pytest.mark.parametrize("rows, y, x, d", [
    ("0,0\n1,0\n2,1\n", _OK_Y, _OK_X, _OK_D),  # case I
    ("0,0\n1,1\n2,2\n", _OK_Y, _OK_X, [k for k in _OK_D if k != "e_ratio"]),  # case V
    ("1,0\n0,1\n-1,0\n0,-1\n", _OK_Y, _OK_X, ["status", "centroid", "objective"]),
    ("2,0\n2,1\n2,5\n", _FAILED, _OK_X, _OK_D),
    ("0,1\n1,1\n5,1\n", _OK_Y, _FAILED, _OK_D),
])
def test_json_report_keys_are_pinned(tmp_path, rows, y, x, d):
    csv = tmp_path / "pts.csv"
    csv.write_text(rows)
    out_json = tmp_path / "report.json"
    assert run(RunConfig(input=csv, output_json=out_json)) == 0
    report = json.loads(out_json.read_text())
    assert list(report) == ["points", "stats", "fits", "comparison"]
    assert list(report["stats"]) == ["n", "mean_x", "mean_y", "var_x", "var_y", "cov_xy"]
    assert list(report["comparison"]) == [
        "m", "m_x", "tan_theta", "ratio_bound", "ordering_e", "ordering_f",
        "cs_gap", "collinear", "case",
    ]
    fits = report["fits"]
    assert list(fits) == ["y", "x", "d"]
    assert [list(fits["y"]), list(fits["x"]), list(fits["d"])] == [y, x, d]
    for fit in fits.values():
        if "normal_form" in fit:
            assert list(fit["normal_form"]) == ["theta", "c"]


def test_run_missing_file_is_an_input_error(tmp_path):
    assert run(RunConfig(input=tmp_path / "nope.csv")) == 2


@pytest.mark.parametrize("rows", [
    "1e200,1\n2e200,2\n3e200,4\n",
    "1e155,1e155\n1e156,2e156\n1e160,3e155\n",
])
def test_run_overflowing_statistics_is_an_input_error(tmp_path, capsys, rows):
    csv = tmp_path / "huge.csv"
    csv.write_text(rows)
    out_json = tmp_path / "huge.json"
    assert run(RunConfig(input=csv, output_json=out_json)) == 2
    assert "magnitude" in capsys.readouterr().err
    assert not out_json.exists()


def test_run_far_x_constant_y_still_fits(tmp_path):
    csv = tmp_path / "far.csv"
    csv.write_text("1e150,1e5\n-1e150,1e5\n0,1e5\n")
    out_json = tmp_path / "far.json"
    assert run(RunConfig(input=csv, output_json=out_json)) == 0
    y_fit = json.loads(out_json.read_text())["fits"]["y"]
    assert (y_fit["m"], y_fit["b"], y_fit["objective_min"]) == (0.0, 1e5, 0.0)


def test_run_fits_a_one_ulp_step_at_1e155(tmp_path):
    off = 1e155
    u = math.ulp(off)
    csv = tmp_path / "far.csv"
    csv.write_text(render_csv(PairedSample.from_points(
        [(off + i * u, 2 * i + (0.25 if i % 2 else -0.25)) for i in range(10)]
    )))
    out_json = tmp_path / "far.json"
    assert run(RunConfig(input=csv, output_json=out_json)) == 0
    report = json.loads(out_json.read_text())
    assert all(fit["status"] == "ok" for fit in report["fits"].values())
    assert report["fits"]["y"]["m"] == pytest.approx(16.625 / 8.25 / u, rel=1e-12)


def test_collinear_points_with_a_far_first_point_fit(tmp_path):
    # a first point 100 spreads from the rest: |cov| must stay within
    # sqrt(var_x*var_y), where summarize clamps it when rounding pushes past
    rng = random.Random(1)
    m, b = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
    xs = [100.0] + [rng.random() for _ in range(4999)]
    p = PairedSample.from_xy(xs, [m * x + b for x in xs])
    s = summarize(p)
    assert abs(s.cov_xy) <= math.sqrt(s.var_x) * math.sqrt(s.var_y)
    csv = tmp_path / "line.csv"
    csv.write_text(render_csv(p))
    out_json = tmp_path / "line.json"
    assert run(RunConfig(input=csv, output_json=out_json), out=io.StringIO()) == 0
    assert json.loads(out_json.read_text())["comparison"]["collinear"] is True


def test_collinear_points_with_a_subnormal_variance_fit(tmp_path):
    # var_y = 3.3e-315: cov_xy^2 and var_x*var_y round to subnormals, which
    # once let summarize keep a cov_xy that SummaryStats then rejected
    out_json = tmp_path / "r.json"
    r = run_cli(["fit", "--json", str(out_json)], stdin_text="0,0\n1,1.1471147311908207e-157\n")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    report = json.loads(out_json.read_text())
    assert report["comparison"]["collinear"] is True
    assert [fit["objective_min"] for fit in report["fits"].values()] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("rows, nulls", [
    # var_x is subnormal, so var_y/var_x overflows
    ("0,0\n1e-160,1\n", {"ratio_bound"}),
    # var_x underflows to 0; cov_xy = 1e-320 once made tan(theta) inf
    ("0,0\n4e-320,1\n", {"m", "m_x", "ratio_bound", "tan_theta"}),
])
def test_overflowing_diagnostics_are_null_in_the_json(tmp_path, rows, nulls):
    out_json = tmp_path / "r.json"
    r = run_cli(["fit", "--json", str(out_json)], stdin_text=rows)
    assert r.returncode == 0, r.stderr
    comparison = json.loads(out_json.read_text())["comparison"]
    missing = {k for k, v in comparison.items() if v is None}
    assert missing == nulls


def _assert_normal_forms_agree(data, c):
    # the steep method's normal form must sit on the same line as the other two
    p = parse_csv(data)
    cs = [fit(p).normal_form.c for fit in (fit_y, fit_x, fit_d_report)]
    assert cs == [c, c, c]


def test_steep_y_line_has_the_normal_form_of_x_and_d():
    # the Y slope is -2^53
    _assert_normal_forms_agree(b"1,2\n1.0000000000000002,0\n", 1.0)


def test_flat_x_line_has_the_normal_form_of_y_and_d():
    # mirrored: the X inverse slope is -2^53
    _assert_normal_forms_agree(b"2,1\n0,1.0000000000000002\n", -1.0)


@pytest.mark.parametrize("rows", [
    b"2,1\n0,1.0000000000000002\n", b"1,2\n1.0000000000000002,0\n",
    b"0,0\n1,1.1471147311908207e-157\n",
], ids=["flat-x", "steep-y", "near-horizontal"])
def test_the_three_normal_forms_share_one_angle(rows):
    # pi/2 - atan(mu) read the X angle of flat-x and near-horizontal as 0
    p = parse_csv(rows)
    thetas = {fit(p).normal_form.theta for fit in (fit_y, fit_x, fit_d_report)}
    assert len(thetas) == 1 and thetas != {0.0}


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_svg_frame_does_not_depend_on_the_units(scale):
    shape = [(0.0, 0.0), (3.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    def markers(points):
        return [line for line in render_svg(PairedSample.from_points(points), {}).splitlines()
                if 'class="data-point"' in line]
    assert markers([(x * scale, y * scale) for x, y in shape]) == markers(shape)


def test_svg_draws_identical_points_at_the_centre():
    for line in render_svg(PairedSample.from_points([(2.5, -1.5)] * 3), {}).splitlines():
        if 'class="data-point"' in line:
            assert 'cx="400.00" cy="300.00"' in line


@settings(max_examples=200, deadline=None)
@given(samples(), st.sampled_from([c for k in (1, 2, 3) for c in combinations("YXD", k)]))
def test_the_table_is_a_function_of_the_json_document(p, methods):
    with tempfile.TemporaryDirectory() as tmp:
        csv, doc_path = Path(tmp) / "pts.csv", Path(tmp) / "r.json"
        csv.write_text(render_csv(p))
        out = io.StringIO()
        code = run(RunConfig(input=csv, methods=methods, output_json=doc_path), out=out)
        doc = json.loads(doc_path.read_text())
    assert list(doc["fits"]) == [m.lower() for m in methods]
    assert cli._table_lines(doc) == out.getvalue().splitlines()
    every_fit_failed = all(fit["status"] == "precondition-failed" for fit in doc["fits"].values())
    assert code == (3 if every_fit_failed else 0)


def test_run_summarizes_once(tmp_path, monkeypatch, summarize_calls):
    # one summary per run: the halves' sums merge into one finish, stats._summary,
    # which summarize calls too
    original, finished = stats._summary, []

    def counting(n, *moments):
        finished.append(n)
        return original(n, *moments)

    for module in (stats, cli):
        monkeypatch.setattr(module, "_summary", counting)
    csv = tmp_path / "pts.csv"
    for rows, data in ((3, THREE_CSV.encode()), (halves._FORK_MIN_POINTS + 1, _big_csv())):
        csv.write_bytes(data)
        finished.clear()
        config = RunConfig(input=csv, methods=("Y", "X", "D"), output_json=tmp_path / "r.json")
        assert run(config) == 0
        assert finished == [rows] and summarize_calls == []


@given(st.lists(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2, max_size=30
))
def test_render_svg_data_points_match_per_point_reference(points):
    p = PairedSample.from_points(points)
    expected = _reference_markers(p)
    rendered = render_svg(p, {}).splitlines()
    assert [line for line in rendered if 'class="data-point"' in line] == expected


def test_run_identical_points_still_succeeds_via_d(tmp_path, capsys):
    # Y and X both lose their preconditions, but the perpendicular fit
    # degrades to the zero-objective family at the point itself
    csv = tmp_path / "same.csv"
    csv.write_text("2.5,-1.5\n2.5,-1.5\n2.5,-1.5\n")
    out_json = tmp_path / "same.json"
    out_svg = tmp_path / "same.svg"
    assert run(RunConfig(input=csv, output_json=out_json, output_svg=out_svg)) == 0
    report = json.loads(out_json.read_text())
    assert report["fits"]["y"]["status"] == "precondition-failed"
    assert report["fits"]["x"]["status"] == "precondition-failed"
    d = report["fits"]["d"]
    assert d["status"] == "all_lines_through_centroid"
    assert d["centroid"] == [2.5, -1.5]
    assert d["objective"] == 0
    ET.fromstring(out_svg.read_text())


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(map(_finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    return not isinstance(value, float) or math.isfinite(value)


def test_a_cauchy_schwarz_gap_near_the_largest_double_keeps_the_d_objective_finite(tmp_path,
                                                                                 capsys):
    # cs_gap = 9.5e307: twice it overflowed, and D read inf, above Y's 1.6e37
    csv = tmp_path / "gap.csv"
    csv.write_text("7.875601692728439e-152,7.85600827668505e-122\n"
                   "-5.1902857168042256e+135,4.347086313806617e-230\n"
                   "8.563940062035353e-210,-9.752259840216033e+18\n")
    assert run(RunConfig(input=csv, output_json=tmp_path / "r.json")) == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert _finite_numbers(doc)
    assert doc["comparison"]["cs_gap"] > 9e307
    assert 0.0 < doc["fits"]["d"]["objective_min"] <= doc["fits"]["y"]["objective_min"]
    assert " inf" not in capsys.readouterr().out


def test_fit_lines_of_points_near_the_largest_double_draw_finite(tmp_path):
    # 0.5 * (x_hi + x_lo) overflowed the frame centre, and the D line's ends
    # in data coordinates were -inf
    csv, svg = tmp_path / "max.csv", tmp_path / "f.svg"
    csv.write_text("-1.7976931348623157e+308,2.1514711314582147e+123\n"
                   "-1.7976931348623157e+308,-8555779385.341511\n")
    assert run(RunConfig(input=csv, output_svg=svg)) == 0
    text = svg.read_text()
    ET.fromstring(text)
    assert 'class="fit-d"' in text and 'class="fit-x"' in text
    assert not re.search(r"nan|inf", text, re.IGNORECASE)


@pytest.mark.parametrize("rows", ["0,0\n0,2.2250738585072014e-308\n",
                                  "0,0\n1e-310,1e-310\n5e-324,0\n"],
                         ids=["smallest-normal", "subnormal"])
def test_points_within_a_subnormal_span_draw_finite(tmp_path, rows):
    # 720 px over a span below 4e-306 overflowed the scale: markers read nan and inf
    csv, svg = tmp_path / "tiny.csv", tmp_path / "f.svg"
    csv.write_text(rows)
    assert run(RunConfig(input=csv, output_svg=svg)) == 0
    text = svg.read_text()
    ET.fromstring(text)
    assert not re.search(r"nan|inf", text, re.IGNORECASE)
    assert len(set(re.findall(r'class="data-point" cx="(\S+)" cy="(\S+)"', text))) == 2


# coordinates from 5e-324 to +-DBL_MAX: anywhere, at the edges of the range,
# at any binary exponent, and 1e-300 next to 1e300 in one column
_EDGES = (0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, 8.98846567431158e307,
          1.7976931348623157e308)
_COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(operator.mul, st.sampled_from((1.0, -1.0)), st.sampled_from(_EDGES)),
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1024)),
    st.builds(operator.mul, st.floats(-1.0, 1.0), st.sampled_from((1e-300, 1e300))),
)


@st.composite
def _fuzz_points(draw):
    """2 to 6 points, one of them repeated half the time."""
    points = draw(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=2, max_size=6))
    if draw(st.booleans()):
        at = st.integers(0, len(points) - 1)
        points[draw(at)] = points[draw(at)]
    return points


_FUZZ_COMMANDS = (
    ["fit", "--json", "r.json", "--svg", "r.svg"],
    ["transform", "--rotate", "0.3"],
    ["transform", "--translate", "1e300,-1e300"],
    ["transform", "--rotate", "1.5707963267948966", "--center=1e308,-1e308"],
)


@seed(16)
@settings(max_examples=150, deadline=None, database=None)
@given(_fuzz_points())
@example([(7.875601692728439e-152, 7.85600827668505e-122),  # cs_gap = 9.5e307
          (-5.1902857168042256e135, 4.347086313806617e-230),
          (8.563940062035353e-210, -9.752259840216033e18)])
@example([(-1.7976931348623157e308, 2.1514711314582147e123),  # x_hi + x_lo overflows
          (-1.7976931348623157e308, -8555779385.341511)])
@example([(0.0, 0.0), (0.0, 2.2250738585072014e-308)])  # the pixel scale overflowed
@example([(1.5e308, 0.0), (1.5e308, 1.0), (1.5e308, 3.0)])  # offsets from -1e308 overflow
@example([(2.427787762551348e307, 8.845845059190371e305),  # the first row's digits
          (-3.8206276683268916e307, 2.0784007719238893e306), (1.5e308, 0.0)])  # followed the last
def test_every_command_keeps_the_exit_code_contract_over_the_double_range(points):
    # exit 0, 2 with an `error: ` line, or 3; every number written is finite
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "pts.csv"
        csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in points))
        for argv in _FUZZ_COMMANDS:
            argv = [str(Path(tmp) / a) if a.startswith("r.") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--input", str(csv)])
            assert code in (0, 2, 3), (argv, err.getvalue())
            if code == 2:
                assert any(line.startswith("error: ") for line in err.getvalue().splitlines())
            elif argv[0] == "fit":
                assert _finite_numbers(json.loads((Path(tmp) / "r.json").read_text()))
                svg = (Path(tmp) / "r.svg").read_text()
                assert not re.search(r"nan|inf", svg, re.IGNORECASE)
            else:
                assert not re.search(r"nan|inf", out.getvalue(), re.IGNORECASE)
                assert parse_csv(out.getvalue().encode()).n == len(points)


# --- full process runs ------------------------------------------------------------------

def test_cli_fit_exit_codes(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text(THREE_CSV)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\noops\n")
    vertical = tmp_path / "vertical.csv"
    vertical.write_text("3,0\n3,1\n3,2\n")

    assert run_cli(["fit", "--input", str(good)]).returncode == 0
    r = run_cli(["fit", "--input", str(bad)])
    assert r.returncode == 2
    assert "line 2" in r.stderr
    assert run_cli(["fit", "--input", str(vertical), "--method", "y"]).returncode == 3
    assert run_cli(["fit", "--input", str(vertical)]).returncode == 0


@pytest.mark.parametrize("args", [
    ["fit"],
    ["generate", "circle", "--n", "12"],
    ["transform", "--rotate", "0.3"],
])
def test_closed_stdout_exits_1_without_a_traceback(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes a byte
    try:
        r = subprocess.run(
            [sys.executable, "-m", "linefit", *args],
            input=THREE_CSV.encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO,
        )
    finally:
        os.close(write_end)
    assert r.returncode == 1
    assert r.stderr == b""


@pytest.mark.parametrize("flag", ["--json", "--svg"])
def test_unwritable_output_path_exits_2_with_a_message(tmp_path, flag):
    csv = tmp_path / "pts.csv"
    csv.write_text(THREE_CSV)
    target = tmp_path / "missing-dir" / "out"
    r = run_cli(["fit", "--input", str(csv), flag, str(target)])
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert str(target) in r.stderr
    assert r.stdout.startswith("method")  # the table is printed before the files


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_report_into_a_closed_stdout_exits_1_without_a_message():
    # `--json /dev/stdout` writes the report through its own handle; a reader
    # that left makes that write, too, a broken pipe rather than an input error
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # the table waits in the buffer, the report goes first
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run(
            [sys.executable, "-m", "linefit", "fit", "--json", "/dev/stdout"],
            input=THREE_CSV.encode(),
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO,
        )
    finally:
        os.close(write_end)
    assert r.returncode == 1
    assert r.stderr == b""


@pytest.mark.parametrize("argv, flag", [
    (["transform", "--rotate", "0.3", "--center", "1,2,3"], "--center"),
    (["transform", "--translate", "a,b"], "--translate"),
    (["generate", "circle", "--n", "5", "--center", "1"], "--center"),
    (["generate", "circle", "--n", "5", "--center="], "--center"),
])
def test_malformed_pair_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected two numbers 'A,B'" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize("command, flag", [
    (["transform"], "--rotate"),
    (["generate", "circle", "--n", "5"], "--alpha"),
])
def test_non_finite_angle_is_a_usage_error(tmp_path, capsys, command, flag, value):
    # cos(inf) raises, and cos(nan) would turn every point into nan
    if command[0] == "transform":
        src = tmp_path / "in.csv"
        src.write_text(THREE_CSV)
        command = command + ["--input", str(src)]
    with pytest.raises(SystemExit) as exc:
        main(command + [f"{flag}={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: expected a finite number, got '{value}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, flag, message", [
    (["parallel", "--A", "1", "--spread", "1e308"], "--spread",
     "'1e308' is too large: twice it overflows a double"),
    (["parallel", "--A", "1", "--spread", "inf"], "--spread", "expected a finite number"),
    (["parallel", "--A", "1", "--spread", "nan"], "--spread", "expected a finite number"),
    (["parallel", "--A", "inf"], "--A", "expected a finite number"),
    (["parallel", "--M", "1", "--B", "inf"], "--B", "expected a finite number"),
    (["noisy-line", "--slope", "1", "--span", "1e308"], "--span",
     "'1e308' is too large: twice it overflows a double"),
    (["noisy-line", "--slope", "1", "--span", "inf"], "--span", "expected a finite number"),
    (["noisy-line", "--slope", "1", "--noise", "inf"], "--noise", "expected a finite number"),
    (["noisy-line", "--slope", "inf"], "--slope", "expected a finite number"),
    (["circle", "--n", "5", "--radius", "inf"], "--radius", "expected a finite number"),
    (["circle", "--n", "5", "--center", "inf,0"], "--center",
     "expected two finite numbers 'A,B'"),
    (["parallel", "--A", "0"], "--A", "expected a number above 0, got '0'"),
    (["parallel", "--A", "-1"], "--A", "expected a number above 0, got '-1'"),
    (["parallel", "--M", "1", "--B", "0"], "--B", "expected a number above 0, got '0'"),
    (["noisy-line", "--slope", "1", "--span", "0"], "--span",
     "expected a number above 0, got '0'"),
    (["parallel", "--A", "1", "--n", "1"], "--n", "expected a number above 1, got '1'"),
    (["parallel", "--A", "1", "--n", "x"], "--n", "invalid int value: 'x'"),
    (["circle", "--n", "5", "--radius", "0"], "--radius", "expected a number above 0, got '0'"),
    (["circle", "--n", "2"], "--n", "expected a number above 2, got '2'"),
    (["noisy-line", "--slope", "1", "--n", "1"], "--n", "expected a number above 1, got '1'"),
    (["noisy-line", "--slope", "1", "--noise", "-1"], "--noise",
     "expected a number of at least 0, got '-1'"),
])
def test_non_finite_generate_option_is_a_usage_error_that_names_it(capsys, args, flag,
                                                                   message):
    # the non-finite ones used to fail later, naming an internal sample:
    # "sample value at index 0"; the others named a generator's argument
    # ("half_gap", "offset", "x_span", "radius", "noise") or a sample of values
    with pytest.raises(SystemExit) as exc:
        main(["generate"] + args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("args, n", [
    (["circle", "--n", "3"], 3),
    (["noisy-line", "--slope", "1", "--n", "2"], 2),
    (["noisy-line", "--slope", "1", "--n", "4", "--noise", "0"], 4),
    (["noisy-line", "--slope", "1", "--n", "4", "--noise", "-0.0"], 4),
])
def test_generate_takes_the_bounds_of_its_options(capsys, args, n):
    assert main(["generate", *args]) == 0
    assert parse_csv(capsys.readouterr().out.encode()).n == n


@pytest.mark.parametrize("command, rows", [
    (["generate", "noisy-line", "--slope", "1e308"], None),
    (["generate", "parallel", "--M", "1e300", "--B", "1"], None),  # m*m + 1 overflows
    (["generate", "circle", "--n", "5", "--radius", "1e308", "--center", "1e308,0"], None),
    (["transform", "--translate", "1e308,0"], "1e308,0\n1e308,1\n"),
], ids=["noisy-line", "parallel", "circle", "transform"])
def test_overflowing_options_name_the_command_not_a_sample(tmp_path, capsys, command, rows):
    # every option is finite, and each used to fail naming "sample value at index ..."
    name = " ".join(command[:2] if command[0] == "generate" else command[:1])
    if rows is not None:
        csv = tmp_path / "pts.csv"
        csv.write_text(rows)
        command = command + ["--input", str(csv)]
    assert main(command) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {name}: the options overflow a double (a coordinate came out non-finite)\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("args, message", [
    (["generate", "parallel", "--A", "1", "--M", "2"], "error: --A excludes --M/--B"),
    (["generate", "parallel", "--M", "2"],
     "error: a ladder needs either --A (vertical) or both --M and --B"),
    (["transform", "--rotate", "abc"],
     "linefit transform: error: argument --rotate: invalid float value: 'abc'"),
], ids=["vertical-and-slanted", "slanted-without-offset", "rotate-not-a-number"])
def test_conflicting_or_unreadable_options_exit_2_with_their_message(args, message):
    done = run_cli(args, stdin_text=THREE_CSV)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1] == message


def test_too_few_rungs_keep_their_own_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "parallel", "--A", "1", "--n", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("error: argument --n: expected a number above 1, got '0'\n")
    assert captured.out == ""


@pytest.mark.parametrize("spread", ["8e307", "1e-170"])
def test_a_vertical_ladder_whose_rung_variance_leaves_the_doubles_prints(capsys, spread):
    # the rungs spread out, though their variance overflows or underflows
    assert main(["generate", "parallel", "--A", "1", "--spread", spread, "--n", "3"]) == 0
    p = parse_csv(capsys.readouterr().out.encode())
    assert p.n == 6 and max(p.ys) > min(p.ys)


@pytest.mark.parametrize("offset, spread", [("1e-20", "30"), ("1", "8e307")])
def test_a_slanted_ladder_whose_offset_is_lost_to_rounding_is_an_error(capsys, offset, spread):
    # each lower point would round onto its upper partner: one line, not two
    argv = ["generate", "parallel", "--M", "1", "--B", offset, "--spread", spread, "--n", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: offset {float(offset)!r} is lost to rounding")
    assert captured.out == ""


SPAN_MAX = [(1.7e308, 0.0), (1.7e308, 1.0), (-1.7e308, 0.0)]


def transform_span_max(tmp_path, capsys, angle):
    csv = tmp_path / "pts.csv"
    csv.write_text("".join(f"{x!r},{y!r}\n" for x, y in SPAN_MAX))
    code = main(["transform", "--rotate", angle, "--input", str(csv)])
    return code, capsys.readouterr()


def test_transform_turns_points_whose_offsets_from_the_centroid_overflow(tmp_path, capsys):
    # x - mean_x overflows a double for the first two points
    code, captured = transform_span_max(tmp_path, capsys, "0")
    assert code == 0, captured.err
    for got, want in zip(parse_csv(captured.out.encode()).points(), SPAN_MAX):
        assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want))
    code, captured = transform_span_max(tmp_path, capsys, "0.3")
    assert code == 0, captured.err
    assert parse_csv(captured.out.encode()).n == 3


def test_transform_whose_moved_point_overflows_still_exits_2(tmp_path, capsys):
    # a quarter turn takes the last point to y = -2.27e308
    code, captured = transform_span_max(tmp_path, capsys, "1.5707963267948966")
    assert code == 2
    assert captured.err == ("error: transform: the options overflow a double "
                            "(a coordinate came out non-finite)\n")
    assert captured.out == ""


def test_transform_about_a_far_centre_moves_each_row_as_the_library_moves_a_point(tmp_path,
                                                                              capsys):
    # every offset x - (-1e308) overflows a double, and every moved point is finite
    csv = tmp_path / "pts.csv"
    csv.write_text("1.5e308,0\n1.5e308,1\n1.5e308,3\n")
    code = main(["transform", "--rotate", "0.3", "--center=-1e308,0", "--input", str(csv)])
    moved = apply_motion_point(Point(1.5e308, 0.0), Rotation(0.3, Point(-1e308, 0.0)))
    assert moved == Point(1.3883412228140148e308, 7.3880051665334888e307)
    assert (code, capsys.readouterr().out) == (0, "x,y\n" + "%.17g,%.17g\n" % moved * 3)


@pytest.mark.parametrize("more", ["", "1.5e+308,0.0\n"], ids=["alone", "with-a-far-row"])
def test_a_moved_row_does_not_depend_on_the_other_rows(tmp_path, capsys, more):
    # the far row's offset overflows; it turned every row by half offsets
    csv = tmp_path / "pts.csv"
    csv.write_text("2.427787762551348e+307,8.845845059190371e+305\n"
                   "-3.8206276683268916e+307,2.0784007719238893e+306\n" + more)
    assert main(["transform", "--rotate", "0.3", "--center=-1e308,0", "--input", str(csv)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "1.8465778690741131e+307,3.7571699935544012e+307")


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
@pytest.mark.parametrize("command, flag", [
    (["transform"], "--rotate"),
    (["generate", "circle", "--n", "5"], "--alpha"),
])
def test_negative_non_finite_angle_after_its_flag_names_the_angle(tmp_path, capsys, command,
                                                                 flag, value):
    # a separate `-inf` is a value, as `--rotate=-inf` is, and not an option
    if command[0] == "transform":
        src = tmp_path / "in.csv"
        src.write_text(THREE_CSV)
        command = command + ["--input", str(src)]
    with pytest.raises(SystemExit) as exc:
        main(command + [flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: expected a finite number, got '{value}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag, value", [
    (["generate", "circle", "--n", "7"], "--center", "-0.0,0"),
    (["generate", "noisy-line"], "--slope", "-2e-1"),
    (["transform"], "--translate", "-1,2"),
    (["transform"], "--rotate", "-1e-3"),
    (["transform", "--rotate", "0.5"], "--center", "-1,-2"),
])
def test_negative_value_may_follow_its_flag(tmp_path, capsys, command, flag, value):
    if command[0] == "transform":
        csv = tmp_path / "pts.csv"
        csv.write_text(THREE_CSV)
        command = [*command, "--input", str(csv)]
    outputs = []
    for form in ([flag, value], [f"{flag}={value}"]):
        assert main([*command, *form]) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]


def test_cli_generate_pipes_into_fit():
    gen = run_cli(["generate", "circle", "--n", "12"])
    assert gen.returncode == 0
    fit = run_cli(["fit", "--method", "d"], stdin_text=gen.stdout)
    assert fit.returncode == 0
    assert "every line through centroid" in fit.stdout
    assert "0.5" in fit.stdout


def test_cli_generate_parallel_and_svg(tmp_path):
    gen = run_cli(["generate", "parallel", "--M", "2", "--B", "40", "--seed", "7"])
    assert gen.returncode == 0
    svg_path = tmp_path / "ladder.svg"
    fit = run_cli(["fit", "--svg", str(svg_path)], stdin_text=gen.stdout)
    assert fit.returncode == 0
    root = ET.fromstring(svg_path.read_text())
    assert len(root.findall(".//{http://www.w3.org/2000/svg}path")) == 3


def test_cli_transform_round_trip(tmp_path):
    csv = tmp_path / "pts.csv"
    csv.write_text(THREE_CSV)
    rotated = run_cli(
        ["transform", "--input", str(csv), "--rotate", str(math.pi / 2), "--center", "0,0"]
    )
    assert rotated.returncode == 0
    p = parse_csv(rotated.stdout.encode())
    expected = [(0.0, 0.0), (0.0, 1.0), (-1.0, 2.0)]
    for (gx, gy), (wx, wy) in zip(p.points(), expected):
        assert abs(gx - wx) < 1e-12
        assert abs(gy - wy) < 1e-12
    translated = run_cli(["transform", "--translate", "1,2"], stdin_text=THREE_CSV)
    assert parse_csv(translated.stdout.encode()).points()[0] == (1.0, 2.0)


def test_importing_the_cli_loads_only_what_a_run_needs():
    # -S: a site .pth file may import some of these before linefit does
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    unneeded = ["numpy", "dataclasses", "inspect", "typing", "pathlib", "random",
                "linefit.generators"]
    code = ("import sys, linefit, linefit.cli; "
            f"print([m for m in {unneeded!r} if m in sys.modules])")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env=env, cwd=REPO)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
    assert linefit.gen_circle is linefit.generators.gen_circle  # through __getattr__
    with pytest.raises(AttributeError):
        linefit.no_such_name


# `python -c` with numpy made unimportable, then the CLI's own entry point
_NO_NUMPY = ("import sys; sys.modules['numpy'] = None; "
             "from linefit.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("args, written", [
    (["fit", "--input", "IN", "--json", "r.json", "--svg", "r.svg"], ["r.json", "r.svg"]),
    (["fit", "--input", "IN", "--method", "d"], []),
    (["generate", "circle", "--n", "12", "--alpha", "0.25"], []),
    (["generate", "parallel", "--A", "1.5", "--seed", "2"], []),
    (["generate", "parallel", "--M", "2", "--B", "40", "--seed", "7"], []),
    (["generate", "noisy-line", "--slope", "0.5", "--n", "50", "--seed", "3"], []),
    (["transform", "--input", "IN", "--rotate", "0.3", "--center", "1,-2"], []),
    (["transform", "--input", "IN", "--translate", "-1.5,2"], []),
], ids=["fit-json-svg", "fit-d", "circle", "parallel-A", "parallel-M-B", "noisy-line",
        "rotate-center", "translate"])
def test_every_command_runs_without_numpy(tmp_path, args, written):
    src = tmp_path / "in.csv"
    src.write_text("x,y\n0,0\n1,0\n2,1\n3.5,2.25\n")
    argv = [str(src) if a == "IN" else a for a in args]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for name, launch in (("normal", ["-m", "linefit"]), ("no-numpy", ["-c", _NO_NUMPY])):
        cwd = tmp_path / name
        cwd.mkdir()
        r = subprocess.run([sys.executable, *launch, *argv], capture_output=True,
                           env=env, cwd=cwd)
        assert r.returncode == 0, r.stderr.decode()
        outputs.append([r.stdout] + [(cwd / f).read_bytes() for f in written])
    assert outputs[0] == outputs[1]


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(input="-", methods=())
    with pytest.raises(ValueError):
        RunConfig(input="-", methods=("Z",))
