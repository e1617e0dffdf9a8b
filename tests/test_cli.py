import contextlib
import io
import json
import marshal
import math
import os
import random
import signal
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import linefit
import linefit.cli as cli
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
from linefit.stats import PairedSample, summarize
from linefit.svg import _Frame, render_svg

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
    sample, points_json = parse_csv(data, echo=True)
    assert points_json == "[[1.5,-2.0],[3.0,4e-3]]"
    assert sample.points() == ((1.5, -2.0), (3.0, 4e-3))


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
        points_json = parse_csv(data, echo=True)[1]
        if points_json is not None:
            # any echo text reads back to exactly the line parser's doubles
            expected = _parse_csv_by_line(data).points()
            assert _hex_points(json.loads(points_json)) == _hex_points(expected)


def test_csv_round_trip():
    p = PairedSample.from_points([(0.1, -0.7), (2.5, 3.25), (1 / 3, 1e-17)])
    assert parse_csv(render_csv(p).encode()).points() == p.points()


# --- the two-process conversion ------------------------------------------------------

def _big_csv(n: int = cli._FORK_MIN_POINTS + 1, tail: str | None = None) -> bytes:
    """A header and n repr rows, with ``tail`` in place of the last but one."""
    rng = random.Random(n)
    rows = [f"{rng.uniform(-9, 9)!r},{rng.uniform(-1e9, 1e9)!r}" for _ in range(n)]
    if tail is not None:
        rows[-2] = tail
    return ("x,y\n" + "\n".join(rows) + "\n").encode()


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returned to this process, which may run on two
    CPUs whatever the machine has."""
    fork, pids = os.fork, []

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    return pids


def _conversions(data: bytes):
    """Hex points, echo and rendered CSV of ``data``, or parse_csv's error."""
    try:
        sample, points_json = parse_csv(data, echo=True)
    except (CsvParseError, InsufficientDataError) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return _hex_points(sample.points()), points_json, render_csv(sample)


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
    if tail is None:
        assert forked[1] is not None  # the echo survives the split
    elif tail in ("3,2.5", " 1.5,2.5"):
        assert forked[1] is None
    else:
        assert forked[1] == len(data.splitlines()) - 1  # the line of the bad row


@pytest.mark.parametrize("failure", ["raise", "exit", "kill", "short-blob", "bad-blob"])
def test_a_failed_child_leaves_the_result_unchanged(monkeypatch, forks, failure):
    data = _big_csv()
    expected = _conversions(data)
    forks.clear()

    def dumps(value):  # runs in the child only
        blob = marshal.dumps(value)
        if failure == "raise":
            raise MemoryError
        if failure == "exit":
            os._exit(3)
        if failure == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return blob[:-5] if failure == "short-blob" else b"\xff" + blob

    monkeypatch.setattr(cli, "marshal", SimpleNamespace(dumps=dumps, loads=marshal.loads))
    assert _conversions(data) == expected
    assert len(forks) == 2  # parse_csv's and render_csv's
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
    assert len(forks) == 4
    _no_child_left()


def test_a_raising_first_half_still_reaps_the_child(forks):
    def fn(s):
        if s.start == 0:  # the first half, computed in this process
            raise KeyError("first")
        return "x" * 10**6  # more than a pipe holds: the child blocks writing

    with pytest.raises(KeyError):
        cli._halves(fn, cli._FORK_MIN_POINTS)
    assert forks
    _no_child_left()


def test_small_inputs_one_cpu_and_threads_convert_in_process(monkeypatch, forks):
    _conversions(_big_csv(cli._FORK_MIN_POINTS - 1))
    with monkeypatch.context() as m:
        m.setattr(cli, "_cpus", lambda: 1)
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
        assert cli._cpus() == 1
    finally:
        os.sched_setaffinity(0, cpus)
    assert cli._cpus() == len(cpus)


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
    sample, points_json = parse_csv(data, echo=True)
    assert points_json == "[[1.50,1e5],[0.10000000000000001,-0.0]]"
    assert sample.points() == parse_csv(data).points()
    assert parse_csv(b"1.5,1\n2.5,3.5\n", echo=True)[1] is None  # an integer field
    assert parse_csv(b"1.5, 2.0\n2.5,3.5\n", echo=True)[1] is None  # padding


def test_only_a_json_report_builds_the_echo(tmp_path, monkeypatch, capsys):
    import linefit.cli as cli

    csv = tmp_path / "pts.csv"
    csv.write_text("x,y\n0.5,1.5\n1.5,2.0\n2.5,4.0\n")
    original, calls = cli.parse_csv, []

    def spy(data, **kwargs):
        result = original(data, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(cli, "parse_csv", spy)
    assert run(RunConfig(input=csv)) == 0
    assert run(RunConfig(input=csv, output_svg=tmp_path / "f.svg")) == 0
    assert main(["transform", "--input", str(csv), "--rotate", "0.3"]) == 0
    assert len(calls) == 3
    assert all(kwargs == {} and isinstance(r, PairedSample) for kwargs, r in calls)
    assert run(RunConfig(input=csv, output_json=tmp_path / "r.json")) == 0
    assert calls[-1][0] == {"echo": True}
    assert calls[-1][1][1] == "[[0.5,1.5],[1.5,2.0],[2.5,4.0]]"


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


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_svg_frame_does_not_depend_on_the_units(scale):
    shape = [(0.0, 0.0), (3.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    def markers(points):
        return [line for line in render_svg(PairedSample.from_points(points), []).splitlines()
                if 'class="data-point"' in line]
    assert markers([(x * scale, y * scale) for x, y in shape]) == markers(shape)


def test_svg_draws_identical_points_at_the_centre():
    for line in render_svg(PairedSample.from_points([(2.5, -1.5)] * 3), []).splitlines():
        if 'class="data-point"' in line:
            assert 'cx="400.00" cy="300.00"' in line


def test_run_summarizes_once(tmp_path, summarize_calls):
    csv = tmp_path / "pts.csv"
    csv.write_text(THREE_CSV)
    config = RunConfig(input=csv, methods=("Y", "X", "D"), output_json=tmp_path / "r.json")
    assert run(config) == 0
    assert len(summarize_calls) == 1


@given(st.lists(
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=2, max_size=30
))
def test_render_svg_data_points_match_per_point_reference(points):
    p = PairedSample.from_points(points)
    frame = _Frame(p)
    expected = []
    for x, y in points:
        px, py = frame.to_pixel(x, y)
        expected.append(
            f'<circle class="data-point" cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#444444"/>'
        )
    rendered = render_svg(p, []).splitlines()
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
])
def test_non_finite_generate_option_is_a_usage_error_that_names_it(capsys, args, flag,
                                                                   message):
    # each used to fail later, naming an internal sample: "sample value at index 0"
    with pytest.raises(SystemExit) as exc:
        main(["generate"] + args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"error: argument {flag}: {message}" in captured.err
    assert captured.out == ""


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


def test_too_few_rungs_keep_their_own_message(capsys):
    assert main(["generate", "parallel", "--A", "1", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: a sample needs at least 2 values, got 0\n"


@pytest.mark.parametrize("spread", ["8e307", "1e-170"])
def test_a_vertical_ladder_whose_rung_variance_leaves_the_doubles_prints(capsys, spread):
    # the rungs spread out, though their variance overflows or underflows
    assert main(["generate", "parallel", "--A", "1", "--spread", spread, "--n", "3"]) == 0
    p = parse_csv(capsys.readouterr().out.encode())
    assert p.n == 6 and max(p.ys.values) > min(p.ys.values)


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
