"""Command-line interface: fit CSV point sets, generate datasets, move them.

Subcommands:

* ``fit``       read points (file or stdin), run the requested fits, print a
                table, optionally write a JSON report and an SVG figure.
* ``generate``  emit a benchmark dataset (circle | parallel | noisy-line) as
                CSV on stdout, ready to pipe into ``fit``.
* ``transform`` apply a rigid motion to a CSV point set and print the moved
                CSV, for shell-level invariance experiments.

From ``_FORK_MIN_POINTS`` (10,000) points up, ``parse_csv`` and
``render_csv`` run half of their float conversion in a forked child
(``_halves``).  The point count decides it, where ``os.fork`` exists, the
process may run on two CPUs and it runs a single thread; no option does.
The results and errors are those of one process.

Exit codes: 0 success (at least one requested fit produced a result),
1 stdout was closed before the output was written, 2 input error or an
unwritable output path, 3 every requested fit failed its precondition.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import re
import sys
import threading
from collections import namedtuple
from itertools import chain, repeat

from . import diagnostics
from .errors import (
    CsvParseError,
    GenerationError,
    InsufficientDataError,
    InvalidSampleError,
    LineFitError,
)
from .fitters import FitReport, UniqueLine, fit_d_report, fit_x, fit_y
from .geometry import Point, normal_to_slope
from .stats import PairedSample, Sample, SummaryStats
from .svg import render_svg
from .transforms import Rotation, Translation, apply_motion_points

__all__ = ["RunConfig", "parse_csv", "run", "main"]

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INPUT_ERROR = 2
EXIT_NO_METHOD_SUCCEEDED = 3


class RunConfig(namedtuple("RunConfig", "input methods output_json output_svg")):
    """One fitting run: a CSV path ('-' = stdin) and at least one method.

    A path is a ``str`` or an ``os.PathLike`` such as ``pathlib.Path``.
    """

    __slots__ = ()

    def __new__(cls, input: str | os.PathLike, methods: tuple[str, ...] = ("Y", "X", "D"),
                output_json: str | os.PathLike | None = None,
                output_svg: str | os.PathLike | None = None):
        if not methods:
            raise ValueError("at least one method must be selected")
        for m in methods:
            if m not in ("Y", "X", "D"):
                raise ValueError(f"unknown method {m!r}")
        return super().__new__(cls, input, methods, output_json, output_svg)


# ---------------------------------------------------------------------------
# CSV

def parse_csv(data: bytes, *, echo: bool = False):
    """Parse UTF-8 `x,y` lines into a sample.

    A line ends at any break ``str.splitlines`` reads: LF, CRLF, CR, VT, FF,
    U+001C to U+001E (the file, group and record separators), NEL (U+0085),
    U+2028 and U+2029.  Blank lines may appear anywhere, and the first
    non-blank line may be the header `x,y`, with whitespace around its fields.
    Fields are finite Python float literals with optional surrounding
    whitespace; at least two pairs are needed.  Other input raises
    :class:`CsvParseError`, which names the first bad 1-based line, or
    :class:`InsufficientDataError`.

    With ``echo=True`` the result is ``(sample, points_json)``.  If every field
    is a JSON float literal (RFC 8259 section 6: a fraction or an exponent) and
    no data line holds a space or a tab, ``points_json`` is the JSON array of
    the points in the input's own digits, which read back exactly; else None.
    """
    try:
        rows = list(filter(str.strip, data.decode("utf-8").splitlines()))
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not UTF-8 text: {exc}") from exc
    header = bool(rows) and [f.strip() for f in rows[0].split(",")] == ["x", "y"]
    if header:
        del rows[0]
    try:
        (values, spelled), (tail, tail_spelled) = _halves(
            lambda s: _row_values(rows[s]), len(rows))
        values += tail
        del tail  # the halves' lists go before the sample's columns are built
        # the Sample check is the one finiteness pass, and it counts the points
        sample = PairedSample.from_xy(values[0::2], values[1::2])
    except ValueError:
        _explain(data, header)
    if not echo:
        return sample
    return sample, "[[" + "],[".join(rows) + "]]" if spelled and tail_spelled else None


def _row_values(rows: list[str]) -> tuple[list[float], bool]:
    """The fields of rows that hold one comma each, as by :func:`_values`;
    ValueError on any other row, or on no rows."""
    if set(map(str.count, rows, repeat(","))) != {1}:
        raise ValueError("not one comma per row")
    return _values(",".join(rows))


def _reject(token: str):
    raise ValueError(f"not a JSON float literal: {token}")


# integer tokens are not echoed: `-0` and integers above 2**53 would read back
# as other doubles than float() gave.  Raising in the scanner ends the decode
# at the first such token, before the float() fallback parses the input again.
_FLOAT_LITERALS = json.JSONDecoder(parse_int=_reject, parse_constant=_reject)


def _values(joined: str) -> tuple[list[float], bool]:
    """The joined fields as floats, and whether the JSON echo may splice them."""
    try:
        values = _FLOAT_LITERALS.decode("[" + joined + "]")
        if set(map(type, values)) == {float}:
            return values, " " not in joined and "\t" not in joined
    except (ValueError, RecursionError):
        pass
    return list(map(float, map(str.strip, joined.split(",")))), False


def _explain(data: bytes, header: bool) -> None:
    """Raise the error of the first line of UTF-8 ``data`` that :func:`parse_csv`
    cannot accept; never returns.  ``header`` says whether the first non-blank
    line is the header."""
    lines = enumerate(data.decode("utf-8").splitlines(), start=1)
    numbered = [(lineno, raw) for lineno, raw in lines if raw.strip()]
    for lineno, raw in numbered[1:] if header else numbered:
        fields = [f.strip() for f in raw.split(",")]
        if len(fields) != 2:
            raise CsvParseError(f"line {lineno}: expected 'x,y', got {raw!r}", line=lineno)
        try:
            x, y = map(float, fields)
        except ValueError as exc:
            raise CsvParseError(
                f"line {lineno}: could not parse numbers from {raw!r}", line=lineno
            ) from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise CsvParseError(f"line {lineno}: non-finite value in {raw!r}", line=lineno)
    raise InsufficientDataError(f"need at least 2 data points, got {len(numbered) - header}")


def render_csv(p: PairedSample) -> str:
    xs, ys = p.xs.values, p.ys.values

    def rows(s: slice) -> str:
        # 17 significant digits round-trip any double exactly; one format call
        # over the interleaved coordinates builds no string per point
        xy = tuple(chain.from_iterable(zip(xs[s], ys[s])))
        return ("%.17g,%.17g\n" * (len(xy) // 2)) % xy

    return "x,y\n%s%s" % _halves(rows, p.n)


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


# ---------------------------------------------------------------------------
# JSON

def render_json(report: dict, points_json: str | None = None) -> str:
    """One compact line; every float reads back exactly, non-finite is an error.

    Floats use Python's shortest round-trip repr.  ``points_json``, the echo
    from ``parse_csv(data, echo=True)``, is spliced in as the first key,
    ``points``, spelled with the input's own digits; ``report`` then holds
    the other keys.
    """
    text = json.dumps(report, allow_nan=False, separators=(",", ":"))
    if points_json is not None:
        text = '{"points":' + points_json + ("," if report else "") + text[1:]
    return text + "\n"


# ---------------------------------------------------------------------------
# fitting orchestration

def _fit_all(s: SummaryStats, methods):
    """Each method's FitReport, or the LineFitError its precondition raised."""
    fitters = {"Y": fit_y, "X": fit_x, "D": fit_d_report}  # per call: sees rebound globals
    results: dict[str, FitReport | LineFitError] = {}
    for m in methods:
        try:
            results[m] = fitters[m](s)
        except LineFitError as exc:
            results[m] = exc
    return results


def _fit_json(outcome: FitReport | LineFitError) -> dict:
    if not isinstance(outcome, FitReport):
        return {"status": "precondition-failed", "error": str(outcome)}
    line, nf = outcome.line, outcome.normal_form
    if nf is None:
        return {
            "status": "all_lines_through_centroid",
            "centroid": [line.centroid.x, line.centroid.y],
            "objective": line.objective,
        }
    if isinstance(line, UniqueLine):
        body = {"status": "ok", "theta": nf.theta, "c": nf.c, "case": line.case.tag}
        if line.case.e_ratio is not None:
            body["e_ratio"] = line.case.e_ratio
    else:  # the Y line's fields are m, b and the X line's mu, beta
        body = {"status": "ok", **line._asdict()}
    body["normal_form"] = nf._asdict()
    body["objective_min"] = outcome.objective_min
    return body


def _comparison_json(cmp: diagnostics.ComparisonReport) -> dict:
    body = cmp._asdict()
    body["case"] = body.pop("case_tag")
    return body


def _g6(v: float | None) -> str:
    return "-" if v is None else format(v, ".6g")


def _table_lines(s: SummaryStats, results: dict, cmp: diagnostics.ComparisonReport) -> list[str]:
    lines: list[str] = []
    header = f"{'method':<8}{'slope':>14}{'intercept':>14}{'theta':>14}{'c':>14}{'objective':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for method, report in results.items():
        if not isinstance(report, FitReport):
            lines.append(f"{method:<8}({report})")
            continue
        line, nf = report.line, report.normal_form
        if nf is None:
            lines.append(
                f"{method:<8}degenerate: every line through centroid "
                f"({_g6(line.centroid.x)}, {_g6(line.centroid.y)}), "
                f"objective {_g6(line.objective)}"
            )
            continue
        if method != "D":
            slope, intercept = line
        else:
            try:
                slope, intercept = normal_to_slope(nf)
            except LineFitError:
                slope, intercept = None, None
        lines.append(
            f"{method:<8}{_g6(slope):>14}{_g6(intercept):>14}"
            f"{_g6(nf.theta):>14}{_g6(nf.c):>14}{_g6(report.objective_min):>14}"
        )
    if any(isinstance(r, FitReport) for r in results.values()):
        lines.append("")
        lines.append(
            f"n={s.n}  centroid=({_g6(s.mean_x)}, {_g6(s.mean_y)})  "
            f"var(x)={_g6(s.var_x)}  var(y)={_g6(s.var_y)}  "
            f"cov(x,y)={_g6(s.cov_xy)}"
        )
    tan = cmp.tan_theta if isinstance(cmp.tan_theta, str) else _g6(cmp.tan_theta)
    lines.append(
        f"slopes: m={_g6(cmp.m)}  bound={_g6(cmp.ratio_bound)}  "
        f"m_x={_g6(cmp.m_x)}  tan(theta)={tan}"
    )
    lines.append(
        f"orderings: |m|<=bound<=|m_x| {cmp.ordering_e}; "
        f"|m|<=|tan|<=|m_x| {cmp.ordering_f}  "
        f"(case {cmp.case_tag}, collinear={str(cmp.collinear).lower()}, "
        f"cs_gap={_g6(cmp.cs_gap)})"
    )
    if isinstance(results.get("X"), FitReport):
        lines.append("note: X slope/intercept are mu and beta in x = mu*y + beta")
    return lines


def _read_input(path: str | os.PathLike) -> bytes:
    if str(path) == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


def _write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def run(config: RunConfig, out=None) -> int:
    """Execute one fitting run; returns the process exit status."""
    out = out if out is not None else sys.stdout
    try:
        data = _read_input(config.input)
        if config.output_json is None:  # the echo is built only for a JSON report
            points, points_json = parse_csv(data), None
        else:
            points, points_json = parse_csv(data, echo=True)
        s = points.summary
    except (LineFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    results = _fit_all(s, config.methods)
    cmp = diagnostics.compare(s)

    for line in _table_lines(s, results, cmp):
        print(line, file=out)

    try:
        if config.output_json is not None:
            # without the input's own text, points go out as shortest reprs
            report = {} if points_json is not None else {"points": points.points()}
            report["stats"] = s._asdict()
            report["fits"] = {m.lower(): _fit_json(results[m]) for m in config.methods}
            report["comparison"] = _comparison_json(cmp)
            _write_text(config.output_json, render_json(report, points_json))
        if config.output_svg is not None:
            fitted = [(m, r) for m, r in results.items() if isinstance(r, FitReport)]
            _write_text(config.output_svg, render_svg(points, fitted))
    except BrokenPipeError:
        raise  # the reader left: exit 1 in main, as for stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if any(isinstance(r, FitReport) for r in results.values()):
        return EXIT_OK
    return EXIT_NO_METHOD_SUCCEEDED


# ---------------------------------------------------------------------------
# argument parsing

def _finite(text: str) -> float:
    """A finite number option value; argparse names the option of a bad one.

    Options take no inf or nan: cos and sin of them are no rotation, and a
    generated coordinate would be no point."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return v


def _half_width(text: str) -> float:
    """A finite h whose interval [-h, h], which values are drawn from, has a
    finite width too."""
    h = _finite(text)
    if not math.isfinite(2.0 * h):
        raise argparse.ArgumentTypeError(f"{text!r} is too large: twice it overflows a double")
    return h


def _pair(text: str) -> tuple[float, float]:
    """An 'A,B' option value of two finite numbers; argparse reports a bad one."""
    try:
        a, b = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two numbers 'A,B', got {text!r}") from None
    if not (math.isfinite(a) and math.isfinite(b)):
        raise argparse.ArgumentTypeError(f"expected two finite numbers 'A,B', got {text!r}")
    return a, b


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3``, ``-0.0,0`` (a minus, then a digit) and the ``-inf``,
    ``-infinity`` and ``-nan`` that float() takes as a value where argparse
    reads an option; add_subparsers gives every subcommand this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf(inity)?|nan)$)", re.I)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linefit",
        description="Fit lines to 2D points by vertical, horizontal or "
        "perpendicular least squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit CSV points and report the lines")
    fit.add_argument("--input", default="-", help="CSV file path ('-' = stdin)")
    fit.add_argument(
        "--method",
        choices=["y", "x", "d", "all"],
        default="all",
        help="which fit(s) to run",
    )
    fit.add_argument("--json", metavar="PATH", help="write a JSON report here")
    fit.add_argument("--svg", metavar="PATH", help="write an SVG figure here")

    gen = sub.add_parser("generate", help="emit a benchmark dataset as CSV")
    gsub = gen.add_subparsers(dest="shape", required=True)

    circle = gsub.add_parser("circle", help="evenly spaced points on a circle")
    circle.add_argument("--n", type=int, required=True)
    circle.add_argument("--alpha", type=_finite, default=0.0, help="phase angle")
    circle.add_argument("--radius", type=_finite, default=1.0)
    circle.add_argument("--center", type=_pair, default=(0.0, 0.0), metavar="X,Y")

    ladder = gsub.add_parser(
        "parallel", help="symmetric rungs between two parallel lines"
    )
    ladder.add_argument("--A", type=_finite, help="half gap of a vertical ladder")
    ladder.add_argument("--M", type=_finite, help="slope of a slanted ladder")
    ladder.add_argument("--B", type=_finite, help="intercept offset of a slanted ladder")
    ladder.add_argument("--n", type=int, default=25, help="rungs per line")
    ladder.add_argument("--seed", type=int, default=0)
    ladder.add_argument(
        "--spread", type=_half_width, default=30.0, help="rung positions span [-spread, spread]"
    )

    noisy = gsub.add_parser("noisy-line", help="seeded noisy points along a line")
    noisy.add_argument("--slope", type=_finite, required=True)
    noisy.add_argument("--intercept", type=_finite, default=0.0)
    noisy.add_argument("--n", type=int, default=30)
    noisy.add_argument("--seed", type=int, default=0)
    noisy.add_argument("--noise", type=_half_width, default=0.1)
    noisy.add_argument("--span", type=_half_width, default=10.0, help="x in [-span, span]")

    tr = sub.add_parser("transform", help="rigidly move a CSV point set")
    tr.add_argument("--input", default="-", help="CSV file path ('-' = stdin)")
    tr.add_argument("--rotate", type=_finite, metavar="PHI", help="rotation angle (radians)")
    tr.add_argument(
        "--center",
        type=_pair,
        metavar="X,Y",
        help="rotation center (default: sample centroid)",
    )
    tr.add_argument("--translate", type=_pair, metavar="U,V", help="translation vector")
    return parser


def _cmd_fit(args) -> int:
    methods = ("Y", "X", "D") if args.method == "all" else (args.method.upper(),)
    config = RunConfig(
        input=args.input,
        methods=methods,
        output_json=args.json or None,
        output_svg=args.svg or None,
    )
    return run(config)


def _overflowed(command: str) -> int:
    print(f"error: {command}: the options overflow a double "
          "(a coordinate came out non-finite)", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _cmd_generate(args) -> int:
    import random

    from .generators import gen_circle, gen_noisy_line, gen_slanted_ladder, gen_vertical_ladder

    try:
        if args.shape == "circle":
            generate, params = gen_circle, (args.n, args.alpha, args.radius, Point(*args.center))
        elif args.shape == "noisy-line":
            generate, params = gen_noisy_line, (args.slope, args.intercept, args.n, args.seed,
                                                (-args.span, args.span), args.noise)
        else:
            rng = random.Random(args.seed)
            rungs = Sample(tuple(rng.uniform(-args.spread, args.spread)
                                 for _ in range(args.n)))
            if args.A is not None:
                if args.M is not None or args.B is not None:
                    raise GenerationError("--A excludes --M/--B")
                generate, params = gen_vertical_ladder, (args.A, rungs)
            elif args.M is None or args.B is None:
                raise GenerationError("a ladder needs either --A (vertical) or both --M and --B")
            else:
                generate, params = gen_slanted_ladder, (args.M, args.B, rungs)
        try:
            points = generate(*params)
        except InvalidSampleError:  # its arguments passed their checks: a point is not finite
            return _overflowed(f"generate {args.shape}")
    except LineFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(render_csv(points))
    return EXIT_OK


def _cmd_transform(args) -> int:
    try:
        points = parse_csv(_read_input(args.input))
        if args.rotate is not None:
            center = None if args.center is None else Point(*args.center)
            points = apply_motion_points(points, Rotation(args.rotate, center))
        if args.translate is not None:
            points = apply_motion_points(points, Translation(*args.translate))
    except InvalidSampleError:  # parse_csv raises none: a moved point is not finite
        return _overflowed("transform")
    except (LineFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    sys.stdout.write(render_csv(points))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"fit": _cmd_fit, "generate": _cmd_generate}.get(args.command, _cmd_transform)
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left; devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
