"""Command-line interface: fit CSV point sets, generate datasets, move them.

Subcommands:

* ``fit``       read points (file or stdin), print the :func:`report` document
                of the requested fits as a table, optionally write it as a
                JSON report and draw it as an SVG figure.
* ``generate``  emit a benchmark dataset (circle | parallel | noisy-line) as
                CSV on stdout, ready to pipe into ``fit``.
* ``transform`` apply a rigid motion to a CSV point set and print the moved
                CSV, for shell-level invariance experiments.

From ``_FORK_MIN_POINTS`` (10,000) points up, a ``fit`` or ``transform`` run
forks one child (:mod:`linefit.halves`), and the input's bytes split at a line
feed past their middle.  Each process parses its half, sends its count, exact
column sums and box, then, given the centroid and box, runs its caller's job
(:func:`_rows`): ``fit`` sums the centred moments, draws the markers and spells
the JSON points that the echo cannot; ``transform`` moves the rows with the
one motion kernel, ``transforms._moved``, and exits 2 if one is not finite.
The merged variances and covariance can differ from ``summarize``'s in the
last digits, both within 2e-15 of var_x + var_y of the exact moments; the
means, points, markers, moved rows and errors are those of one process.  No
option decides it.

Exit codes: 0 success (at least one requested fit produced a result),
1 stdout was closed before the output was written, 2 input error or an
unwritable output path, 3 every requested fit failed its precondition.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections import namedtuple
from contextlib import closing
from itertools import chain, repeat
from operator import add

from . import diagnostics
from .errors import (
    CsvParseError,
    GenerationError,
    InsufficientDataError,
    InvalidSampleError,
    LineFitError,
)
from .fitters import FitReport, UniqueLine, fit_d_report, fit_x, fit_y
from .geometry import NormalLine, Point, normal_to_slope
from .halves import _both, _csv_rows, _halves
from .stats import PairedSample, SummaryStats, _centred_sums, _column, _merged, _summary, mean
from .svg import _Frame, _markers, _svg
from .transforms import Rotation, Translation, _moved, _resolve_center

__all__ = ["RunConfig", "parse_csv", "report", "run", "main"]

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

def parse_csv(data: bytes) -> PairedSample:
    """Parse UTF-8 `x,y` lines into a sample.

    A line ends at any break ``str.splitlines`` reads: LF, CRLF, CR, VT, FF,
    U+001C to U+001E (the file, group and record separators), NEL (U+0085),
    U+2028 and U+2029.  Blank lines may appear anywhere, and the first
    non-blank line may be the header `x,y`, with whitespace around its fields.
    Fields are finite Python float literals with optional surrounding
    whitespace; at least two pairs are needed.  Other input raises
    :class:`CsvParseError`, which names the first bad 1-based line, or
    :class:`InsufficientDataError`.
    """
    (xs, ys), (tail_xs, tail_ys) = _rows(data, False, lambda xs, ys, *_: (xs, ys))[4]
    return PairedSample.from_xy(xs + tail_xs, ys + tail_ys)


def _rows(data: bytes, echo: bool, job):
    """The halves of ``data`` (:func:`_half`), merged, and their answers to ``job``:
    ``(n, echo, centroid, box, (job(head), job(tail)))``, the centroid
    ``PairedSample.centroid()`` bit for bit, the box ``(x_lo, x_hi, y_lo, y_hi)``.
    Each half's ``job(xs, ys, centroid, box, echo is None)`` runs in its process.
    The echo, if ``echo`` and every field is a JSON float literal (RFC 8259
    section 6: a fraction or an exponent) on a row without a space or a tab, is
    the halves' rows in the input's own text, as :func:`_json` splices them, else None."""
    # the halves meet after a line feed: no UTF-8 sequence holds one, and it ends a line
    cut = data.find(b"\n", len(data) // 2) + 1 or len(data)
    with closing(_halves(lambda s: _half(data, s, echo, job), _csv_rows(data), cut)) as rounds:
        try:
            (n, header, text, *columns), (tail_n, late_header, tail_text, *tail) = next(rounds)
            # `x,y` is the header only as the first line, and a sample needs 2 points
            if late_header and (n or header) or n + tail_n < 2:
                raise ValueError("a second header or too few points")
        except ValueError:
            _explain(data)
        n += tail_n
        (mean_x, *box), (mean_y, *box_y) = (_merged(c, n) for c in zip(columns, tail))
        centroid = (mean_x, mean_y) if None not in (mean_x, mean_y) else tuple(
            map(mean, map(add, *rounds.send(None))))  # mean scales values whose sum could overflow
        echo = None if None in (text, tail_text) else (text, tail_text)
        return n, echo, centroid, box + box_y, rounds.send((centroid, box + box_y, echo is None))


def _half(data: bytes, s: slice, echo: bool, job):
    """The rows of ``data[s]``, kept by the process that parses them, as a half
    of :func:`linefit.halves._halves`.  First: its point count, whether the
    header led, its echo text (if ``echo`` and it may splice it) and the
    ``stats._column`` of x and y; ValueError for a row :func:`parse_csv` rejects.
    To None: its columns.  To any other request: ``job(xs, ys, *request)``."""
    rows = list(filter(str.strip, data[s].decode("utf-8").splitlines()))
    header = bool(rows) and _is_header(rows[0])
    del rows[:header]
    if set(map(str.count, rows, repeat(","))) - {1}:
        raise ValueError("not one comma per row")
    values, spelled = _values(",".join(rows))
    text = "],[".join(rows) if echo and spelled else None
    xs, ys = values[0::2], values[1::2]
    del rows, values  # the half keeps its columns alone across the rounds
    request = yield len(xs), header, text, _column(xs), _column(ys)
    del text
    while True:
        request = yield (xs, ys) if request is None else job(xs, ys, *request)


def _is_header(line: str) -> bool:
    return [f.strip() for f in line.split(",")] == ["x", "y"]


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
        if set(map(type, values)) <= {float}:  # none, from no rows, or all floats
            return values, " " not in joined and "\t" not in joined
    except (ValueError, RecursionError):
        pass
    return list(map(float, map(str.strip, joined.split(",")))), False


def _explain(data: bytes) -> None:
    """Raise the error of the first line of ``data`` that :func:`parse_csv`
    cannot accept; never returns."""
    try:
        lines = enumerate(data.decode("utf-8").splitlines(), start=1)
    except UnicodeDecodeError as exc:
        raise CsvParseError(f"input is not UTF-8 text: {exc}") from exc
    numbered = [(lineno, raw) for lineno, raw in lines if raw.strip()]
    header = bool(numbered) and _is_header(numbered[0][1])
    for lineno, raw in numbered[header:]:
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
    """CSV of ``p``: the header, then a ``%.17g`` row per point."""
    return "x,y\n%s%s" % _both(lambda s: _rows_text(p.xs[s], p.ys[s]), p.n)


def _rows_text(xs, ys, row: str = "%.17g,%.17g\n") -> str | None:
    """The points (xs, ys) as ``row`` formats each, by default the CSV rows;
    None if one is not finite."""
    # 17 significant digits round-trip any double exactly; one format call
    # over the interleaved coordinates builds no string per point
    xy = tuple(chain.from_iterable(zip(xs, ys)))
    text = (row * (len(xy) // 2)) % xy
    return None if "n" in text else text  # only inf and nan spell an n


# ---------------------------------------------------------------------------
# JSON

def render_json(report: dict) -> str:
    """One compact line; every float reads back exactly, non-finite is an error.

    Floats use Python's shortest round-trip repr."""
    return "".join(_json(report))


def _json(report: dict, rows: tuple[str, str] | None = None) -> list[str]:
    """:func:`render_json`'s line in pieces; ``rows``, the halves' points as
    ``x,y`` texts joined by ``],[``, are spliced in as the first key, ``points``."""
    text = json.dumps(report, allow_nan=False, separators=(",", ":"))
    if rows is None:
        return [text, "\n"]
    return ['{"points":[[', "],[".join(filter(None, rows)),
            "]]" + ("," if report else "") + text[1:], "\n"]


# ---------------------------------------------------------------------------
# the report document

def report(s: SummaryStats, methods) -> dict:
    """The run's one document, in O(1): ``stats``, ``fits`` (keyed by lower-case
    method) and ``comparison``, as the table, the JSON and the SVG render it."""
    fitters = {"Y": fit_y, "X": fit_x, "D": fit_d_report}  # per call: sees rebound globals
    fits = {}
    for m in methods:
        try:
            outcome = fitters[m](s)
        except LineFitError as exc:
            fits[m.lower()] = {"status": "precondition-failed", "error": str(exc)}
        else:
            fits[m.lower()] = _fit_json(outcome)
    comparison = diagnostics.compare(s)._asdict()
    comparison["case"] = comparison.pop("case_tag")
    return {"stats": s._asdict(), "fits": fits, "comparison": comparison}


def _fit_json(outcome: FitReport) -> dict:
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


def _any_fitted(fits: dict) -> bool:
    return any(fit["status"] != "precondition-failed" for fit in fits.values())


def _g6(v: float | None) -> str:
    return "-" if v is None else format(v, ".6g")


def _table_lines(doc: dict) -> list[str]:
    """The printed table of a :func:`report` document."""
    header = f"{'method':<8}{'slope':>14}{'intercept':>14}{'theta':>14}{'c':>14}{'objective':>14}"
    lines = [header, "-" * len(header)]
    for key, fit in doc["fits"].items():
        method = key.upper()
        if fit["status"] == "precondition-failed":
            lines.append(f"{method:<8}({fit['error']})")
            continue
        if fit["status"] == "all_lines_through_centroid":
            x, y = fit["centroid"]
            lines.append(
                f"{method:<8}degenerate: every line through centroid "
                f"({_g6(x)}, {_g6(y)}), objective {_g6(fit['objective'])}"
            )
            continue
        nf = fit["normal_form"]
        if key == "d":
            try:
                slope, intercept = normal_to_slope(NormalLine(**nf))
            except LineFitError:
                slope, intercept = None, None
        else:
            slope, intercept = (fit["m"], fit["b"]) if key == "y" else (fit["mu"], fit["beta"])
        lines.append(
            f"{method:<8}{_g6(slope):>14}{_g6(intercept):>14}"
            f"{_g6(nf['theta']):>14}{_g6(nf['c']):>14}{_g6(fit['objective_min']):>14}"
        )
    if _any_fitted(doc["fits"]):
        lines += ["", "n={n}  centroid=({mean_x:.6g}, {mean_y:.6g})  var(x)={var_x:.6g}  "
                      "var(y)={var_y:.6g}  cov(x,y)={cov_xy:.6g}".format_map(doc["stats"])]
    cmp = doc["comparison"]
    tan = cmp["tan_theta"] if isinstance(cmp["tan_theta"], str) else _g6(cmp["tan_theta"])
    lines.append(
        f"slopes: m={_g6(cmp['m'])}  bound={_g6(cmp['ratio_bound'])}  "
        f"m_x={_g6(cmp['m_x'])}  tan(theta)={tan}"
    )
    lines.append(
        f"orderings: |m|<=bound<=|m_x| {cmp['ordering_e']}; "
        f"|m|<=|tan|<=|m_x| {cmp['ordering_f']}  "
        f"(case {cmp['case']}, collinear={str(cmp['collinear']).lower()}, "
        f"cs_gap={_g6(cmp['cs_gap'])})"
    )
    if doc["fits"].get("x", {}).get("status") == "ok":
        lines.append("note: X slope/intercept are mu and beta in x = mu*y + beta")
    return lines


def _read_input(path: str | os.PathLike) -> bytes:
    if str(path) == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as f:
        return f.read()


def _write(path: str | os.PathLike, pieces) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(pieces)


def run(config: RunConfig, out=None) -> int:
    """Execute one fitting run; returns the process exit status."""
    out = out if out is not None else sys.stdout

    def job(xs, ys, centroid, box, spell):
        # without the input's own text, the JSON points go out as shortest reprs
        return (_centred_sums(xs, ys, *centroid),
                config.output_svg and _markers(xs, ys, *_Frame(*box)),
                spell and config.output_json is not None and _rows_text(xs, ys, "],[%r,%r")[3:])

    try:
        data = _read_input(config.input)
        n, echo, centroid, box, replies = _rows(data, config.output_json is not None, job)
        (sums, markers, text), (tail_sums, tail_markers, tail_text) = replies
        s = _summary(n, *centroid, *map(add, sums, tail_sums))
    except (LineFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    doc = report(s, config.methods)
    for line in _table_lines(doc):
        print(line, file=out)

    try:
        if config.output_json is not None:
            _write(config.output_json, _json(doc, echo or (text, tail_text)))
        if config.output_svg is not None:
            _write(config.output_svg, _svg(_Frame(*box), doc["fits"], (markers, tail_markers)))
    except BrokenPipeError:
        raise  # the reader left: exit 1 in main, as for stdout
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    return EXIT_OK if _any_fitted(doc["fits"]) else EXIT_NO_METHOD_SUCCEEDED


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


def _above(low, parse=_finite, *, or_equal=False):
    """The option type ``parse`` that takes only values above ``low`` (or equal to it)."""
    def above(text: str):
        v = parse(text)
        if not (v >= low if or_equal else v > low):
            raise argparse.ArgumentTypeError(
                f"expected a number {'of at least' if or_equal else 'above'} {low}, got {text!r}")
        return v
    above.__name__ = parse.__name__  # argparse's "invalid int value" names it
    return above


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
    circle.add_argument("--n", type=_above(2, int), required=True)
    circle.add_argument("--alpha", type=_finite, default=0.0, help="phase angle")
    circle.add_argument("--radius", type=_above(0), default=1.0)
    circle.add_argument("--center", type=_pair, default=(0.0, 0.0), metavar="X,Y")

    ladder = gsub.add_parser(
        "parallel", help="symmetric rungs between two parallel lines"
    )
    ladder.add_argument("--A", type=_above(0), help="half gap of a vertical ladder")
    ladder.add_argument("--M", type=_finite, help="slope of a slanted ladder")
    ladder.add_argument("--B", type=_above(0), help="intercept offset of a slanted ladder")
    ladder.add_argument("--n", type=_above(1, int), default=25, help="rungs per line")
    ladder.add_argument("--seed", type=int, default=0)
    ladder.add_argument(
        "--spread", type=_half_width, default=30.0, help="rung positions span [-spread, spread]"
    )

    noisy = gsub.add_parser("noisy-line", help="seeded noisy points along a line")
    noisy.add_argument("--slope", type=_finite, required=True)
    noisy.add_argument("--intercept", type=_finite, default=0.0)
    noisy.add_argument("--n", type=_above(1, int), default=30)
    noisy.add_argument("--seed", type=int, default=0)
    noisy.add_argument("--noise", type=_above(0, _half_width, or_equal=True), default=0.1)
    noisy.add_argument("--span", type=_above(0, _half_width), default=10.0,
                       help="x in [-span, span]")

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
            rungs = [rng.uniform(-args.spread, args.spread) for _ in range(args.n)]
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
    center = args.center and Point(*args.center)
    moves = [] if args.rotate is None else [Rotation(args.rotate, center)]
    if args.translate is not None:
        moves.append(Translation(*args.translate))

    def job(xs, ys, centroid, *_):
        for g in moves:
            xs, ys = _moved(xs, ys, _resolve_center(g, Point(*centroid)))
        return _rows_text(xs, ys)

    try:
        rows = _rows(_read_input(args.input), False, job)[4]
    except (LineFitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if None in rows:  # a moved point is not finite
        return _overflowed("transform")
    sys.stdout.writelines(("x,y\n", *rows))
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
