"""Compare `linefit`'s output bytes between checkouts, on a fixed corpus.

    python3 tools/output_diff.py --src parent=../old/src --src change=src

For each side, in a subprocess, it runs `fit --json --svg` and four
`transform`s (`--rotate 0.3`, `--translate 1,2`, both, and `--rotate 0.3
--center 1,2`) on every corpus input, and the three `generate` shapes, plus
one `generate` whose options overflow, a ladder whose rung variance does, a
ladder whose offset is lost to rounding, and eight runs whose options are out
of range (`--A 0`, `--B 0`, `--span 0`, one rung, `--radius 0`, a circle of
two points, a noisy line of one and `--noise -1`).  The corpus is a
perfbench-style 1e5-point noisy line (seed 11), two copies of it with one odd
row in the second half of the lines, which a forked child converts
(`1.5,abc`, an input error, and an integer field, which turns the JSON points
into reprs), 10,001 of its rows with a space in one row of the second half
(no echo: the points go out as reprs) and with a constant x column, one
point repeated 10,001 times, the three points whose offsets
from the centroid overflow repeated to 10,001 rows (`--rotate 0.3` turns
those points' half offsets; a quarter turn, run on these inputs alone,
overflows a moved point and exits 2), 10,001 seeded rows with x uniform in
+-1.79e308 and y in +-1e307 (`near-max-10001`), a degenerate figure
above the fork threshold (Y and X fail, D draws the centroid and every
marker sits at the centre), and small inputs at the edges of the line forms
(among them a near-horizontal pair, whose X angle is 1.1e-157, three points
whose Cauchy-Schwarz gap is 9.5e307, two at x = -1.8e308 and two whose span
is the smallest normal double), at the edges of the verdicts (13 collinear
points whose Cauchy-Schwarz gap rounds below zero, two rectangles just
wider than tall, one each side of the zero floor, and the 50 rows of
`generate parallel --A 1`, whose covariance is rounding residue) and of the
CSV grammar, valid and not.  Each small input also runs `fit --method y`,
`--method x` and `--method d`, each with `--json --svg`, and one bare `fit`
(the table alone, no JSON echo): one-method tables and documents, exit 3
from each precondition, and legends that skip a failed fit.  Every side
after the first is compared with the first, output by output: the table
(stdout), stderr, the exit code and the JSON and SVG files.  Each prints
`same` or `different`; a differing JSON names the key paths whose text
differs, and a differing stdout or SVG names its differing rows (each by its
first word) or element classes, the first eight and how many more.  For the
SVG's fit paths it also gives how far apart the paths' ends are once each is
clipped to the 800x600 viewport.  The exit status is 1 when anything differs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from inputs import noisy_line, rng_for, write_csv  # noqa: E402

# the y column of `generate parallel --A 1`, whose rungs sit at x = 1, then x = -1
LADDER_YS = (
    b"20.665311091502886", b"15.477264176418146", b"-4.7657051501493015",
    b"-14.464994982422199", b"0.67648328211651076", b"-5.7039517529751436",
    b"17.027915342086359", b"-11.801236435264354", b"-1.4041827508586522",
    b"5.0029223673018706", b"24.486773111720112", b"0.28121134904341716",
    b"-13.089729336017768", b"15.348252249433436", b"7.1021398005199003",
    b"-14.969619518253568", b"24.584775358094404", b"28.967128562259184",
    b"18.613034159795376", b"24.12995702637496", b"-11.391145840840043",
    b"13.789904895607719", b"23.930297278079607", b"11.039035914926473",
    b"-1.6714370728372003",
)
SMALL = {
    "three": b"0,0\n1,0\n2,1\n",
    "vertical": b"2,0\n2,1\n2,5\n",
    "horizontal": b"0,2\n1,2\n5,2\n",
    "isotropic": b"1,0\n0,1\n-1,0\n0,-1\n",
    "steep-y": b"1,2\n1.0000000000000002,0\n",
    "flat-x": b"2,1\n0,1.0000000000000002\n",
    "blank-body": b"0.5,1.0\n\n1.50,2.5\n  \n3.0,2e0\n",
    "spaced-header": b"\n x , y \n0.5,1.0\n1.50,2.5\n3.0,2e0\n",
    "crlf": b"x,y\r\n0.5,1.0\r\n1.5,2.5\r\n3.0,2.0\r\n",
    "integers": b"x,y\n1,2.5\n-0,3\n4,1e1\n",
    "three-fields": b"0.5,1.0\n1.5,2.5,3.5\n3.0,2.0\n",
    "nan": b"0.5,1.0\n1.5,nan\n3.0,2.0\n",
    "non-utf8": b"0.5,1.0\n1.5,\xff2.5\n3.0,2.0\n",
    "gate-miss": b"0,0\n1,0\n2,1\n3,1\n0,5\n",  # case IV, 2*cov^2 < var_x*|var_x - var_y|
    "collinear": b"0,0\n1,2\n2,4\n",
    "span-max": b"1.7e308,0\n1.7e308,1\n-1.7e308,0\n",  # x - mean_x overflows
    "y-equals-x": b"0,0\n" * 5 + b"1,1\n" + b"0,0\n" * 7,  # cov = var exactly
    "near-horizontal": b"0,0\n1,1.1471147311908207e-157\n",  # X mu = 8.7e156
    "cs-gap-max": b"7.875601692728439e-152,7.85600827668505e-122\n"  # cs_gap = 9.5e307
                  b"-5.1902857168042256e+135,4.347086313806617e-230\n"
                  b"8.563940062035353e-210,-9.752259840216033e+18\n",
    "x-at-max": b"-1.7976931348623157e+308,2.1514711314582147e+123\n"  # x_hi + x_lo overflows
                b"-1.7976931348623157e+308,-8555779385.341511\n",
    "subnormal-span": b"0,0\n0,2.2250738585072014e-308\n",  # 720 px / span overflows
    "gap-below-zero": b"0,0.1\n" * 12 + b"1,3.1\n",  # cov^2 rounds above var_x*var_y
    # var_x - var_y is 9.1e-13 and 3.6e-12 of var_x + var_y: around the zero floor
    "rectangle-2^-40": b"0,0\n1.0000000000009095,0\n0,1\n1.0000000000009095,1\n",
    "rectangle-2^-38": b"0,0\n1.000000000003638,0\n0,1\n1.000000000003638,1\n",
    "ladder-a1": b"".join(b"%s,%s\n" % (x, y) for x in (b"1", b"-1") for y in LADDER_YS),
}
GENERATE = {
    "circle": ["circle", "--n", "12"],
    "parallel": ["parallel", "--M", "2", "--B", "40", "--seed", "7"],
    "noisy-line": ["noisy-line", "--slope", "0.5", "--n", "50", "--seed", "3"],
    "overflow": ["noisy-line", "--slope", "1e308"],
    "wide-ladder": ["parallel", "--A", "1", "--spread", "8e307", "--n", "3"],  # var overflows
    "lost-offset": ["parallel", "--M", "1", "--B", "1e-20", "--n", "3"],  # lower = upper
    "zero-gap": ["parallel", "--A", "0"],
    "zero-offset": ["parallel", "--M", "1", "--B", "0"],
    "zero-span": ["noisy-line", "--slope", "1", "--span", "0"],
    "one-rung": ["parallel", "--A", "1", "--n", "1"],
    "zero-radius": ["circle", "--n", "5", "--radius", "0"],
    "two-point-circle": ["circle", "--n", "2"],
    "one-point-line": ["noisy-line", "--slope", "1", "--n", "1"],
    "negative-noise": ["noisy-line", "--slope", "1", "--noise", "-1"],
}
TRANSFORMS = [["--rotate", "0.3"], ["--translate", "1,2"],
              ["--rotate", "0.3", "--translate", "1,2"], ["--rotate", "0.3", "--center", "1,2"]]
QUARTER_TURN = ["--rotate", "1.5707963267948966"]  # run on the span-max inputs only
MAX_PATHS = 8
FIT_PATH = re.compile(r'class="(fit-\w)" d="M (\S+) (\S+) L (\S+) (\S+)"')


def corpus(work: Path) -> list[tuple[str, str, list[str], Path | None]]:
    """(input name, command name, argv, stdin file) of every run."""
    big = work / "noisy-1e5.csv"
    write_csv(big, *noisy_line(rng_for(11, "cli-report-100k"), 100_000))
    inputs = {"noisy-1e5": big}
    rows = big.read_bytes().splitlines(keepends=True)
    odd = 3 * len(rows) // 4
    for name, row in (("noisy-1e5-bad-tail", b"1.5,abc\n"),
                      ("noisy-1e5-int-tail", b"7," + rows[odd].split(b",")[1])):
        inputs[name] = work / f"{name}.csv"
        inputs[name].write_bytes(b"".join(rows[:odd] + [row] + rows[odd + 1:]))
    # 10,001 rows: one with a space past the middle (no echo), and a constant x column
    spaced = rows[1:10_002]
    spaced[7_500] = spaced[7_500].replace(b",", b", ")
    inputs["spaced-10001"] = work / "spaced-10001.csv"
    inputs["spaced-10001"].write_bytes(b"".join(spaced))
    inputs["constant-x-10001"] = work / "constant-x-10001.csv"
    inputs["constant-x-10001"].write_bytes(b"".join(b"2.5," + r.split(b",")[1] for r in spaced))
    inputs["same-point-10001"] = work / "same-point-10001.csv"
    inputs["same-point-10001"].write_bytes(b"2.5,-1.5\n" * 10_001)
    # x - mean_x overflows: --rotate 0.3 turns the half offsets, a quarter turn overflows
    span_max = [b"1.7e308,0\n", b"1.7e308,1\n", b"-1.7e308,0\n"]
    inputs["span-max-10001"] = work / "span-max-10001.csv"
    inputs["span-max-10001"].write_bytes(b"".join(span_max * 3333 + span_max[:2]))
    # x across the whole double range; seed 13 puts the centroid at x = -1.6e306,
    # so 19 offsets from it overflow, and those points turn their half offsets
    near_max = rng_for(13, "near-max")
    inputs["near-max-10001"] = work / "near-max-10001.csv"
    write_csv(inputs["near-max-10001"], 1.79e308 * near_max.uniform(-1.0, 1.0, 10_001),
              1e307 * near_max.uniform(-1.0, 1.0, 10_001))
    for name, data in SMALL.items():
        inputs[name] = work / f"{name}.csv"
        inputs[name].write_bytes(data)
    runs = []
    for name, path in inputs.items():
        runs.append((name, "fit --json --svg", ["fit", "--json", "r.json", "--svg", "r.svg"], path))
        for motion in TRANSFORMS + [QUARTER_TURN] * name.startswith("span-max"):
            argv = ["transform", *motion]
            runs.append((name, " ".join(argv), argv, path))
        if name in SMALL:
            for m in "yxd":
                runs.append((name, f"fit --method {m} --json --svg",
                             ["fit", "--method", m, "--json", "r.json", "--svg", "r.svg"], path))
            runs.append((name, "fit", ["fit"], path))
    for name, argv in GENERATE.items():
        runs.append(("-", f"generate {name}", ["generate", *argv], None))
    return runs


def outputs(src: Path, argv: list[str], stdin: Path | None, cwd: Path) -> dict[str, bytes]:
    """Every output of one `python -m linefit` process, by name."""
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-m", "linefit", *argv], env=env, cwd=cwd,
                       input=stdin.read_bytes() if stdin else b"", capture_output=True)
    got = {"exit": str(r.returncode).encode(), "stdout": r.stdout, "stderr": r.stderr}
    for name in ("r.json", "r.svg"):
        if (cwd / name).exists():
            got[name[2:]] = (cwd / name).read_bytes()
            (cwd / name).unlink()
    return got


ABSENT = object()  # a key on one side only differs from a null on the other


def json_paths(a, b, path: str = "$") -> list[str]:
    """Key paths where two parsed documents differ; numbers compare as text."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys = list(a) + [k for k in b if k not in a]
        return [p for k in keys
                for p in json_paths(a.get(k, ABSENT), b.get(k, ABSENT), f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in json_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [path]


def clip(x0: float, y0: float, x1: float, y1: float) -> list[tuple[float, float]] | None:
    """The ends of the part of a pixel segment inside 0..800 x 0..600, or None."""
    s_lo, s_hi = 0.0, 1.0
    for p0, d, hi in ((x0, x1 - x0, 800.0), (y0, y1 - y0, 600.0)):
        if d == 0.0:
            if not 0.0 <= p0 <= hi:
                return None
            continue
        s0, s1 = -p0 / d, (hi - p0) / d
        s_lo, s_hi = max(s_lo, min(s0, s1)), min(s_hi, max(s0, s1))
    if s_lo >= s_hi:
        return None
    return [(x0 + s * (x1 - x0), y0 + s * (y1 - y0)) for s in (s_lo, s_hi)]


def fit_path_shifts(a: str, b: str) -> list[str]:
    """Per fit path in both documents: the larger distance of the clipped ends."""
    ends = [{c: clip(*map(float, xy)) for c, *xy in FIT_PATH.findall(t)} for t in (a, b)]
    shifts = []
    for c in ends[0].keys() & ends[1].keys():
        ea, eb = ends[0][c], ends[1][c]
        shift = max(map(math.dist, ea, eb)) if ea and eb else math.inf
        shifts.append(f"{c} {shift:.4f} px")
    return sorted(shifts)


def _label(line: str) -> str:
    found = re.search(r'class="([^"]+)"', line)
    return found.group(1) if found else (line.split() or [""])[0]


def describe(name: str, a: bytes, b: bytes) -> str:
    if a == b:
        return "same"
    if not (a and b):
        return f"different: {'absent' if not a else 'written'} on the first side only"
    if name == "json":
        parse = dict(parse_float=str, parse_int=str)
        paths = json_paths(json.loads(a, **parse), json.loads(b, **parse))
        return f"different: {_some(paths) or 'bytes only'}"
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return f"different: {len(lines_a)} against {len(lines_b)} lines"
    labels = list(dict.fromkeys(_label(x) for x, y in zip(lines_a, lines_b) if x != y))
    shifts = fit_path_shifts(a.decode(), b.decode()) if name == "svg" else []
    return f"different: {_some(labels)}" + (
        f" (clipped ends apart: {', '.join(shifts)})" if shifts else "")


def _some(names: list[str]) -> str:
    """The first ``MAX_PATHS`` names, and how many more there are."""
    more = f" and {len(names) - MAX_PATHS} more" if len(names) > MAX_PATHS else ""
    return ", ".join(names[:MAX_PATHS]) + more


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, metavar="NAME=DIR",
                    help="a side to compare: its name and its src/ directory")
    args = ap.parse_args()
    sides = [(name, Path(d).resolve()) for name, d in (s.split("=", 1) for s in args.src)]
    base, others = sides[0], sides[1:]
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for input_name, command, argv, stdin in corpus(work):
            want = outputs(base[1], argv, stdin, work)
            for name, src in others:
                got = outputs(src, argv, stdin, work)
                for out in sorted(set(want) | set(got)):
                    verdict = describe(out, want.get(out, b""), got.get(out, b""))
                    differ |= verdict != "same"
                    print(f"{name} vs {base[0]}  {input_name:<18} {command:<40} "
                          f"{out:<6} {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
