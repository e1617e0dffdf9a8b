"""Compare `linefit`'s output bytes between checkouts, on a fixed corpus.

    python3 tools/output_diff.py --src parent=../old/src --src change=src

For each side, in a subprocess, it runs `fit --json --svg` and
`transform --rotate 0.3` on every corpus input, and the three `generate`
shapes, plus one `generate` whose options overflow, a ladder whose rung
variance does and a ladder whose offset is lost to rounding.  The corpus
is a perfbench-style 1e5-point noisy line (seed 11), two copies of it with
one odd row in the second half of the lines, which a forked child converts
(`1.5,abc`, an input error, and an integer field, which turns the JSON
points into reprs), and small inputs at the edges of the line forms and of
the CSV grammar, valid and not.  Every side after the first is compared
with the first, output by output: the table (stdout), stderr, the exit code
and the JSON and SVG files.  Each prints `same` or `different`; a differing
JSON names the key paths whose text differs, and a differing stdout or SVG
names its differing rows or element classes.  For the SVG's fit paths it
also gives how far apart the paths' ends are once each is clipped to the
800x600 viewport.  The exit status is 1 when anything differs.
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

SMALL = {
    "three": b"0,0\n1,0\n2,1\n",
    "vertical": b"2,0\n2,1\n2,5\n",
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
}
GENERATE = {
    "circle": ["circle", "--n", "12"],
    "parallel": ["parallel", "--M", "2", "--B", "40", "--seed", "7"],
    "noisy-line": ["noisy-line", "--slope", "0.5", "--n", "50", "--seed", "3"],
    "overflow": ["noisy-line", "--slope", "1e308"],
    "wide-ladder": ["parallel", "--A", "1", "--spread", "8e307", "--n", "3"],  # var overflows
    "lost-offset": ["parallel", "--M", "1", "--B", "1e-20", "--n", "3"],  # lower = upper
}
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
    for name, data in SMALL.items():
        inputs[name] = work / f"{name}.csv"
        inputs[name].write_bytes(data)
    runs = []
    for name, path in inputs.items():
        runs.append((name, "fit --json --svg", ["fit", "--json", "r.json", "--svg", "r.svg"], path))
        runs.append((name, "transform --rotate 0.3", ["transform", "--rotate", "0.3"], path))
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
    if name == "json":
        parse = dict(parse_float=str, parse_int=str)
        paths = json_paths(json.loads(a, **parse), json.loads(b, **parse))
        more = f" and {len(paths) - MAX_PATHS} more" if len(paths) > MAX_PATHS else ""
        return f"different: {', '.join(paths[:MAX_PATHS]) or 'bytes only'}{more}"
    lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
    if len(lines_a) != len(lines_b):
        return f"different: {len(lines_a)} against {len(lines_b)} lines"
    labels = dict.fromkeys(_label(x) for x, y in zip(lines_a, lines_b) if x != y)
    shifts = fit_path_shifts(a.decode(), b.decode()) if name == "svg" else []
    return f"different: {', '.join(labels)}" + (
        f" (clipped ends apart: {', '.join(shifts)})" if shifts else "")


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
                    print(f"{name} vs {base[0]}  {input_name:<18} {command:<24} "
                          f"{out:<6} {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
