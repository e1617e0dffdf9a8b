"""Whole-process wall time and peak RSS of `linefit` commands, for several checkouts.

    python3 tools/process_bench.py --src parent=../old/src --src change=src \
        --n 1000 100000 1000000 --reps 3 --out result.json

Each run is spawned from a small launcher process, so the peak RSS read by
``wait4`` is linefit's own and not that of this script (a forked child's
``ru_maxrss`` starts from the image of the process it was forked from).  The
inputs are perfbench's noisy lines written with repr floats.  The sides are
run alternately, in an order that flips with every repetition.  The result
holds each side's median wall time, its quartiles and the median peak RSS per
size and command.  With exactly two sides, the first is the base and the
second the change, and each row also holds every repetition's pair ratio
(change wall time over the base's, from the same repetition), the number of
pairs the change won (ties count for neither) and whether a gain in wall time
may be claimed: at least ten pairs, at least nine tenths of them won, and the
medians apart by more than the distance between the base's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from inputs import noisy_line, rng_for, write_csv  # noqa: E402

# linefit arguments; {csv} is the input, {dir} a scratch directory
COMMANDS = {
    "fit --json --svg": ["fit", "--input", "{csv}", "--json", "{dir}/r.json",
                         "--svg", "{dir}/r.svg"],
    "fit --json": ["fit", "--input", "{csv}", "--json", "{dir}/r.json"],
    "fit": ["fit", "--input", "{csv}"],
    "transform --rotate 0.3": ["transform", "--input", "{csv}", "--rotate", "0.3"],
}

# prints "wall_s maxrss_kb exit_code" of the command in argv
LAUNCHER = (
    "import os, subprocess, sys, time\n"
    "t = time.perf_counter()\n"
    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "print(time.perf_counter() - t, usage.ru_maxrss, os.waitstatus_to_exitcode(status))\n"
)


def measure(src: Path, csv: Path, args: list[str], work: Path) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one `linefit` process; its output is discarded."""
    # each run writes new files, as perfbench's do: on ext4, truncating a file
    # and writing it again starts its writeback at close, ~0.15 s for 7 MB
    for name in ("r.json", "r.svg"):
        (work / name).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "linefit",
            *(a.format(csv=csv, dir=work) for a in args)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    wall, maxrss_kb, code = out.split()
    if int(code) != 0:
        raise RuntimeError(f"linefit exited {code} on {csv}")
    return float(wall), int(maxrss_kb) / 1024.0


def quartiles(values: list[float]) -> list[float]:
    """[first quartile, median, third quartile]; a single value is all three."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pairs(base: list[float], change: list[float]) -> dict:
    """Each repetition's change/base wall-time ratio, the change's wins (ties
    count for neither), and whether they and the medians let it claim a gain."""
    ratios = [c / b for b, c in zip(base, change)]
    wins = sum(r < 1.0 for r in ratios)
    q1, median, q3 = quartiles(base)
    gap = median - statistics.median(change)
    return {"wall_ratios": ratios, "wins": wins,
            "gain_holds": len(ratios) >= 10 and wins >= 0.9 * len(ratios) and gap > q3 - q1}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", required=True, metavar="NAME=DIR",
                    help="a side to measure: its name and its src/ directory")
    ap.add_argument("--n", type=int, nargs="+", default=[1000, 100000, 1000000])
    ap.add_argument("--command", choices=sorted(COMMANDS), nargs="+",
                    default=["fit --json --svg", "fit --json", "fit", "transform --rotate 0.3"])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write the JSON result here (default: stdout)")
    args = ap.parse_args()
    sides = [(name, Path(d).resolve()) for name, d in (s.split("=", 1) for s in args.src)]

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for n in args.n:
            csv = work / f"in{n}.csv"
            write_csv(csv, *noisy_line(rng_for(args.seed, "process_bench"), n))
            for command in args.command:
                runs: dict[str, list[tuple[float, float]]] = {name: [] for name, _ in sides}
                for rep in range(args.reps):
                    for name, src in sides if rep % 2 == 0 else sides[::-1]:
                        runs[name].append(measure(src, csv, COMMANDS[command], work))
                row = {"n": n, "command": command, "input_bytes": csv.stat().st_size}
                for name, got in runs.items():
                    walls = [w for w, _ in got]
                    row[name] = {
                        "wall_s": statistics.median(walls),
                        "wall_s_quartiles": quartiles(walls),
                        "peak_rss_mb": statistics.median(r for _, r in got),
                        "runs": len(got),
                    }
                if len(sides) == 2:
                    base, change = ([w for w, _ in runs[name]] for name, _ in sides)
                    row["pairs"] = pairs(base, change)
                rows.append(row)
                print(json.dumps(row), file=sys.stderr)
    result = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "reps": args.reps,
        "rows": rows,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
