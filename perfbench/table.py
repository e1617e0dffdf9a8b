#!/usr/bin/env python3
"""Per-layer table: one traced run of every workload, side by side.

    python3 perfbench/table.py [--seed N] [--seconds S]

Each column comes from ``run.py --trace 1``; a 0 means the layer does not run
on that workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans
from run import WORKLOADS, metric_units

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    columns = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "1"],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(f"{name} failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        if name == next(iter(WORKLOADS)):
            print(lines[0])
        columns[name] = json.loads(lines[-1])["metrics"]
    print(f"{'metric':<38}{'unit':>8}" + "".join(f"{n:>20}" for n in columns))
    for metric, unit in metric_units("per_layer").items():
        print(f"{metric:<38}{unit:>8}"
              + "".join(f"{col[metric]['value']:>20.6g}" for col in columns.values()))
    print()
    for module, why in spans.UNMEASURED.items():
        print(f"unmeasured: linefit.{module}: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
