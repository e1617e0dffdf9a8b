#!/usr/bin/env python3
"""Draw the three fits on a symmetric parallel-line ladder.

Builds rungs between y = 2x + 40 and y = 2x - 40, fits all three lines and
writes ladder.svg: the perpendicular fit (solid) bisects the two data lines,
the vertical-offset fit (dotted) comes in too shallow and the
horizontal-offset fit (dashed) too steep, all three crossing at the centroid.

Usage: python scripts/ladder_figure.py [output.svg]
"""

import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linefit import gen_slanted_ladder  # noqa: E402
from linefit.cli import report  # noqa: E402
from linefit.svg import render_svg  # noqa: E402

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("ladder.svg")

rng = random.Random(7)
rungs = [rng.uniform(-60.0, 60.0) for _ in range(25)]
points = gen_slanted_ladder(slope=2.0, offset=40.0, rungs=rungs)

fits = report(points.summary, ("Y", "X", "D"))["fits"]

print(f"ladder slope 2.0, offset 40.0, {points.n} points")
print(f"  Y slope: {fits['y']['m']:.6f}   (too shallow)")
print(f"  X slope: {1.0 / fits['x']['mu']:.6f}   (too steep)")
print(f"  D slope: {math.tan(fits['d']['normal_form']['theta']):.6f}   (the mid-line)")

out.write_text(render_svg(points, fits), encoding="utf-8")
print(f"wrote {out}")
