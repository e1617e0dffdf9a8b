#!/usr/bin/env python3
"""Show how each fit copes with points spread evenly on a circle.

No direction is distinguished, so any single reported line is an artifact.
The vertical- and horizontal-offset fits silently pick a coordinate axis; the
perpendicular fit reports the honest answer, a flat objective over every line
through the center.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linefit import (  # noqa: E402
    AllLinesThroughCentroid,
    fit_d,
    fit_x,
    fit_y,
    gen_circle,
    objective_d,
    summarize,
)

for n in (3, 4, 7, 12, 30):
    points = gen_circle(n=n, phase=0.37)
    s = summarize(points)
    ry = fit_y(points).line
    rx = fit_x(points).line
    fd = fit_d(points)
    assert isinstance(fd, AllLinesThroughCentroid)
    spread = max(
        objective_d(points, t, s.mean_x * math.sin(t) - s.mean_y * math.cos(t))
        for t in [k * math.pi / 36 - math.pi / 2 for k in range(36)]
    ) - fd.objective
    print(
        f"n={n:3d}  var(x)={s.var_x:.12f}  var(y)={s.var_y:.12f}  "
        f"Y: y={ry.m:+.1e}x{ry.b:+.1e}  X: x={rx.mu:+.1e}y{rx.beta:+.1e}  "
        f"D: every line through (0,0), objective {fd.objective:.12f} "
        f"(spread over angles {spread:.1e})"
    )
