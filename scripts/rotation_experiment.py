#!/usr/bin/env python3
"""Rotate a small dataset a quarter turn and watch two of the three fits move.

Fits the points (0,0), (1,0), (2,1), rotates them 90 degrees about the
origin, refits, and compares each refitted line against the rotated original
line.  Only the perpendicular-distance fit lands where rotation says it
should.  It lands there at any angle: the script then turns the points by
pi/2, 1e6, 1e15 and 1e300 radians and exits 1 if the perpendicular fit's
discrepancy exceeds 1e-12 at any of them.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from linefit import (  # noqa: E402
    PairedSample,
    Point,
    Rotation,
    fit_d,
    fit_x,
    fit_y,
    invariance_report,
    normal_to_slope,
)

points = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])
quarter_turn = Rotation(math.pi / 2, Point(0.0, 0.0))

ry = fit_y(points).line
rx = fit_x(points).line
rd = fit_d(points)
rd_si = normal_to_slope(rd.line)

print("original fits")
print(f"  Y: y = {ry.m:.6f}x + {ry.b:+.6f}")
print(f"  X: x = {rx.mu:.6f}y + {rx.beta:+.6f}")
print(f"  D: y = {rd_si.m:.6f}x + {rd_si.b:+.6f}  (case {rd.case.tag})")
print()

for method in ("Y", "X", "D"):
    report = invariance_report(points, quarter_turn, method)
    print(f"method {method}: discrepancy after quarter turn = {report.discrepancy:.3e}")
    print(f"  refit on rotated data: {report.line_from_transformed_data}")
    print(f"  rotated original line: {report.expected_if_invariant}")
print()
print("rotation is only a relabeling of the plane, yet the Y and X lines moved.")
print()
missed = []
for phi in (math.pi / 2, 1e6, 1e15, 1e300):
    discrepancy = invariance_report(points, Rotation(phi, Point(0.0, 0.0)), "D").discrepancy
    print(f"method D: discrepancy after a turn by {phi:.6g} rad = {discrepancy:.3e}")
    if not discrepancy <= 1e-12:  # a nan misses too
        missed.append(f"{discrepancy:.3e} at {phi:.6g} rad")
if missed:
    sys.exit(f"the D line missed the turned data by more than 1e-12: {', '.join(missed)}")
