"""lib-small requests: build a PairedSample, fit Y, X and D, compare, and on
one request in four report rotation invariance under a quarter turn.

Run as a child process, with linefit importable:

    python3 lib_worker.py POOL.json SECONDS OUT.json

It makes one untimed pass over the pool, then times requests in pool order
until SECONDS have passed, stopping at a multiple of eight requests so that
every kind in the pool keeps its share.  OUT.json holds each request's time
and every distinct outcome with its count; the checks run in the parent.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter

import linefit as lf

QUARTER_TURN = lf.Rotation(math.pi / 2.0)  # about the sample's centroid


def request(points, invariance: bool):
    """One library request; linefit is looked up at call time so wrappers apply."""
    p = lf.PairedSample.from_points(points)
    fits = []
    for fit in (lf.fit_y, lf.fit_x, lf.fit_d_report):
        try:
            fits.append(fit(p))
        except lf.LineFitError as exc:
            fits.append(exc)
    cmp = lf.compare(p)
    inv = [lf.invariance_report(p, QUARTER_TURN, m) for m in "YXD"] if invariance else None
    return fits, cmp, inv


def outcome(result) -> tuple:
    """Plain values of one request's results, for the reference check."""
    if isinstance(result, Exception):
        return ("raised", type(result).__name__)
    (y, x, d), cmp, inv = result
    rows = []
    for report, a, b in ((y, "m", "b"), (x, "mu", "beta")):
        if isinstance(report, Exception):
            rows.append(("raised", type(report).__name__))
        else:
            rows.append(("ok", getattr(report.line, a), getattr(report.line, b),
                         report.objective_min))
    if isinstance(d, Exception):
        d_row = ("raised", type(d).__name__)
    elif isinstance(d.line, lf.AllLinesThroughCentroid):
        d_row = ("family", d.line.centroid.x, d.line.centroid.y, d.objective_min)
    else:
        d_row = ("line", d.line.line.theta, d.line.line.c, d.objective_min)
    cmp_row = (cmp.m, cmp.m_x, cmp.tan_theta, cmp.case_tag)
    inv_rows = None if inv is None else tuple((r.status, r.discrepancy) for r in inv)
    return ("done", rows[0], rows[1], d_row, cmp_row, inv_rows)


def run_request(points, invariance: bool):
    try:
        return request(points, invariance)
    except Exception as exc:  # a crash is a failed request, not a failed run
        return exc


def main(pool_path: str, seconds: float, out_path: str) -> None:
    with open(pool_path, encoding="utf-8") as f:
        pool = [(tuple(map(tuple, item["points"])), item["invariance"]) for item in json.load(f)]
    for points, invariance in pool:
        run_request(points, invariance)
    times: list[float] = []
    counts: Counter = Counter()
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while True:
        points, invariance = pool[i % len(pool)]
        t0 = clock()
        result = run_request(points, invariance)
        times.append(clock() - t0)
        counts[i % len(pool), outcome(result)] += 1
        i += 1
        if i % 8 == 0 and clock() >= deadline:
            break
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"times": times,
                   "outcomes": [[idx, out, n] for (idx, out), n in counts.items()]}, f)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3])
