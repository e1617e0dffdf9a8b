"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Each test prints a single PASS line once its assertions have all held, so a
``pytest tests/test_acceptance.py -v -s`` run reads as a checklist.  Every
criterion runs in well under five seconds.
"""

import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from grid_oracle import grid_min_d, grid_min_x, grid_min_y

from linefit.diagnostics import ORDERING_HOLDS, compare
from linefit.errors import VerticalDataError
from linefit.fitters import (
    AllLinesThroughCentroid,
    UniqueLine,
    fit_d,
    fit_d_report,
    fit_x,
    fit_y,
)
from linefit.generators import gen_circle, gen_slanted_ladder, gen_vertical_ladder
from linefit.geometry import Point
from linefit.stats import PairedSample, summarize
from linefit.transforms import Rotation, Translation, invariance_report

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
THREE_POINTS = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])
ORIGIN = Point(0.0, 0.0)


def ok(n, message):
    print(f"PASS criterion {n}: {message}")


def angle_gap(a, b):
    return abs(math.remainder(a - b, math.pi))


def random_sample(rng, lo=3, hi=50):
    n = rng.randint(lo, hi)
    return PairedSample.from_xy(
        [rng.uniform(-10, 10) for _ in range(n)],
        [rng.uniform(-10, 10) for _ in range(n)],
    )


def test_criterion_1_worked_example_reproduction():
    ry = fit_y(THREE_POINTS)
    assert abs(ry.line.m - 0.5) < 1e-12
    assert abs(ry.line.b - (-1.0 / 6.0)) < 1e-12
    rx = fit_x(THREE_POINTS)
    assert abs(rx.line.mu - 1.5) < 1e-12
    assert abs(rx.line.beta - 0.5) < 1e-12
    fd = fit_d(THREE_POINTS)
    assert isinstance(fd, UniqueLine)
    tan_theta = math.tan(fd.line.theta)
    assert abs(tan_theta - (math.sqrt(13.0) - 2.0) / 3.0) < 1e-12
    assert abs(tan_theta - 0.53518) < 1e-5
    intercept = -fd.line.c / math.cos(fd.line.theta)
    assert abs(intercept - (-0.20185)) < 1e-5
    ok(1, "three-point dataset gives y=x/2-1/6, x=(3/2)y+1/2, "
          "tan(theta)=(sqrt(13)-2)/3 with intercept -0.20185")


def test_criterion_2_slope_ordering_reproduction():
    rep = compare(THREE_POINTS)
    bound = 1.0 / math.sqrt(3.0)
    assert abs(rep.ratio_bound - bound) < 1e-12
    assert rep.m < rep.ratio_bound < rep.m_x
    assert abs(rep.tan_theta - 0.53518) < 1e-5
    assert rep.m < rep.tan_theta < rep.m_x
    assert rep.ordering_e == ORDERING_HOLDS
    assert rep.ordering_f == ORDERING_HOLDS
    ok(2, "1/2 < 1/sqrt(3) < 2/3 and 1/2 < 0.53518 < 2/3 both hold strictly")


def test_criterion_3_rotation_counterexample():
    quarter_turn = Rotation(math.pi / 2, ORIGIN)
    rep_y = invariance_report(THREE_POINTS, quarter_turn, "Y")
    assert rep_y.status == "ok"
    assert abs(rep_y.line_from_transformed_data.m - (-1.5)) < 1e-12
    assert abs(rep_y.line_from_transformed_data.b - 0.5) < 1e-12
    assert abs(rep_y.expected_if_invariant.m - (-2.0)) < 1e-12
    assert abs(rep_y.expected_if_invariant.b - (1.0 / 3.0)) < 1e-12
    assert rep_y.discrepancy > 0.1
    rep_d = invariance_report(THREE_POINTS, quarter_turn, "D")
    assert rep_d.discrepancy < 1e-9
    ok(3, "quarter turn: Y refit gives y'=-(3/2)x'+1/2, not the predicted "
          "y'=-2x'+1/3 (discrepancy > 0.1); D discrepancy < 1e-9")


def test_criterion_4_circle_degeneracy():
    rng = random.Random(404)
    for n in range(3, 31):
        for _ in range(5):
            p = gen_circle(n=n, phase=rng.uniform(0.0, 2.0 * math.pi))
            ry = fit_y(p)
            assert abs(ry.line.m) < 1e-10 and abs(ry.line.b) < 1e-10
            rx = fit_x(p)
            assert abs(rx.line.mu) < 1e-10 and abs(rx.line.beta) < 1e-10
            fd = fit_d(p)
            assert isinstance(fd, AllLinesThroughCentroid)
            assert abs(fd.objective - 0.5) < 1e-10
    ok(4, "circles n=3..30, 5 phases each: Y and X collapse to the axes, "
          "D returns the family through the centroid at objective 1/2")


def test_criterion_5_parallel_ladder_phase_transition():
    rng = random.Random(505)
    for k in range(20):
        ts = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(3, 12))]
        var_t = summarize(PairedSample(ts, ts)).var_x
        wide_gap = k % 2 == 0
        factor = rng.uniform(2.0, 6.0)
        half_gap = math.sqrt(var_t * factor) if wide_gap else math.sqrt(var_t / factor)
        p = gen_vertical_ladder(half_gap, ts)
        fit = fit_d(p)
        assert isinstance(fit, UniqueLine)
        t_mean = sum(ts) / len(ts)
        if wide_gap:
            # clustered rungs, far lines: the horizontal line y = mean rung
            assert abs(fit.line.theta) < 1e-9
            assert abs(fit.line.c - (-t_mean)) < 1e-9 * (abs(t_mean) + 1.0)
        else:
            # spread rungs: the vertical mid-line x = 0
            assert angle_gap(fit.line.theta, math.pi / 2) < 1e-9
            assert abs(fit.line.c) < 1e-9

    slope, offset = 2.0, 40.0
    threshold = offset**2 / (slope**2 + 1.0)  # 320
    ts = [rng.uniform(-35.0, 35.0) for _ in range(40)]
    var_t = summarize(PairedSample(ts, ts)).var_x
    assert var_t > threshold
    p = gen_slanted_ladder(slope, offset, ts)
    fd = fit_d(p)
    assert isinstance(fd, UniqueLine)
    assert abs(math.tan(fd.line.theta) - slope) < 1e-9
    m_y = fit_y(p).line.m
    m_x = 1.0 / fit_x(p).line.mu
    assert m_y < slope - 1e-6
    assert m_x > slope + 1e-6
    ok(5, "vertical ladders flip between y=t-bar and x=0 across the gap/spread "
          "threshold; the slanted ladder keeps D at slope 2 with Y below and X above")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(606)
    for _ in range(200):
        p = random_sample(rng)
        ry = fit_y(p)
        m, b, obj_y = grid_min_y(p)
        assert abs(ry.line.m - m) < 1e-4
        assert abs(ry.line.b - b) < 1e-4
        assert ry.objective_min <= obj_y + 1e-10
        rx = fit_x(p)
        mu, beta, obj_x = grid_min_x(p)
        assert abs(rx.line.mu - mu) < 1e-4
        assert abs(rx.line.beta - beta) < 1e-4
        assert rx.objective_min <= obj_x + 1e-10
        rd = fit_d_report(p)
        assert isinstance(rd.line, UniqueLine)
        theta, c, obj_d = grid_min_d(p)
        gap = angle_gap(rd.line.line.theta, theta)
        assert gap < 1e-4
        aligned_c = c if math.cos(rd.line.line.theta - theta) >= 0.0 else -c
        assert abs(rd.line.line.c - aligned_c) < 1e-4
        assert rd.objective_min <= obj_d + 1e-10
    ok(6, "200 seeded samples: grid oracles match every closed form within "
          "1e-4 and never beat the closed-form objective by more than 1e-10")


def test_criterion_7_invariance_suite():
    rng = random.Random(707)
    samples = [random_sample(rng, 3, 30) for _ in range(200)]
    for p in samples:
        motion = Translation(rng.uniform(-50, 50), rng.uniform(-50, 50))
        for method in ("Y", "X", "D"):
            rep = invariance_report(p, motion, method)
            assert rep.status == "ok"
            assert rep.discrepancy < 1e-9
    y_breaks = x_breaks = 0
    for p in samples:
        motion = Rotation(rng.uniform(-math.pi, math.pi), ORIGIN)
        rep_d = invariance_report(p, motion, "D")
        assert rep_d.status == "ok"
        assert rep_d.discrepancy < 1e-9
        rep_y = invariance_report(p, motion, "Y")
        if rep_y.status == "ok" and rep_y.discrepancy > 1e-3:
            y_breaks += 1
        rep_x = invariance_report(p, motion, "X")
        if rep_x.status == "ok" and rep_x.discrepancy > 1e-3:
            x_breaks += 1
    assert y_breaks > 0
    assert x_breaks > 0
    ok(7, f"200 samples: every method survives translation (< 1e-9) and D "
          f"survives rotation; rotation broke Y {y_breaks} and X {x_breaks} times")


def test_criterion_8_identity_suite():
    rng = random.Random(808)
    for _ in range(500):
        p = random_sample(rng, 2, 30)
        xs, ys = p.xs, p.ys
        n = len(xs)
        s = summarize(p)
        pair_var = sum(
            (xs[i] - xs[j]) ** 2 for i in range(n) for j in range(i + 1, n)
        ) / n**2
        pair_cov = sum(
            (xs[i] - xs[j]) * (ys[i] - ys[j])
            for i in range(n)
            for j in range(i + 1, n)
        ) / n**2
        scale = math.sqrt((s.var_x + 1e-30) * (s.var_y + 1e-30)) + 1.0
        assert abs(s.var_x - pair_var) <= 1e-12 * (pair_var + scale)
        assert abs(s.cov_xy - pair_cov) <= 1e-12 * (abs(pair_cov) + scale)
        assert s.var_x * s.var_y - s.cov_xy**2 >= -1e-12 * (s.var_x * s.var_y + 1.0)
    for slope, intercept in ((0.8, -2.0), (-3.0, 1.0), (0.0, 4.0)):
        xs = tuple(0.61 * i - 4.0 for i in range(15))
        p = PairedSample.from_xy(xs, tuple(slope * x + intercept for x in xs))
        s = summarize(p)
        gap = s.var_x * s.var_y - s.cov_xy**2
        assert abs(gap) <= 1e-12 * (s.var_x * s.var_y + 1.0)
    ok(8, "pairwise-difference identities hold to 1e-12 on 500 samples; the "
          "Cauchy-Schwarz gap stays nonnegative and vanishes on exact lines")


def test_criterion_9_exact_recovery_suite():
    xs = tuple(0.5 * i - 2.0 for i in range(12))
    intercept = 0.7
    for alpha in (0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0):
        p = PairedSample.from_xy(xs, tuple(alpha * x + intercept for x in xs))
        ry = fit_y(p)
        assert abs(ry.line.m - alpha) < 1e-10
        assert abs(ry.line.b - intercept) < 1e-10
        if alpha != 0.0:
            rx = fit_x(p)
            assert abs(rx.line.mu - 1.0 / alpha) < 1e-10
            assert abs(rx.line.beta - (-intercept / alpha)) < 1e-10
        fd = fit_d(p)
        assert isinstance(fd, UniqueLine)
        assert abs(math.tan(fd.line.theta) - alpha) < 1e-10
    vertical = PairedSample.from_xy((3.25,) * 5, (0.0, 1.0, 2.5, 4.0, 9.0))
    with pytest.raises(VerticalDataError):
        fit_y(vertical)
    fd = fit_d(vertical)
    assert isinstance(fd, UniqueLine)
    assert angle_gap(fd.line.theta, math.pi / 2) < 1e-10
    assert abs(fd.line.c - 3.25) < 1e-10
    ok(9, "exact lines at slopes 0, +/-0.1, +/-1, +/-10 are recovered below "
          "1e-10 by every applicable method; D alone recovers x=3.25 while Y "
          "raises its vertical-data error")


def run_cli(args, stdin_text=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "linefit", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )


def test_criterion_10_cli_contract(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("0.5,1.25\n-2,0.75\n3,4\n1,1\n")
    json_path = tmp_path / "report.json"
    svg_path = tmp_path / "figure.svg"
    result = run_cli(
        ["fit", "--input", str(csv_path), "--json", str(json_path), "--svg", str(svg_path)]
    )
    assert result.returncode == 0

    report = json.loads(json_path.read_text())
    echoed = PairedSample.from_points(report["points"])
    assert abs(fit_y(echoed).line.m - report["fits"]["y"]["m"]) < 1e-12
    assert abs(fit_y(echoed).line.b - report["fits"]["y"]["b"]) < 1e-12
    assert abs(fit_x(echoed).line.mu - report["fits"]["x"]["mu"]) < 1e-12
    assert abs(fit_x(echoed).line.beta - report["fits"]["x"]["beta"]) < 1e-12
    refit_d = fit_d(echoed)
    assert abs(refit_d.line.theta - report["fits"]["d"]["theta"]) < 1e-12
    assert abs(refit_d.line.c - report["fits"]["d"]["c"]) < 1e-12

    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f".//{ns}path")) == 3
    markers = [c for c in root.findall(f".//{ns}circle") if c.get("class") == "data-point"]
    assert len(markers) == 4

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nnot-a-number\n")
    assert run_cli(["fit", "--input", str(bad)]).returncode == 2
    vertical = tmp_path / "vertical.csv"
    vertical.write_text("7,0\n7,1\n7,3\n")
    assert run_cli(["fit", "--input", str(vertical), "--method", "y"]).returncode == 3
    assert run_cli(["fit", "--input", str(vertical)]).returncode == 0
    ok(10, "CSV to JSON round-trip refits identically to 1e-12; the SVG is "
           "valid XML with the expected elements; exit codes are 2/3/0 as documented")
