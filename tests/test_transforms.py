import functools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linefit.errors import LineFitError
from linefit.fitters import AllLinesThroughCentroid, UniqueLine, fit_d, fit_x, fit_y
from linefit.generators import gen_circle
from linefit.geometry import NormalLine, Point
from linefit.stats import PairedSample, SummaryStats, summarize
from linefit.transforms import (
    STATUS_OK,
    STATUS_TRANSFORMED_FIT_NONEXISTENT,
    Rotation,
    Translation,
    _move_summary,
    _resolve_center,
    apply_motion_point,
    apply_motion_points,
    invariance_report,
    line_discrepancy,
    transform_line,
)

THREE_POINTS = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])
ORIGIN = Point(0.0, 0.0)


def random_sample(rng, n=None):
    n = n or rng.randint(3, 25)
    return PairedSample.from_xy(
        [rng.uniform(-10, 10) for _ in range(n)],
        [rng.uniform(-10, 10) for _ in range(n)],
    )


# --- moving points ------------------------------------------------------------

def test_quarter_turn_of_reference_points():
    moved = apply_motion_points(THREE_POINTS, Rotation(math.pi / 2, ORIGIN))
    expected = [(0.0, 0.0), (0.0, 1.0), (-1.0, 2.0)]
    for (gx, gy), (wx, wy) in zip(moved.points(), expected):
        assert abs(gx - wx) < 1e-12
        assert abs(gy - wy) < 1e-12


def test_zero_angle_rotation_is_identity():
    moved = apply_motion_points(THREE_POINTS, Rotation(0.0, ORIGIN))
    assert moved.points() == THREE_POINTS.points()


def test_rotation_round_trip():
    rng = random.Random(1)
    p = random_sample(rng)
    phi = 1.234
    center = Point(0.5, -2.0)
    there = apply_motion_points(p, Rotation(phi, center))
    back = apply_motion_points(there, Rotation(-phi, center))
    for (gx, gy), (wx, wy) in zip(back.points(), p.points()):
        assert abs(gx - wx) < 1e-12
        assert abs(gy - wy) < 1e-12


def test_translation_moves_every_point():
    moved = apply_motion_points(THREE_POINTS, Translation(2.0, -3.0))
    assert moved.points() == ((2.0, -3.0), (3.0, -3.0), (4.0, -2.0))


def test_default_rotation_center_is_the_centroid():
    p = THREE_POINTS
    s = summarize(p)
    moved = apply_motion_points(p, Rotation(0.7))
    explicit = apply_motion_points(p, Rotation(0.7, Point(s.mean_x, s.mean_y)))
    assert moved.points() == explicit.points()


def test_default_rotation_center_is_the_correctly_rounded_mean():
    # a left-to-right sum() loses both 1.0s to the 1e16 terms; fsum keeps them,
    # so the centre no longer depends on how a Python version's sum() rounds
    xs = [1e16, 1.0, -1e16, 1.0]
    ys = [1e16, 1.0, -1e16, 3.0]
    assert functools.reduce(operator.add, xs) / 4 != math.fsum(xs) / 4
    assert functools.reduce(operator.add, ys) / 4 != math.fsum(ys) / 4
    p = PairedSample.from_xy(xs, ys)
    centre = Point(math.fsum(xs) / 4, math.fsum(ys) / 4)
    assert centre == Point(0.5, 1.0)
    naive = Point(functools.reduce(operator.add, xs) / 4, functools.reduce(operator.add, ys) / 4)
    for phi in (math.pi, 0.3):
        moved = apply_motion_points(p, Rotation(phi)).points()
        assert moved == apply_motion_points(p, Rotation(phi, centre)).points()
        assert moved != apply_motion_points(p, Rotation(phi, naive)).points()


# --- moving lines ----------------------------------------------------------------

def test_translate_x_axis_upward():
    line = transform_line(NormalLine(0.0, 0.0), Translation(0.0, 3.0))
    assert line.theta == 0.0
    assert line.c == -3.0  # the line y = 3


def test_rotate_x_axis_to_diagonal():
    line = transform_line(NormalLine(0.0, 0.0), Rotation(math.pi / 4, ORIGIN))
    assert line.theta == pytest.approx(math.pi / 4, rel=1e-15)
    assert abs(line.c) < 1e-15


def test_transform_line_requires_explicit_rotation_center():
    with pytest.raises(ValueError):
        transform_line(NormalLine(0.1, 1.0), Rotation(0.5))


def _assert_transformed_line_contains_transformed_points(offset):
    # lines, rotation centres and the points checked all sit near (offset, offset)
    rng = random.Random(4)
    for _ in range(40):
        theta = rng.uniform(-1.5, 1.5)
        si, co = math.sin(theta), math.cos(theta)
        line = NormalLine(theta, rng.uniform(-5, 5) + offset * (si - co))
        motion = (
            Translation(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if rng.random() < 0.5
            else Rotation(
                rng.uniform(-3, 3),
                Point(offset + rng.uniform(-2, 2), offset + rng.uniform(-2, 2)),
            )
        )
        image = transform_line(line, motion)
        for t in (-8.0, -1.0, 0.0, 0.5, 7.0):
            q = line.point_at(offset * (co + si) + t)
            moved_p = apply_motion_points(
                PairedSample.from_points([(q.x, q.y), (q.x + 0.0, q.y + 0.0)]), motion
            ).points()[0]
            assert abs(image.residual(Point(*moved_p))) < 1e-12 * (1.0 + abs(offset))


# points at 1.5e308 about a centre at -1e308: each offset x - cx overflows a
# double, and each moved point is finite
FAR_CENTRE = Rotation(0.3, Point(-1e308, 0.0))
FAR_POINTS = PairedSample.from_points([(1.5e308, 0.0), (1.5e308, 1.0), (1.5e308, 3.0)])


def test_a_point_whose_offset_overflows_turns_alone():
    moved = apply_motion_point(Point(1.5e308, 0.0), FAR_CENTRE)
    assert moved == Point(1.3883412228140148e308, 7.3880051665334888e307)
    assert apply_motion_points(FAR_POINTS, FAR_CENTRE).points()[0] == tuple(moved)


@pytest.mark.parametrize("method", ["X", "D"])
def test_a_far_rotation_centre_leaves_the_fit_invariant(method):
    report = invariance_report(FAR_POINTS, FAR_CENTRE, method)
    assert report.status == STATUS_OK
    assert report.discrepancy <= 4.5e-16


def test_invariance_report_rejects_an_unknown_method():
    with pytest.raises(ValueError, match=r"^unknown method 'Q'; expected one of \('Y', 'X', 'D'\)$"):
        invariance_report(THREE_POINTS, Rotation(0.3), "Q")


def _formula(pt, g: Rotation) -> tuple[float, float]:
    """The rotation formula of one point, as moved points far from overflow take it."""
    co, si = math.cos(g.phi), math.sin(g.phi)
    (cx, cy), dx, dy = g.center, pt[0] - g.center.x, pt[1] - g.center.y
    return cx + dx * co - dy * si, cy + dx * si + dy * co


def _alone(points, g) -> list[tuple[float, float]] | None:
    try:
        return [tuple(apply_motion_point(Point(*pt), g)) for pt in points]
    except LineFitError:  # a moved point is not finite
        return None


_ANY_DOUBLE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ANY_DOUBLE, _ANY_DOUBLE), min_size=2, max_size=8),
       st.floats(-7.0, 7.0), st.tuples(_ANY_DOUBLE, _ANY_DOUBLE))
# the moved point is (1.04e308, 1.06e308): each coordinate is finite and the
# formula's, though their sum overflows and the half offsets round y otherwise
@example([(1.37e308, 6.13e307), (0.0, 0.0)], 0.3, (-2.6e307, -2.6e307))
@example([(1.5e308, 0.0), (2.427787762551348e307, 8.845845059190371e305)], 0.3, (-1e308, 0.0))
def test_a_moved_sample_is_its_points_moved_alone(points, phi, center):
    g = Rotation(phi, Point(*center))
    alone = _alone(points, g)
    try:
        together = list(apply_motion_points(PairedSample.from_points(points), g).points())
    except LineFitError:
        together = None
    assert together == alone
    for pt, moved in zip(points, alone or ()):
        formula = _formula(pt, g)
        if all(map(math.isfinite, formula)):
            assert list(map(float.hex, moved)) == list(map(float.hex, formula))


def test_transformed_line_contains_transformed_points():
    _assert_transformed_line_contains_transformed_points(0.0)


@pytest.mark.parametrize("offset", [1.6e9, -1e12])
def test_far_transformed_line_contains_transformed_points(offset):
    _assert_transformed_line_contains_transformed_points(offset)


def test_line_discrepancy_handles_boundary_wrap():
    almost_vertical_hi = NormalLine(math.pi / 2 - 1e-7, 2.0)
    almost_vertical_lo = NormalLine(-math.pi / 2 + 1e-7, -2.0)
    assert line_discrepancy(almost_vertical_hi, almost_vertical_lo) < 1e-6
    assert line_discrepancy(almost_vertical_hi, almost_vertical_hi) == 0.0


# --- invariance reports ------------------------------------------------------------

def test_vertical_fit_is_not_rotation_invariant_on_reference_points():
    report = invariance_report(THREE_POINTS, Rotation(math.pi / 2, ORIGIN), "Y")
    assert report.status == STATUS_OK
    assert abs(report.line_from_transformed_data.m - (-1.5)) < 1e-12
    assert abs(report.line_from_transformed_data.b - 0.5) < 1e-12
    assert abs(report.expected_if_invariant.m - (-2.0)) < 1e-12
    assert abs(report.expected_if_invariant.b - (1.0 / 3.0)) < 1e-12
    assert report.discrepancy > 0.1


def test_horizontal_fit_is_not_rotation_invariant_on_reference_points():
    report = invariance_report(THREE_POINTS, Rotation(math.pi / 2, ORIGIN), "X")
    assert report.status == STATUS_OK
    assert abs(report.line_from_transformed_data.mu - (-0.5)) < 1e-12
    assert abs(report.line_from_transformed_data.beta - (1.0 / 6.0)) < 1e-12
    assert abs(report.expected_if_invariant.mu - (-2.0 / 3.0)) < 1e-12
    assert abs(report.expected_if_invariant.beta - (1.0 / 3.0)) < 1e-12
    assert report.discrepancy > 0.1


def test_perpendicular_fit_is_rotation_invariant_on_reference_points():
    report = invariance_report(THREE_POINTS, Rotation(math.pi / 2, ORIGIN), "D")
    assert report.status == STATUS_OK
    assert report.discrepancy < 1e-10


@pytest.mark.parametrize("method", ["Y", "X", "D"])
def test_every_method_is_translation_invariant(method):
    rng = random.Random(14)
    for _ in range(60):
        p = random_sample(rng)
        motion = Translation(rng.uniform(-20, 20), rng.uniform(-20, 20))
        report = invariance_report(p, motion, method)
        assert report.status == STATUS_OK
        assert report.discrepancy < 1e-10


def test_perpendicular_fit_is_rotation_invariant_generally():
    rng = random.Random(15)
    for _ in range(200):
        p = random_sample(rng)
        motion = Rotation(rng.uniform(-math.pi, math.pi), ORIGIN)
        report = invariance_report(p, motion, "D")
        assert report.status == STATUS_OK
        assert report.discrepancy < 1e-9


_KINDS = ("vertical", "horizontal", "circle", "line", "far")


def _lib_sample(kind, seed):
    """12 points of one of the benchmark's library shapes: vertical or horizontal
    rungs, a circle, or a noisy line at x = 0..11, or at x near 1.6e9 ("far")."""
    rng = random.Random(seed)
    if kind == "circle":
        return gen_circle(12, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 3.0),
                          Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
    rungs = [rng.uniform(-10.0, 10.0) for _ in range(12)]
    fixed = [rng.uniform(-5.0, 5.0)] * 12
    if kind == "vertical":
        return PairedSample.from_xy(fixed, rungs)
    if kind == "horizontal":
        return PairedSample.from_xy(rungs, fixed)
    slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
    x0 = 1.6e9 if kind == "far" else 0.0
    return PairedSample.from_xy([x0 + x for x in range(12)],
                                [slope * x + fixed[0] + rng.uniform(-1.0, 1.0) for x in range(12)])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(0, 2**32), st.floats(-1e300, 1e300), st.booleans())
# theta + phi kept none of theta's digits, and the turned D line missed by 6.9
@example("line", 0, 1e300, True)
def test_invariance_report_answers_every_finite_rotation(kind, seed, phi, centred):
    g = Rotation(phi, Point(-1.0, 2.0) if centred else None)
    reports = [invariance_report(_lib_sample(kind, seed), g, method) for method in "YXD"]
    if kind == "line":  # D turns with the data, to its rounding, at any angle
        assert reports[2].status == STATUS_OK
        assert reports[2].discrepancy < 1e-13


def test_the_reference_points_refit_under_a_turn_past_the_quotient_fold():
    # every method's moved line fell outside (-pi/2, pi/2] and raised
    p = PairedSample.from_points([(0, 0), (1, 0), (2, 1), (3, 1)])
    reports = [invariance_report(p, Rotation(-5.7775003264880344e16), m) for m in "YXD"]
    assert [r.status for r in reports] == [STATUS_OK] * 3
    assert reports[2].discrepancy < 1e-15


def test_rotating_a_degenerate_sample_keeps_the_family():
    p = gen_circle(n=5, phase=0.3)
    report = invariance_report(p, Rotation(0.8, Point(2.0, 1.0)), "D")
    assert report.status == STATUS_OK
    assert isinstance(report.line_from_transformed_data, AllLinesThroughCentroid)
    assert isinstance(report.expected_if_invariant, AllLinesThroughCentroid)
    assert report.discrepancy < 1e-10


def test_rotation_onto_vertical_line_flags_nonexistence():
    xs = tuple(float(i) for i in range(5))
    p = PairedSample.from_xy(xs, tuple(0.0 for _ in xs))  # horizontal data
    report = invariance_report(p, Rotation(math.pi / 2, ORIGIN), "Y")
    assert report.status in (
        "transformed-fit-nonexistent",
        "expected-line-not-representable",
    )
    assert report.discrepancy is None


def test_unrepresentable_expected_line_is_flagged_not_infinite():
    # noisy slope-1 data rotated so the *expected* line is exactly vertical;
    # the refit on the moved points still exists, so only the prediction side
    # fails to be expressible as y = m*x + b
    rng = random.Random(77)
    xs = [rng.uniform(-5, 5) for _ in range(30)]
    ys = [x + rng.uniform(-0.3, 0.3) for x in xs]
    p = PairedSample.from_xy(xs, ys)
    m = fit_y(p).line.m
    motion = Rotation(math.pi / 2 - math.atan(m), ORIGIN)
    report = invariance_report(p, motion, "Y")
    assert report.status == "expected-line-not-representable"
    assert report.discrepancy is None
    assert report.line_from_transformed_data is not None


def test_original_fit_failure_is_reported_not_raised():
    p = PairedSample.from_xy((1.0, 1.0, 1.0), (0.0, 1.0, 2.0))  # vertical data
    report = invariance_report(p, Translation(1.0, 0.0), "Y")
    assert report.status == "original-fit-nonexistent"


# --- translation parameter laws ------------------------------------------------------

def test_intercept_translation_laws():
    rng = random.Random(16)
    for _ in range(60):
        p = random_sample(rng)
        u, v = rng.uniform(-10, 10), rng.uniform(-10, 10)
        moved = apply_motion_points(p, Translation(u, v))
        ry0, ry1 = fit_y(p), fit_y(moved)
        assert abs(ry1.line.m - ry0.line.m) <= 1e-10 * (abs(ry0.line.m) + 1.0)
        assert abs(ry1.line.b - (ry0.line.b - ry0.line.m * u + v)) < 1e-9
        rx0, rx1 = fit_x(p), fit_x(moved)
        assert abs(rx1.line.mu - rx0.line.mu) <= 1e-10 * (abs(rx0.line.mu) + 1.0)
        assert abs(rx1.line.beta - (rx0.line.beta - rx0.line.mu * v + u)) < 1e-9
        fd0, fd1 = fit_d(p), fit_d(moved)
        if isinstance(fd0, UniqueLine) and isinstance(fd1, UniqueLine):
            th = fd0.line.theta
            want_c = fd0.line.c + u * math.sin(th) - v * math.cos(th)
            assert abs(fd1.line.theta - th) < 1e-10
            assert abs(fd1.line.c - want_c) < 1e-9


# --- rotation identities on the statistics --------------------------------------------

def test_rotated_statistics_satisfy_the_mixing_identities():
    rng = random.Random(18)
    for _ in range(60):
        p = random_sample(rng)
        phi = rng.uniform(-math.pi, math.pi)
        s = summarize(p)
        r = summarize(apply_motion_points(p, Rotation(phi, ORIGIN)))
        co2, si2 = math.cos(phi) ** 2, math.sin(phi) ** 2
        s2 = math.sin(2 * phi)
        scale = s.var_x + s.var_y + 1.0
        assert abs(s.var_x - (r.var_x * co2 + r.cov_xy * s2 + r.var_y * si2)) <= 1e-10 * scale
        assert abs(s.var_y - (r.var_x * si2 - r.cov_xy * s2 + r.var_y * co2)) <= 1e-10 * scale
        assert abs(
            2 * s.cov_xy
            - (-r.var_x * s2 + 2 * r.cov_xy * math.cos(2 * phi) + r.var_y * s2)
        ) <= 1e-10 * scale


def test_anisotropy_ratio_follows_tangent_addition():
    rng = random.Random(19)
    checked = 0
    while checked < 60:
        p = random_sample(rng)
        phi = rng.uniform(-0.7, 0.7)
        s = summarize(p)
        r = summarize(apply_motion_points(p, Rotation(phi, ORIGIN)))
        d0 = s.var_x - s.var_y
        d1 = r.var_x - r.var_y
        if abs(d0) < 1e-3 or abs(d1) < 1e-3:
            continue
        e0 = 2.0 * s.cov_xy / d0
        e1 = 2.0 * r.cov_xy / d1
        t2 = math.tan(2.0 * phi)
        if abs(1.0 - e0 * t2) < 1e-3 or abs(e0) > 1e3 or abs(t2) > 1e3:
            continue
        want = (e0 + t2) / (1.0 - e0 * t2)
        assert abs(e1 - want) <= 1e-8 * (abs(want) + 1.0)
        checked += 1


# --- moved statistics ----------------------------------------------------------------

def _exact_moments(points):
    """(mean_x, mean_y, var_x, var_y, cov_xy) of Fraction points, exactly."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    vx = sum((x - mx) ** 2 for x, _ in points) / n
    vy = sum((y - my) ** 2 for _, y in points) / n
    cxy = sum((x - mx) * (y - my) for x, y in points) / n
    return mx, my, vx, vy, cxy


def _exactly_moved(p, g):
    """The sample's points moved in rational arithmetic, with the double
    cos(phi) and sin(phi) that every rotation in the package uses."""
    pts = [(Fraction(x), Fraction(y)) for x, y in p.points()]
    if isinstance(g, Translation):
        return [(x + Fraction(g.u), y + Fraction(g.v)) for x, y in pts]
    co, si = Fraction(math.cos(g.phi)), Fraction(math.sin(g.phi))
    cx, cy = Fraction(g.center.x), Fraction(g.center.y)
    return [(cx + (x - cx) * co - (y - cy) * si, cy + (x - cx) * si + (y - cy) * co)
            for x, y in pts]


@pytest.mark.parametrize("offset", [0.0, 1.6e9, 1e12])
def test_moved_summary_matches_the_exact_moments_of_the_moved_points(offset):
    rng = random.Random(31)
    for trial in range(24):
        n = rng.randint(2, 30)
        slope = rng.uniform(-3, 3)
        us = [rng.uniform(-10, 10) for _ in range(n)]
        p = PairedSample.from_xy(
            [offset + u for u in us],
            [offset + slope * u + rng.uniform(-1, 1) for u in us],
        )
        s = p.summary
        phi = rng.uniform(-math.pi, math.pi)
        g = [
            Rotation(phi),
            Rotation(phi, ORIGIN),
            Rotation(phi, Point(offset + rng.uniform(-20, 20), offset + rng.uniform(-20, 20))),
            Translation(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)),
        ][trial % 4]
        g = _resolve_center(g, s)
        got = _move_summary(s, g)
        mx, my, vx, vy, cxy = _exact_moments(_exactly_moved(p, g))
        centre = [mx, my, Fraction(s.mean_x), Fraction(s.mean_y)]
        if isinstance(g, Rotation):
            centre += [Fraction(g.center.x), Fraction(g.center.y)]
        scale = max(map(abs, centre)) + Fraction(math.sqrt(float(vx + vy)))
        assert got.n == p.n
        assert abs(Fraction(got.mean_x) - mx) <= Fraction(1e-15) * scale
        assert abs(Fraction(got.mean_y) - my) <= Fraction(1e-15) * scale
        for value, exact in ((got.var_x, vx), (got.var_y, vy), (got.cov_xy, cxy)):
            assert abs(Fraction(value) - exact) <= Fraction(1e-14) * (vx + vy)


def test_a_sample_turned_nearly_flat_keeps_its_moved_variances():
    # var_y as t - d cancelled here: a relative error of 2.2e-6 and a D
    # discrepancy of 2.4e-11; the gap, which no turn changes, keeps it
    p = PairedSample.from_xy([2.0] * 5, [0.0, 1.0, 2.0, 3.0, 4.0])
    g = Rotation(1.5708018185612886, Point(-1.7050834658329581, 0.7333251339281501))
    assert invariance_report(p, g, "D").discrepancy < 1e-15


@pytest.mark.parametrize("scale", [1e-100, 1e-150])
def test_a_tiny_sample_keeps_its_moved_variances(scale):
    # var_x*var_y and cov**2 underflow below 1e-154: the gap is formed over
    # the larger moved variance, or the smaller would read 0.0 and D would
    # miss the turned line by 0.7 (a segment) or infinitely (a circle)
    segment = PairedSample.from_xy([2.0 * scale] * 5, [k * scale for k in range(5)])
    circle = gen_circle(7, radius=scale)
    for p in (segment, circle):
        assert invariance_report(p, Rotation(math.pi / 4), "D").discrepancy < 1e-15


def _exactly_turned(s, phi):
    """(var_x, var_y) of the summary turned by phi in rational arithmetic,
    with the double cos(phi) and sin(phi)."""
    co, si = Fraction(math.cos(phi)), Fraction(math.sin(phi))
    vx, vy, cxy = map(Fraction, (s.var_x, s.var_y, s.cov_xy))
    return (co * co * vx - 2 * co * si * cxy + si * si * vy,
            si * si * vx + 2 * co * si * cxy + co * co * vy)


_QUARTERS = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi])
_TURNS = st.one_of(
    _ANY_DOUBLE,
    st.builds(operator.add, _QUARTERS, st.floats(-1e-6, 1e-6)),
    st.builds(math.nextafter, _QUARTERS, st.sampled_from([-4.0, 4.0])),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=30),
       st.sampled_from([0.0, 2.0, -3e3, 1.6e9]), st.sampled_from([1.0, 1e-100]),
       st.booleans(), _TURNS)
@example([0.0, 1.0, 2.0, 3.0, 4.0], 2.0, 1.0, True, 1.5708018185612886)
def test_an_axis_parallel_sample_turned_keeps_its_moved_variances(along, offset, scale,
                                                                  vertical, phi):
    ys = [offset + scale * u for u in along]
    xs = [offset] * len(ys)
    s = PairedSample.from_xy(*((xs, ys) if vertical else (ys, xs))).summary
    got = _move_summary(s, _resolve_center(Rotation(phi), s))
    # below the smallest normal double a variance has fewer digits to keep
    for value, exact in zip((got.var_x, got.var_y), _exactly_turned(s, phi)):
        bound = Fraction(1e-14) * exact + Fraction(sys.float_info.min)
        assert abs(Fraction(value) - exact) <= bound


def test_far_d_refit_turns_with_the_data():
    # x ~ 1.6e9 (Unix timestamps) turned about the origin: moving each point
    # would round it to the offset's ulp, ~2e-7, and cost ~8 digits of the
    # spread's moments; the moved summary keeps the angle to the last bits
    rng = random.Random(32)
    for _ in range(200):
        us = [rng.uniform(-10, 10) for _ in range(32)]
        slope = rng.uniform(-3, 3)
        p = PairedSample.from_xy(
            [1.6e9 + u for u in us], [slope * u + rng.uniform(-1, 1) for u in us]
        )
        report = invariance_report(p, Rotation(rng.uniform(-math.pi, math.pi), ORIGIN), "D")
        assert report.status == STATUS_OK
        dt = report.line_from_transformed_data.line.theta - report.expected_if_invariant.theta
        assert abs(math.sin(dt)) <= 1e-12


def test_moved_statistics_that_overflow_leave_no_fit():
    # the statistics of the sample are finite; turned by pi/4, var_x*var_y
    # and cov**2 are ~1e599, which the fits would square or multiply
    p = PairedSample.from_points([(0.0, 0.0), (1e150, 1e-150), (2e150, 0.0)])
    for method in "YXD":
        report = invariance_report(p, Rotation(math.pi / 4), method)
        assert report.status == STATUS_TRANSFORMED_FIT_NONEXISTENT
        assert report.line_from_transformed_data is None


def test_a_summary_whose_moved_statistics_overflow_leaves_no_fit():
    # var_x*var_y = 1; turned by pi/4, var_x and var_y are ~5e299 and their
    # product overflows; moved by 1e308, the mean does
    s = SummaryStats(3, 1e308, 0.0, 1e300, 1e-300, 0.0)
    for g in (Rotation(math.pi / 4), Translation(1e308, 0.0)):
        for method in "YXD":
            assert invariance_report(s, g, method).status == STATUS_TRANSFORMED_FIT_NONEXISTENT


@pytest.mark.parametrize("method", ["Y", "X", "D"])
def test_invariance_report_takes_the_summary(summarize_calls, method):
    rng = random.Random(33)
    p = random_sample(rng)
    s = summarize(p)
    for g in (Rotation(0.9), Rotation(-2.0, Point(1.0, 3.0)), Translation(4.0, -1.0)):
        from_summary = invariance_report(s, g, method)
        assert from_summary == invariance_report(p, g, method)
        if isinstance(g, Rotation) and g.center is None:
            assert from_summary.motion.center == Point(s.mean_x, s.mean_y)
    assert summarize_calls == [p]  # p.summary; no moved sample is summarized
