import math
import random
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from objective_oracle import loop_d, loop_x, loop_y

from linefit.diagnostics import ORDERING_EQUALITY, TAN_THETA_ALL, compare
from linefit.errors import HorizontalDataError, InvalidSampleError, VerticalDataError
from linefit.fitters import (
    ISOTROPIC,
    AllLinesThroughCentroid,
    OrthogonalCase,
    UniqueLine,
    _major_axis,
    fit_d,
    fit_d_report,
    fit_x,
    fit_y,
    objective_d,
    objective_x,
    objective_y,
    resolve_case,
)
from linefit.generators import gen_circle
from linefit.geometry import Point, inverse_slope_to_normal, slope_to_normal
from linefit.stats import PairedSample, SummaryStats, summarize
from linefit.transforms import Translation, invariance_report, line_discrepancy

THREE_POINTS = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])
TAN_REFERENCE = (math.sqrt(13.0) - 2.0) / 3.0


def make_stats(var_x, var_y, cov, n=4):
    return SummaryStats(
        n=n,
        mean_x=0.0,
        mean_y=0.0,
        var_x=var_x,
        var_y=var_y,
        cov_xy=cov,
    )


def random_sample(rng, n=None):
    n = n or rng.randint(3, 25)
    return PairedSample.from_xy(
        [rng.uniform(-10, 10) for _ in range(n)],
        [rng.uniform(-10, 10) for _ in range(n)],
    )


# --- vertical-offset fit ------------------------------------------------------

def test_fit_y_three_points():
    report = fit_y(THREE_POINTS)
    assert abs(report.line.m - 0.5) < 1e-12
    assert abs(report.line.b - (-1.0 / 6.0)) < 1e-12
    assert abs(report.objective_min - 1.0 / 18.0) < 1e-12


def test_fit_y_recovers_exact_proportional_data():
    p = PairedSample.from_xy((0.0, 1.0, 2.0), (0.0, 2.0, 4.0))
    report = fit_y(p)
    assert abs(report.line.m - 2.0) < 1e-12
    assert abs(report.line.b) < 1e-12
    assert report.objective_min < 1e-14


def test_fit_y_rejects_vertical_data():
    p = PairedSample.from_xy((3.0, 3.0, 3.0), (0.0, 1.0, 5.0))
    with pytest.raises(VerticalDataError, match="var\\(x\\)"):
        fit_y(p)


# --- horizontal-offset fit -----------------------------------------------------

def test_fit_x_three_points():
    report = fit_x(THREE_POINTS)
    assert abs(report.line.mu - 1.5) < 1e-12
    assert abs(report.line.beta - 0.5) < 1e-12
    assert abs(report.objective_min - 1.0 / 6.0) < 1e-12


def test_fit_x_on_vertical_ladder_is_the_mid_line():
    # rungs at heights 0, 2, -2 between x = 1 and x = -1
    p = PairedSample.from_xy((1, 1, 1, -1, -1, -1), (0, 2, -2, 0, 2, -2))
    report = fit_x(p)
    assert abs(report.line.mu) < 1e-12
    assert abs(report.line.beta) < 1e-12


def test_fit_x_recovers_exact_inverse_line():
    ys = (0.0, 1.0, 2.0, 3.0)
    xs = tuple(3.0 * y - 1.0 for y in ys)
    report = fit_x(PairedSample.from_xy(xs, ys))
    assert abs(report.line.mu - 3.0) < 1e-12
    assert abs(report.line.beta - (-1.0)) < 1e-12
    assert report.objective_min < 1e-14


def test_fit_x_rejects_horizontal_data():
    p = PairedSample.from_xy((0.0, 1.0, 5.0), (2.0, 2.0, 2.0))
    with pytest.raises(HorizontalDataError, match="var\\(y\\)"):
        fit_x(p)


# --- case resolution --------------------------------------------------------------

def test_resolve_case_reference_stats():
    case = resolve_case(make_stats(2 / 3, 2 / 9, 1 / 3))
    assert case.tag == "I"
    assert case.e_ratio == pytest.approx(1.5, rel=1e-12)


def test_resolve_case_quarter_turned_reference_stats():
    assert resolve_case(make_stats(2 / 9, 2 / 3, -1 / 3)).tag == "IV"


def test_resolve_case_isotropic():
    assert resolve_case(make_stats(0.5, 0.5, 0.0)).tag == "Isotropic"


@pytest.mark.parametrize(
    "var_x,var_y,cov,tag",
    [
        (2.0, 1.0, 0.5, "I"),
        (2.0, 1.0, 0.0, "I"),  # tie at cov = 0 goes to I
        (2.0, 1.0, -0.5, "II"),
        (1.0, 2.0, 0.5, "III"),
        (1.0, 2.0, 0.0, "III"),  # tie at cov = 0 goes to III
        (1.0, 2.0, -0.5, "IV"),
        (1.0, 1.0, 0.5, "V"),
        (1.0, 1.0, -0.5, "VI"),
    ],
)
def test_resolve_case_sign_patterns(var_x, var_y, cov, tag):
    assert resolve_case(make_stats(var_x, var_y, cov)).tag == tag


def test_e_ratio_absent_for_equal_variances():
    assert resolve_case(make_stats(1.0, 1.0, 0.5)).e_ratio is None
    assert resolve_case(make_stats(1.0, 1.0, 0.0)).e_ratio is None


# --- independent oracle: the paper's six-case radicals ---------------------------
#
# The library takes the perpendicular line's direction from the major axis of
# the covariance matrix (fitters._major_axis).  The paper instead resolves
# theta case by case from E = 2*cov / (var_x - var_y); that route is kept
# here, out of the library, as an independent check on the angle.

_QUARTER_PI = math.pi / 4.0
_HALF_PI = math.pi / 2.0
_INV_SQRT2 = math.sqrt(0.5)


def trig_from_case(case):
    """Closed-form (cos(theta), sin(theta), theta) for a non-isotropic case.

    With r = sqrt(1 + E^2), the two radicals reduce to sqrt((r+1)/(2r)) and
    |E|/sqrt(2r(r+1)); the second form avoids the catastrophic cancellation
    the textbook expression sqrt((1+E^2-r) / (2(1+E^2))) suffers for small |E|.
    Cases V and VI (equal variances) take theta = +-pi/4.
    """
    tag = case.tag
    if tag == ISOTROPIC:
        raise ValueError("isotropic statistics admit every angle; no single theta exists")
    if tag == "V":
        return (_INV_SQRT2, _INV_SQRT2, _QUARTER_PI)
    if tag == "VI":
        return (_INV_SQRT2, -_INV_SQRT2, -_QUARTER_PI)
    e = case.e_ratio
    r = math.hypot(1.0, e)
    major = math.sqrt((r + 1.0) / (2.0 * r))
    minor = abs(e) / math.sqrt(2.0 * r * (r + 1.0))
    half = 0.5 * math.atan(e)
    if tag == "I":
        return (major, minor, half)
    if tag == "II":
        return (major, -minor, half)
    if tag == "III":
        return (minor, major, half + _HALF_PI)
    return (minor, -major, half - _HALF_PI)


def test_trig_case_one_reference_ratio():
    co, si, theta = trig_from_case(OrthogonalCase("I", 1.5))
    assert abs(si / co - TAN_REFERENCE) < 1e-14
    assert abs(si / co - 0.53518) < 1e-5
    assert abs(theta - 0.5 * math.atan(1.5)) < 1e-15
    # the reference statistics have E = 1.5
    u, v = _major_axis(make_stats(2 / 3, 2 / 9, 1 / 3))
    assert abs(v / u - TAN_REFERENCE) < 1e-14


def test_trig_case_one_zero_ratio():
    assert trig_from_case(OrthogonalCase("I", 0.0)) == (1.0, 0.0, 0.0)
    assert fit_d(make_stats(2.0, 1.0, 0.0)).line.theta == 0.0
    assert compare(make_stats(2.0, 1.0, 0.0)).tan_theta == 0.0


def test_trig_case_three_zero_ratio_is_vertical():
    co, si, theta = trig_from_case(OrthogonalCase("III", 0.0))
    assert (co, si) == (0.0, 1.0)
    assert theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert fit_d(make_stats(1.0, 2.0, 0.0)).line.theta == math.pi / 2
    assert compare(make_stats(1.0, 2.0, 0.0)).tan_theta is None


def test_trig_equal_variance_cases():
    co, si, theta = trig_from_case(OrthogonalCase("V"))
    assert co == si == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert theta == pytest.approx(math.pi / 4, rel=1e-15)
    co, si, theta = trig_from_case(OrthogonalCase("VI"))
    assert -si == co == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    # exactly equal variances: the major axis is the diagonal itself
    assert fit_d(make_stats(1.0, 1.0, 0.5)).line.theta == math.pi / 4
    assert compare(make_stats(1.0, 1.0, 0.5)).tan_theta == 1.0
    assert fit_d(make_stats(1.0, 1.0, -0.5)).line.theta == -math.pi / 4
    assert compare(make_stats(1.0, 1.0, -0.5)).tan_theta == -1.0


def test_trig_isotropic_raises():
    with pytest.raises(ValueError):
        trig_from_case(OrthogonalCase("Isotropic"))
    # the library never asks for an isotropic angle: it reports the family
    s = make_stats(0.5, 0.5, 0.0)
    assert isinstance(fit_d(s), AllLinesThroughCentroid)
    assert fit_d_report(s).normal_form is None
    assert compare(s).tan_theta == "all"


@st.composite
def unequal_variance_stats(draw):
    var_x = 10.0 ** draw(st.floats(min_value=-8.0, max_value=8.0))
    var_y = 10.0 ** draw(st.floats(min_value=-8.0, max_value=8.0))
    rho = draw(st.floats(min_value=-1.0, max_value=1.0))
    return make_stats(var_x, var_y, rho * math.sqrt(var_x * var_y))


@given(unequal_variance_stats())
@settings(max_examples=500, deadline=None)
def test_fit_d_angle_matches_six_case_oracle(s):
    case = resolve_case(s)
    assume(case.tag in ("I", "II", "III", "IV"))
    fit = fit_d(s)
    assert fit.case == case
    _, _, theta = trig_from_case(case)
    # modulo pi: at theta = -pi/2 the fit holds the canonical +pi/2
    assert abs(math.remainder(fit.line.theta - theta, math.pi)) <= 4.5e-16


def arctan_theta(tag, e):
    if tag in ("I", "II"):
        return 0.5 * math.atan(e)
    if tag == "III":
        return 0.5 * math.atan(e) + math.pi / 2
    return 0.5 * math.atan(e) - math.pi / 2


def test_closed_form_trig_matches_arctan_route():
    rng = random.Random(99)
    for tag, sign in (("I", 1.0), ("II", -1.0), ("III", -1.0), ("IV", 1.0)):
        for _ in range(1000):
            e = sign * 10.0 ** rng.uniform(-8.0, 8.0)
            co, si, theta = trig_from_case(OrthogonalCase(tag, e))
            want = arctan_theta(tag, e)
            assert abs(co - math.cos(want)) < 1e-12
            assert abs(si - math.sin(want)) < 1e-12
            assert abs(theta - want) < 1e-12
            assert abs(co * co + si * si - 1.0) < 1e-14


def test_closed_form_tangent_expressions():
    # (-1 + sqrt(1+E^2))/E in the variance-dominant cases,
    # (-1 - sqrt(1+E^2))/E in the variance-deficient ones.  The first
    # expression cancels catastrophically as E -> 0, so the comparison is
    # restricted to moderate ratios where it is itself trustworthy.
    # Statistics with var_x - var_y = +-1 and cov = +-E/2 have ratio E; the
    # variances k + 1 and k (k a power of two) keep var_x*var_y >= cov^2.
    rng = random.Random(3)
    for _ in range(200):
        e = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 6.0)
        k = 2.0 ** math.ceil(math.log2(abs(e)) + 1)
        u, v = _major_axis(make_stats(k + 1.0, k, 0.5 * e))
        want = (-1.0 + math.hypot(1.0, e)) / e
        assert abs(v / u - want) <= 1e-10 * abs(want)
        u, v = _major_axis(make_stats(k, k + 1.0, -0.5 * e))
        want = (-1.0 - math.hypot(1.0, e)) / e
        assert abs(v / u - want) <= 1e-10 * abs(want)


def test_fitted_angle_satisfies_double_angle_relation():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        p = random_sample(rng)
        s = summarize(p)
        diff = s.var_x - s.var_y
        if abs(diff) < 1e-6 or abs(2.0 * s.cov_xy / diff) > 1e4:
            continue
        fit = fit_d(p)
        assert isinstance(fit, UniqueLine)
        lhs = math.tan(2.0 * fit.line.theta) * diff
        rhs = 2.0 * s.cov_xy
        assert abs(lhs - rhs) <= 1e-10 * (abs(rhs) + abs(diff))
        checked += 1


# --- perpendicular fit -----------------------------------------------------------

def test_fit_d_three_points():
    fit = fit_d(THREE_POINTS)
    assert isinstance(fit, UniqueLine)
    assert fit.case.tag == "I"
    assert abs(math.tan(fit.line.theta) - 0.53518) < 1e-5
    slope_intercept_b = fit.line.c / -math.cos(fit.line.theta)
    assert abs(slope_intercept_b - (-0.20185)) < 1e-5


def test_fit_d_circle_is_degenerate():
    fit = fit_d(gen_circle(n=4))
    assert isinstance(fit, AllLinesThroughCentroid)
    assert abs(fit.centroid.x) < 1e-12
    assert abs(fit.centroid.y) < 1e-12
    assert abs(fit.objective - 0.5) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 2.0, -0.25, 1.0, -1.0])
def test_fit_d_recovers_proportional_data(alpha):
    xs = (-2.0, -0.5, 1.0, 3.0)
    p = PairedSample.from_xy(xs, tuple(alpha * x for x in xs))
    fit = fit_d(p)
    assert isinstance(fit, UniqueLine)
    assert abs(math.tan(fit.line.theta) - alpha) < 1e-10
    assert abs(fit.line.c) < 1e-10


def test_fit_d_vertical_data():
    fit = fit_d(PairedSample.from_xy((0.0, 0.0, 0.0), (0.0, 1.0, 5.0)))
    assert isinstance(fit, UniqueLine)
    assert fit.line.theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert abs(fit.line.c) < 1e-15


def test_fit_d_centroid_formula_for_c():
    rng = random.Random(21)
    for _ in range(50):
        p = random_sample(rng)
        fit = fit_d(p)
        if not isinstance(fit, UniqueLine):
            continue
        s = summarize(p)
        want = s.mean_x * math.sin(fit.line.theta) - s.mean_y * math.cos(fit.line.theta)
        assert abs(fit.line.c - want) < 1e-12


# --- objectives -------------------------------------------------------------------

def test_objective_y_at_reference_minimum():
    # direct residual sum and the closed form must agree: both are 1/18
    val = objective_y(THREE_POINTS, 0.5, -1.0 / 6.0)
    assert abs(val - 1.0 / 18.0) < 1e-15
    assert abs(val - fit_y(THREE_POINTS).objective_min) < 1e-12


def test_objective_zero_on_collinear_data():
    xs = (0.0, 1.0, 2.0, 5.0)
    p = PairedSample.from_xy(xs, tuple(2.0 * x for x in xs))
    assert objective_y(p, 2.0, 0.0) == 0.0
    fit = fit_d(p)
    assert objective_d(p, fit.line.theta, fit.line.c) < 1e-28


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=20),
       st.one_of(st.just(0.0), st.floats(min_value=-1.6e9, max_value=1.6e9)),
       st.sampled_from([1.0, -1.0, 2.0, 0.5, -4.0]))
@example([0] * 5 + [8] + [0] * 7, 0.0, 1.0)
@settings(max_examples=300)
def test_exactly_collinear_data_has_zero_minima_and_gap(ts, offset, slope):
    # a power-of-two slope scales every offset from the centroid exactly, so
    # cov^2 = var_x*var_y holds in floating point and nothing is left over
    xs = [offset + t / 8 for t in ts]
    p = PairedSample.from_xy(xs, [slope * x for x in xs])
    assume(max(xs) > min(xs))
    for fit in (fit_y, fit_x, fit_d_report):
        assert fit(p).objective_min == 0.0
    assert compare(p).cs_gap == 0.0


def test_objective_y_strictly_larger_off_minimum():
    report = fit_y(THREE_POINTS)
    base = report.objective_min
    for delta in (-0.1, 0.1):
        assert objective_y(THREE_POINTS, report.line.m + delta, report.line.b) > base
        assert objective_y(THREE_POINTS, report.line.m, report.line.b + delta) > base


def test_objective_x_matches_direct_summation():
    rng = random.Random(17)
    p = random_sample(rng, 12)
    mu, beta = 0.8, -0.3
    direct = sum(
        (mu * y + beta - x) ** 2 for x, y in zip(p.xs, p.ys)
    ) / p.n
    assert abs(objective_x(p, mu, beta) - direct) <= 1e-12 * (direct + 1.0)


def test_objective_d_flat_on_circle():
    p = gen_circle(n=8)
    s = summarize(p)
    for theta in (0.0, math.pi / 6, math.pi / 3):
        c = s.mean_x * math.sin(theta) - s.mean_y * math.cos(theta)
        assert abs(objective_d(p, theta, c) - 0.5) < 1e-12


@pytest.mark.parametrize("theta, c", [(0.3, 0.7), (-2.0, 5.0), (0.0, 0.0)])
def test_objective_d_of_one_point_repeated_is_the_squared_miss(theta, c):
    # no spread: no minimum and no eigen-gap, only the miss at the point
    p = PairedSample.from_points([(1.5, -2.0)] * 3)
    miss = 1.5 * math.sin(theta) + 2.0 * math.cos(theta) - c
    assert objective_d(p, theta, c) == miss * miss


def test_degenerate_report_objective_is_mean_variance():
    report = fit_d_report(gen_circle(n=6))
    assert isinstance(report.line, AllLinesThroughCentroid)
    assert abs(report.objective_min - 0.5) < 1e-12


def test_fitted_objectives_beat_random_perturbations():
    rng = random.Random(42)
    p = random_sample(rng, 15)
    ry = fit_y(p)
    rx = fit_x(p)
    rd = fit_d_report(p)
    theta = rd.line.line.theta
    c = rd.line.line.c
    for _ in range(100):
        dm, db = rng.uniform(-1, 1), rng.uniform(-1, 1)
        assert ry.objective_min <= objective_y(p, ry.line.m + dm, ry.line.b + db) + 1e-12
        assert rx.objective_min <= objective_x(p, rx.line.mu + dm, rx.line.beta + db) + 1e-12
        assert rd.objective_min <= objective_d(p, theta + dm, c + db) + 1e-12


def test_objectives_take_the_summary_in_place_of_the_sample():
    p, s = THREE_POINTS, THREE_POINTS.summary
    assert objective_y(s, 0.3, -0.2) == objective_y(p, 0.3, -0.2)
    assert objective_x(s, 1.2, 0.4) == objective_x(p, 1.2, 0.4)
    assert objective_d(s, 0.7, 0.1) == objective_d(p, 0.7, 0.1)


def test_objective_y_on_vertical_data_is_the_y_spread_plus_the_miss():
    p = PairedSample.from_xy((4.0, 4.0, 4.0, 4.0), (0.0, 1.0, 2.0, 6.0))
    assert objective_y(p, 0.5, 1.0) == pytest.approx(loop_y(p, 0.5, 1.0), rel=1e-15)


def test_a_steep_turn_of_a_narrow_sample_stays_finite():
    # mu = 3.3e154, so (2*mu - mu)^2 overflows a double; the objective does not
    p = PairedSample.from_xy((0.0, 2e5), (0.0, 6e-150))
    mu, beta = fit_x(p).line
    want = loop_x(p, 2.0 * mu, beta)
    assert objective_x(p, 2.0 * mu, beta) == pytest.approx(want, rel=1e-12)


def test_objectives_of_overflowing_statistics_raise_as_the_fits_do():
    p = PairedSample.from_points([(1e200, 1.0), (2e200, 2.0), (3e200, 4.0)])
    for objective in (objective_y, objective_x, objective_d):
        with pytest.raises(InvalidSampleError, match="magnitude"):
            objective(p, 1.0, 0.0)


@st.composite
def far_scaled_samples(draw):
    """Near-collinear points at offsets up to 1.6e9, each axis scaled by 2^k, |k| <= 40.

    The unit values sit on a grid of 1/1000, so every statistic is a normal
    double: subnormal variances lose digits in every closed form (ROADMAP
    item 1), which this property does not measure.
    """
    n = draw(st.integers(min_value=2, max_value=20))
    unit = st.integers(min_value=-1000, max_value=1000).map(lambda i: i / 1000)
    offset = st.one_of(st.just(0.0), st.floats(min_value=-1.6e9, max_value=1.6e9))
    ts = draw(st.lists(unit, min_size=n, max_size=n))
    wiggle = draw(st.lists(unit, min_size=n, max_size=n))
    slope = 3.0 * draw(unit)
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    ox, oy = draw(offset), draw(offset)
    kx, ky = draw(st.integers(-40, 40)), draw(st.integers(-40, 40))
    return PairedSample.from_xy(
        [math.ldexp(ox + t, kx) for t in ts],
        [math.ldexp(oy + slope * t + noise * w, ky) for t, w in zip(ts, wiggle)],
    )


def fitted_objectives(p):
    """(objective, loop, parameters, objective_min) of each fit that exists."""
    fits = []
    for fit, objective, loop in ((fit_y, objective_y, loop_y), (fit_x, objective_x, loop_x)):
        try:
            report = fit(p)
        except (VerticalDataError, HorizontalDataError):
            continue
        fits.append((objective, loop, *report.line, report.objective_min))
    report = fit_d_report(p)
    if isinstance(report.line, UniqueLine):
        fits.append((objective_d, loop_d, *report.line.line, report.objective_min))
    return fits


@given(far_scaled_samples(), st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=300)
def test_closed_form_objectives_match_the_point_loop(p, turn, shift):
    s = p.summary
    xs, ys = max(map(abs, p.xs)), max(map(abs, p.ys))
    for objective, loop, a, c, minimum in fitted_objectives(p):
        # move the fitted line; size bounds the positions that each residual
        # is a difference of, and scale is the objective's spread terms
        if objective is objective_d:
            a, c = a + turn, c + shift * math.sqrt(s.var_x + s.var_y)
            size, scale = abs(c) + xs + ys, s.var_x + s.var_y
        elif objective is objective_y:
            a, c = a * (1.0 + turn), c + shift * math.sqrt(s.var_y)
            size, scale = abs(c) + abs(a) * xs + ys, s.var_y + a * a * s.var_x
        else:
            a, c = a * (1.0 + turn), c + shift * math.sqrt(s.var_x)
            size, scale = abs(c) + abs(a) * ys + xs, s.var_x + a * a * s.var_y
        got, want = objective(p, a, c), loop(p, a, c)
        # each residual is known to a few ulps of its positions; beyond that
        # the two agree relative to the scale
        k = 4.0 * sys.float_info.epsilon * size
        assert abs(got - want) <= 1e-9 * (scale + want) + 2.0 * k * math.sqrt(want) + k * k
        assert got >= minimum


@given(far_scaled_samples())
@example(PairedSample.from_xy((0.0, 2.0**-13, -(2.0**-13)), (0.0, -(2.0**40), 2.0**40)))
@settings(max_examples=300)
def test_objectives_at_the_fitted_line_are_their_minimum(p):
    # the example's major axis is at -pi/2, which the fitted line reads as pi/2
    s = p.summary
    for objective, _, a, c, minimum in fitted_objectives(p):
        if objective is objective_d:
            # c is formed from the major axis, the miss from sin and cos of theta
            miss = 4.0 * math.ulp(abs(s.mean_x) + abs(s.mean_y))
            assert minimum <= objective(p, a, c) <= minimum + miss * miss
        else:
            assert objective(p, a, c) == minimum


# --- cross-method invariants --------------------------------------------------------

def line_value_gap_at_centroid(p):
    s = summarize(p)
    gaps = []
    ry = fit_y(p)
    gaps.append(abs(ry.line.m * s.mean_x + ry.line.b - s.mean_y))
    rx = fit_x(p)
    gaps.append(abs(rx.line.mu * s.mean_y + rx.line.beta - s.mean_x))
    fd = fit_d(p)
    if isinstance(fd, UniqueLine):
        gaps.append(
            abs(
                s.mean_x * math.sin(fd.line.theta)
                - s.mean_y * math.cos(fd.line.theta)
                - fd.line.c
            )
        )
    return max(gaps)


def test_all_lines_pass_through_the_centroid():
    rng = random.Random(6)
    for _ in range(100):
        assert line_value_gap_at_centroid(random_sample(rng)) < 1e-10


def test_slope_signs_agree():
    rng = random.Random(8)
    for _ in range(200):
        p = random_sample(rng)
        s = summarize(p)
        if abs(s.cov_xy) < 1e-6:
            continue
        m = fit_y(p).line.m
        mu = fit_x(p).line.mu
        fd = fit_d(p)
        assert math.copysign(1, m) == math.copysign(1, 1.0 / mu)
        if isinstance(fd, UniqueLine):
            assert math.copysign(1, m) == math.copysign(1, math.tan(fd.line.theta))


def test_slope_ordering_with_bound():
    rng = random.Random(9)
    for _ in range(200):
        p = random_sample(rng)
        s = summarize(p)
        if abs(s.cov_xy) < 1e-9:
            continue
        m = abs(fit_y(p).line.m)
        m_x = abs(s.var_y / s.cov_xy)
        bound = math.sqrt(s.var_y / s.var_x)
        slack = 1e-12 * (bound + 1.0)
        assert m <= bound + slack <= m_x + 2 * slack


def test_slope_ordering_equality_iff_collinear():
    xs = tuple(0.37 * i - 1.0 for i in range(9))
    p = PairedSample.from_xy(xs, tuple(1.7 * x + 0.4 for x in xs))
    s = summarize(p)
    m = abs(fit_y(p).line.m)
    m_x = abs(s.var_y / s.cov_xy)
    bound = math.sqrt(s.var_y / s.var_x)
    assert abs(m - bound) < 1e-12
    assert abs(m_x - bound) < 1e-12
    assert fit_y(p).objective_min < 1e-12


def test_perpendicular_slope_lies_between_the_regression_slopes():
    rng = random.Random(10)
    for _ in range(300):
        p = random_sample(rng)
        s = summarize(p)
        if abs(s.cov_xy) < 1e-9:
            continue
        fd = fit_d(p)
        if not isinstance(fd, UniqueLine):
            continue
        m = abs(s.cov_xy / s.var_x)
        m_x = abs(s.var_y / s.cov_xy)
        t = abs(math.tan(fd.line.theta))
        slack = 1e-10 * (t + 1.0)
        assert m <= t + slack
        assert t <= m_x + slack


@pytest.mark.parametrize("alpha", [0.0, 0.1, -0.1, 1.0, -1.0, 10.0, -10.0])
def test_exact_recovery_all_methods(alpha):
    xs = tuple(float(i) for i in range(10))
    b = 0.7
    p = PairedSample.from_xy(xs, tuple(alpha * x + b for x in xs))
    ry = fit_y(p)
    assert abs(ry.line.m - alpha) < 1e-10
    assert abs(ry.line.b - b) < 1e-10
    if alpha != 0.0:
        rx = fit_x(p)
        assert abs(1.0 / rx.line.mu - alpha) < 1e-9 * (1.0 + alpha**2)
    fd = fit_d(p)
    assert isinstance(fd, UniqueLine)
    assert abs(math.tan(fd.line.theta) - alpha) < 1e-10 * (1.0 + alpha**2)


def test_two_points_are_interpolated_by_every_method():
    p = PairedSample.from_points([(1.0, 2.0), (4.0, -0.5)])
    slope = (-0.5 - 2.0) / (4.0 - 1.0)
    ry = fit_y(p)
    assert abs(ry.line.m - slope) < 1e-12
    assert ry.objective_min < 1e-15
    rx = fit_x(p)
    assert abs(1.0 / rx.line.mu - slope) < 1e-12
    fd = fit_d(p)
    assert isinstance(fd, UniqueLine)
    assert abs(math.tan(fd.line.theta) - slope) < 1e-12
    assert objective_d(p, fd.line.theta, fd.line.c) < 1e-15


def test_vertical_recovery_only_by_perpendicular_fit():
    p = PairedSample.from_xy((4.0, 4.0, 4.0, 4.0), (0.0, 1.0, 2.0, 6.0))
    with pytest.raises(VerticalDataError):
        fit_y(p)
    fd = fit_d(p)
    assert isinstance(fd, UniqueLine)
    assert fd.line.theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert abs(fd.line.c - 4.0) < 1e-10


@st.composite
def any_paired_sample(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    xs = draw(st.lists(coords, min_size=n, max_size=n))
    ys = draw(st.lists(coords, min_size=n, max_size=n))
    return PairedSample.from_xy(xs, ys)


@given(any_paired_sample())
@settings(max_examples=300)
def test_perpendicular_fit_is_total(p):
    # no solvability conditions: every valid sample gets an outcome, and the
    # centroid always sits on it
    fit = fit_d(p)
    s = summarize(p)
    scale = abs(s.mean_x) + abs(s.mean_y) + 1.0
    if isinstance(fit, UniqueLine):
        residual = (
            s.mean_x * math.sin(fit.line.theta)
            - s.mean_y * math.cos(fit.line.theta)
            - fit.line.c
        )
        assert abs(residual) <= 1e-9 * scale
    else:
        assert abs(fit.centroid.x - s.mean_x) <= 1e-12 * scale
        assert abs(fit.centroid.y - s.mean_y) <= 1e-12 * scale
        assert fit.objective >= 0.0


# --- exact verdicts at the edges of floating point ------------------------------------

@pytest.mark.parametrize(
    "a",
    [
        pytest.param(
            1e-300,
            marks=pytest.mark.xfail(
                strict=True,
                raises=VerticalDataError,
                reason="var_x = ulp(a)^2/4 underflows to 0: summarize does not rescale tiny data",
            ),
        ),
        1.0,
        1e9,
        1e150,
    ],
)
def test_one_ulp_of_spread_is_enough_to_fit(a):
    b = math.nextafter(a, math.inf)
    for ys in ((0.0, 1.0), (2.0, 0.0)):
        p = PairedSample.from_xy((a, b), ys)
        y_fit = fit_y(p)
        assert (y_fit.line.m > 0.0) == (ys[1] > ys[0])
        # at a = 1 the slope is about +-9e15 and arctan(m) rounds to +-pi/2;
        # the normal form still exists, folded into (-pi/2, pi/2]
        assert y_fit.normal_form == slope_to_normal(y_fit.line)
        assert -math.pi / 2 < y_fit.normal_form.theta <= math.pi / 2
        # and invariance_report records a status instead of raising
        assert invariance_report(p, Translation(0.0, 1.0), "Y").status
        assert compare(p).m is not None
        x_fit = fit_x(PairedSample.from_xy(ys, (a, b)))
        assert (x_fit.line.mu > 0.0) == (ys[1] > ys[0])
        assert x_fit.normal_form is not None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((8, 32, 128, 512)), st.floats(0.0, 2.0 * math.pi),
       st.floats(0.5, 3.0), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_circles_off_the_origin_read_isotropic(n, phase, radius, cx, cy):
    # lib-small's circles: rounding leaves them anisotropic by up to ~1e-15 of
    # var_x + var_y, which the zero rule has to absorb
    p = gen_circle(n=n, phase=phase, radius=radius, center=Point(cx, cy))
    assert isinstance(fit_d(p), AllLinesThroughCentroid)
    rep = compare(p)
    assert (rep.case_tag, rep.tan_theta) == (ISOTROPIC, TAN_THETA_ALL)


@pytest.mark.parametrize("k", [
    38,
    pytest.param(40, marks=pytest.mark.xfail(
        strict=True,
        reason="var_x - var_y is an exact 9.1e-13 of var_x + var_y, under the fixed "
               "1e-12 zero floor, so D returns the isotropic family",
    )),
])
def test_a_rectangle_a_hair_wider_than_tall_has_the_horizontal_d_line(k):
    s = 1.0 + 2.0**-k
    fit = fit_d(PairedSample.from_points([(0.0, 0.0), (s, 0.0), (0.0, 1.0), (s, 1.0)]))
    assert isinstance(fit, UniqueLine)
    assert (fit.line.theta, fit.case.tag) == (0.0, "I")


@pytest.mark.parametrize("a", [1e-300, 1.0, 1e9, 1e150])
def test_constant_coordinates_are_rejected(a):
    p = PairedSample.from_xy((a, a, a), (0.0, 1.0, 2.0))
    with pytest.raises(VerticalDataError):
        fit_y(p)
    assert compare(p).m is None
    with pytest.raises(HorizontalDataError):
        fit_x(PairedSample.from_xy((0.0, 1.0, 2.0), (a, a, a)))


@pytest.mark.parametrize(
    "xs",
    [
        (0.0, 1.0, 2.5, 7.0, -3.0),
        (-1e-3, 2e-3, 5e-3),
        tuple(1.6e9 + i for i in range(10)),
    ],
)
def test_y_equals_x_is_fitted_exactly(xs):
    p = PairedSample.from_xy(xs, xs)
    fit = fit_d(p)
    assert fit.line.c == 0.0
    assert fit.line.theta == math.pi / 4
    rep = compare(p)
    assert rep.tan_theta == 1.0
    assert rep.ordering_f == ORDERING_EQUALITY


@pytest.mark.parametrize("x", [0.0, 4.0, -1e9, 1.6e9])
def test_vertical_data_has_no_tangent(x):
    p = PairedSample.from_xy((x, x, x), (0.0, 1.0, 5.0))
    fit = fit_d(p)
    assert fit.line.theta == math.pi / 2
    assert fit.line.c == x
    assert compare(p).tan_theta is None


def test_normal_form_is_the_reported_line():
    rng = random.Random(12)
    samples = [random_sample(rng) for _ in range(40)]
    samples += [gen_circle(n=n, phase=0.3) for n in (3, 4, 9)]
    samples += [
        PairedSample.from_xy((2.0, 2.0, 2.0), (0.0, 1.0, 5.0)),
        PairedSample.from_xy((0.0, 1.0, 5.0), (2.0, 2.0, 2.0)),
        PairedSample.from_xy((0.0, 1.0, 2.0), (0.0, 1.0, 2.0)),
    ]
    families = 0
    for p in samples:
        for method, fit in (("Y", fit_y), ("X", fit_x), ("D", fit_d_report)):
            try:
                report = fit(p)
            except (VerticalDataError, HorizontalDataError):
                continue
            line, nf = report.line, report.normal_form
            if isinstance(line, AllLinesThroughCentroid):
                assert method == "D" and nf is None
                families += 1
                continue
            if method == "Y":
                want = slope_to_normal(line)
                on_line = [(x, line.m * x + line.b) for x in (-1.0, 1.0)]
            elif method == "X":
                want = inverse_slope_to_normal(line)
                on_line = [(line.mu * y + line.beta, y) for y in (-1.0, 1.0)]
            else:
                want = line.line
                on_line = [(q.x, q.y) for q in map(want.point_at, (-1.0, 1.0))]
            scale = 1.0 + abs(want.c)
            assert line_discrepancy(nf, want) <= 1e-15 * scale
            for x, y in on_line:
                residual = x * math.sin(nf.theta) - y * math.cos(nf.theta) - nf.c
                assert abs(residual) <= 1e-12 * (scale + abs(x) + abs(y))
    assert families == 3
