import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefit.diagnostics import compare
from linefit.errors import InvalidSampleError, SampleMismatchError
from linefit.fitters import UniqueLine, fit_d_report, fit_x, fit_y
from linefit.geometry import inverse_slope_to_normal, slope_to_normal
from linefit.stats import (
    PairedSample,
    SummaryStats,
    mean,
    summarize,
)
from linefit.transforms import (
    Rotation,
    Translation,
    invariance_report,
    line_discrepancy,
    transform_line,
)


# --- independent oracles: quadratic pairwise-difference forms -------------

def pairwise_variance(values):
    n = len(values)
    return sum(
        (values[i] - values[j]) ** 2 for i in range(n) for j in range(i + 1, n)
    ) / n**2


def pairwise_covariance(xs, ys):
    n = len(xs)
    return sum(
        (xs[i] - xs[j]) * (ys[i] - ys[j])
        for i in range(n)
        for j in range(i + 1, n)
    ) / n**2


def centered_covariance(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / n


def two_pass_moments(xs, ys):
    """(var_x, var_y, cov_xy) about the fsum mean, with the corrected
    two-pass term removing the rounding of that mean."""
    n = len(xs)

    def deviations(values):
        if min(values) == max(values):
            return [0.0] * n  # a constant coordinate has no spread at all
        m = math.fsum(values) / n
        return [v - m for v in values]

    dx, dy = deviations(xs), deviations(ys)
    rx, ry = math.fsum(dx) / n, math.fsum(dy) / n
    return (
        math.fsum(d * d for d in dx) / n - rx * rx,
        math.fsum(d * d for d in dy) / n - ry * ry,
        math.fsum(a * b for a, b in zip(dx, dy)) / n - rx * ry,
    )


def lone_variance(values):
    """The var_x of a lone column, paired with zeros as the y."""
    return summarize(PairedSample(values, (0.0,) * len(values))).var_x


def sequential_mean(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


finite_coords = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def paired_samples(draw, min_size=2, max_size=30):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    xs = draw(st.lists(finite_coords, min_size=n, max_size=n))
    ys = draw(st.lists(finite_coords, min_size=n, max_size=n))
    return PairedSample.from_xy(xs, ys)


# --- construction ----------------------------------------------------------

BUILDERS = {
    "new": PairedSample,
    "from_xy": PairedSample.from_xy,
    "from_points": lambda xs, ys: PairedSample.from_points(zip(xs, ys)),
}


def test_sample_rejects_short_input():
    for build in BUILDERS.values():
        for xs, ys in (((1.0,), (1.0,)), ((), ())):
            with pytest.raises(InvalidSampleError,
                               match=f"^a sample needs at least 2 values, got {len(xs)}$"):
                build(xs, ys)
    # each column is checked on its own, before the lengths are compared
    with pytest.raises(InvalidSampleError, match="^a sample needs at least 2 values, got 1$"):
        PairedSample((1.0, 2.0), (1.0,))
    with pytest.raises(InvalidSampleError, match="^a sample needs at least 2 values, got 1$"):
        PairedSample.from_xy((1.0,), (1.0, 2.0, 3.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_sample_rejects_non_finite(bad):
    message = f"^sample value at index 1 is not finite: {bad!r}$"
    for build in BUILDERS.values():
        with pytest.raises(InvalidSampleError, match=message):
            build((1.0, bad, 2.0), (0.0, 1.0, 2.0))
        with pytest.raises(InvalidSampleError, match=message):
            build((0.0, 1.0, 2.0), (1.0, bad, 2.0))
    # the x column is checked first
    with pytest.raises(InvalidSampleError, match="index 2"):
        PairedSample((1.0, 2.0, bad), (bad, 1.0, 2.0))


def test_paired_sample_rejects_length_mismatch():
    message = "^x and y samples differ in length: 2 vs 3$"
    with pytest.raises(SampleMismatchError, match=message):
        PairedSample((1.0, 2.0), (1.0, 2.0, 3.0))
    with pytest.raises(SampleMismatchError, match=message):
        PairedSample.from_xy([1.0, 2.0], (y for y in (1.0, 2.0, 3.0)))
    # a non-finite value is reported before the mismatch
    with pytest.raises(InvalidSampleError, match="index 0"):
        PairedSample.from_xy((math.nan, 2.0), (1.0, 2.0, 3.0))


def test_every_builder_stores_int_input_as_float_tuples():
    for build in BUILDERS.values():
        p = build([0, 1, 2], range(3, 6))
        assert p == ((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)) and p.n == 3
        assert all(type(v) is float for v in p.xs + p.ys)
        assert type(p.xs) is tuple and type(p.ys) is tuple


# --- mean -------------------------------------------------------------------

def test_mean_of_unit_spike():
    assert mean((1.0, 0.0, 0.0)) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_mean_of_constant_sample():
    for k in (7.25, 0.1, 0.7, 123.456):
        for n in (3, 5, 9, 10):
            assert mean((k,) * n) == k


def test_mean_of_mixed_ints_and_floats():
    # int.__eq__(float) is NotImplemented, which is truthy: no constant here
    assert mean((1, 2.0)) == 1.5
    assert mean([2, 2.0, 2]) == 2.0 and type(mean([2, 2])) is float


def test_mean_matches_sequential_oracle():
    rng = random.Random(20)
    values = [rng.uniform(-1.0, 1.0) for _ in range(20)]
    got = mean(values)
    want = sequential_mean(values)
    assert abs(got - want) <= 1e-14 * abs(want)


# --- variance ----------------------------------------------------------------

def test_variance_of_unit_spike():
    # 1/3 mean, 1/3 mean square: 1/3 - 1/9 = 2/9
    assert lone_variance((1.0, 0.0, 0.0)) == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_variance_of_constant_sample_is_exactly_zero():
    for k in (0.1, 1.0 / 3.0, 0.7, 12345.678):
        for n in (2, 3, 7, 50):
            assert lone_variance((k,) * n) == 0.0


def test_variance_matches_pairwise_difference_oracle():
    rng = random.Random(7)
    values = [rng.uniform(-10.0, 10.0) for _ in range(10)]
    got = lone_variance(values)
    want = pairwise_variance(values)
    assert abs(got - want) <= 1e-12 * want


# --- covariance ---------------------------------------------------------------

def test_covariance_of_spikes():
    p = PairedSample.from_xy((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert summarize(p).cov_xy == pytest.approx(-1.0 / 9.0, rel=1e-15)


def test_covariance_against_constant_y_is_exactly_zero():
    p = PairedSample.from_xy((1.0, -3.0, 8.5), (4.2, 4.2, 4.2))
    assert summarize(p).cov_xy == 0.0


def test_covariance_matches_pairwise_product_oracle():
    rng = random.Random(13)
    xs = [rng.uniform(-5.0, 5.0) for _ in range(8)]
    ys = [rng.uniform(-5.0, 5.0) for _ in range(8)]
    got = summarize(PairedSample.from_xy(xs, ys)).cov_xy
    want = pairwise_covariance(xs, ys)
    assert abs(got - want) <= 1e-12 * (abs(want) + 1.0)


# --- summarize -----------------------------------------------------------------

def test_summarize_reference_three_points():
    s = summarize(PairedSample.from_points([(0, 0), (1, 0), (2, 1)]))
    assert s.mean_x == pytest.approx(1.0, abs=1e-15)
    assert s.var_x == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert s.mean_y == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert s.var_y == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert s.cov_xy == pytest.approx(1.0 / 3.0, rel=1e-15)
    # the raw second moment mean(x^2) = 5/3 follows from the central fields
    assert s.var_x + s.mean_x**2 == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_summarize_quarter_turn_of_reference_points():
    s = summarize(PairedSample.from_points([(0, 0), (0, 1), (-1, 2)]))
    assert s.var_x == pytest.approx(2.0 / 9.0, rel=1e-15)
    assert s.var_y == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert s.cov_xy == pytest.approx(-1.0 / 3.0, rel=1e-15)


def test_summarize_of_repeated_point_is_all_zero():
    s = summarize(PairedSample.from_points([(2.5, -1.5)] * 6))
    assert s.var_x == 0.0
    assert s.var_y == 0.0
    assert s.cov_xy == 0.0


@pytest.mark.parametrize("points", [
    [(1e200, 1.0), (2e200, 2.0), (3e200, 4.0)],  # x*x overflows
    [(1e155, 1e155), (1e156, 2e156), (1e160, 3e155)],  # the sums overflow
    [(1e150, 1e150), (2e150, 3e150), (3e150, 2e150)],  # var_x * var_y would
])
def test_summarize_rejects_overflowing_magnitudes(points):
    with pytest.raises(InvalidSampleError, match="magnitude"):
        summarize(PairedSample.from_points(points))


@pytest.mark.parametrize("points", [
    [(1e150, 1e5), (-1e150, 1e5), (0.0, 1e5)],  # far x, constant y
    [(1e5, 1e150), (1e5, -1e150), (1e5, 0.0)],  # constant x, far y
])
def test_summarize_accepts_large_magnitudes_with_finite_products(points):
    s = summarize(PairedSample.from_points(points))
    assert s.cov_xy == 0.0
    assert s.var_x * s.var_y == 0.0
    assert max(s.var_x, s.var_y) == pytest.approx(2e300 / 3.0, rel=1e-15)


@pytest.mark.parametrize("xs", [
    [1e308, 1e308],
    [1.5e308, 1e308, 1.7e308, -1e300],
    [1e308] * 5 + [5e-324],
])
def test_centroid_of_coordinates_whose_sum_overflows(xs):
    p = PairedSample.from_xy(xs, [1.0] * len(xs))
    mean_x, mean_y = p.centroid()
    exact = float(sum(map(Fraction, xs)) / len(xs))
    assert abs(mean_x - exact) <= math.ulp(exact)
    assert mean_y == 1.0


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1.0, 1e150])
def test_summary_rejects_a_covariance_past_cauchy_schwarz_at_any_scale(scale):
    # cov^2 = var_x*var_y*(1 + 2e-10); at 1e-200 that product would underflow
    def stats(cov):
        return SummaryStats(n=3, mean_x=0.0, mean_y=0.0, var_x=scale,
                            var_y=4.0 * scale, cov_xy=cov)
    with pytest.raises(ValueError, match="inconsistent"):
        stats(2.0 * scale * (1.0 + 1e-10))
    with pytest.raises(ValueError, match="inconsistent"):
        stats(-2.0 * scale * (1.0 + 1e-10))
    assert stats(-2.0 * scale).cov_xy == -2.0 * scale  # collinear is fine


def test_a_one_ulp_step_at_1e155_fits():
    # x steps by one ulp of 1e155: the central moments (~1e279) fit in a
    # double where the raw ones (~1e310) would overflow
    off = 1e155
    u = math.ulp(off)
    p = PairedSample.from_points(
        [(off + i * u, 2 * i + (0.25 if i % 2 else -0.25)) for i in range(10)]
    )
    s = summarize(p)
    assert s.var_x == pytest.approx(8.25 * u * u, rel=1e-12)
    assert s.cov_xy == pytest.approx(16.625 * u, rel=1e-12)
    assert fit_y(p).line.m == pytest.approx(16.625 / 8.25 / u, rel=1e-12)


def test_lone_sample_views_accept_a_variance_whose_square_overflows():
    s = (1e100, -1e100)
    assert mean(s) == 0.0
    assert lone_variance(s) == pytest.approx(1e200, rel=1e-15)


@given(paired_samples())
def test_summarize_agrees_with_individual_functions(p):
    s = summarize(p)
    assert s.mean_x == mean(p.xs)
    assert s.mean_y == mean(p.ys)
    assert s.var_x == lone_variance(p.xs)
    assert s.var_y == lone_variance(p.ys)


def ten_points(off):
    # var_x = 8.25, var_y = 33.5625 and cov = 16.625 exactly, at every offset
    return PairedSample.from_points(
        [(off + i, off + 2 * i + (0.25 if i % 2 else -0.25)) for i in range(10)]
    )


@pytest.mark.parametrize("off", [0.0, 1e8, 3e8, 1e9, 1e10, 1e12])
def test_far_offset_gives_the_statistics_and_lines_of_the_origin(off):
    near, far = ten_points(0.0), ten_points(off)
    s = summarize(far)
    assert abs(s.var_x - 8.25) <= 1e-12 * 8.25
    assert abs(s.cov_xy - 16.625) <= 1e-12 * 8.25
    assert abs(s.var_y - summarize(near).var_y) <= 1e-12 * 8.25
    # each line must be the origin's line moved by (off, off); its offset c
    # is a position, so it is known to a few ulps of off
    move = Translation(off, off)
    c_tol = 1e-12 + 8 * sys.float_info.epsilon * off
    for fit, to_normal in ((fit_y, slope_to_normal), (fit_x, inverse_slope_to_normal)):
        got, want = fit(far), fit(near)
        expected = transform_line(to_normal(want.line), move)
        assert line_discrepancy(to_normal(got.line), expected) <= c_tol
        assert abs(got.objective_min - want.objective_min) <= 1e-12 * 8.25
    d_far, d_near = fit_d_report(far), fit_d_report(near)
    assert isinstance(d_far.line, UniqueLine)
    assert d_far.line.case.tag == d_near.line.case.tag
    expected = transform_line(d_near.line.line, move)
    assert line_discrepancy(d_far.line.line, expected) <= c_tol
    assert abs(d_far.objective_min - d_near.objective_min) <= 1e-12 * 8.25


@st.composite
def far_paired_samples(draw):
    """Points in [-1, 1]^2 moved by up to 1e12 times their spread per axis."""
    n = draw(st.integers(min_value=2, max_value=30))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    coords = []
    for _ in range(2):
        values = draw(st.lists(unit, min_size=n, max_size=n))
        spread = max(values) - min(values)
        k = draw(st.one_of(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            st.integers(min_value=-12, max_value=12).map(
                lambda e: math.copysign(10.0 ** abs(e), e)
            ),
        ))
        coords.append([v + k * spread for v in values])
    return PairedSample.from_xy(*coords)


@given(far_paired_samples())
@settings(max_examples=300)
def test_summarize_matches_a_two_pass_oracle_far_from_the_origin(p):
    s = summarize(p)
    var_x, var_y, cov_xy = two_pass_moments(p.xs, p.ys)
    tol = 1e-12 * (var_x + var_y)
    assert abs(s.var_x - var_x) <= tol
    assert abs(s.var_y - var_y) <= tol
    assert abs(s.cov_xy - cov_xy) <= tol


# --- the cached summary ------------------------------------------------------------

def test_cached_summary_is_summarize():
    p = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])
    assert p.summary == summarize(p)
    assert p.summary is p.summary


def test_cached_summary_leaves_equality_hash_and_copies_alone():
    pts = [(0.5, 1.0), (1.5, -2.0), (4.0, 3.25)]
    p, q = PairedSample.from_points(pts), PairedSample.from_points(pts)
    fields = q._asdict()
    assert p.summary == summarize(q)
    assert p == q and hash(p) == hash(q)
    assert p._asdict() == fields
    assert PairedSample(**p._asdict()) == q
    moved = PairedSample(p.xs, (0.0, 1.0, 2.0))
    assert moved.summary == summarize(moved) != p.summary
    back = pickle.loads(pickle.dumps(p))
    assert back == p and hash(back) == hash(p)
    assert back.summary == p.summary


def test_one_sample_is_summarized_once_across_fits(summarize_calls):
    p = PairedSample.from_points([(0, 0), (1, 0), (2, 1), (3, 3)])
    fit_y(p), fit_x(p), fit_d_report(p), compare(p)
    for method in "YXD":
        invariance_report(p, Rotation(0.3), method)
    assert sum(c is p for c in summarize_calls) == 1
    assert len(summarize_calls) == 1  # invariance_report moves the summary, not the points


# --- invariants ------------------------------------------------------------------

@given(st.lists(finite_coords, min_size=2, max_size=30))
def test_variance_nonnegative_and_zero_iff_constant(values):
    v = lone_variance(values)
    assert v >= 0.0
    if max(values) == min(values):
        assert v == 0.0
    elif max(values) - min(values) > 1e-6:
        assert v > 0.0


@given(paired_samples())
@settings(max_examples=200)
def test_covariance_three_ways(p):
    xs, ys = p.xs, p.ys
    definition = summarize(p).cov_xy
    centered = centered_covariance(xs, ys)
    pairwise = pairwise_covariance(xs, ys)
    scale = math.sqrt(lone_variance(p.xs) * lone_variance(p.ys)) + 1.0
    assert abs(definition - centered) <= 1e-12 * (abs(centered) + scale)
    assert abs(definition - pairwise) <= 1e-12 * (abs(pairwise) + scale)


@given(paired_samples())
def test_cauchy_schwarz_gap(p):
    s = summarize(p)
    assert s.var_x * s.var_y - s.cov_xy**2 >= -1e-12 * (s.var_x * s.var_y + 1.0)


def test_cauchy_schwarz_equality_on_a_line():
    xs = [0.1 * i for i in range(12)]
    ys = [2.0 * x - 0.7 for x in xs]
    s = summarize(PairedSample.from_xy(xs, ys))
    gap = s.var_x * s.var_y - s.cov_xy**2
    assert abs(gap) <= 1e-12 * (s.var_x * s.var_y + 1.0)


@given(
    paired_samples(),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=200)
def test_translation_leaves_spread_fields_unchanged(p, u, v):
    s = summarize(p)
    t = summarize(
        PairedSample.from_xy(
            (x + u for x in p.xs), (y + v for y in p.ys)
        )
    )
    # moving a coordinate rounds it by up to half an ulp of |x| + |u|, which
    # moves a standard deviation by as much; beyond that, the spread fields
    # may differ only relative to the variances
    dx = sys.float_info.epsilon * (100.0 + abs(u))
    dy = sys.float_info.epsilon * (100.0 + abs(v))
    sx, sy = math.sqrt(s.var_x), math.sqrt(s.var_y)
    rel = 1e-12 * (s.var_x + s.var_y)
    assert abs(s.var_x - t.var_x) <= rel + dx * (2.0 * sx + dx)
    assert abs(s.var_y - t.var_y) <= rel + dy * (2.0 * sy + dy)
    assert abs(s.cov_xy - t.cov_xy) <= rel + sx * dy + sy * dx + dx * dy
