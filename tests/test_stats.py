import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linefit.errors import InvalidSampleError, SampleMismatchError
from linefit.stats import PairedSample, Sample, covariance, mean, summarize, variance


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

def test_sample_rejects_short_input():
    with pytest.raises(InvalidSampleError):
        Sample((1.0,))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_sample_rejects_non_finite(bad):
    with pytest.raises(InvalidSampleError, match="index 1"):
        Sample((1.0, bad))


def test_paired_sample_rejects_length_mismatch():
    with pytest.raises(SampleMismatchError):
        PairedSample(Sample((1.0, 2.0)), Sample((1.0, 2.0, 3.0)))


# --- mean -------------------------------------------------------------------

def test_mean_of_unit_spike():
    assert mean(Sample((1.0, 0.0, 0.0))) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_mean_of_constant_sample():
    assert mean(Sample((7.25,) * 9)) == 7.25


def test_mean_matches_sequential_oracle():
    rng = random.Random(20)
    values = [rng.uniform(-1.0, 1.0) for _ in range(20)]
    got = mean(Sample(tuple(values)))
    want = sequential_mean(values)
    assert abs(got - want) <= 1e-14 * abs(want)


# --- variance ----------------------------------------------------------------

def test_variance_of_unit_spike():
    # 1/3 mean, 1/3 mean square: 1/3 - 1/9 = 2/9
    assert variance(Sample((1.0, 0.0, 0.0))) == pytest.approx(2.0 / 9.0, rel=1e-15)


def test_variance_of_constant_sample_is_exactly_zero():
    for k in (0.1, 1.0 / 3.0, 0.7, 12345.678):
        for n in (2, 3, 7, 50):
            assert variance(Sample((k,) * n)) == 0.0


def test_variance_matches_pairwise_difference_oracle():
    rng = random.Random(7)
    values = [rng.uniform(-10.0, 10.0) for _ in range(10)]
    got = variance(Sample(tuple(values)))
    want = pairwise_variance(values)
    assert abs(got - want) <= 1e-12 * want


# --- covariance ---------------------------------------------------------------

def test_covariance_of_spikes():
    p = PairedSample.from_xy((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert covariance(p) == pytest.approx(-1.0 / 9.0, rel=1e-15)


def test_covariance_against_constant_y_is_exactly_zero():
    p = PairedSample.from_xy((1.0, -3.0, 8.5), (4.2, 4.2, 4.2))
    assert covariance(p) == 0.0


def test_covariance_matches_pairwise_product_oracle():
    rng = random.Random(13)
    xs = [rng.uniform(-5.0, 5.0) for _ in range(8)]
    ys = [rng.uniform(-5.0, 5.0) for _ in range(8)]
    got = covariance(PairedSample.from_xy(xs, ys))
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
    assert s.mean_xx == pytest.approx(5.0 / 3.0, rel=1e-15)


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
    assert s.mean_xy == 0.0
    assert s.cov_xy == 0.0
    assert s.var_x * s.var_y == 0.0
    assert math.isfinite(s.mean_xx) and math.isfinite(s.mean_yy)


@given(paired_samples())
def test_summarize_agrees_with_individual_functions(p):
    s = summarize(p)
    assert s.mean_x == mean(p.xs)
    assert s.mean_y == mean(p.ys)
    assert s.var_x == variance(p.xs)
    assert s.var_y == variance(p.ys)
    assert s.cov_xy == covariance(p)


# --- invariants ------------------------------------------------------------------

@given(st.lists(finite_coords, min_size=2, max_size=30))
def test_variance_nonnegative_and_zero_iff_constant(values):
    s = Sample(tuple(values))
    v = variance(s)
    assert v >= 0.0
    if max(values) == min(values):
        assert v == 0.0
    elif max(values) - min(values) > 1e-6:
        assert v > 0.0


@given(paired_samples())
@settings(max_examples=200)
def test_covariance_three_ways(p):
    xs, ys = p.xs.values, p.ys.values
    definition = covariance(p)
    centered = centered_covariance(xs, ys)
    pairwise = pairwise_covariance(xs, ys)
    scale = math.sqrt(variance(p.xs) * variance(p.ys)) + 1.0
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
            (x + u for x in p.xs.values), (y + v for y in p.ys.values)
        )
    )
    # tolerance is relative to the second-moment scale the subtraction works at
    scale = s.mean_xx + t.mean_xx + s.mean_yy + t.mean_yy + 1.0
    assert abs(s.var_x - t.var_x) <= 1e-12 * scale
    assert abs(s.var_y - t.var_y) <= 1e-12 * scale
    assert abs(s.cov_xy - t.cov_xy) <= 1e-12 * scale
