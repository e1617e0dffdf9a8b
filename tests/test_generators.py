import math
import random

import pytest

from linefit.errors import GenerationError
from linefit.fitters import AllLinesThroughCentroid, UniqueLine, fit_d, fit_x, fit_y
from linefit.generators import (
    gen_circle,
    gen_noisy_line,
    gen_slanted_ladder,
    gen_vertical_ladder,
)
from linefit.geometry import Point
from linefit.stats import summarize


def rung_variance(ts):
    n = len(ts)
    m = sum(ts) / n
    return sum((t - m) ** 2 for t in ts) / n


# --- vertical ladders -----------------------------------------------------------

def test_wide_rung_ladder_stats_and_fit():
    p = gen_vertical_ladder(1.0, (0.0, 2.0, -2.0))
    assert p.n == 6
    s = summarize(p)
    assert abs(s.var_x - 1.0) < 1e-12
    assert abs(s.var_y - 8.0 / 3.0) < 1e-12
    assert abs(s.cov_xy) < 1e-12
    # rungs spread more than the gap: the perpendicular fit draws x = 0
    fit = fit_d(p)
    assert isinstance(fit, UniqueLine)
    assert fit.line.theta == pytest.approx(math.pi / 2, rel=1e-12)
    assert abs(fit.line.c) < 1e-12


def test_narrow_rung_ladder_fit_is_horizontal():
    p = gen_vertical_ladder(10.0, (0.0, 0.1, -0.1))
    fit = fit_d(p)
    assert isinstance(fit, UniqueLine)
    assert fit.line.theta == pytest.approx(0.0, abs=1e-12)
    # line y = mean rung height = 0
    assert abs(fit.line.c) < 1e-12


def test_vertical_ladder_y_and_x_fits_ignore_the_rung_spread():
    for rungs in ((0.0, 2.0, -2.0), (0.0, 0.1, -0.1)):
        p = gen_vertical_ladder(3.0, rungs)
        ry = fit_y(p)
        assert abs(ry.line.m) < 1e-12  # always the horizontal mean line
        rx = fit_x(p)
        assert abs(rx.line.mu) < 1e-12  # always the vertical mid-line
        assert abs(rx.line.beta) < 1e-12


def test_vertical_ladder_requires_spread_and_gap():
    with pytest.raises(GenerationError):
        gen_vertical_ladder(0.0, (0.0, 1.0))
    with pytest.raises(GenerationError):
        gen_vertical_ladder(1.0, (2.0, 2.0, 2.0))


@pytest.mark.parametrize("rungs", [(), (1.0,), [3]])
def test_ladders_need_two_rungs(rungs):
    # max(()) would otherwise end in a traceback
    message = f"^a ladder needs at least 2 rungs, got {len(rungs)}$"
    with pytest.raises(GenerationError, match=message):
        gen_vertical_ladder(1.0, rungs)
    with pytest.raises(GenerationError, match=message):
        gen_slanted_ladder(2.0, 40.0, rungs)


def test_ladders_take_any_sequence_of_numbers():
    want = gen_vertical_ladder(1.0, (0.0, 2.0, -2.0))
    assert gen_vertical_ladder(1, [0, 2, -2]) == want
    assert gen_vertical_ladder(1.0, range(3)) == gen_vertical_ladder(1.0, (0.0, 1.0, 2.0))
    assert gen_slanted_ladder(2, 40, range(3)) == gen_slanted_ladder(2.0, 40.0, (0.0, 1.0, 2.0))


# --- slanted ladders ---------------------------------------------------------------

def test_flat_ladder_vertical_fit_is_the_mid_line():
    p = gen_slanted_ladder(0.0, 5.0, (-3.0, 0.0, 4.0))
    report = fit_y(p)
    assert abs(report.line.m) < 1e-12
    assert abs(report.line.b) < 1e-12


def test_slanted_ladder_stats_match_closed_forms():
    rng = random.Random(2)
    for _ in range(20):
        m = rng.uniform(-3.0, 3.0)
        b = rng.uniform(0.5, 20.0)
        ts = tuple(rng.uniform(-10.0, 10.0) for _ in range(rng.randint(2, 12)))
        p = gen_slanted_ladder(m, b, ts)
        s = summarize(p)
        vt = rung_variance(ts)
        tbar = sum(ts) / len(ts)
        den = m * m + 1.0
        w = b * b / den**2
        # means to the position scale, second moments to the total variance
        spread = s.var_x + s.var_y
        where = abs(s.mean_x) + abs(s.mean_y) + math.sqrt(spread)
        assert abs(s.mean_x - (tbar + m * b / den)) <= 1e-12 * where
        assert abs(s.mean_y - (m * tbar + m * m * b / den)) <= 1e-12 * where
        assert abs(s.var_x - (vt + m * m * w)) <= 1e-12 * spread
        assert abs(s.var_y - (m * m * vt + w)) <= 1e-12 * spread
        assert abs(s.cov_xy - m * (vt - w)) <= 1e-12 * spread


def test_ladder_pairs_are_perpendicular_to_the_lines():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.uniform(-4.0, 4.0)
        b = rng.uniform(0.5, 10.0)
        ts = tuple(rng.uniform(-5.0, 5.0) for _ in range(6))
        p = gen_slanted_ladder(m, b, ts)
        pts = p.points()
        n = len(ts)
        for i in range(n):
            (x0, y0), (x1, y1) = pts[i], pts[n + i]
            dot = (x1 - x0) * 1.0 + (y1 - y0) * m
            assert abs(dot) < 1e-12 * (abs(m) + b + 1.0)


def test_spread_out_slanted_ladder_fit_has_the_ladder_slope():
    ts = tuple(float(t) for t in range(-30, 31, 3))
    p = gen_slanted_ladder(2.0, 40.0, ts)
    fit = fit_d(p)
    assert isinstance(fit, UniqueLine)
    assert abs(math.tan(fit.line.theta) - 2.0) < 1e-9


def test_clustered_slanted_ladder_fit_is_perpendicular_to_the_ladder():
    # rung spread far below offset^2/(slope^2+1)^2: the data look like two
    # clusters, so the fitted line runs through them, across the ladder
    ts = (0.0, 0.2, -0.2, 0.1)
    p = gen_slanted_ladder(2.0, 40.0, ts)
    fit = fit_d(p)
    assert isinstance(fit, UniqueLine)
    assert abs(math.tan(fit.line.theta) - (-0.5)) < 1e-9


def test_slanted_ladder_rejects_an_offset_lost_to_rounding():
    for slope, offset, ts in ((1.0, 1e-20, (-3.0, 0.5, 7.0)), (1.0, 1.0, (8e307, -8e307))):
        with pytest.raises(GenerationError, match=f"offset {offset!r} is lost"):
            gen_slanted_ladder(slope, offset, ts)
    with pytest.raises(GenerationError, match="offset must be positive"):
        gen_slanted_ladder(1.0, 0.0, (0.0, 1.0))
    with pytest.raises(GenerationError, match="slope must be finite"):
        gen_slanted_ladder(math.inf, 1.0, (0.0, 1.0))


# --- circles -------------------------------------------------------------------------

def test_four_circle_points_land_on_the_axes():
    p = gen_circle(n=4)
    expected = [(0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)]
    for (gx, gy), (wx, wy) in zip(p.points(), expected):
        assert abs(gx - wx) < 1e-12
        assert abs(gy - wy) < 1e-12


def test_circle_statistics_for_every_size_and_phase():
    rng = random.Random(4)
    for n in range(3, 31):
        for _ in range(10):
            s = summarize(gen_circle(n=n, phase=rng.uniform(0.0, 2 * math.pi)))
            assert abs(s.mean_x) < 1e-12
            assert abs(s.mean_y) < 1e-12
            assert abs(s.var_x - 0.5) < 1e-12
            assert abs(s.var_y - 0.5) < 1e-12
            assert abs(s.cov_xy) < 1e-12


def test_seven_point_circle_stats():
    s = summarize(gen_circle(n=7))
    assert abs(s.var_x - 0.5) < 1e-12
    assert abs(s.var_y - 0.5) < 1e-12
    assert abs(s.cov_xy) < 1e-12


def test_all_fits_degrade_on_circles():
    for n in (3, 8, 13):
        p = gen_circle(n=n, phase=0.456)
        ry = fit_y(p)
        assert abs(ry.line.m) < 1e-10 and abs(ry.line.b) < 1e-10
        rx = fit_x(p)
        assert abs(rx.line.mu) < 1e-10 and abs(rx.line.beta) < 1e-10
        fd = fit_d(p)
        assert isinstance(fd, AllLinesThroughCentroid)


def test_scaled_and_shifted_circle():
    s = summarize(gen_circle(n=12, radius=3.0, center=Point(5.0, -2.0)))
    assert abs(s.mean_x - 5.0) < 1e-12
    assert abs(s.mean_y - (-2.0)) < 1e-12
    assert abs(s.var_x - 4.5) < 1e-11  # radius^2 / 2
    assert abs(s.var_y - 4.5) < 1e-11


def test_circle_rejects_small_n():
    with pytest.raises(GenerationError):
        gen_circle(n=2)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_circle_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(GenerationError, match=f"^radius must be positive, got {radius!r}$"):
        gen_circle(5, radius=radius)


# --- noisy lines ------------------------------------------------------------------------

def test_noisy_line_is_deterministic_per_seed():
    first = gen_noisy_line(slope=1.5, intercept=-0.5, n=20, seed=77)
    assert gen_noisy_line(slope=1.5, intercept=-0.5, n=20, seed=77).points() == first.points()
    other = gen_noisy_line(slope=1.5, intercept=-0.5, n=20, seed=78)
    assert other.points() != first.points()


def test_noisy_line_perturbations_are_bounded():
    p = gen_noisy_line(slope=-2.0, intercept=3.0, n=50, seed=5, noise=0.25)
    for x, y in p.points():
        assert abs(y - (-2.0 * x + 3.0)) <= 0.25
        assert -10.0 <= x <= 10.0


def test_noisy_line_rejects_bad_specs():
    with pytest.raises(GenerationError):
        gen_noisy_line(slope=1.0, intercept=0.0, n=1, seed=0)
    with pytest.raises(GenerationError):
        gen_noisy_line(slope=1.0, intercept=0.0, n=5, seed=0, noise=-0.1)
    with pytest.raises(GenerationError):
        gen_noisy_line(slope=1.0, intercept=0.0, n=5, seed=0, x_span=(3.0, 3.0))
