import math
import random

import pytest
from grid_oracle import DEFAULT_GRID, PLANAR_GRID, GridSpec, grid_min_d, grid_min_x, grid_min_y
from objective_oracle import loop_d

from linefit.fitters import fit_d_report, fit_x, fit_y
from linefit.generators import gen_circle
from linefit.stats import PairedSample, summarize

THREE_POINTS = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])


def angle_gap(a, b):
    return abs(math.remainder(a - b, math.pi))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(coarse_steps=50)
    with pytest.raises(ValueError):
        GridSpec(refinement_rounds=2)
    with pytest.raises(ValueError):
        GridSpec(shrink_factor=1.5)


def test_angle_search_on_reference_points():
    theta, c, objective = grid_min_d(THREE_POINTS)
    assert angle_gap(theta, 0.5 * math.atan(1.5)) < 1e-5
    assert abs(math.tan(theta) - 0.53518) < 1e-4
    report = fit_d_report(THREE_POINTS)
    assert angle_gap(theta, report.line.line.theta) < 1e-8
    assert report.objective_min <= objective + 1e-12


def test_angle_search_objective_is_flat_on_circle_data():
    p = gen_circle(n=8)
    s = summarize(p)
    values = []
    for k in range(720):
        theta = -math.pi / 2 + k * math.pi / 720
        c = s.mean_x * math.sin(theta) - s.mean_y * math.cos(theta)
        values.append(loop_d(p, theta, c))
    assert max(values) - min(values) < 1e-12


def test_angle_search_on_collinear_data():
    xs = (0.0, 1.0, 2.0, 3.5)
    p = PairedSample.from_xy(xs, tuple(2.0 * x for x in xs))
    # two extra refinement rounds push the angle error below 1e-12 rad
    theta, c, objective = grid_min_d(p, GridSpec(refinement_rounds=8))
    assert objective < 1e-20
    assert angle_gap(theta, math.atan(2.0)) < 1e-5


def test_plane_search_on_reference_points():
    m, b, objective = grid_min_y(THREE_POINTS)
    assert abs(m - 0.5) < 1e-4
    assert abs(b - (-1.0 / 6.0)) < 1e-4
    assert fit_y(THREE_POINTS).objective_min <= objective + 1e-12


def test_plane_search_on_horizontal_data():
    xs = (0.0, 1.0, 2.0, 3.0)
    p = PairedSample.from_xy(xs, (3.0, 3.0, 3.0, 3.0))
    m, b, _ = grid_min_y(p)
    assert abs(m) < 1e-4
    assert abs(b - 3.0) < 1e-4


def test_plane_searches_match_closed_forms_on_random_data():
    rng = random.Random(23)
    p = PairedSample.from_xy(
        [rng.uniform(-8, 8) for _ in range(15)],
        [rng.uniform(-8, 8) for _ in range(15)],
    )
    ry = fit_y(p)
    m, b, obj = grid_min_y(p)
    assert abs(m - ry.line.m) < 1e-4
    assert abs(b - ry.line.b) < 1e-4
    assert ry.objective_min <= obj + 1e-12
    rx = fit_x(p)
    mu, beta, objx = grid_min_x(p)
    assert abs(mu - rx.line.mu) < 1e-4
    assert abs(beta - rx.line.beta) < 1e-4
    assert rx.objective_min <= objx + 1e-12


def test_more_rounds_never_worsen_the_optimum():
    rng = random.Random(29)
    p = PairedSample.from_xy(
        [rng.uniform(-5, 5) for _ in range(9)],
        [rng.uniform(-5, 5) for _ in range(9)],
    )
    coarse = grid_min_y(p, GridSpec(coarse_steps=120, refinement_rounds=3))
    fine = grid_min_y(p, GridSpec(coarse_steps=120, refinement_rounds=6))
    assert fine[2] <= coarse[2] + 1e-15


def test_closed_form_is_a_lower_bound_for_the_oracle():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(3, 20)
        p = PairedSample.from_xy(
            [rng.uniform(-5, 5) for _ in range(n)],
            [rng.uniform(-5, 5) for _ in range(n)],
        )
        assert fit_y(p).objective_min <= grid_min_y(p)[2] + 1e-12
        assert fit_x(p).objective_min <= grid_min_x(p)[2] + 1e-12
        assert fit_d_report(p).objective_min <= grid_min_d(p)[2] + 1e-12


def test_chunked_plane_evaluation_matches_single_pass(monkeypatch):
    # force many small chunks through the 2D search and require the exact
    # same optimum as the one-chunk evaluation
    import grid_oracle as oracle_mod

    rng = random.Random(53)
    p = PairedSample.from_xy(
        [rng.uniform(-5, 5) for _ in range(20)],
        [rng.uniform(-5, 5) for _ in range(20)],
    )
    spec = GridSpec(coarse_steps=120, refinement_rounds=4)
    whole = grid_min_y(p, spec)
    monkeypatch.setattr(oracle_mod, "_CHUNK_ELEMENTS", 7_000)
    chunked = grid_min_y(p, spec)
    assert chunked == whole


def test_angle_search_default_resolution_is_fine():
    # default spec: pi * 0.05^5 / 2000 is well under 1e-8 radians
    final_width = math.pi * DEFAULT_GRID.shrink_factor ** (
        DEFAULT_GRID.refinement_rounds - 1
    )
    assert final_width / DEFAULT_GRID.coarse_steps < 1e-8
    assert PLANAR_GRID.coarse_steps >= 100
    assert PLANAR_GRID.refinement_rounds >= 3
