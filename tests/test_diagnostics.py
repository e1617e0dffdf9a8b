import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from linefit.diagnostics import (
    ORDERING_EQUALITY,
    ORDERING_HOLDS,
    ORDERING_NOT_APPLICABLE,
    TAN_THETA_ALL,
    compare,
)
from linefit.errors import InvalidSampleError
from linefit.fitters import fit_d, fit_y
from linefit.generators import gen_circle, gen_noisy_line
from linefit.stats import PairedSample, summarize

THREE_POINTS = PairedSample.from_points([(0, 0), (1, 0), (2, 1)])


def test_reference_points_report():
    rep = compare(THREE_POINTS)
    assert abs(rep.m - 0.5) < 1e-12
    assert abs(rep.ratio_bound - 1 / math.sqrt(3)) < 1e-12
    assert abs(rep.m_x - 2.0 / 3.0) < 1e-12
    assert abs(rep.tan_theta - 0.53518) < 1e-5
    assert rep.ordering_e == ORDERING_HOLDS
    assert rep.ordering_f == ORDERING_HOLDS
    assert rep.m < rep.ratio_bound < rep.m_x
    assert rep.m < rep.tan_theta < rep.m_x
    assert not rep.collinear


# variances 1.25 and 0.25 in units of 1e-14: not isotropic, not collinear
SMALL_UNITS = PairedSample.from_points(
    [(0.0, 0.0), (1e-7, 0.0), (2e-7, 1e-7), (3e-7, 1e-7)]
)


@pytest.mark.parametrize("k", [-60, -20, 0, 20, 60])
def test_verdicts_do_not_depend_on_the_units(k):
    scaled = PairedSample.from_xy(
        [x * 2.0**k for x in SMALL_UNITS.xs],
        [y * 2.0**k for y in SMALL_UNITS.ys],
    )
    rep, ref = compare(scaled), compare(SMALL_UNITS)
    assert rep.case_tag == "I"
    assert rep.collinear is False
    assert rep.m_x == pytest.approx(0.5, rel=1e-12)
    assert rep.ordering_e == ORDERING_HOLDS
    assert rep.ordering_f == ORDERING_HOLDS
    # a power-of-two scale is exact, so the slopes do not move at all
    assert (rep.m, rep.m_x, rep.tan_theta) == (ref.m, ref.m_x, ref.tan_theta)
    assert fit_d(scaled).line.theta == fit_d(SMALL_UNITS).line.theta


def test_collinear_report_is_all_equalities():
    xs = tuple(float(i) for i in range(8))
    p = PairedSample.from_xy(xs, tuple(2.0 * x for x in xs))
    rep = compare(p)
    assert abs(rep.m - 2.0) < 1e-12
    assert abs(rep.m_x - 2.0) < 1e-12
    assert abs(rep.tan_theta - 2.0) < 1e-12
    assert rep.ordering_e == ORDERING_EQUALITY
    assert rep.collinear
    assert 0.0 <= rep.cs_gap <= 1e-12


def test_circle_report_has_no_comparable_slopes():
    rep = compare(gen_circle(n=9, phase=0.77))
    assert abs(rep.m) < 1e-12
    assert rep.m_x is None  # its formula divides by the (zero) covariance
    assert rep.tan_theta == TAN_THETA_ALL
    assert rep.ordering_e == ORDERING_NOT_APPLICABLE
    assert rep.ordering_f == ORDERING_NOT_APPLICABLE


def test_vertical_data_report():
    rep = compare(PairedSample.from_xy((2.0, 2.0, 2.0), (0.0, 1.0, 3.0)))
    assert rep.m is None
    assert rep.m_x is None
    assert rep.ratio_bound is None
    assert rep.tan_theta is None  # the perpendicular fit is exactly vertical
    assert rep.case_tag == "III"


def test_randomized_reports_respect_the_orderings():
    rng = random.Random(37)
    for _ in range(500):
        n = rng.randint(3, 20)
        p = PairedSample.from_xy(
            [rng.uniform(-10, 10) for _ in range(n)],
            [rng.uniform(-10, 10) for _ in range(n)],
        )
        rep = compare(p)
        if rep.m is None or rep.m_x is None:
            continue
        assert math.copysign(1, rep.m) == math.copysign(1, rep.m_x)
        assert abs(rep.m) <= rep.ratio_bound + 1e-12
        assert rep.ratio_bound <= abs(rep.m_x) + 1e-12
        assert rep.ordering_e in (ORDERING_HOLDS, ORDERING_EQUALITY)
        if isinstance(rep.tan_theta, float):
            assert rep.ordering_f == rep.ordering_e
            slack = 1e-10 * (abs(rep.tan_theta) + 1.0)
            assert abs(rep.m) <= abs(rep.tan_theta) + slack
            assert abs(rep.tan_theta) <= abs(rep.m_x) + slack


def test_case_iv_ordering_holds_without_a_gate():
    # 2*cov^2 < var_x*|var_x - var_y| here, and still m <= tan(theta) <= m_x
    rep = compare(PairedSample.from_points([(0, 0), (1, 0), (2, 1), (3, 1), (0, 5)]))
    assert rep.case_tag == "IV"
    assert (rep.m, rep.tan_theta, rep.m_x) == pytest.approx((-0.5, -3.35673, -5.05882), rel=1e-5)
    assert rep.ordering_f == ORDERING_HOLDS


def test_collinear_points_read_equality_for_both_orderings():
    rep = compare(PairedSample.from_points([(0, 0), (1, 2), (2, 4)]))
    assert rep.m == rep.tan_theta == rep.m_x == 2.0
    assert rep.ordering_e == rep.ordering_f == ORDERING_EQUALITY


# relative slack of 4 ulps: m, tan(theta) and m_x each carry their own rounding
ULPS_4 = 1.0 + 2.0**-50


@st.composite
def correlated_samples(draw):
    """Up to 12 points of correlation 1 - 10^-k, up to 1 - 1e-14, on offsets
    to 1e15 and scales 2^+-400."""
    zs = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=2, max_size=12))
    k, flip = draw(st.floats(0.0, 14.0)), draw(st.booleans())
    ox, oy = draw(st.tuples(st.floats(-1e15, 1e15), st.floats(-1e15, 1e15)))
    kx, ky = draw(st.tuples(st.integers(-400, 400), st.integers(-400, 400)))
    rho = math.copysign(1.0 - 10.0**-k, -1.0 if flip else 1.0)
    rest = math.sqrt(1.0 - rho * rho)
    return PairedSample.from_xy(
        [ox + math.ldexp(x, kx) for x, _ in zs],
        [oy + math.ldexp(rho * x + rest * e, ky) for x, e in zs],
    )


def _compared(p):
    try:
        return compare(p)
    except InvalidSampleError:  # var_x*var_y overflows a double
        assume(False)


# summarize's cov_xy^2 rounds 1.4e-17 above var_x*var_y here
GAP_BELOW_ZERO = PairedSample.from_points([(0.0, 0.1)] * 12 + [(1.0, 3.1)])


@settings(max_examples=300, deadline=None)
@given(correlated_samples())
# var_y = 3.3e-315 is subnormal: cov_xy^2 and var_x*var_y round to subnormals
@example(PairedSample.from_points([(0.0, 0.0), (1.0, 1.1471147311908207e-157)]))
def test_slope_ordering_holds_at_adversarial_magnitudes(p):
    rep = _compared(p)
    assume(isinstance(rep.tan_theta, float) and None not in (rep.m, rep.m_x))
    assert abs(rep.m) <= abs(rep.tan_theta) * ULPS_4
    assert abs(rep.tan_theta) <= abs(rep.m_x) * ULPS_4


@settings(max_examples=300, deadline=None)
@given(correlated_samples())
@example(GAP_BELOW_ZERO)
def test_cs_gap_is_never_negative(p):
    assert _compared(p).cs_gap >= 0.0


def test_a_gap_that_rounds_below_zero_reads_zero_and_collinear():
    rep = compare(GAP_BELOW_ZERO)
    assert rep.cs_gap == 0.0
    assert rep.collinear is True


def test_cs_gap_ties_to_the_vertical_fit_objective():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(3, 15)
        p = PairedSample.from_xy(
            [rng.uniform(-10, 10) for _ in range(n)],
            [rng.uniform(-10, 10) for _ in range(n)],
        )
        rep = compare(p)
        s = summarize(p)
        want = fit_y(p).objective_min * s.var_x
        assert abs(rep.cs_gap - want) <= 1e-10 * (abs(want) + 1e-12)


def test_collinearity_flag_tracks_generator_noise():
    # the gap grows like var_x * noise^2 / 3 while the tolerance sits at
    # 1e-12 * (var_x * var_y + 1), so at the default +/-10 span the flag
    # flips around noise ~ 3e-5; test comfortably on either side
    xs = tuple(0.5 * i - 3.0 for i in range(12))
    exact = PairedSample.from_xy(xs, tuple(1.3 * x + 0.2 for x in xs))
    assert compare(exact).collinear
    for noise in (1e-4, 1e-3):
        noisy = gen_noisy_line(slope=1.3, intercept=0.2, n=12, seed=3, noise=noise)
        assert not compare(noisy).collinear


def test_collinear_points_read_collinear_with_a_far_first_point():
    # a first point 100 spreads from the rest must not cost the digits that
    # the relative collinearity tolerance looks at
    flags = []
    for seed in range(200):
        rng = random.Random(seed)
        m, b = rng.uniform(-3.0, 3.0), rng.uniform(-5.0, 5.0)
        xs = [100.0] + [rng.random() for _ in range(4999)]
        flags.append(compare(PairedSample.from_xy(xs, [m * x + b for x in xs])).collinear)
    assert flags.count(True) == 200
