import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from linefit.errors import InvalidLineError, NotRepresentableError
from linefit.geometry import (
    InverseSlopeLine,
    NormalLine,
    Point,
    SlopeInterceptLine,
    inverse_slope_to_normal,
    normal_to_inverse_slope,
    normal_to_slope,
    slope_to_normal,
)


# --- the distance oracle: the textbook distance to a*x + b*y = c ----------------

@dataclass(frozen=True)
class GeneralLine:
    """a*x + b*y = c with (a, b) != (0, 0).  Coefficients are kept as given."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise InvalidLineError("degenerate line: a and b are both zero")


def point_line_distance(p: Point, line: GeneralLine) -> float:
    """Euclidean distance from p to the line, |a*x + b*y - c| / sqrt(a^2 + b^2)."""
    norm = math.hypot(line.a, line.b)
    return abs(line.a * p.x + line.b * p.y - line.c) / norm


def normal_to_general(line: NormalLine) -> GeneralLine:
    return GeneralLine(math.sin(line.theta), -math.cos(line.theta), line.c)


def projection_distance(p: Point, line: GeneralLine) -> float:
    """Oracle: distance via explicit orthogonal projection onto the line."""
    a, b, c = line.a, line.b, line.c
    norm_sq = a * a + b * b
    # foot of the perpendicular from the origin, then walk along the direction
    ox, oy = a * c / norm_sq, b * c / norm_sq
    dx, dy = -b / math.sqrt(norm_sq), a / math.sqrt(norm_sq)
    t = (p.x - ox) * dx + (p.y - oy) * dy
    qx, qy = ox + t * dx, oy + t * dy
    return math.hypot(p.x - qx, p.y - qy)


def test_distance_diagonal_from_origin():
    assert point_line_distance(Point(0, 0), GeneralLine(1, 1, 1)) == pytest.approx(
        1 / math.sqrt(2), rel=1e-15
    )


def test_distance_of_point_on_line_is_zero():
    assert point_line_distance(Point(2.0, -1.0), GeneralLine(3.0, 4.0, 2.0)) == 0.0


def test_distance_matches_projection_oracle():
    rng = random.Random(5)
    for _ in range(50):
        line = GeneralLine(rng.uniform(-4, 4) or 1.0, rng.uniform(-4, 4), rng.uniform(-4, 4))
        p = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        got = point_line_distance(p, line)
        assert abs(got - projection_distance(p, line)) <= 1e-12 * (got + 1.0)


@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.sampled_from([1e-3, 0.5, 3.0, 1e3, -2.0, -1e-3]),
)
def test_distance_invariant_under_coefficient_rescaling(a, b, c, px, py, lam):
    if a == 0.0 and b == 0.0:
        a = 1.0
    # a subnormal coefficient loses precision when rescaled (or rounds to 0),
    # and a tiny |(a, b)| can overflow the distance: then the rescaled line is
    # not the same line in floating point
    assume(not 0.0 < abs(a) < sys.float_info.min)
    assume(not 0.0 < abs(b) < sys.float_info.min)
    p = Point(px, py)
    d1 = point_line_distance(p, GeneralLine(a, b, c))
    assume(math.isfinite(d1))
    d2 = point_line_distance(p, GeneralLine(lam * a, lam * b, lam * c))
    assert abs(d1 - d2) <= 1e-12 * (d1 + 1.0)


def test_degenerate_general_line_rejected():
    with pytest.raises(InvalidLineError):
        GeneralLine(0.0, 0.0, 1.0)


# --- conversions -------------------------------------------------------------

def test_diagonal_normal_line_to_slope():
    line = normal_to_slope(NormalLine(math.pi / 4, 0.0))
    assert line.m == pytest.approx(1.0, rel=1e-15)
    assert line.b == pytest.approx(0.0, abs=1e-15)


def test_normal_line_through_reference_centroid_to_slope():
    # slope (sqrt(13)-2)/3 through (1, 1/3)
    theta = math.atan((math.sqrt(13.0) - 2.0) / 3.0)
    c = 1.0 * math.sin(theta) - (1.0 / 3.0) * math.cos(theta)
    line = normal_to_slope(NormalLine(theta, c))
    assert abs(line.m - 0.53518) < 1e-5
    assert abs(line.b - (-0.20185)) < 1e-5


def test_vertical_normal_line_has_no_slope_form():
    with pytest.raises(NotRepresentableError):
        normal_to_slope(NormalLine(math.pi / 2, 1.0))


def test_slope_to_normal_trivials():
    n = slope_to_normal(SlopeInterceptLine(1.0, 0.0))
    assert n.theta == pytest.approx(math.pi / 4, rel=1e-15)
    assert n.c == pytest.approx(0.0, abs=1e-15)
    n = slope_to_normal(SlopeInterceptLine(0.0, 0.0))
    assert n.theta == 0.0
    assert n.c == 0.0


@pytest.mark.parametrize("m", [-1e16, -9007199254740992.0, -1e300])
def test_steep_negative_slope_folds_to_vertical_normal(m):
    # arctan(m) rounds to -pi/2, outside (-pi/2, pi/2]; the same line is at
    # pi/2, and c is its distance from the origin, 3/sqrt(1 + m^2)
    assert math.atan(m) == -math.pi / 2
    n = slope_to_normal(SlopeInterceptLine(m, 3.0))
    assert n.theta == math.pi / 2
    assert n.c == 3.0 / math.hypot(1.0, m)


@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_slope_normal_round_trip(m, b):
    back = normal_to_slope(slope_to_normal(SlopeInterceptLine(m, b)))
    assert abs(back.m - m) <= 1e-12 * (abs(m) + 1.0)
    assert abs(back.b - b) <= 1e-12 * (abs(b) + 1.0)


@given(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_inverse_slope_normal_round_trip(mu, beta):
    back = normal_to_inverse_slope(inverse_slope_to_normal(InverseSlopeLine(mu, beta)))
    assert abs(back.mu - mu) <= 1e-12 * (abs(mu) + 1.0)
    assert abs(back.beta - beta) <= 1e-12 * (abs(beta) + 1.0)


def test_inverse_slope_angle_keeps_its_digits_at_every_power_of_two():
    # arctan(2^-k) is pi/2 - arctan(2^k); formed as that difference, the angle
    # lost its digits once 2^k outgrew 1 and read 0 from 2^54 up
    wrong = [k for k in range(-1000, 1001)
             if inverse_slope_to_normal(InverseSlopeLine(2.0**k, 0.0)).theta
             != math.atan(2.0**-k)]
    assert wrong == []
    # a negative mu keeps them too; an angle that rounds to -pi/2 is the
    # vertical line at pi/2
    wrong = [k for k in range(-1000, 1001)
             if inverse_slope_to_normal(InverseSlopeLine(-(2.0**k), 1.0))
             != NormalLine.canonical(-math.atan(2.0**-k), -1.0 / math.hypot(1.0, 2.0**k))]
    assert wrong == []


def test_vertical_line_has_inverse_slope_form():
    n = inverse_slope_to_normal(InverseSlopeLine(0.0, 4.5))
    assert n.theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert n.c == pytest.approx(4.5, rel=1e-15)
    with pytest.raises(NotRepresentableError):
        normal_to_inverse_slope(NormalLine(0.0, 1.0))


# --- canonicalization ---------------------------------------------------------

def test_out_of_range_theta_rejected_by_plain_constructor():
    with pytest.raises(InvalidLineError):
        NormalLine(2.0, 0.0)
    with pytest.raises(InvalidLineError):
        NormalLine(-math.pi / 2, 0.0)


@given(
    st.floats(min_value=-0.5 * math.pi + 1e-9, max_value=0.5 * math.pi, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.integers(min_value=-3, max_value=3),
)
def test_pi_shifted_angles_describe_the_same_point_set(theta, c, k):
    base = NormalLine(theta, c)
    shifted = NormalLine.canonical(theta + k * math.pi, c * (-1.0) ** k)
    assert abs(shifted.theta - base.theta) <= 1e-9
    assert abs(shifted.c - base.c) <= 1e-9 * (abs(c) + 1.0)


def test_canonical_maps_negative_half_pi_boundary():
    line = NormalLine.canonical(-math.pi / 2, 3.0)
    assert line.theta == pytest.approx(math.pi / 2, rel=1e-15)
    assert line.c == -3.0


def _quotient_fold(theta, c):
    """The rounded-quotient reduction, kept as an oracle: k = ceil((theta - pi/2)/pi),
    c flipped on k's parity, then the open boundary patched.  Its rounding grows
    with |theta|; up to |theta| = 2*pi every step is exact."""
    k = math.ceil((theta - math.pi / 2) / math.pi)
    theta -= k * math.pi
    if k % 2:
        c = -c
    if theta <= -math.pi / 2:
        theta += math.pi
        c = -c
    elif theta > math.pi / 2:
        theta -= math.pi
        c = -c
    return theta, c


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(_FINITE, _FINITE)
# the rounded quotient left these outside the range, and canonical raised
@example(-5.7775003264880344e16, 1.0)
@example(7.198930575905798e16, -2.5)
@example(-math.pi / 2, 3.0)
@example(3 * math.pi / 2, -0.0)
@example(-2 * math.pi, 0.0)
@example(sys.float_info.max, 1.0)
def test_canonical_folds_every_finite_angle_by_an_exact_multiple_of_pi(theta, c):
    line = NormalLine.canonical(theta, c)
    assert -math.pi / 2 < line.theta <= math.pi / 2
    k = (Fraction(theta) - Fraction(line.theta)) / Fraction(math.pi)
    assert k.denominator == 1
    assert line.c.hex() == (-c if k.numerator % 2 else c).hex()
    if abs(theta) <= 2 * math.pi:
        # equal as numbers: at -2*pi the remainder keeps theta's sign, a -0.0
        assert line == _quotient_fold(theta, c)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_canonical_rejects_an_angle_that_is_not_finite(theta):
    with pytest.raises(InvalidLineError):
        NormalLine.canonical(theta, 1.0)


@given(
    st.floats(min_value=-0.5 * math.pi + 1e-6, max_value=0.5 * math.pi, allow_nan=False),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_normal_residual_equals_distance_to_general_form(theta, c, px, py):
    line = NormalLine(theta, c)
    p = Point(px, py)
    d = point_line_distance(p, normal_to_general(line))
    assert abs(abs(line.residual(p)) - d) <= 1e-12 * (d + 1.0)


def test_points_on_line_parameterization():
    line = NormalLine(0.3, -1.7)
    for t in (-5.0, 0.0, 2.5):
        assert abs(line.residual(line.point_at(t))) < 1e-12
