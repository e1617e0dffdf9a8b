"""Line representations.

Three line forms are used throughout:

* slope-intercept ``y = m*x + b`` (cannot express vertical lines),
* inverse-slope ``x = mu*y + beta`` (cannot express horizontal lines),
* normal form ``x*sin(theta) - y*cos(theta) = c`` with theta in (-pi/2, pi/2],
  which expresses every line and treats the two axes symmetrically.  Its
  residual is the signed distance of a point from the line.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidLineError, NotRepresentableError

__all__ = [
    "Point",
    "SlopeInterceptLine",
    "InverseSlopeLine",
    "NormalLine",
    "normal_to_slope",
    "slope_to_normal",
    "inverse_slope_to_normal",
    "normal_to_inverse_slope",
]

# Below this |cos(theta)| (for a slope) or |sin(theta)| (for an inverse
# slope), the converted slope would exceed ~1e9 and the target form is
# numerically meaningless.
_AXIS_EPS = 1e-9

_HALF_PI = math.pi / 2.0


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidLineError(f"{name} requires finite parameters, got {v!r}")


class Point(namedtuple("Point", "x y")):
    """A point with finite coordinates."""

    __slots__ = ()

    def __new__(cls, x: float, y: float):
        x, y = float(x), float(y)
        _require_finite("Point", x, y)
        return super().__new__(cls, x, y)


class SlopeInterceptLine(namedtuple("SlopeInterceptLine", "m b")):
    """y = m*x + b."""

    __slots__ = ()

    def __new__(cls, m: float, b: float):
        m, b = float(m), float(b)
        _require_finite("SlopeInterceptLine", m, b)
        return super().__new__(cls, m, b)

    def y_at(self, x: float) -> float:
        return self.m * x + self.b


class InverseSlopeLine(namedtuple("InverseSlopeLine", "mu beta")):
    """x = mu*y + beta."""

    __slots__ = ()

    def __new__(cls, mu: float, beta: float):
        mu, beta = float(mu), float(beta)
        _require_finite("InverseSlopeLine", mu, beta)
        return super().__new__(cls, mu, beta)

    def x_at(self, y: float) -> float:
        return self.mu * y + self.beta


class NormalLine(namedtuple("NormalLine", "theta c")):
    """x*sin(theta) - y*cos(theta) = c, with theta in (-pi/2, pi/2].

    Use :meth:`canonical` when the angle may fall outside that range; a shift
    by pi describes the same point set with the sign of c flipped.
    """

    __slots__ = ()

    def __new__(cls, theta: float, c: float):
        theta, c = float(theta), float(c)
        _require_finite("NormalLine", theta, c)
        if not (-_HALF_PI < theta <= _HALF_PI):
            raise InvalidLineError(
                f"theta must lie in (-pi/2, pi/2], got {theta!r}; "
                "use NormalLine.canonical to renormalize"
            )
        return super().__new__(cls, theta, c)

    @classmethod
    def canonical(cls, theta: float, c: float) -> "NormalLine":
        theta = float(theta)
        c = float(c)
        _require_finite("NormalLine", theta, c)
        k = math.ceil((theta - _HALF_PI) / math.pi)
        theta -= k * math.pi
        if k % 2:
            c = -c
        # rounding in the subtraction can land exactly on the open boundary
        if theta <= -_HALF_PI:
            theta += math.pi
            c = -c
        elif theta > _HALF_PI:
            theta -= math.pi
            c = -c
        return cls(theta, c)

    def residual(self, p: Point) -> float:
        """Signed offset of p; its absolute value is the distance to the line."""
        return p.x * math.sin(self.theta) - p.y * math.cos(self.theta) - self.c

    def point_at(self, t: float) -> Point:
        """Point at arc-length parameter t along the line."""
        si, co = math.sin(self.theta), math.cos(self.theta)
        return Point(self.c * si + t * co, -self.c * co + t * si)


def normal_to_slope(line: NormalLine) -> SlopeInterceptLine:
    """Rewrite as y = x*tan(theta) - c/cos(theta).

    Raises :class:`NotRepresentableError` for (near-)vertical lines, where
    |cos(theta)| <= 1e-9.
    """
    co = math.cos(line.theta)
    if abs(co) <= _AXIS_EPS:
        raise NotRepresentableError(
            f"line with theta={line.theta!r} is vertical within tolerance; "
            "it has no slope-intercept form"
        )
    return SlopeInterceptLine(math.tan(line.theta), -line.c / co)


def slope_to_normal(line: SlopeInterceptLine) -> NormalLine:
    """Inverse of :func:`normal_to_slope`: theta = arctan(m), c = -b/sqrt(1 + m^2).

    c is not -b*cos(theta), whose rounded angle misses steep lines.  For m
    below about -5.8e15 the arctangent rounds to -pi/2, outside the normal
    form's range; canonicalizing folds it onto the same line at pi/2.
    """
    return NormalLine.canonical(math.atan(line.m), -line.b / math.hypot(1.0, line.m))


def inverse_slope_to_normal(line: InverseSlopeLine) -> NormalLine:
    """Mirror of :func:`slope_to_normal`: theta = pi/2 - arctan(mu), c = beta/sqrt(1 + mu^2).

    mu = 0 gives the vertical line exactly.  c is not beta*sin(theta), whose
    rounded angle misses near-horizontal lines.
    """
    return NormalLine.canonical(
        _HALF_PI - math.atan(line.mu), line.beta / math.hypot(1.0, line.mu)
    )


def normal_to_inverse_slope(line: NormalLine) -> InverseSlopeLine:
    """Rewrite as x = y*cot(theta) + c/sin(theta); horizontal lines have none."""
    si = math.sin(line.theta)
    if abs(si) <= _AXIS_EPS:
        raise NotRepresentableError(
            f"line with theta={line.theta!r} is horizontal within tolerance; "
            "it has no inverse-slope form"
        )
    return InverseSlopeLine(math.cos(line.theta) / si, line.c / si)
