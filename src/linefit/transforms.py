"""Rigid motions of point sets and lines, and invariance reports.

Translating the data translates every fitted line the same way, for all three
methods.  Rotating the data rotates only the perpendicular-distance line the
same way; the vertical- and horizontal-offset lines generally end up somewhere
else.  ``invariance_report`` quantifies that: it compares the line fitted to
the moved data against the moved original line.

Every fit is a function of the five statistics, and they move in closed form,
so ``invariance_report`` moves the summary, never the points.  A translation
by (u, v) adds (u, v) to the means and keeps the central moments.  A rotation
by phi moves the mean as a point and turns the covariance matrix S to
R S R^T: in half-angle form t = (var_x + var_y)/2 stays fixed, the pair
(d, cov_xy) with d = (var_x - var_y)/2 turns by 2*phi.  The larger moved
variance is t + |d|, the smaller (gap + cov_xy^2) over it, as the gap
var_x*var_y - cov_xy^2 = det S does not turn; t - |d| would cancel.  No
moved coordinate is formed, so data far from the origin keeps its digits:
moving each point would round it to the ulp of its new position.  Points
move by one column kernel, ``_moved``, in ``apply_motion_points``,
``apply_motion_point`` and each half of ``linefit transform``'s output, so a
moved point depends only on that point and the motion.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import LineFitError
from .fitters import AllLinesThroughCentroid, _cs_gap, _stats, fit_d_report, fit_x, fit_y
from .geometry import NormalLine, Point, normal_to_inverse_slope, normal_to_slope
from .stats import PairedSample, SummaryStats, _checked

__all__ = [
    "Translation",
    "Rotation",
    "RigidMotion",
    "InvarianceReport",
    "apply_motion_point",
    "apply_motion_points",
    "transform_line",
    "line_discrepancy",
    "invariance_report",
]


class Translation(namedtuple("Translation", "u v")):
    """Translation by the vector (u, v)."""

    __slots__ = ()


class Rotation(namedtuple("Rotation", "phi center", defaults=(None,))):
    """Rotation by ``phi`` about ``center``, a ``Point``.

    ``center=None`` means "the centroid of whatever sample this motion is
    applied to"; operations without a sample in hand (``apply_motion_point``,
    ``transform_line``) require an explicit center.
    """

    __slots__ = ()


# the classes a rigid motion may be, for isinstance
RigidMotion = (Translation, Rotation)


def _resolve_center(g: RigidMotion, data: PairedSample | SummaryStats | Point) -> RigidMotion:
    """The motion with a missing rotation centre set to the data's centroid:
    a summary's means, which are ``PairedSample.centroid()``, or a ``Point``."""
    if isinstance(g, Rotation) and g.center is None:
        if isinstance(data, SummaryStats):
            data = Point(data.mean_x, data.mean_y)
        return Rotation(g.phi, data if isinstance(data, Point) else Point(*data.centroid()))
    return g


def _moved(xs, ys, g: RigidMotion) -> tuple[list[float], list[float]]:
    """Columns ``xs``, ``ys`` moved by ``g``, whose centre is set: the formula of a
    moved point, in a plain loop, the fastest Python form of it.

    An offset x - cx can overflow where the moved point is finite (points at
    +-1.7e308): a point with a non-finite moved coordinate, found by one sum
    per column, turns its half offsets, exact away from underflow, and adds
    each turned half twice.  Every other point keeps the formula's bits."""
    if isinstance(g, Translation):
        u, v = g
        return [x + u for x in xs], [y + v for y in ys]
    co, si = math.cos(g.phi), math.sin(g.phi)
    cx, cy = g.center
    mx, my = [], []
    for x, y in zip(xs, ys):
        dx, dy = x - cx, y - cy
        mx.append(cx + dx * co - dy * si)
        my.append(cy + dx * si + dy * co)
    if not math.isfinite(sum(mx) + sum(my)):  # finite sums: every point is finite
        for i, (x, y) in enumerate(zip(xs, ys)):
            if not (math.isfinite(mx[i]) and math.isfinite(my[i])):
                hx, hy = x / 2 - cx / 2, y / 2 - cy / 2
                u, w = hx * co - hy * si, hx * si + hy * co
                mx[i], my[i] = cx + u + u, cy + w + w
    return mx, my


def apply_motion_point(pt: Point, g: RigidMotion) -> Point:
    if isinstance(g, Rotation) and g.center is None:
        raise ValueError("a rotation without a sample needs an explicit center")
    (x,), (y,) = _moved((pt.x,), (pt.y,), g)
    return Point(x, y)


def apply_motion_points(p: PairedSample, g: RigidMotion) -> PairedSample:
    """Move every point of the sample; rotation defaults to the centroid."""
    return PairedSample.from_xy(*_moved(p.xs, p.ys, _resolve_center(g, p)))


def _move_summary(s: SummaryStats, g: RigidMotion) -> SummaryStats:
    """The statistics of the sample moved by ``g``, whose centre is set, in
    closed form from the sample's own (see the module docstring)."""
    if isinstance(g, Translation):
        return _checked(s.n, s.mean_x + g.u, s.mean_y + g.v, s.var_x, s.var_y, s.cov_xy)
    mean = apply_motion_point(Point(s.mean_x, s.mean_y), g)
    co, si = math.cos(g.phi), math.sin(g.phi)
    co2, si2 = (co - si) * (co + si), 2.0 * co * si
    t, d = (s.var_x + s.var_y) / 2.0, (s.var_x - s.var_y) / 2.0
    d, cov = co2 * d - si2 * s.cov_xy, si2 * d + co2 * s.cov_xy
    big = t + abs(d)  # the smaller variance from the gap, which no turn changes
    small = _cs_gap(s, big) + cov * (cov / big) if big else 0.0
    return _checked(s.n, mean.x, mean.y, *((big, small) if d >= 0.0 else (small, big)), cov)


def transform_line(line: NormalLine, g: RigidMotion) -> NormalLine:
    """Image of the line under the motion, renormalized into (-pi/2, pi/2].

    The foot ``line.point_at(0.0)`` moves as any point does, and a rotation
    by phi adds phi to theta; the image is the line through the moved foot at
    the new angle.  phi is added as atan2(sin(phi), cos(phi)): the turn the
    points take, whose sine and cosine reduce phi exactly.
    """
    foot = apply_motion_point(line.point_at(0.0), g)
    theta = line.theta
    if isinstance(g, Rotation):
        theta += math.atan2(math.sin(g.phi), math.cos(g.phi))
    return NormalLine.canonical(theta, foot.x * math.sin(theta) - foot.y * math.cos(theta))


def line_discrepancy(a: NormalLine, b: NormalLine) -> float:
    """|sin(theta_a - theta_b)| + |c_a - c_b'|, zero iff the point sets coincide.

    c_b is re-signed when the two canonical representatives sit on opposite
    sides of the angle range (the same geometric line with orientation
    flipped), so near-vertical comparisons stay continuous.
    """
    dt = a.theta - b.theta
    cb = b.c if math.cos(dt) >= 0.0 else -b.c
    return abs(math.sin(dt)) + abs(a.c - cb)


STATUS_OK = "ok"
STATUS_ORIGINAL_FIT_NONEXISTENT = "original-fit-nonexistent"
STATUS_TRANSFORMED_FIT_NONEXISTENT = "transformed-fit-nonexistent"
STATUS_EXPECTED_NOT_REPRESENTABLE = "expected-line-not-representable"


class InvarianceReport(namedtuple("InvarianceReport", (
        "motion status line_from_transformed_data expected_if_invariant discrepancy"),
        defaults=(None, None, None))):
    """Outcome of the fit-then-move vs move-then-fit comparison.

    ``discrepancy`` is present only for status "ok".  For the D method a pair
    of degenerate outcomes compares centroids; a degenerate/unique mismatch
    reports an infinite discrepancy.
    """

    __slots__ = ()


# each method's fitter, and the rewrite of a normal-form line into the
# method's own form (D reports the normal form itself)
_FITS = {
    "Y": (fit_y, normal_to_slope),
    "X": (fit_x, normal_to_inverse_slope),
    "D": (fit_d_report, None),
}


def invariance_report(
    data: PairedSample | SummaryStats, g: RigidMotion, method: str
) -> InvarianceReport:
    """Fit the moved sample and compare against the moved original fit.

    Like the fits, it takes a sample or its ``SummaryStats``, and it reads
    only the statistics: the moved sample's statistics come from the
    original's in closed form (see the module docstring), so a report costs
    O(1) once the sample is summarized.  A rotation without a centre turns
    about the summary's means.  Fit preconditions that fail (vertical data
    for Y, horizontal for X), and moved statistics that overflow, are
    recorded in the report status, never raised.
    """
    if method not in _FITS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(_FITS)}")
    fit, from_normal = _FITS[method]
    try:
        s = _stats(data)
        g = _resolve_center(g, s)
        original = fit(s)
    except LineFitError:  # a sample whose statistics overflow turns about its centroid
        return InvarianceReport(_resolve_center(g, data), STATUS_ORIGINAL_FIT_NONEXISTENT)
    try:
        actual = fit(_move_summary(s, g))
    except LineFitError:
        return InvarianceReport(g, STATUS_TRANSFORMED_FIT_NONEXISTENT)

    if original.normal_form is None:  # isotropic D: two families compare centroids
        expected: object = AllLinesThroughCentroid(
            apply_motion_point(original.line.centroid, g), original.line.objective
        )
        disc = math.inf
        if actual.normal_form is None:
            disc = math.hypot(
                actual.line.centroid.x - expected.centroid.x,
                actual.line.centroid.y - expected.centroid.y,
            )
    else:
        expected = transform_line(original.normal_form, g)
        disc = math.inf
        if actual.normal_form is not None:
            disc = line_discrepancy(actual.normal_form, expected)
        if from_normal is not None:
            try:
                expected = from_normal(expected)
            except LineFitError:
                return InvarianceReport(
                    g,
                    STATUS_EXPECTED_NOT_REPRESENTABLE,
                    line_from_transformed_data=actual.line,
                )
    return InvarianceReport(
        g,
        STATUS_OK,
        line_from_transformed_data=actual.line,
        expected_if_invariant=expected,
        discrepancy=disc,
    )
