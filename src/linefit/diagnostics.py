"""Comparative diagnostics across the three fitted slopes.

For data with spread in both coordinates and nonzero covariance, the three
slopes in y-on-x terms are m = cov/var_x (vertical fit), tan(theta)
(perpendicular fit) and m_x = var_y/cov (horizontal fit), and they satisfy

    |m| <= sqrt(var_y/var_x) <= |m_x|

with equality exactly on collinear data.  So do |m| <= |tan(theta)| <= |m_x|,
in every sign-pattern case: take a = var_x, b = var_y, c = cov > 0 (y -> -y
gives c < 0).  tan(theta) is the positive root of q(t) = c*t^2 + (a-b)*t - c,
and q(c/a) = c*(c^2 - ab)/a^2 <= 0 <= (ab - c^2)/c = q(b/c) by Cauchy-Schwarz.
Both orderings therefore come from the one verdict on cs_gap = ab - c^2.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .fitters import ISOTROPIC, _cs_gap, _major_axis, _negligible, _stats, resolve_case
from .stats import PairedSample, SummaryStats

__all__ = [
    "ORDERING_HOLDS",
    "ORDERING_EQUALITY",
    "ORDERING_NOT_APPLICABLE",
    "TAN_THETA_ALL",
    "ComparisonReport",
    "compare",
]

ORDERING_HOLDS = "holds"
ORDERING_EQUALITY = "equality"
ORDERING_NOT_APPLICABLE = "not-applicable"

# every line through the centroid fits equally well
TAN_THETA_ALL = "all"


def _finite(v: float) -> float | None:
    return v if math.isfinite(v) else None


class ComparisonReport(namedtuple("ComparisonReport", (
        "m m_x tan_theta ratio_bound ordering_e ordering_f cs_gap collinear case_tag"))):
    """Slopes, bounds and orderings; absent values are encoded as None.

    ``m`` is missing on vertical data, ``m_x`` when the covariance it divides
    by is zero relative to sqrt(var_x*var_y), and ``tan_theta`` is the string
    "all" in the isotropic case and None when the perpendicular fit is exactly
    vertical.  A slope or bound that overflows (subnormal variance) is None.
    ``collinear`` is a bool and the rest are floats or strings.
    """

    __slots__ = ()


def compare(data: PairedSample | SummaryStats) -> ComparisonReport:
    s = _stats(data)
    m = _finite(s.cov_xy / s.var_x) if s.var_x > 0.0 else None
    m_x = (None if _negligible(abs(s.cov_xy), math.sqrt(s.var_x), math.sqrt(s.var_y))
           else _finite(s.var_y / s.cov_xy))
    ratio_bound = _finite(math.sqrt(s.var_y / s.var_x)) if s.var_x > 0.0 else None

    case = resolve_case(s)
    if case.tag == ISOTROPIC:
        tan_theta: float | str | None = TAN_THETA_ALL
    else:
        u, v = _major_axis(s)
        tan_theta = _finite(v / u) if u != 0.0 else None

    cs_gap = _cs_gap(s)
    collinear = _negligible(cs_gap, s.var_x, s.var_y)

    if m is None or m_x is None:
        ordering_e = ORDERING_NOT_APPLICABLE
    elif collinear:
        ordering_e = ORDERING_EQUALITY
    else:
        ordering_e = ORDERING_HOLDS

    ordering_f = ORDERING_NOT_APPLICABLE if case.tag == ISOTROPIC else ordering_e

    return ComparisonReport(
        m=m,
        m_x=m_x,
        tan_theta=tan_theta,
        ratio_bound=ratio_bound,
        ordering_e=ordering_e,
        ordering_f=ordering_f,
        cs_gap=cs_gap,
        collinear=collinear,
        case_tag=case.tag,
    )
