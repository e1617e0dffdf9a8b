"""Comparative diagnostics across the three fitted slopes.

For data with spread in both coordinates and nonzero covariance, the three
slopes in y-on-x terms are m = cov/var_x (vertical fit), tan(theta)
(perpendicular fit) and m_x = var_y/cov (horizontal fit), and they satisfy

    |m| <= sqrt(var_y/var_x) <= |m_x|

with equality exactly on collinear data.  The middle bound also sandwiches
|tan(theta)| in the sign-pattern cases I, II, V and VI; in cases III and IV
that ordering is only guaranteed under the gate condition
2*cov^2 >= var_x*|var_x - var_y|, and is merely observed otherwise.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .fitters import ISOTROPIC, _major_axis, _stats, resolve_case
from .stats import PairedSample, SummaryStats

__all__ = [
    "ORDERING_HOLDS",
    "ORDERING_EQUALITY",
    "ORDERING_NOT_APPLICABLE",
    "ORDERING_CONDITION_NOT_MET",
    "TAN_THETA_ALL",
    "ComparisonReport",
    "compare",
    "collinearity_tolerance",
]

ORDERING_HOLDS = "holds"
ORDERING_EQUALITY = "equality"
ORDERING_NOT_APPLICABLE = "not-applicable"
ORDERING_CONDITION_NOT_MET = "condition-not-met"

# every line through the centroid fits equally well
TAN_THETA_ALL = "all"


def collinearity_tolerance(s: SummaryStats) -> float:
    """Threshold on the gap var_x*var_y - cov^2, relative to var_x*var_y."""
    return 1e-12 * s.var_x * s.var_y


def _finite(v: float) -> float | None:
    return v if math.isfinite(v) else None


class ComparisonReport(namedtuple("ComparisonReport", (
        "m m_x tan_theta ratio_bound ordering_e ordering_f ordering_f_observed "
        "cs_gap collinear case_tag"))):
    """Slopes, bounds and orderings; absent values are encoded as None.

    ``m`` is missing on vertical data, ``m_x`` when the covariance it divides
    by is zero relative to sqrt(var_x*var_y), and ``tan_theta`` is the string
    "all" in the isotropic case and None when the perpendicular fit is exactly
    vertical.  A slope or bound that overflows (subnormal variance) is None.
    ``ordering_f_observed`` is a bool or None, ``collinear`` a bool and the
    rest are floats or strings.
    """

    __slots__ = ()


def compare(data: PairedSample | SummaryStats) -> ComparisonReport:
    s = _stats(data)
    m = _finite(s.cov_xy / s.var_x) if s.var_x > 0.0 else None
    zero_cov = 1e-12 * math.sqrt(s.var_x) * math.sqrt(s.var_y)
    m_x = _finite(s.var_y / s.cov_xy) if abs(s.cov_xy) > zero_cov else None
    ratio_bound = _finite(math.sqrt(s.var_y / s.var_x)) if s.var_x > 0.0 else None

    case = resolve_case(s)
    if case.tag == ISOTROPIC:
        tan_theta: float | str | None = TAN_THETA_ALL
    else:
        u, v = _major_axis(s)
        tan_theta = _finite(v / u) if u != 0.0 else None

    cs_gap = s.var_x * s.var_y - s.cov_xy**2
    collinear = cs_gap <= collinearity_tolerance(s)

    if m is None or m_x is None:
        ordering_e = ORDERING_NOT_APPLICABLE
    elif collinear:
        ordering_e = ORDERING_EQUALITY
    else:
        ordering_e = ORDERING_HOLDS

    observed: bool | None = None
    if m is not None and m_x is not None and isinstance(tan_theta, float):
        observed = abs(m) <= abs(tan_theta) <= abs(m_x)

    if m is None or m_x is None or case.tag == ISOTROPIC:
        ordering_f = ORDERING_NOT_APPLICABLE
    elif case.tag in ("I", "II", "V", "VI"):
        ordering_f = ORDERING_HOLDS
    elif 2.0 * s.cov_xy**2 >= s.var_x * abs(s.var_x - s.var_y):
        ordering_f = ORDERING_HOLDS
    else:
        ordering_f = ORDERING_CONDITION_NOT_MET

    return ComparisonReport(
        m=m,
        m_x=m_x,
        tan_theta=tan_theta,
        ratio_bound=ratio_bound,
        ordering_e=ordering_e,
        ordering_f=ordering_f,
        ordering_f_observed=observed,
        cs_gap=cs_gap,
        collinear=collinear,
        case_tag=case.tag,
    )
