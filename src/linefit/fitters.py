"""The three least-squares line fits.

* ``fit_y`` minimizes mean squared vertical offsets; needs var(x) > 0.
* ``fit_x`` minimizes mean squared horizontal offsets; needs var(y) > 0.
* ``fit_d`` minimizes mean squared perpendicular distances; always solvable,
  but when var(x) = var(y) and cov(x, y) = 0 every line through the centroid
  attains the same objective and a line family is returned instead of a line.

All minimizers are closed forms in the summary statistics, so each fit also
takes a ``SummaryStats`` in place of the sample; given a sample, it reads the
sample's cached ``summary``.  ``fit_y``, ``fit_x`` and ``fit_d_report``
return a ``FitReport`` of the line and its minimum objective; the line's
fields are the method's own parameters (m, b or mu, beta).  The perpendicular
line runs along the major axis of the 2x2 covariance matrix, so its angle
satisfies tan(2*theta) = 2*cov / (var_x - var_y); the sign pattern of the two
sides only labels the case (I..VI) or flags the isotropic family.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

from .errors import HorizontalDataError, VerticalDataError
from .geometry import (
    InverseSlopeLine,
    NormalLine,
    Point,
    SlopeInterceptLine,
    inverse_slope_to_normal,
    slope_to_normal,
)
from .stats import PairedSample, SummaryStats, _immutable

__all__ = [
    "ISOTROPIC",
    "OrthogonalCase",
    "UniqueLine",
    "AllLinesThroughCentroid",
    "FitReport",
    "iso_tolerance",
    "resolve_case",
    "fit_y",
    "fit_x",
    "fit_d",
    "fit_d_report",
    "objective_y",
    "objective_x",
    "objective_d",
]

ISOTROPIC = "Isotropic"


class OrthogonalCase(namedtuple("OrthogonalCase", "tag e_ratio", defaults=(None,))):
    """Sign-pattern case of the perpendicular fit.

    ``e_ratio`` is 2*cov / (var_x - var_y); it is present exactly for cases
    I..IV, where the variances differ.
    """

    __slots__ = ()


class UniqueLine(namedtuple("UniqueLine", "line case")):
    """The perpendicular fit's one ``NormalLine`` and its ``OrthogonalCase``."""

    __slots__ = ()


class AllLinesThroughCentroid(namedtuple("AllLinesThroughCentroid", "centroid objective")):
    """Isotropic outcome: every line through the centroid shares the objective."""

    __slots__ = ()


class FitReport(namedtuple("FitReport", "line objective_min")):
    """A fitted line and its minimum objective.

    ``line`` is in the method's own form: a ``SlopeInterceptLine``,
    ``InverseSlopeLine``, ``UniqueLine`` or ``AllLinesThroughCentroid``.
    ``normal_form`` is the same line in normal form, derived on first read
    and kept in the instance dict (so no ``__slots__``), and None only for
    the isotropic family.
    """

    __setattr__ = _immutable

    @cached_property
    def normal_form(self) -> NormalLine | None:
        line = self.line
        if isinstance(line, UniqueLine):
            return line.line
        if isinstance(line, AllLinesThroughCentroid):
            return None
        if isinstance(line, SlopeInterceptLine):
            return slope_to_normal(line)
        return inverse_slope_to_normal(line)


def _stats(data: PairedSample | SummaryStats) -> SummaryStats:
    return data if isinstance(data, SummaryStats) else data.summary


def iso_tolerance(s: SummaryStats) -> float:
    """Threshold for var_x = var_y and cov = 0, relative to the total variance."""
    return 1e-12 * (s.var_x + s.var_y)


def fit_y(data: PairedSample | SummaryStats) -> FitReport:
    """Vertical-offset fit y = m*x + b with m = cov/var_x, b = mean_y - m*mean_x."""
    s = _stats(data)
    # summarize gives var = 0.0 exactly for a constant coordinate
    if s.var_x == 0.0:
        raise VerticalDataError(
            "vertical-offset fit requires var(x) > 0; all x coordinates "
            f"coincide (var_x={s.var_x!r}), the points lie on a vertical line"
        )
    m = s.cov_xy / s.var_x
    b = s.mean_y - m * s.mean_x
    objective = max(0.0, (s.var_x * s.var_y - s.cov_xy**2) / s.var_x)
    return FitReport(SlopeInterceptLine(m, b), objective)


def fit_x(data: PairedSample | SummaryStats) -> FitReport:
    """Horizontal-offset fit x = mu*y + beta; the Y fit with axes swapped."""
    s = _stats(data)
    if s.var_y == 0.0:
        raise HorizontalDataError(
            "horizontal-offset fit requires var(y) > 0; all y coordinates "
            f"coincide (var_y={s.var_y!r}), the points lie on a horizontal line"
        )
    mu = s.cov_xy / s.var_y
    beta = s.mean_x - mu * s.mean_y
    objective = max(0.0, (s.var_x * s.var_y - s.cov_xy**2) / s.var_y)
    return FitReport(InverseSlopeLine(mu, beta), objective)


def resolve_case(s: SummaryStats) -> OrthogonalCase:
    """Classify the sign pattern of (var_x - var_y, cov_xy).

    Ties at cov = 0 resolve toward cases I and III (the competing case gives
    the same line there, but dispatch must be deterministic).  Equality of the
    variances, and a zero covariance, are judged against :func:`iso_tolerance`.
    """
    tol = iso_tolerance(s)
    diff = s.var_x - s.var_y
    cov = s.cov_xy
    if abs(diff) <= tol:
        if abs(cov) <= tol:
            return OrthogonalCase(ISOTROPIC)
        return OrthogonalCase("V" if cov > 0.0 else "VI")
    e_ratio = 2.0 * cov / diff
    if diff > 0.0:
        return OrthogonalCase("I" if cov >= 0.0 else "II", e_ratio)
    return OrthogonalCase("III" if cov >= 0.0 else "IV", e_ratio)


def _major_axis(s: SummaryStats) -> tuple[float, float]:
    """Direction (u, v), u >= 0, of the covariance matrix's major axis.

    Unnormalized, so atan2(v, u) and v/u each round once.  The eigenvector is
    taken in whichever of its two forms adds, rather than subtracts, the
    eigen-gap h, so no digits cancel; symmetric data such as y = x comes out
    exact.  (0, 0) when var_x = var_y and cov = 0 exactly.
    """
    d = s.var_x - s.var_y
    two_cov = 2.0 * s.cov_xy
    h = math.hypot(d, two_cov)
    u, v = (d + h, two_cov) if d >= 0.0 else (two_cov, h - d)
    if u < 0.0:
        return -u, -v
    return u, v


def fit_d(data: PairedSample | SummaryStats) -> UniqueLine | AllLinesThroughCentroid:
    """Perpendicular-distance fit in normal form.

    Returns a :class:`UniqueLine` through the centroid, or
    :class:`AllLinesThroughCentroid` when the statistics are isotropic.
    """
    s = _stats(data)
    case = resolve_case(s)
    if case.tag == ISOTROPIC:
        return AllLinesThroughCentroid(
            Point(s.mean_x, s.mean_y), 0.5 * (s.var_x + s.var_y)
        )
    u, v = _major_axis(s)
    r = math.hypot(u, v)
    c = s.mean_x * (v / r) - s.mean_y * (u / r)
    return UniqueLine(NormalLine.canonical(math.atan2(v, u), c), case)


def _min_objective_d(s: SummaryStats) -> float:
    # (S - sqrt((var_x-var_y)^2 + 4 cov^2)) / 2, rationalized so collinear
    # data lands at exactly the Cauchy-Schwarz gap scale instead of
    # cancelling two O(S) terms.
    gap = max(0.0, s.var_x * s.var_y - s.cov_xy**2)
    total = s.var_x + s.var_y
    spread = math.hypot(s.var_x - s.var_y, 2.0 * s.cov_xy)
    if total + spread == 0.0:
        return 0.0
    return 2.0 * gap / (total + spread)


def fit_d_report(data: PairedSample | SummaryStats) -> FitReport:
    """Perpendicular fit packaged with its minimum objective."""
    s = _stats(data)
    fit = fit_d(s)
    if isinstance(fit, AllLinesThroughCentroid):
        return FitReport(fit, fit.objective)
    return FitReport(fit, _min_objective_d(s))


def objective_y(p: PairedSample, m: float, b: float) -> float:
    """Mean squared vertical offset of the points from y = m*x + b."""
    xs, ys = p.xs.values, p.ys.values
    return sum((m * x + b - y) ** 2 for x, y in zip(xs, ys)) / len(xs)


def objective_x(p: PairedSample, mu: float, beta: float) -> float:
    """Mean squared horizontal offset of the points from x = mu*y + beta."""
    xs, ys = p.xs.values, p.ys.values
    return sum((mu * y + beta - x) ** 2 for x, y in zip(xs, ys)) / len(xs)


def objective_d(p: PairedSample, theta: float, c: float) -> float:
    """Mean squared distance of the points from x*sin(theta) - y*cos(theta) = c."""
    xs, ys = p.xs.values, p.ys.values
    si, co = math.sin(theta), math.cos(theta)
    return sum((x * si - y * co - c) ** 2 for x, y in zip(xs, ys)) / len(xs)
