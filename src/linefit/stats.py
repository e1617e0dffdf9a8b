"""Means, variances and covariances of paired coordinate samples.

Every fitting routine in this package consumes the ``SummaryStats`` produced
here; once a sample is summarized the raw coordinates are never needed again.
Accumulation is a plain left-to-right pass over the raw sums (sum x, sum y,
sum x^2, sum y^2, sum xy).  The quadratic pairwise-difference forms of the
variance and covariance are deliberately kept out of the library: they serve
as independent oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidSampleError, SampleMismatchError

__all__ = [
    "Sample",
    "PairedSample",
    "SummaryStats",
    "mean",
    "variance",
    "covariance",
    "summarize",
]


@dataclass(frozen=True)
class Sample:
    """An immutable vector of at least two finite coordinates."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        if len(vals) < 2:
            raise InvalidSampleError(
                f"a sample needs at least 2 values, got {len(vals)}"
            )
        if not all(map(math.isfinite, vals)):
            i, v = next((i, v) for i, v in enumerate(vals) if not math.isfinite(v))
            raise InvalidSampleError(
                f"sample value at index {i} is not finite: {v!r}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PairedSample:
    """Two equal-length coordinate vectors describing points (x_i, y_i)."""

    xs: Sample
    ys: Sample

    def __post_init__(self):
        if self.xs.n != self.ys.n:
            raise SampleMismatchError(
                f"x and y samples differ in length: {self.xs.n} vs {self.ys.n}"
            )

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "PairedSample":
        pts = list(points)
        return cls(Sample(tuple(p[0] for p in pts)), Sample(tuple(p[1] for p in pts)))

    @classmethod
    def from_xy(cls, xs: Iterable[float], ys: Iterable[float]) -> "PairedSample":
        return cls(Sample(tuple(xs)), Sample(tuple(ys)))

    @property
    def n(self) -> int:
        return self.xs.n

    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs.values, self.ys.values))


@dataclass(frozen=True)
class SummaryStats:
    """Sufficient statistics of a paired sample.

    ``var_x * var_y >= cov_xy**2`` holds for any genuine sample (equality
    exactly when the points are collinear), so construction rejects field
    combinations that violate it beyond a rounding allowance.
    """

    n: int
    mean_x: float
    mean_y: float
    var_x: float
    var_y: float
    cov_xy: float
    mean_xx: float
    mean_yy: float
    mean_xy: float

    def __post_init__(self):
        if self.var_x < 0.0 or self.var_y < 0.0:
            raise ValueError(
                f"variances must be nonnegative: var_x={self.var_x}, var_y={self.var_y}"
            )
        # rounding noise in the gap scales with the raw second moments, not
        # with the (possibly tiny) variances, so far-from-origin samples need
        # the second term
        slack = 1e-12 * (self.var_x * self.var_y + 1.0) + 1e-13 * (
            self.mean_xx * self.mean_yy + self.mean_xy**2
        )
        if self.var_x * self.var_y - self.cov_xy**2 < -slack:
            raise ValueError(
                "inconsistent statistics: var_x*var_y < cov_xy^2 beyond tolerance"
            )


def mean(s: Sample) -> float:
    """Arithmetic mean, (1/n) * sum of the values."""
    return sum(s.values) / s.n


def _clamped_second_moment(mean_sq: float, mu: float, scale: float) -> float:
    # Cancellation can leave a tiny negative residue; (-eps, 0) snaps to 0 so
    # that downstream case dispatch can rely on nonnegative variances.
    v = mean_sq - mu * mu
    if -1e-12 * (scale + 1.0) < v < 0.0:
        return 0.0
    return v


def variance(s: Sample) -> float:
    """Mean of squares minus squared mean.

    Exactly 0.0 for a constant sample: the non-centered accumulation cannot
    guarantee that on its own, so constant input is detected directly.
    """
    vals = s.values
    if max(vals) == min(vals):
        return 0.0
    n = len(vals)
    mean_sq = sum(v * v for v in vals) / n
    mu = sum(vals) / n
    return _clamped_second_moment(mean_sq, mu, mean_sq)


def covariance(p: PairedSample) -> float:
    """Mean of products minus product of means.

    Exactly 0.0 whenever either coordinate is constant.
    """
    xs, ys = p.xs.values, p.ys.values
    if max(xs) == min(xs) or max(ys) == min(ys):
        return 0.0
    n = len(xs)
    mean_xy = sum(x * y for x, y in zip(xs, ys)) / n
    return mean_xy - (sum(xs) / n) * (sum(ys) / n)


def summarize(p: PairedSample) -> SummaryStats:
    """Single pass over the five raw sums, then the centered quantities.

    Field values agree exactly with :func:`mean`, :func:`variance` and
    :func:`covariance` applied separately (identical accumulation order).
    Raises :class:`InvalidSampleError` when the second moments overflow.
    """
    xs, ys = p.xs.values, p.ys.values
    n = len(xs)
    sx = sy = sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        sx += x
        sy += y
        sxx += x * x
        syy += y * y
        sxy += x * y
    mean_x = sx / n
    mean_y = sy / n
    mean_xx = sxx / n
    mean_yy = syy / n
    mean_xy = sxy / n
    x_const = max(xs) == min(xs)
    y_const = max(ys) == min(ys)
    var_x = 0.0 if x_const else _clamped_second_moment(mean_xx, mean_x, mean_xx)
    var_y = 0.0 if y_const else _clamped_second_moment(mean_yy, mean_y, mean_yy)
    cov_xy = 0.0 if (x_const or y_const) else mean_xy - mean_x * mean_y
    # SummaryStats squares mean_xy and cov_xy, and the fit objectives
    # multiply var_x by var_y, so those have to stay finite too
    products = (mean_xy * mean_xy, cov_xy * cov_xy, var_x * var_y)
    if not all(map(math.isfinite, (sx, sy, sxx, syy, sxy) + products)):
        raise InvalidSampleError(
            "coordinates too large in magnitude: their sums of squares and "
            "products overflow a double"
        )
    return SummaryStats(
        n=n,
        mean_x=mean_x,
        mean_y=mean_y,
        var_x=var_x,
        var_y=var_y,
        cov_xy=cov_xy,
        mean_xx=mean_xx,
        mean_yy=mean_yy,
        mean_xy=mean_xy,
    )
