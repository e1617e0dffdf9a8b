"""Means, variances and covariances of paired coordinate samples.

Every fitting routine in this package consumes the ``SummaryStats`` produced
here; once a sample is summarized the raw coordinates are never needed again,
and a ``PairedSample`` caches its summary, so it is computed at most once.
Accumulation is one left-to-right pass over the offsets from the first point
(the "shifted data" algorithm of Chan, Golub & LeVeque, 1983): far from the
origin the offsets are exact and small, so the centered quantities do not
cancel away.  The quadratic pairwise-difference forms of the variance and
covariance are deliberately kept out of the library: they serve as
independent oracles in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def summary(self) -> "SummaryStats":
        """``summarize(self)``, computed on first use and kept: the values
        are immutable, so every fit of this sample shares one summary."""
        return summarize(self)


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
    """The ``mean_x`` of :func:`summarize`, with zeros (no overflow) as the y."""
    return summarize(PairedSample(s, Sample((0.0,) * s.n))).mean_x


def variance(s: Sample) -> float:
    """The ``var_x`` of :func:`summarize`, with zeros as the y; 0.0 if constant."""
    return summarize(PairedSample(s, Sample((0.0,) * s.n))).var_x


def covariance(p: PairedSample) -> float:
    """The ``cov_xy`` of :func:`summarize`; exactly 0.0 if a coordinate is constant."""
    return summarize(p).cov_xy


def summarize(p: PairedSample) -> SummaryStats:
    """One pass over dx = x - x0 and dy = y - y0, offsets from the first point.

    var_x = mean(dx^2) - mean(dx)^2 and cov_xy = mean(dx*dy) - mean(dx)*mean(dy),
    so a constant coordinate gives exact zeros; the raw moments are derived
    from these.  Computes on every call (``p.summary`` keeps one).  Raises
    :class:`InvalidSampleError` when the statistics overflow.
    """
    xs, ys = p.xs.values, p.ys.values
    n = len(xs)
    x0, y0 = xs[0], ys[0]
    sx = sy = sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        dx = x - x0
        dy = y - y0
        sx += dx
        sy += dy
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    mean_dx = sx / n
    mean_dy = sy / n
    var_x = max(0.0, sxx / n - mean_dx * mean_dx)
    var_y = max(0.0, syy / n - mean_dy * mean_dy)
    cov_xy = sxy / n - mean_dx * mean_dy
    mean_x = x0 + mean_dx
    mean_y = y0 + mean_dy
    mean_xx = var_x + mean_x * mean_x
    mean_yy = var_y + mean_y * mean_y
    mean_xy = cov_xy + mean_x * mean_y
    # SummaryStats squares mean_xy and cov_xy, and the fit objectives
    # multiply var_x by var_y, so those have to stay finite too
    checked = (sxx, syy, sxy, mean_xx, mean_yy, mean_xy * mean_xy,
               cov_xy * cov_xy, var_x * var_y)
    if not all(map(math.isfinite, checked)):
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
