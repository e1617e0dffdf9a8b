"""Means, variances and covariances of paired coordinate samples.

Every fitting routine in this package consumes the ``SummaryStats`` produced
here; once a sample is summarized the raw coordinates are never needed again,
and a ``PairedSample`` caches its summary, so it is computed at most once.
Accumulation is one left-to-right pass over the offsets from the centroid,
which comes from correctly rounded sums (the "corrected two-pass" algorithm
of Chan, Golub & LeVeque, 1983): wherever the points sit, the offsets are
small, so the centered quantities do not cancel away.  The quadratic
pairwise-difference forms of the variance and covariance are deliberately
kept out of the library: they serve as independent oracles in the test
suite.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property

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


def _immutable(self, name: str, value) -> None:
    """``__setattr__`` of the records whose dict only caches a property."""
    raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is immutable")


class Sample(namedtuple("Sample", "values")):
    """An immutable vector of at least two finite coordinates."""

    __slots__ = ()

    def __new__(cls, values: Iterable[float]):
        vals = tuple(map(float, values))
        if len(vals) < 2:
            raise InvalidSampleError(
                f"a sample needs at least 2 values, got {len(vals)}"
            )
        if not all(map(math.isfinite, vals)):
            i, v = next((i, v) for i, v in enumerate(vals) if not math.isfinite(v))
            raise InvalidSampleError(
                f"sample value at index {i} is not finite: {v!r}"
            )
        return super().__new__(cls, vals)

    @property
    def n(self) -> int:
        return len(self.values)


class PairedSample(namedtuple("PairedSample", "xs ys")):
    """Two equal-length coordinate vectors describing points (x_i, y_i).

    No ``__slots__``: the cached ``summary`` lives in the instance dict.
    """

    __setattr__ = _immutable

    def __new__(cls, xs: Sample, ys: Sample):
        if xs.n != ys.n:
            raise SampleMismatchError(
                f"x and y samples differ in length: {xs.n} vs {ys.n}"
            )
        return super().__new__(cls, xs, ys)

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

    def centroid(self) -> tuple[float, float]:
        """The mean point from correctly rounded sums: the same on every Python."""
        return mean(self.xs), mean(self.ys)

    @cached_property
    def summary(self) -> "SummaryStats":
        """``summarize(self)``, computed on first use and kept: the values
        are immutable, so every fit of this sample shares one summary."""
        return summarize(self)


class SummaryStats(namedtuple("SummaryStats", "n mean_x mean_y var_x var_y cov_xy")):
    """Sufficient statistics of a paired sample, all central moments.

    ``cov_xy**2 <= var_x * var_y`` holds for any genuine sample (equality
    exactly when the points are collinear), so construction rejects field
    combinations that violate it beyond a relative rounding allowance.
    """

    __slots__ = ()

    def __new__(cls, n: int, mean_x: float, mean_y: float,
                var_x: float, var_y: float, cov_xy: float):
        if var_x < 0.0 or var_y < 0.0:
            raise ValueError(
                f"variances must be nonnegative: var_x={var_x}, var_y={var_y}"
            )
        # square roots first, so tiny variances cannot underflow the bound
        if abs(cov_xy) > (1.0 + 1e-12) * math.sqrt(var_x) * math.sqrt(var_y):
            raise ValueError(
                "inconsistent statistics: cov_xy^2 > var_x*var_y beyond tolerance"
            )
        return super().__new__(cls, n, mean_x, mean_y, var_x, var_y, cov_xy)


def mean(s: Sample) -> float:
    """``math.fsum(values) / n``, the ``mean_x`` of :func:`summarize`."""
    values, n = s.values, s.n
    # rounding the sum, then the quotient, can move a constant off itself
    if all(map(values[0].__eq__, values)):
        return values[0]
    try:
        return math.fsum(values) / n
    except OverflowError:  # a power-of-two scale 2**-k <= 1/n is exact and in range
        k = n.bit_length()
        return math.ldexp(math.fsum([math.ldexp(v, -k) for v in values]) / n, k)


def variance(s: Sample) -> float:
    """The ``var_x`` of :func:`summarize`, with zeros as the y; 0.0 if constant."""
    return summarize(PairedSample(s, Sample((0.0,) * s.n))).var_x


def covariance(p: PairedSample) -> float:
    """The ``cov_xy`` of :func:`summarize`; exactly 0.0 if a coordinate is constant."""
    return summarize(p).cov_xy


def summarize(p: PairedSample) -> SummaryStats:
    """One pass over the offsets dx, dy from the centroid ``p.centroid()``.

    var_x = mean(dx^2) - mean(dx)^2 and cov_xy = mean(dx*dy) - mean(dx)*mean(dy):
    the mean(dx) terms correct for the rounding of the centroid.  Computes on
    every call (``p.summary`` keeps one).  Raises :class:`InvalidSampleError`
    when the statistics overflow.
    """
    xs, ys = p.xs.values, p.ys.values
    n = len(xs)
    mean_x, mean_y = p.centroid()
    sx = sy = sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        sx += dx
        sy += dy
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    mean_dx = sx / n
    mean_dy = sy / n
    return _checked(n, mean_x, mean_y, sxx / n - mean_dx * mean_dx,
                    syy / n - mean_dy * mean_dy, sxy / n - mean_dx * mean_dy)


def _checked(n: int, mean_x: float, mean_y: float,
             var_x: float, var_y: float, cov_xy: float) -> SummaryStats:
    """``SummaryStats`` of moments that carry rounding error, kept to what a
    genuine sample satisfies: a variance that rounded below 0.0 is 0.0, and
    |cov_xy| is at most sqrt(var_x)*sqrt(var_y), which rounding on collinear
    data can exceed.  Raises :class:`InvalidSampleError` when the statistics
    overflow."""
    finite = all(map(math.isfinite, (mean_x, mean_y, var_x, var_y, cov_xy)))
    var_x, var_y = max(0.0, var_x), max(0.0, var_y)
    bound = math.sqrt(var_x) * math.sqrt(var_y)
    if abs(cov_xy) > bound:
        cov_xy = math.copysign(bound, cov_xy)
    # the fit objectives and diagnostics square cov_xy and multiply var_x by
    # var_y, so those have to stay finite too
    if not (finite and math.isfinite(cov_xy * cov_xy) and math.isfinite(var_x * var_y)):
        raise InvalidSampleError(
            "coordinates too large in magnitude: their sums of squares and "
            "products overflow a double"
        )
    return SummaryStats(n, mean_x, mean_y, var_x, var_y, cov_xy)
