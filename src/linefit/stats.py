"""Paired coordinate samples and their means, variances and covariances.

A ``PairedSample`` holds two float tuples, converted and checked once.  Every
fitting routine consumes the ``SummaryStats`` produced here; once a sample is
summarized the raw coordinates are never needed again, and a ``PairedSample``
caches its summary, so it is computed at most once.
Accumulation is one left-to-right pass over the offsets from the centroid,
which comes from correctly rounded sums (the "corrected two-pass" algorithm
of Chan, Golub & LeVeque, 1983): wherever the points sit, the offsets are
small, so the centered quantities do not cancel away.  Slices of a sample
summarize apart and merge (:mod:`linefit.halves`): exact column sums give the
centroid bit for bit, and the slices' centred sums about it add up.  The quadratic
pairwise-difference forms of the variance and covariance are deliberately
kept out of the library: they serve as independent oracles in the test
suite.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain
from operator import itemgetter, neg

from .errors import InvalidSampleError, SampleMismatchError

__all__ = [
    "PairedSample",
    "SummaryStats",
    "mean",
    "summarize",
]


def _immutable(self, name: str, value) -> None:
    """``__setattr__`` of the records whose dict only caches a property."""
    raise AttributeError(f"cannot set {name!r}: a {type(self).__name__} is immutable")


class PairedSample(namedtuple("PairedSample", "xs ys")):
    """Points (x_i, y_i) as equal-length tuples ``xs``, ``ys`` of at least two finite floats.

    No ``__slots__``: the cached ``summary`` lives in the instance dict.
    """

    __setattr__ = _immutable

    def __new__(cls, xs: Iterable[float], ys: Iterable[float]):
        xs, ys = tuple(map(float, xs)), tuple(map(float, ys))
        for vals in (xs, ys):
            if len(vals) < 2:
                raise InvalidSampleError(f"a sample needs at least 2 values, got {len(vals)}")
            if not all(map(math.isfinite, vals)):
                i, v = next((i, v) for i, v in enumerate(vals) if not math.isfinite(v))
                raise InvalidSampleError(f"sample value at index {i} is not finite: {v!r}")
        if len(xs) != len(ys):
            raise SampleMismatchError(f"x and y samples differ in length: {len(xs)} vs {len(ys)}")
        return super().__new__(cls, xs, ys)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "PairedSample":
        pts = list(points)
        return cls(map(itemgetter(0), pts), map(itemgetter(1), pts))

    @classmethod
    def from_xy(cls, xs: Iterable[float], ys: Iterable[float]) -> "PairedSample":
        return cls(xs, ys)

    @property
    def n(self) -> int:
        return len(self.xs)

    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.xs, self.ys))

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

    Construction raises :class:`InvalidSampleError` unless the means and the
    products the fits form, var_x*var_y and cov_xy*cov_xy, are finite.
    ``cov_xy**2 <= var_x * var_y`` holds for any genuine sample (equality
    exactly when the points are collinear), so construction rejects field
    combinations that violate it beyond a relative rounding allowance.
    """

    __slots__ = ()

    def __new__(cls, n: int, mean_x: float, mean_y: float,
                var_x: float, var_y: float, cov_xy: float):
        if not all(map(math.isfinite, (mean_x, mean_y, var_x * var_y, cov_xy * cov_xy))):
            raise InvalidSampleError(
                "coordinates too large in magnitude: their sums of squares and "
                "products overflow a double"
            )
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


def mean(values: Sequence[float]) -> float:
    """``math.fsum(values) / n`` of a column, the ``mean_x`` of :func:`summarize`."""
    n = len(values)
    # rounding the sum, then the quotient, can move a constant off itself; a float's
    # __eq__ takes an int too, where int.__eq__(float) is the truthy NotImplemented
    first = float(values[0])
    if all(map(first.__eq__, values)):
        return first
    try:
        return math.fsum(values) / n
    except OverflowError:  # a power-of-two scale 2**-k <= 1/n is exact and in range
        k = n.bit_length()
        return math.ldexp(math.fsum([math.ldexp(v, -k) for v in values]) / n, k)


def summarize(p: PairedSample) -> SummaryStats:
    """One pass over the offsets dx, dy from the centroid ``p.centroid()``.

    var_x = mean(dx^2) - mean(dx)^2 and cov_xy = mean(dx*dy) - mean(dx)*mean(dy):
    the mean(dx) terms correct for the rounding of the centroid.  Computes on
    every call (``p.summary`` keeps one).  Raises :class:`InvalidSampleError`
    when the statistics overflow.
    """
    mean_x, mean_y = p.centroid()
    return _summary(p.n, mean_x, mean_y, *_centred_sums(p.xs, p.ys, mean_x, mean_y))


def _centred_sums(xs, ys, mean_x: float, mean_y: float) -> tuple[float, ...]:
    """The sums of dx, dy, dx*dx, dy*dy and dx*dy, the offsets from (mean_x,
    mean_y); those of consecutive slices add up to the whole's, but for rounding."""
    sx = sy = sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        sx += dx
        sy += dy
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    return sx, sy, sxx, syy, sxy


def _summary(n: int, mean_x: float, mean_y: float,
             sx: float, sy: float, sxx: float, syy: float, sxy: float) -> SummaryStats:
    """The statistics of n points from their centroid and :func:`_centred_sums`."""
    mean_dx = sx / n
    mean_dy = sy / n
    return _checked(n, mean_x, mean_y, sxx / n - mean_dx * mean_dx,
                    syy / n - mean_dy * mean_dy, sxy / n - mean_dx * mean_dy)


def _column(values: list[float]) -> tuple:
    """What :func:`mean` needs of a slice of a column: () for no values, else
    (min, max, floats that add up exactly to the slice's sum: math.fsum
    residuals until one is 0; None where it overflows).  ValueError for a
    value that is not finite."""
    try:
        terms = [math.fsum(values)]
    except OverflowError:  # finite values whose partial sums overflow, or an inf after them
        terms = None if all(map(math.isfinite, values)) else [math.inf]
    if terms and not math.isfinite(terms[0]):  # an inf or a nan sums to one
        raise ValueError("a value is not finite")
    while terms and terms[-1]:
        terms.append(math.fsum(chain(values, map(neg, terms))))
    return values and (min(values), max(values), terms)


def _merged(columns, n: int) -> tuple:
    """(:func:`mean` bit for bit, min, max) of the n values whose slices, in
    order, gave ``columns`` (:func:`_column`); the mean is None where mean
    would scale the values, as math.fsum might overflow on them."""
    columns = [c for c in columns if c]
    lo, hi = min(c[0] for c in columns), max(c[1] for c in columns)
    # min is the first of equal values; no partial sum in math.fsum exceeds
    # n*max|v| by more than an ulp
    if lo == hi or not n * max(-lo, hi) < 2.0 ** 1023:
        return (lo if lo == hi else None), lo, hi
    return math.fsum(chain.from_iterable(c[2] for c in columns)) / n, lo, hi


def _checked(n: int, mean_x: float, mean_y: float,
             var_x: float, var_y: float, cov_xy: float) -> SummaryStats:
    """``SummaryStats`` of moments that carry rounding error, kept to what a
    genuine sample satisfies: a finite variance that rounded to 0.0 or below is
    0.0, and a finite |cov_xy| whose square exceeds var_x*var_y, as rounding on
    collinear data can, is cut to sqrt(var_x)*sqrt(var_y).  That bound can round
    an ulp below an exact cov_xy = var_x = var_y, so a square within var_x*var_y
    stays, unless it is subnormal or zero: subnormal products keep too few bits
    to tell.  Moments that are not finite reach the constructor as they are."""
    var_x = 0.0 if -math.inf < var_x <= 0.0 else var_x
    var_y = 0.0 if -math.inf < var_y <= 0.0 else var_y
    bound = math.sqrt(var_x) * math.sqrt(var_y)
    if bound < abs(cov_xy) < math.inf and not (
            sys.float_info.min <= cov_xy * cov_xy <= var_x * var_y):
        cov_xy = math.copysign(bound, cov_xy)
    return SummaryStats(n, mean_x, mean_y, var_x, var_y, cov_xy)
