"""Benchmark dataset generators with known closed-form statistics.

Two constructions make good stress tests for the three fits:

* ladders: points placed symmetrically on two parallel lines, like rung
  endpoints, where the natural answer is the mid-line between them;
* circles: n evenly spaced points, where no direction is distinguished and
  only the perpendicular fit degrades gracefully (to "every line through the
  center").

A seeded noisy-line generator is included for reproducible randomized tests.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .errors import GenerationError
from .geometry import Point
from .stats import PairedSample, Sample
from .transforms import Translation, apply_motion_points

__all__ = [
    "VerticalLadder",
    "SlantedLadder",
    "ParallelSpec",
    "CircleSpec",
    "NoisyLineSpec",
    "gen_parallel",
    "gen_circle",
    "gen_noisy_line",
]


class VerticalLadder(namedtuple("VerticalLadder", "half_gap rungs")):
    """Rungs between the vertical lines x = half_gap and x = -half_gap.

    ``rungs`` are the y positions, a ``Sample``; they must actually spread out
    (var(rungs) > 0).  The perpendicular fit returns the vertical mid-line
    x = 0 when var(rungs) > half_gap^2, the horizontal line y = mean(rungs)
    when var(rungs) < half_gap^2, and every line through (0, mean(rungs)) at
    the transition.
    """

    __slots__ = ()

    def __new__(cls, half_gap: float, rungs: Sample):
        if not (half_gap > 0.0):
            raise GenerationError(f"half_gap must be positive, got {half_gap!r}")
        if max(rungs.values) == min(rungs.values):  # var(rungs) = 0, without forming it
            raise GenerationError("ladder rungs must have positive variance")
        return super().__new__(cls, half_gap, rungs)


class SlantedLadder(namedtuple("SlantedLadder", "slope offset rungs")):
    """Rungs between y = slope*x + offset and y = slope*x - offset.

    ``rungs`` are the x positions of the points on the upper line; the lower
    points are their perpendicular images.  This is the vertical ladder
    rotated: the half gap becomes offset/sqrt(slope^2+1) and the rung spread
    along the lines becomes (slope^2+1)*var(rungs), so the perpendicular fit
    draws the mid-line exactly when var(rungs) > offset^2/(slope^2+1)^2.
    """

    __slots__ = ()

    def __new__(cls, slope: float, offset: float, rungs: Sample):
        if not (offset > 0.0):
            raise GenerationError(f"offset must be positive, got {offset!r}")
        if not math.isfinite(slope):
            raise GenerationError(f"slope must be finite, got {slope!r}")
        return super().__new__(cls, slope, offset, rungs)


# the classes a ladder specification may be, for isinstance
ParallelSpec = (VerticalLadder, SlantedLadder)


class CircleSpec(namedtuple("CircleSpec", "n phase radius center")):
    """n points at angles phase + 2*pi*i/n, i = 1..n, on the given circle."""

    __slots__ = ()

    def __new__(cls, n: int, phase: float = 0.0, radius: float = 1.0,
                center: Point = Point(0.0, 0.0)):
        if n < 3:
            raise GenerationError(f"a circle sample needs n >= 3, got {n}")
        if not (radius > 0.0):
            raise GenerationError(f"radius must be positive, got {radius!r}")
        return super().__new__(cls, n, phase, radius, center)


class NoisyLineSpec(namedtuple("NoisyLineSpec", "slope intercept n seed x_span noise")):
    """Points on y = slope*x + intercept plus bounded uniform noise on y.

    The pseudo-random stream is fully determined by ``seed``; per point, an x
    is drawn uniformly from ``x_span`` and then a perturbation from
    (-noise, noise).
    """

    __slots__ = ()

    def __new__(cls, slope: float, intercept: float, n: int, seed: int,
                x_span: tuple[float, float] = (-10.0, 10.0), noise: float = 0.1):
        if n < 2:
            raise GenerationError(f"need at least 2 points, got {n}")
        if x_span[0] >= x_span[1]:
            raise GenerationError(f"empty x_span {x_span!r}")
        if noise < 0.0:
            raise GenerationError(f"noise must be nonnegative, got {noise!r}")
        return super().__new__(cls, slope, intercept, n, seed, x_span, noise)


def gen_parallel(spec: ParallelSpec) -> PairedSample:
    """2n points, the upper-line points followed by their lower-line partners.

    Partner i sits so that the segment joining the pair is perpendicular to
    both lines.
    """
    if isinstance(spec, VerticalLadder):
        a = spec.half_gap
        ts = spec.rungs.values
        xs = [a] * len(ts) + [-a] * len(ts)
        ys = list(ts) + list(ts)
        return PairedSample.from_xy(xs, ys)
    m, b = spec.slope, spec.offset
    ts = spec.rungs.values
    den = m * m + 1.0
    dx = 2.0 * m * b / den
    lower_shift = (m * m - 1.0) * b / den
    xs = list(ts) + [t + dx for t in ts]
    ys = [m * t + b for t in ts] + [m * t + lower_shift for t in ts]
    return PairedSample.from_xy(xs, ys)


def gen_circle(spec: CircleSpec) -> PairedSample:
    """Evenly spaced circle points; centering is done via the translation motion.

    For the unit circle at the origin the summary statistics are exact up to
    rounding: both means 0, both variances 1/2, covariance 0, for every n >= 3
    and every phase.
    """
    step = 2.0 * math.pi / spec.n
    xs = [spec.radius * math.cos(spec.phase + step * i) for i in range(1, spec.n + 1)]
    ys = [spec.radius * math.sin(spec.phase + step * i) for i in range(1, spec.n + 1)]
    raw = PairedSample.from_xy(xs, ys)
    if spec.center.x == 0.0 and spec.center.y == 0.0:
        return raw
    return apply_motion_points(raw, Translation(spec.center.x, spec.center.y))


def gen_noisy_line(spec: NoisyLineSpec) -> PairedSample:
    rng = random.Random(spec.seed)
    lo, hi = spec.x_span
    xs, ys = [], []
    for _ in range(spec.n):
        x = rng.uniform(lo, hi)
        xs.append(x)
        ys.append(spec.slope * x + spec.intercept + rng.uniform(-spec.noise, spec.noise))
    return PairedSample.from_xy(xs, ys)
