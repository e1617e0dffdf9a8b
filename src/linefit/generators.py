"""Benchmark dataset generators with known closed-form statistics.

Two constructions make good stress tests for the three fits:

* ladders: points placed symmetrically on two parallel lines, like rung
  endpoints, where the natural answer is the mid-line between them;
* circles: n evenly spaced points, where no direction is distinguished and
  only the perpendicular fit degrades gracefully (to "every line through the
  center").

A seeded noisy-line generator is included for reproducible randomized tests.
Ladder rungs are a plain sequence of at least two numbers.  Each generator
checks its own arguments and raises :class:`GenerationError` for a bad one.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from .errors import GenerationError
from .geometry import Point
from .stats import PairedSample
from .transforms import Translation, apply_motion_points

__all__ = ["gen_vertical_ladder", "gen_slanted_ladder", "gen_circle", "gen_noisy_line"]


def _check_rungs(rungs: Sequence[float]) -> None:
    if len(rungs) < 2:
        raise GenerationError(f"a ladder needs at least 2 rungs, got {len(rungs)}")


def gen_vertical_ladder(half_gap: float, rungs: Sequence[float]) -> PairedSample:
    """Rungs between the vertical lines x = half_gap and x = -half_gap.

    ``rungs`` are the y positions, at least two; they must actually spread out
    (var(rungs) > 0).  The 2n points are (half_gap, t) for each rung t, then
    their partners (-half_gap, t).  The perpendicular fit returns the vertical
    mid-line x = 0 when var(rungs) > half_gap^2, the horizontal line
    y = mean(rungs) when var(rungs) < half_gap^2, and every line through
    (0, mean(rungs)) at the transition.
    """
    if not (half_gap > 0.0):
        raise GenerationError(f"half_gap must be positive, got {half_gap!r}")
    _check_rungs(rungs)
    if max(rungs) == min(rungs):  # var(rungs) = 0, without forming it
        raise GenerationError("ladder rungs must have positive variance")
    n = len(rungs)
    return PairedSample.from_xy([half_gap] * n + [-half_gap] * n, [*rungs, *rungs])


def gen_slanted_ladder(slope: float, offset: float, rungs: Sequence[float]) -> PairedSample:
    """Rungs between y = slope*x + offset and y = slope*x - offset.

    ``rungs`` are the x positions of the points on the upper line, at least
    two; the 2n points are those, then their lower-line partners, each placed
    so that the segment joining the pair is perpendicular to both lines.  This
    is the vertical ladder rotated: the half gap becomes offset/sqrt(slope^2+1)
    and the rung spread along the lines becomes (slope^2+1)*var(rungs), so the
    perpendicular fit draws the mid-line exactly when
    var(rungs) > offset^2/(slope^2+1)^2.  An offset so small next to the rungs
    that a lower point rounds onto its upper partner is an error.
    """
    if not (offset > 0.0):
        raise GenerationError(f"offset must be positive, got {offset!r}")
    if not math.isfinite(slope):
        raise GenerationError(f"slope must be finite, got {slope!r}")
    _check_rungs(rungs)
    den = slope * slope + 1.0
    dx = 2.0 * slope * offset / den
    lower_shift = (slope * slope - 1.0) * offset / den
    upper = [(t, slope * t + offset) for t in rungs]
    lower = [(t + dx, slope * t + lower_shift) for t in rungs]
    points = PairedSample.from_points(upper + lower)
    if any(map(tuple.__eq__, upper, lower)):
        raise GenerationError(
            f"offset {offset!r} is lost to rounding: a lower point equals its upper partner"
        )
    return points


def gen_circle(n: int, phase: float = 0.0, radius: float = 1.0,
               center: Point = Point(0, 0)) -> PairedSample:
    """n points at angles phase + 2*pi*i/n, i = 1..n, on the given circle;
    centering is done via the translation motion.

    For the unit circle at the origin the summary statistics are exact up to
    rounding: both means 0, both variances 1/2, covariance 0, for every n >= 3
    and every phase.
    """
    if n < 3:
        raise GenerationError(f"a circle sample needs n >= 3, got {n}")
    if not (radius > 0.0):
        raise GenerationError(f"radius must be positive, got {radius!r}")
    angles = [phase + 2.0 * math.pi / n * i for i in range(1, n + 1)]
    raw = PairedSample.from_xy([radius * math.cos(a) for a in angles],
                               [radius * math.sin(a) for a in angles])
    if center.x == 0.0 and center.y == 0.0:
        return raw
    return apply_motion_points(raw, Translation(center.x, center.y))


def gen_noisy_line(slope: float, intercept: float, n: int, seed: int,
                   x_span: tuple[float, float] = (-10.0, 10.0),
                   noise: float = 0.1) -> PairedSample:
    """Points on y = slope*x + intercept plus bounded uniform noise on y.

    The pseudo-random stream is fully determined by ``seed``; per point, an x
    is drawn uniformly from ``x_span`` and then a perturbation from
    (-noise, noise).
    """
    if n < 2:
        raise GenerationError(f"need at least 2 points, got {n}")
    if x_span[0] >= x_span[1]:
        raise GenerationError(f"empty x_span {x_span!r}")
    if noise < 0.0:
        raise GenerationError(f"noise must be nonnegative, got {noise!r}")
    rng = random.Random(seed)
    lo, hi = x_span
    xs, ys = [], []
    for _ in range(n):
        x = rng.uniform(lo, hi)
        xs.append(x)
        ys.append(slope * x + intercept + rng.uniform(-noise, noise))
    return PairedSample.from_xy(xs, ys)
