"""Test support: the three fit objectives as sums over the points.

The package never imports this module, and pytest does not collect it.  The
library computes each objective in O(1) from the summary statistics, by
completing the square about the fitted line; these loops are the
definitions, the mean of the squared offsets summed with ``math.fsum``, so
the tests can check the closed forms against code that knows none of that
algebra.
"""

from __future__ import annotations

import math

from linefit.stats import PairedSample

__all__ = ["loop_y", "loop_x", "loop_d"]


def loop_y(p: PairedSample, m: float, b: float) -> float:
    """Mean squared vertical offset of the points from y = m*x + b."""
    xs, ys = p.xs, p.ys
    return math.fsum((m * x + b - y) ** 2 for x, y in zip(xs, ys)) / len(xs)


def loop_x(p: PairedSample, mu: float, beta: float) -> float:
    """Mean squared horizontal offset of the points from x = mu*y + beta."""
    xs, ys = p.xs, p.ys
    return math.fsum((mu * y + beta - x) ** 2 for x, y in zip(xs, ys)) / len(xs)


def loop_d(p: PairedSample, theta: float, c: float) -> float:
    """Mean squared distance of the points from x*sin(theta) - y*cos(theta) = c."""
    xs, ys = p.xs, p.ys
    si, co = math.sin(theta), math.cos(theta)
    return math.fsum((x * si - y * co - c) ** 2 for x, y in zip(xs, ys)) / len(xs)
