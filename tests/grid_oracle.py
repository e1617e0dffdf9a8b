"""Test support: brute-force grid minimizers that check the closed-form fits.

The package never imports this module, and pytest does not collect it;
``test_oracle.py`` and the acceptance suite import it to check the fitters
against an optimizer that knows nothing about the minimization algebra.
Each search evaluates the raw mean-squared-residual objective on a grid and
repeatedly re-grids a shrunken bracket around the incumbent optimum.

The angle search is one-dimensional because the optimal offset for any angle
is fixed by the centroid (c = mean_x*sin(theta) - mean_y*cos(theta)); that
reduction is itself worth exercising.  The slope-intercept searches are truly
two-dimensional, so their default grid is lighter than the angle default
(2000^2 cells per round would be pointless work at desk scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from linefit.stats import PairedSample

__all__ = [
    "GridSpec",
    "DEFAULT_GRID",
    "PLANAR_GRID",
    "grid_min_d",
    "grid_min_y",
    "grid_min_x",
]


@dataclass(frozen=True)
class GridSpec:
    coarse_steps: int = 2000
    refinement_rounds: int = 6
    shrink_factor: float = 0.05

    def __post_init__(self):
        if self.coarse_steps < 100:
            raise ValueError(f"coarse_steps must be >= 100, got {self.coarse_steps}")
        if self.refinement_rounds < 3:
            raise ValueError(
                f"refinement_rounds must be >= 3, got {self.refinement_rounds}"
            )
        if not (0.0 < self.shrink_factor < 1.0):
            raise ValueError(
                f"shrink_factor must be in (0, 1), got {self.shrink_factor!r}"
            )


DEFAULT_GRID = GridSpec()
# Per-axis steps for the 2D searches; 6 rounds at shrink 0.05 still reach a
# final cell far below 1e-4 for any reasonable bracket.
PLANAR_GRID = GridSpec(coarse_steps=100, refinement_rounds=6)

# cap on elements per evaluation chunk, keeps 2D grids at bounded memory
_CHUNK_ELEMENTS = 8_000_000


def _minimize_1d(evaluate, lo: float, hi: float, spec: GridSpec):
    center = 0.5 * (lo + hi)
    width = hi - lo
    best_val = math.inf
    best_arg = center
    for _ in range(spec.refinement_rounds):
        grid = np.linspace(center - 0.5 * width, center + 0.5 * width, spec.coarse_steps)
        vals = evaluate(grid)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_arg = float(grid[i])
        # recenter on the incumbent so it can never leave the bracket
        center = best_arg
        width *= spec.shrink_factor
    return best_arg, best_val


def _minimize_2d(evaluate_rows, c1, h1, c2, h2, spec: GridSpec):
    best_val = math.inf
    best = (c1, c2)
    for _ in range(spec.refinement_rounds):
        g1 = np.linspace(c1 - h1, c1 + h1, spec.coarse_steps)
        g2 = np.linspace(c2 - h2, c2 + h2, spec.coarse_steps)
        rows = max(1, _CHUNK_ELEMENTS // (len(g2) * max(1, evaluate_rows.n)))
        for start in range(0, len(g1), rows):
            chunk = g1[start : start + rows]
            vals = evaluate_rows(chunk, g2)
            i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
            if vals[i, j] < best_val:
                best_val = float(vals[i, j])
                best = (float(chunk[i]), float(g2[j]))
        c1, c2 = best
        h1 *= spec.shrink_factor
        h2 *= spec.shrink_factor
    return best[0], best[1], best_val


class _PlaneObjective:
    """Mean squared residual of first*base + second - target over a 2D grid."""

    def __init__(self, base: np.ndarray, target: np.ndarray):
        self.base = base
        self.target = target
        self.n = len(base)

    def __call__(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        r = (
            firsts[:, None, None] * self.base[None, None, :]
            + seconds[None, :, None]
            - self.target[None, None, :]
        )
        return np.mean(r * r, axis=2)


def grid_min_d(p: PairedSample, spec: GridSpec = DEFAULT_GRID):
    """Grid-minimize the mean squared point-line distance over the angle.

    Returns (theta, c, objective) with theta renormalized into (-pi/2, pi/2]
    and c from the centroid rule at that angle.
    """
    xs = np.asarray(p.xs)
    ys = np.asarray(p.ys)
    mx = float(np.mean(xs))
    my = float(np.mean(ys))

    def evaluate(thetas: np.ndarray) -> np.ndarray:
        si = np.sin(thetas)
        co = np.cos(thetas)
        c = mx * si - my * co
        r = si[:, None] * xs[None, :] - co[:, None] * ys[None, :] - c[:, None]
        return np.mean(r * r, axis=1)

    theta, _ = _minimize_1d(evaluate, -0.5 * math.pi, 0.5 * math.pi, spec)
    # refinement may wander past the range boundary; the objective has period pi
    theta -= math.ceil((theta - 0.5 * math.pi) / math.pi) * math.pi
    c = mx * math.sin(theta) - my * math.cos(theta)
    objective = float(evaluate(np.array([theta]))[0])
    return theta, c, objective


def _slope_bracket(span_num: float, span_den: float) -> float:
    aspect = span_num / span_den if span_den > 0.0 else 0.0
    return 10.0 * aspect + 10.0


def grid_min_y(p: PairedSample, spec: GridSpec = PLANAR_GRID):
    """Grid-minimize the mean squared vertical offset over (m, b).

    The slope bracket |m| <= 10*(y span)/(x span) + 10 comfortably contains
    the optimum for any data the fit itself accepts.
    """
    xs = np.asarray(p.xs)
    ys = np.asarray(p.ys)
    m_half = _slope_bracket(float(ys.max() - ys.min()), float(xs.max() - xs.min()))
    my = float(np.mean(ys))
    b_half = m_half * (abs(float(np.mean(xs))) + 1.0) + 10.0
    objective = _PlaneObjective(xs, ys)
    m, b, val = _minimize_2d(objective, 0.0, m_half, my, b_half, spec)
    return m, b, val


def grid_min_x(p: PairedSample, spec: GridSpec = PLANAR_GRID):
    """Grid-minimize the mean squared horizontal offset over (mu, beta)."""
    xs = np.asarray(p.xs)
    ys = np.asarray(p.ys)
    mu_half = _slope_bracket(float(xs.max() - xs.min()), float(ys.max() - ys.min()))
    mx = float(np.mean(xs))
    beta_half = mu_half * (abs(float(np.mean(ys))) + 1.0) + 10.0
    objective = _PlaneObjective(ys, xs)
    mu, beta, val = _minimize_2d(objective, 0.0, mu_half, mx, beta_half, spec)
    return mu, beta, val
