"""Seeded workload inputs, built with numpy and never with linefit.

``linefit.generators`` is deliberately not used: inputs made by the program
under test would give the reference the same code paths as the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unix-timestamp magnitude: x values of the far-offset slice sit here.
FAR_OFFSET = 1.6e9

LIB_SIZES = (8, 32, 128, 512)
# One block of eight consecutive requests holds each kind once in this order,
# so the far-offset slice is exactly one request in eight.
LIB_KINDS = ("line", "circle", "line", "vertical", "line", "horizontal", "line", "far")
LIB_POOL = 128


@dataclass(frozen=True)
class LibInput:
    """One lib-small request: the points and how they were built."""

    kind: str
    xs: np.ndarray
    ys: np.ndarray
    invariance: bool  # also run invariance_report under a quarter turn
    radius: float = 0.0  # circles only


def rng_for(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def noisy_line(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points near a line of slope +-[0.5, 2] at ordinary magnitudes."""
    slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    xs = rng.uniform(-50.0, 50.0, n)
    ys = slope * xs + rng.uniform(-20.0, 20.0) + rng.normal(0.0, rng.uniform(0.5, 5.0), n)
    return xs, ys


def write_csv(path, xs: np.ndarray, ys: np.ndarray) -> None:
    """Write `x,y` rows with repr floats, so parsing gives back the exact values."""
    rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys.tolist()))
    path.write_text("x,y\n" + rows, encoding="ascii")


def _lib_input(rng: np.random.Generator, kind: str, n: int, invariance: bool) -> LibInput:
    if kind == "circle":
        radius = rng.uniform(0.5, 3.0)
        angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(1, n + 1) / n
        cx, cy = rng.uniform(-5.0, 5.0, 2)
        return LibInput(kind, cx + radius * np.cos(angles), cy + radius * np.sin(angles),
                        invariance, radius)
    if kind in ("vertical", "horizontal"):
        fixed = np.full(n, rng.uniform(-5.0, 5.0))
        rungs = rng.uniform(-10.0, 10.0, n)
        xs, ys = (fixed, rungs) if kind == "vertical" else (rungs, fixed)
        return LibInput(kind, xs, ys, invariance)
    u = rng.uniform(-10.0, 10.0, n)
    slope = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)
    ys = slope * u + rng.uniform(-5.0, 5.0) + rng.uniform(-1.0, 1.0) * rng.uniform(0.05, 1.0, n)
    x0 = FAR_OFFSET if kind == "far" else rng.uniform(-5.0, 5.0)
    return LibInput(kind, x0 + u, ys, invariance)


def lib_pool(seed: int) -> list[LibInput]:
    """The 128 lib-small requests; request i of a run uses pool[i % 128]."""
    rng = rng_for(seed, "lib-small")
    return [
        _lib_input(
            rng,
            LIB_KINDS[i % 8],
            LIB_SIZES[(i // 8) % len(LIB_SIZES)],
            # one in four, rotating through the kinds block by block
            (i + i // 8) % 4 == 0,
        )
        for i in range(LIB_POOL)
    ]
