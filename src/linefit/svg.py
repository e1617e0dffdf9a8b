"""SVG rendering of a point set and its fitted lines.

Fixed 800x600 viewport, equal-aspect scaling with a 5% margin.  Equal aspect
is mandatory: stretching one axis would visually misrepresent perpendicular
offsets.  Line styles follow the usual convention here: dotted for the
vertical-offset fit, dashed for the horizontal-offset fit, solid for the
perpendicular fit.  A fitted line is drawn longer than the figure's diagonal
and the viewport clips it (SVG 1.1 section 14.3).  A degenerate perpendicular
fit is drawn as a marked centroid with a note, not as a line.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .fitters import FitReport
from .stats import PairedSample

__all__ = ["render_svg"]

WIDTH = 800.0
HEIGHT = 600.0
MARGIN_FRACTION = 0.05

_STYLES = {
    "Y": ('stroke="#1f77b4" stroke-dasharray="2 6"', "vertical-offset fit (dotted)"),
    "X": ('stroke="#d62728" stroke-dasharray="12 8"', "horizontal-offset fit (dashed)"),
    "D": ('stroke="#000000"', "perpendicular fit (solid)"),
}


class _Frame:
    """Data-to-pixel mapping with equal aspect and a margin."""

    def __init__(self, p: PairedSample):
        xs, ys = p.xs.values, p.ys.values
        x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
        self.cx = 0.5 * (x_hi + x_lo)
        self.cy = 0.5 * (y_hi + y_lo)
        span_x = x_hi - x_lo
        span_y = y_hi - y_lo
        usable_w = WIDTH * (1.0 - 2.0 * MARGIN_FRACTION)
        usable_h = HEIGHT * (1.0 - 2.0 * MARGIN_FRACTION)
        # a relative floor keeps the frame independent of the data's units
        floor = 1e-9 * max(span_x, span_y) or 1.0
        span_x = max(span_x, floor)
        span_y = max(span_y, floor)
        self.scale = min(usable_w / span_x, usable_h / span_y)

    def to_pixel(self, x: float, y: float) -> tuple[float, float]:
        return (
            0.5 * WIDTH + (x - self.cx) * self.scale,
            0.5 * HEIGHT - (y - self.cy) * self.scale,
        )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(p: PairedSample, fits: Sequence[tuple[str, FitReport]]) -> str:
    """Build the SVG document of the sample and its (method, report) fits."""
    frame = _Frame(p)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]
    for legend_row, (method, report) in enumerate(fits):
        style, label = _STYLES[method]
        if report.normal_form is None:
            centroid = report.line.centroid
            cx, cy = frame.to_pixel(centroid.x, centroid.y)
            parts.append(
                f'<circle class="centroid-marker" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                f'r="7" fill="none" stroke="#000000" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_fmt(cx + 12)}" y="{_fmt(cy - 8)}" font-size="14">'
                "every line through the centroid fits equally well</text>"
            )
            label = "perpendicular fit: degenerate (marked centroid)"
        else:
            # a visible point lies no farther from the foot of the frame centre
            # than from the centre itself: within half a diagonal, < half below
            nf = report.normal_form
            t = frame.cx * math.cos(nf.theta) + frame.cy * math.sin(nf.theta)
            half = (WIDTH + HEIGHT) / frame.scale
            a, b = nf.point_at(t - half), nf.point_at(t + half)
            px0, py0 = frame.to_pixel(a.x, a.y)
            px1, py1 = frame.to_pixel(b.x, b.y)
            parts.append(
                f'<path class="fit-{method.lower()}" '
                f'd="M {_fmt(px0)} {_fmt(py0)} L {_fmt(px1)} {_fmt(py1)}" '
                f'fill="none" stroke-width="2" {style}/>'
            )
        parts.append(
            f'<text x="12" y="{20 + 18 * legend_row}" font-size="13">'
            f"{method}: {label}</text>"
        )
    parts += [
        '<circle class="data-point" cx="%.2f" cy="%.2f" r="3" fill="#444444"/>'
        % frame.to_pixel(x, y)
        for x, y in zip(p.xs.values, p.ys.values)
    ]
    parts.append("</svg>")
    return "\n".join(parts)
