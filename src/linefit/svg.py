"""SVG rendering of a point set and the fits of its report document.

The lines come from the ``fits`` block of :func:`linefit.cli.report`, the
document that the table and the JSON report render too.

Fixed 800x600 viewport, equal-aspect scaling with a 5% margin.  Equal aspect
is mandatory: stretching one axis would visually misrepresent perpendicular
offsets.  Line styles follow the usual convention here: dotted for the
vertical-offset fit, dashed for the horizontal-offset fit, solid for the
perpendicular fit.  A fitted line is drawn longer than the figure's diagonal
and the viewport clips it (SVG 1.1 section 14.3).  A degenerate perpendicular
fit is drawn as a marked centroid with a note, not as a line.  From 10,000
points up a forked child formats the second half of the data-point markers
(:mod:`linefit.halves`), the half of the input that ``linefit fit --svg``
parsed; the bytes are those of one process.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import chain, repeat
from operator import add, mul, sub

from .halves import _both
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
_MARKER = '\n<circle class="data-point" cx="%.2f" cy="%.2f" r="3" fill="#444444"/>'


class _Frame(namedtuple("_Frame", "cx cy scale")):
    """Data-to-pixel mapping with equal aspect and a margin, for the points in
    the box [x_lo, x_hi] x [y_lo, y_hi]."""

    __slots__ = ()

    def __new__(cls, x_lo: float, x_hi: float, y_lo: float, y_hi: float):
        span_x = x_hi - x_lo
        span_y = y_hi - y_lo
        usable_w = WIDTH * (1.0 - 2.0 * MARGIN_FRACTION)
        usable_h = HEIGHT * (1.0 - 2.0 * MARGIN_FRACTION)
        # a relative floor keeps the frame independent of the data's units
        floor = 1e-9 * max(span_x, span_y) or 1.0
        span_x = max(span_x, floor)
        span_y = max(span_y, floor)
        # the halves before the sum: a centre near the largest double stays finite;
        # a span below 4e-306 draws smaller, at the largest finite scale
        return super().__new__(cls, 0.5 * x_hi + 0.5 * x_lo, 0.5 * y_hi + 0.5 * y_lo,
                               min(usable_w / span_x, usable_h / span_y, sys.float_info.max))

    def to_pixel(self, x: float, y: float) -> tuple[float, float]:
        return (
            0.5 * WIDTH + (x - self.cx) * self.scale,
            0.5 * HEIGHT - (y - self.cy) * self.scale,
        )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(p: PairedSample, fits: dict) -> str:
    """The SVG of the sample and of the fits that succeeded in a report's ``fits``."""
    frame = _Frame(min(p.xs), max(p.xs), min(p.ys), max(p.ys))
    return "".join(_svg(frame, fits, _both(lambda s: _markers(p.xs[s], p.ys[s], *frame), p.n)))


def _markers(xs, ys, cx: float, cy: float, scale: float) -> str:
    """The data-point markers of the points (xs, ys) in the frame (cx, cy, scale)."""
    # to_pixel's operations in its order, so its bits; one format call
    # over the interleaved columns builds no string per point
    scale = repeat(scale)
    px = map(add, repeat(0.5 * WIDTH), map(mul, map(sub, xs, repeat(cx)), scale))
    py = map(sub, repeat(0.5 * HEIGHT), map(mul, map(sub, ys, repeat(cy)), scale))
    xy = tuple(chain.from_iterable(zip(px, py)))
    return (_MARKER * (len(xy) // 2)) % xy


def _svg(frame: _Frame, fits: dict, markers) -> list[str]:
    """The pieces of the SVG of the fits in a report's ``fits`` and of the
    points whose :func:`_markers` in ``frame`` are the strings ``markers``."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
        f'viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
        f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" fill="#ffffff"/>',
    ]
    drawn = [(k.upper(), fit) for k, fit in fits.items() if fit["status"] != "precondition-failed"]
    for legend_row, (method, fit) in enumerate(drawn):
        style, label = _STYLES[method]
        if fit["status"] == "all_lines_through_centroid":
            cx, cy = frame.to_pixel(*fit["centroid"])
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
            # the ends in pixels from the frame centre, where no data coordinate
            # can overflow: the foot of the centre lies `off` along the normal,
            # and a visible point within half a diagonal of it, below `reach`
            nf = fit["normal_form"]
            si, co = math.sin(nf["theta"]), math.cos(nf["theta"])
            off = (frame.cx * si - frame.cy * co - nf["c"]) * frame.scale
            fx, fy, reach = 0.5 * WIDTH - off * si, 0.5 * HEIGHT - off * co, WIDTH + HEIGHT
            parts.append(
                f'<path class="fit-{method.lower()}" '
                f'd="M {_fmt(fx - reach * co)} {_fmt(fy + reach * si)} '
                f'L {_fmt(fx + reach * co)} {_fmt(fy - reach * si)}" '
                f'fill="none" stroke-width="2" {style}/>'
            )
        parts.append(
            f'<text x="12" y="{20 + 18 * legend_row}" font-size="13">'
            f"{method}: {label}</text>"
        )
    return ["\n".join(parts), *markers, "\n</svg>"]
