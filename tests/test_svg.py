"""The SVG's fit paths against an independent slab clipper.

``render_svg`` draws each fitted line as a long segment and lets the viewport
clip it.  The oracle, a slab clipper, cuts the infinite line to the data
rectangle that the viewport shows; the two must mark the same stretch of the
figure.
"""

import math
import re
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import linefit.cli as cli
from linefit.errors import LineFitError
from linefit.fitters import fit_d_report, fit_x, fit_y
from linefit.geometry import NormalLine
from linefit.stats import PairedSample
from linefit.svg import HEIGHT, WIDTH, _Frame, render_svg

_PATH = re.compile(r'<path class="fit-(\w)" d="M (\S+) (\S+) L (\S+) (\S+)"')


def _clip_line(line: NormalLine, frame):
    """Endpoints of the visible segment of an infinite line, or None."""
    si, co = math.sin(line.theta), math.cos(line.theta)
    px, py = line.c * si, -line.c * co  # closest point to the origin
    t_lo, t_hi = -math.inf, math.inf
    for pos, d, lo, hi in (
        (px, co, frame.x_lo, frame.x_hi),
        (py, si, frame.y_lo, frame.y_hi),
    ):
        if abs(d) < 1e-15:
            if not (lo <= pos <= hi):
                return None
            continue
        t0, t1 = (lo - pos) / d, (hi - pos) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_lo, t_hi = max(t_lo, t0), min(t_hi, t1)
    if t_lo >= t_hi:
        return None
    return (px + t_lo * co, py + t_lo * si), (px + t_hi * co, py + t_hi * si)


def _visible(frame: _Frame):
    """The data rectangle the viewport shows."""
    half_w, half_h = 0.5 * WIDTH / frame.scale, 0.5 * HEIGHT / frame.scale
    return SimpleNamespace(
        x_lo=frame.cx - half_w, x_hi=frame.cx + half_w,
        y_lo=frame.cy - half_h, y_hi=frame.cy + half_h,
    )


def _clip_to_viewport(x0, y0, x1, y1):
    """The part of the pixel segment inside 0..WIDTH x 0..HEIGHT, or None."""
    s_lo, s_hi = 0.0, 1.0
    for p0, d, hi in ((x0, x1 - x0, WIDTH), (y0, y1 - y0, HEIGHT)):
        if d == 0.0:
            if not 0.0 <= p0 <= hi:
                return None
            continue
        s0, s1 = -p0 / d, (hi - p0) / d
        s_lo, s_hi = max(s_lo, min(s0, s1)), min(s_hi, max(s0, s1))
    if s_lo >= s_hi:
        return None
    return [(x0 + s * (x1 - x0), y0 + s * (y1 - y0)) for s in (s_lo, s_hi)]


def _fits(p: PairedSample):
    """The (method, report) rows of the methods that fit, from the fitters
    themselves: the reference for the paths drawn from the report document."""
    rows = []
    for method, fit in (("Y", fit_y), ("X", fit_x), ("D", fit_d_report)):
        try:
            rows.append((method, fit(p)))
        except LineFitError:
            pass
    return rows


@st.composite
def samples(draw):
    """Points on a half-unit grid; some vertical or horizontal, some far away."""
    n = draw(st.integers(2, 12))
    grid = st.integers(-200, 200).map(lambda k: 0.5 * k)
    xs = draw(st.lists(grid, min_size=n, max_size=n))
    ys = draw(st.lists(grid, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["general", "vertical", "horizontal"]))
    if kind == "vertical":
        xs = [xs[0]] * n
    elif kind == "horizontal":
        ys = [ys[0]] * n
    offset = draw(st.sampled_from([0.0, 1.6e9]))
    return PairedSample.from_xy([offset + x for x in xs], [offset + y for y in ys])


@settings(max_examples=300, deadline=None)
@given(samples())
def test_fit_paths_match_the_slab_clipper_inside_the_viewport(p):
    fits = _fits(p)
    frame = _Frame(min(p.xs), max(p.xs), min(p.ys), max(p.ys))
    drawn = {}
    document_fits = cli.report(p.summary, ("Y", "X", "D"))["fits"]
    for m, *coords in _PATH.findall(render_svg(p, document_fits)):
        drawn.setdefault(m.upper(), []).append([float(v) for v in coords])
    for method, report in fits:
        lines = report.normal_form is not None
        assert len(drawn.get(method, [])) == (1 if lines else 0)
        if not lines:
            continue
        got = _clip_to_viewport(*drawn[method][0])
        want = _clip_line(report.normal_form, _visible(frame))
        assert got is not None and want is not None
        for g, w in zip(got, want):
            assert math.dist(g, frame.to_pixel(*w)) <= 0.02, (method, got, want)
