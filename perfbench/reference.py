"""Independent numpy reference and the output checks for every workload.

Nothing here imports linefit.  Statistics are two-pass centred moments, so
they stay exact to rounding at any offset.  Degenerate verdicts (vertical,
horizontal, isotropic) come from how each input was built, not from linefit.
Every check returns a list of problems; an empty list means the output
matches.
"""

from __future__ import annotations

import io
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

# Allowed error, relative to the variance-based scale of each quantity.
TOL = 1e-8
# The CLI table prints 6 significant digits: half a unit in the last place.
TABLE_RTOL = 6e-6
HALF_PI = math.pi / 2.0
SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass(frozen=True)
class Moments:
    n: int
    mx: float
    my: float
    vx: float
    vy: float
    cxy: float

    @property
    def gap(self) -> float:
        """Eigen-gap of the covariance matrix; the D angle is well posed when large."""
        return math.hypot(self.vx - self.vy, 2.0 * self.cxy)

    @property
    def centre_scale(self) -> float:
        return 1.0 + abs(self.mx) + abs(self.my) + math.sqrt(self.vx + self.vy)


def moments(xs: np.ndarray, ys: np.ndarray) -> Moments:
    mx, my = float(xs.mean()), float(ys.mean())
    dx, dy = xs - mx, ys - my
    return Moments(len(xs), mx, my, float(np.mean(dx * dx)), float(np.mean(dy * dy)),
                   float(np.mean(dx * dy)))


def canonical(theta: float, c: float) -> tuple[float, float]:
    """Normal form x*sin(theta) - y*cos(theta) = c with theta in (-pi/2, pi/2]."""
    while theta > HALF_PI:
        theta, c = theta - math.pi, -c
    while theta <= -HALF_PI:
        theta, c = theta + math.pi, -c
    return theta, c


@dataclass(frozen=True)
class Fits:
    """Reference answers; each line also in normal form (theta, c)."""

    m: float | None
    b: float | None
    y_obj: float | None
    mu: float | None
    beta: float | None
    x_obj: float | None
    theta: float
    c: float
    d_obj: float


def fits(s: Moments) -> Fits:
    """Closed forms in the centred moments; Y/X are None without spread."""
    m = b = y_obj = mu = beta = x_obj = None
    det = max(0.0, s.vx * s.vy - s.cxy * s.cxy)
    if s.vx > 0.0:
        m = s.cxy / s.vx
        b = s.my - m * s.mx
        y_obj = det / s.vx
    if s.vy > 0.0:
        mu = s.cxy / s.vy
        beta = s.mx - mu * s.my
        x_obj = det / s.vy
    theta = 0.5 * math.atan2(2.0 * s.cxy, s.vx - s.vy)
    theta, c = canonical(theta, s.mx * math.sin(theta) - s.my * math.cos(theta))
    total = s.vx + s.vy
    d_obj = 0.0 if total == 0.0 else 2.0 * det / (total + s.gap)
    return Fits(m, b, y_obj, mu, beta, x_obj, theta, c, d_obj)


def _close(name: str, got, want: float, scale: float, problems: list[str]) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not (
        abs(got - want) <= TOL * scale
    ):
        problems.append(f"{name}: got {got!r}, reference {want!r}")


def _angle_scale(s: Moments) -> float:
    return (s.vx + s.vy) / s.gap if s.gap > 0.0 else math.inf


def _same_line(name: str, theta: float, c: float, want_theta: float, want_c: float,
               s: Moments, problems: list[str]) -> None:
    dt = theta - want_theta
    if not abs(math.sin(dt)) <= TOL * _angle_scale(s):
        problems.append(f"{name} theta: got {theta!r}, reference {want_theta!r}")
    _close(f"{name} c", c if math.cos(dt) >= 0.0 else -c, want_c, s.centre_scale, problems)


# ---------------------------------------------------------------------------
# lib-small

def quarter_turn_discrepancy(s: Moments, method: str) -> float:
    """Reference for invariance_report: refit after a quarter turn about the
    centroid, against the original line turned the same way.

    Both lines pass through the centroid G; their distance is
    |sin(dtheta)| + |c_a - c_e| with the expected line's orientation aligned.
    """
    if method == "Y":  # y = m x + b has normal angle atan(m)
        actual = math.atan(-s.cxy / s.vy)
        expected = math.atan(s.cxy / s.vx) + HALF_PI
    else:  # x = mu y + beta has normal angle pi/2 - atan(mu)
        actual = HALF_PI - math.atan(-s.cxy / s.vx)
        expected = HALF_PI - math.atan(s.cxy / s.vy) + HALF_PI
    if math.cos(actual - expected) < 0.0:
        expected += math.pi
    return abs(math.sin(actual - expected)) + abs(
        s.mx * (math.sin(actual) - math.sin(expected))
        - s.my * (math.cos(actual) - math.cos(expected))
    )


# invariance_report statuses when a method is undefined on the input's
# direction: a vertical input has no Y fit, and its quarter turn is horizontal,
# which X cannot fit or express (which of the two is reported depends on
# rounding in the rotated coordinates, so either is right).
_NO_ANSWER = {"transformed-fit-nonexistent", "expected-line-not-representable"}
_DEGENERATE_STATUS = {
    ("vertical", "Y"): {"original-fit-nonexistent"},
    ("vertical", "X"): _NO_ANSWER,
    ("horizontal", "Y"): _NO_ANSWER,
    ("horizontal", "X"): {"original-fit-nonexistent"},
    # the circle's Y/X lines are axis-parallel; turned, they leave that form
    ("circle", "Y"): {"expected-line-not-representable"},
    ("circle", "X"): {"expected-line-not-representable"},
}


def check_lib(kind: str, s: Moments, radius: float, outcome: list) -> list[str]:
    """Check one lib-small request outcome (the shape lib_worker.outcome makes)."""
    if outcome[0] == "raised":
        return [f"request raised {outcome[1]}"]
    _, y, x, d, cmp, inv = outcome
    y, x, d, cmp = list(y), list(x), list(d), list(cmp)
    ref = fits(s)
    problems: list[str] = []
    slope_scale = math.sqrt(s.vy / s.vx) if s.vx > 0.0 else 1.0
    if kind == "vertical":
        if y != ["raised", "VerticalDataError"]:
            problems.append(f"Y on vertical data: {y!r}")
    elif y[0] != "ok":
        problems.append(f"Y: {y!r}")
    else:
        _close("Y m", y[1], ref.m, slope_scale, problems)
        _close("Y b", y[2], ref.b, s.centre_scale * (1.0 + abs(ref.m)), problems)
        _close("Y objective", y[3], ref.y_obj, s.vx + s.vy, problems)
    if kind == "horizontal":
        if x != ["raised", "HorizontalDataError"]:
            problems.append(f"X on horizontal data: {x!r}")
    elif x[0] != "ok":
        problems.append(f"X: {x!r}")
    else:
        inv_scale = math.sqrt(s.vx / s.vy) if s.vy > 0.0 else 1.0
        _close("X mu", x[1], ref.mu, inv_scale, problems)
        _close("X beta", x[2], ref.beta, s.centre_scale * (1.0 + abs(ref.mu)), problems)
        _close("X objective", x[3], ref.x_obj, s.vx + s.vy, problems)
    if kind == "circle":
        if d[0] != "family":
            problems.append(f"D on a circle is not the isotropic family: {d!r}")
        else:
            _close("D centroid x", d[1], s.mx, s.centre_scale, problems)
            _close("D centroid y", d[2], s.my, s.centre_scale, problems)
            _close("D objective", d[3], radius * radius / 2.0, s.vx + s.vy, problems)
        if cmp[3] != "Isotropic" or cmp[2] != "all":
            problems.append(f"compare on a circle: {cmp!r}")
    elif d[0] != "line":
        problems.append(f"D: {d!r}")
    else:
        _same_line("D", d[1], d[2], ref.theta, ref.c, s, problems)
        _close("D objective", d[3], ref.d_obj, s.vx + s.vy, problems)
    if kind in ("line", "far"):
        _close("compare m", cmp[0], ref.m, slope_scale, problems)
        _close("compare m_x", cmp[1], s.vy / s.cxy, abs(s.vy / s.cxy) * math.sqrt(
            s.vx * s.vy) / abs(s.cxy), problems)
        tan = cmp[2]
        if not isinstance(tan, float) or not abs(
                math.sin(math.atan(tan) - ref.theta)) <= TOL * _angle_scale(s):
            problems.append(f"compare tan_theta: got {tan!r}, reference {math.tan(ref.theta)!r}")
        if cmp[3] == "Isotropic":
            problems.append("compare: isotropic verdict on a noisy line")
    elif kind == "vertical" and (cmp[0] is not None or cmp[2] is not None):
        problems.append(f"compare on vertical data: {cmp!r}")
    elif kind == "horizontal" and (cmp[0] != 0.0 or cmp[2] != 0.0):
        problems.append(f"compare on horizontal data: {cmp!r}")
    if inv is not None:
        for method, (status, disc) in zip("YXD", inv):
            allowed = _DEGENERATE_STATUS.get((kind, method), {"ok"})
            if status not in allowed:
                problems.append(f"invariance {method}: status {status!r}, expected {allowed}")
            elif status == "ok":
                want = 0.0 if method == "D" else quarter_turn_discrepancy(s, method)
                _close(f"invariance {method} discrepancy", disc, want,
                       s.centre_scale * min(_angle_scale(s), 1e6), problems)
    return problems


# ---------------------------------------------------------------------------
# CLI outputs

def _table_close(name: str, text: str, want: float | None, scale: float,
                 problems: list[str]) -> None:
    try:
        got = float(text)
    except ValueError:
        problems.append(f"table {name}: {text!r} is not a number")
        return
    if want is None or not abs(got - want) <= TABLE_RTOL * abs(want) + TOL * scale:
        problems.append(f"table {name}: printed {text}, reference {want!r}")


def check_table(text: str, s: Moments) -> list[str]:
    """The `linefit fit` table: every value of the Y, X and D rows, and n."""
    ref = fits(s)
    ty, tx = math.atan(ref.m), HALF_PI - math.atan(ref.mu)
    rows = {  # slope, intercept, normal-form theta and c, objective
        "Y": (ref.m, ref.b, ty, -ref.b * math.cos(ty), ref.y_obj),
        "X": (ref.mu, ref.beta, *canonical(tx, ref.beta * math.sin(tx)), ref.x_obj),
        "D": (math.tan(ref.theta), -ref.c / math.cos(ref.theta), ref.theta, ref.c, ref.d_obj),
    }
    columns = ("slope", "intercept", "theta", "c", "objective")
    problems: list[str] = []
    seen = set()
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] in rows and len(fields) == 6:
            seen.add(fields[0])
            for col, printed, want in zip(columns, fields[1:], rows[fields[0]]):
                _table_close(f"{fields[0]} {col}", printed, want,
                             s.centre_scale * (1.0 + abs(want)), problems)
    if seen != set(rows):
        problems.append(f"table rows {sorted(seen)}, expected Y, X and D")
    found = re.search(r"^n=(\d+) ", text, re.MULTILINE)
    if found is None or int(found.group(1)) != s.n:
        problems.append(f"table n: {found.group(1) if found else None}, expected {s.n}")
    return problems


def check_json(text: str, s: Moments, xs: np.ndarray, ys: np.ndarray) -> list[str]:
    """The --json report: statistics, the three fits, and the exact point echo."""
    try:
        doc = json.loads(text)
        stats, fit = doc["stats"], doc["fits"]
        points = np.asarray(doc["points"], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"json report unreadable: {exc!r}"]
    ref = fits(s)
    problems: list[str] = []
    if stats.get("n") != s.n:
        problems.append(f"json stats.n {stats.get('n')!r}, expected {s.n}")
    for key, want, scale in (
        ("mean_x", s.mx, s.centre_scale), ("mean_y", s.my, s.centre_scale),
        ("var_x", s.vx, s.vx), ("var_y", s.vy, s.vy),
        ("cov_xy", s.cxy, math.sqrt(s.vx * s.vy)),
    ):
        _close(f"json stats.{key}", stats.get(key), want, scale, problems)
    y, x, d = fit.get("y", {}), fit.get("x", {}), fit.get("d", {})
    _close("json y.m", y.get("m"), ref.m, math.sqrt(s.vy / s.vx), problems)
    _close("json y.b", y.get("b"), ref.b, s.centre_scale * (1.0 + abs(ref.m)), problems)
    _close("json y.objective_min", y.get("objective_min"), ref.y_obj, s.vx + s.vy, problems)
    _close("json x.mu", x.get("mu"), ref.mu, math.sqrt(s.vx / s.vy), problems)
    _close("json x.beta", x.get("beta"), ref.beta, s.centre_scale * (1.0 + abs(ref.mu)),
           problems)
    _close("json x.objective_min", x.get("objective_min"), ref.x_obj, s.vx + s.vy, problems)
    if not isinstance(d.get("theta"), float) or not isinstance(d.get("c"), float):
        problems.append(f"json d: {d!r}")
    else:
        _same_line("json d", d["theta"], d["c"], ref.theta, ref.c, s, problems)
    _close("json d.objective_min", d.get("objective_min"), ref.d_obj, s.vx + s.vy, problems)
    if points.shape != (s.n, 2) or not (
        np.array_equal(points[:, 0], xs) and np.array_equal(points[:, 1], ys)
    ):
        problems.append("json points do not echo the input exactly")
    return problems


def check_svg(text: str, n: int) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"svg does not parse: {exc}"]
    markers = sum(1 for e in root.iter(SVG_NS + "circle") if e.get("class") == "data-point")
    return [] if markers == n else [f"svg has {markers} data-point markers, expected {n}"]


def check_rotation_csv(text: str, xs: np.ndarray, ys: np.ndarray, phi: float) -> list[str]:
    """`linefit transform --rotate PHI`: n rows, turned about the centroid."""
    try:
        got = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return [f"transform output unreadable: {exc}"]
    if got.shape != (len(xs), 2):
        return [f"transform output has shape {got.shape}, expected ({len(xs)}, 2)"]
    s = moments(xs, ys)
    co, si = math.cos(phi), math.sin(phi)
    dx, dy = xs - s.mx, ys - s.my
    want = np.column_stack((s.mx + dx * co - dy * si, s.my + dx * si + dy * co))
    worst = float(np.max(np.abs(got - want)))
    if not worst <= TOL * s.centre_scale:
        return [f"transform output off the reference rotation by {worst!r}"]
    return []
