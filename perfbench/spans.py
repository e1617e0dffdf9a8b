"""Spans around calls into linefit's public functions, recorded from outside.

``installed(tracer)`` rebinds each traced function in every linefit module
that holds it (``linefit.fitters.summarize``, ``linefit.diagnostics.summarize``
and ``linefit.cli.summarize`` are one function bound three times), and
restores the originals on exit.  Nothing under ``src/`` changes.  The
modules in ``UNMEASURED`` are left out on purpose.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# (defining module, function) -> span name
TRACED = {
    ("linefit.cli", "parse_csv"): "cli.parse_csv",
    ("linefit.cli", "render_csv"): "cli.render_csv",
    ("linefit.cli", "render_json"): "cli.render_json",
    ("linefit.svg", "render_svg"): "svg.render_svg",
    ("linefit.stats", "summarize"): "stats.summarize",
    ("linefit.fitters", "fit_y"): "fitters.fit_y",
    ("linefit.fitters", "fit_x"): "fitters.fit_x",
    ("linefit.fitters", "fit_d"): "fitters.fit_d",
    ("linefit.fitters", "fit_d_report"): "fitters.fit_d_report",
    ("linefit.diagnostics", "compare"): "diagnostics.compare",
    ("linefit.transforms", "apply_motion_points"): "transforms.apply_motion_points",
    ("linefit.transforms", "invariance_report"): "transforms.invariance_report",
}
UNMEASURED = {
    "oracle": "test-only brute force, never on a user's path",
    "generators": "the benchmark builds its own inputs, so the reference shares no code "
                  "with the program",
    "geometry": "O(1) line conversions, inside their caller's self time (cli.run.self_s)",
}
PRECONDITION_ERRORS = ("VerticalDataError", "HorizontalDataError")


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op id, note].

    ``note`` is the exception class name when the call raised, or the length
    of a returned string (the rendered outputs are ASCII, so bytes).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._open[-1] if self._open else None, self.op, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter_ns()
                self._open.pop()
            if isinstance(result, str):
                span[5] = len(result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every traced linefit function through ``tracer`` while active."""
    import linefit.cli  # noqa: F401  (loads every traced module)
    from linefit.stats import PairedSample

    modules = [m for name, m in list(sys.modules.items())
               if name == "linefit" or name.startswith("linefit.")]
    undo = []
    for (modname, attr), span in TRACED.items():
        original = getattr(sys.modules[modname], attr)
        wrapped = tracer.wrap(span, original)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, value))
                    setattr(mod, name, wrapped)
    for meth in ("from_points", "from_xy"):
        original = PairedSample.__dict__[meth]
        undo.append((PairedSample, meth, original))
        setattr(PairedSample, meth,
                classmethod(tracer.wrap("stats.PairedSample", original.__func__)))
    try:
        yield
    finally:
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-op self seconds, calls and output sizes of each span name.

    Self time is a span's duration minus its direct children's, so the self
    times of one op add up to the op's root span.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s[3] is not None:
            child_ns[s[3]] += s[2] - s[1]
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    failed = 0
    for i, (name, start, end, _parent, _op, note) in enumerate(spans):
        self_s[name] += (end - start - child_ns[i]) * 1e-9
        total_s[name] += (end - start) * 1e-9
        calls[name] += 1
        if isinstance(note, int):
            size[name] += note
        elif note in PRECONDITION_ERRORS:
            failed += 1
    return {
        "self_s": {k: v / ops for k, v in self_s.items()},
        "total_s": {k: v / ops for k, v in total_s.items()},
        "calls": {k: v / ops for k, v in calls.items()},
        "bytes": {k: v / ops for k, v in size.items()},
        "precondition_failed": failed / ops,
    }

