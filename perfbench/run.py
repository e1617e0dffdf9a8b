#!/usr/bin/env python3
"""The linefit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a checkout of the repository; linefit is taken from ``src/`` and
needs no build.  With ``--trace 0`` it times the workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it runs the same operations
in-process with spans around linefit's public functions and prints the
per-layer metrics.  Every output is checked against the numpy reference in
``reference.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import UNMEASURED, Tracer, installed, layer_metrics

try:
    import numpy

    import inputs
    import reference
except ModuleNotFoundError as exc:  # main() reports a missing numpy
    if exc.name != "numpy":
        raise
    numpy = None

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SPANS = HERE / ".spans"
SETUP_MIN = 7  # setup_s samples per run, taken between operations
LIB_SEGMENTS = 5  # lib-small worker processes per run
LIB_TRACED_PASSES = 16  # traced passes over the 128-request pool
IMPORTTIME_REPS = 3
ROTATE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # points per operation; lib-small sizes come from its pool
    command: tuple[str, ...]  # linefit arguments; {input}, {json}, {svg} are filled in
    imports: str  # what a fresh interpreter imports before the first operation


WORKLOADS = {w.name: w for w in (
    Workload("cli-report-100k", 100_000,
             ("fit", "--input", "{input}", "--json", "{json}", "--svg", "{svg}"), "linefit.cli"),
    Workload("cli-transform-100k", 100_000,
             ("transform", "--input", "{input}", "--rotate", str(ROTATE)), "linefit.cli"),
    Workload("lib-small", 0, (), "linefit"),
)}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class CheckUnavailable(Exception):
    """An output check could not run, so the run has no result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def import_wall(module: str) -> float:
    """Wall time of a fresh interpreter importing ``module``: one setup_s sample."""
    code, wall, _ = spawn([sys.executable, "-c", f"import {module}"],
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise CheckUnavailable(f"`import {module}` failed with exit code {code}")
    return wall


def import_times(module: str) -> dict[str, float]:
    """Interpreter, linefit and numpy shares of start-up, from -X importtime."""
    argv = [sys.executable, "-X", "importtime", "-c", f"import {module}"]
    samples = []
    for _ in range(IMPORTTIME_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise CheckUnavailable(f"`import {module}` failed: {proc.stderr[-500:]}")
        linefit_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2][1:]
            if name == "linefit" or name.startswith("linefit."):
                linefit_us += cumulative
            elif name.strip() == "numpy" and not numpy_us:
                numpy_us = cumulative
        samples.append((wall - linefit_us * 1e-6, (linefit_us - numpy_us) * 1e-6, numpy_us * 1e-6))
    python_s, linefit_s, numpy_s = (statistics.median(col) for col in zip(*samples))
    return {"import.python_s": python_s, "import.linefit_s": linefit_s, "import.numpy_s": numpy_s}


def machine_line() -> str:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")):
            digest.update(path.read_bytes())
        rev = "src-sha256:" + digest.hexdigest()[:12]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"# rev={rev} nproc={nproc} python={platform.python_version()} "
            f"numpy={numpy.__version__}")


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile; with fewer than 100 samples, the slowest."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


# ---------------------------------------------------------------------------
# CLI workloads

class CliCase:
    """One CLI workload's input file, reference and output checks."""

    def __init__(self, w: Workload, seed: int, work: Path):
        self.w, self.work = w, work
        self.xs, self.ys = inputs.noisy_line(inputs.rng_for(seed, w.name), w.n)
        self.input = work / "points.csv"
        inputs.write_csv(self.input, self.xs, self.ys)
        self.input_bytes = self.input.stat().st_size
        self.ref = reference.moments(self.xs, self.ys)
        self.files = {"input": str(self.input), "json": str(work / "report.json"),
                      "svg": str(work / "figure.svg")}
        self.argv = [a.format(**self.files) for a in w.command]
        self._verdicts: dict[str, list[str]] = {}

    def clear_outputs(self) -> None:
        """Remove the last operation's files, so a missing output shows."""
        for k in ("json", "svg"):
            Path(self.files[k]).unlink(missing_ok=True)

    def check(self, code: int, stdout: str) -> list[str]:
        """Problems with one operation's exit code and outputs."""
        if code != 0:
            return [f"exit code {code}"]
        texts = [stdout]
        if "--json" in self.argv:
            try:
                texts += [Path(self.files[k]).read_text(encoding="utf-8") for k in ("json", "svg")]
            except OSError as exc:
                return [f"output file missing: {exc}"]
        key = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        if key not in self._verdicts:  # identical outputs get the same verdict
            if self.w.command[0] == "transform":
                problems = reference.check_rotation_csv(stdout, self.xs, self.ys, ROTATE)
            else:
                problems = reference.check_table(stdout, self.ref)
            if len(texts) == 3:
                problems += reference.check_json(texts[1], self.ref, self.xs, self.ys)
                problems += reference.check_svg(texts[2], self.w.n)
            self._verdicts[key] = problems
        return self._verdicts[key]


def run_cli(case: CliCase, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Alternate a setup_s sample and one timed `linefit` process until time is up."""
    argv = [sys.executable, "-m", "linefit", *case.argv]
    out_path, err_path = case.work / "stdout.txt", case.work / "stderr.txt"
    setup, times, rss, failed, problems = [], [], [], 0, []
    import_wall(case.w.imports)  # compiles bytecode; not a sample
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        setup.append(import_wall(case.w.imports))
        case.clear_outputs()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, wall, peak = spawn(argv, out, err)
        times.append(wall)
        rss.append(peak)
        found = case.check(code, out_path.read_text(encoding="utf-8", errors="replace"))
        if found:
            failed += 1
            stderr = err_path.read_text(errors="replace").strip()
            problems = problems or found + ([stderr[-500:]] if stderr else [])
    while len(setup) < SETUP_MIN:
        setup.append(import_wall(case.w.imports))
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": case.w.n * len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p99": p99(times),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, len(times), failed, problems


def trace_cli(case: CliCase, seconds: float, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    sys.path.insert(0, str(SRC))
    import linefit.cli as cli

    tracer = Tracer()
    if case.w.command[0] == "fit":
        root_name = "cli.run"
        config = cli.RunConfig(
            input=case.input,
            output_json=Path(case.files["json"]) if "--json" in case.argv else None,
            output_svg=Path(case.files["svg"]) if "--svg" in case.argv else None,
        )

        def op(fn):
            out = io.StringIO()
            return fn(config, out=out), out.getvalue()
        root = cli.run
    else:
        root_name = "cli.main"

        def op(fn):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = fn(case.argv)
            return code, out.getvalue()
        root = cli.main

    traced_root = tracer.wrap(root_name, root)
    untraced, traced, failed, problems = [], [], 0, []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for timings, fn, tracing in ((untraced, root, contextlib.nullcontext()),
                                     (traced, traced_root, installed(tracer))):
            case.clear_outputs()
            t0 = time.perf_counter()
            with tracing:
                code, stdout = op(fn)
            timings.append(time.perf_counter() - t0)
            found = case.check(code, stdout)
            if found:
                failed += 1
                problems = problems or found
        tracer.op += 1
    layers = layer_metrics(tracer.spans, len(traced))
    metrics = per_layer(layers, root_name)
    parse_s = layers["total_s"].get("cli.parse_csv", 0.0)
    metrics["cli.parse_csv.mb_per_s"] = case.input_bytes / 1e6 / parse_s if parse_s else 0.0
    metrics["stats.PairedSample.bytes_per_point"] = bytes_per_point(case.xs, case.ys)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    write_spans(tracer.spans, spans_path)
    return metrics, 2 * len(traced), failed, problems


# ---------------------------------------------------------------------------
# lib-small

class LibCase:
    def __init__(self, seed: int, work: Path):
        self.pool = inputs.lib_pool(seed)
        self.refs = [reference.moments(item.xs, item.ys) for item in self.pool]
        self.pool_path = work / "pool.json"
        self.pool_path.write_text(json.dumps([
            {"points": list(zip(item.xs.tolist(), item.ys.tolist())), "invariance": item.invariance}
            for item in self.pool
        ]), encoding="utf-8")

    def tally(self, outcomes) -> tuple[int, int, list[str]]:
        """(attempted, failed, report lines) over (pool index, outcome, count)."""
        attempted = failed = 0
        by_kind: dict[str, list[int]] = {}
        first: dict[str, str] = {}
        for idx, outcome, count in outcomes:
            item = self.pool[idx]
            kind = item.kind
            tally = by_kind.setdefault(kind, [0, 0])
            tally[0] += count
            attempted += count
            found = reference.check_lib(kind, self.refs[idx], item.radius, outcome)
            if found:
                tally[1] += count
                failed += count
                first.setdefault(kind, f"{kind} n={len(item.xs)}: {found[0]}")
        lines = ["# failed requests by kind: " + ", ".join(
            f"{k} {f}/{a}" for k, (a, f) in sorted(by_kind.items()))]
        lines += [f"# first failure: {text}" for text in first.values()]
        return attempted, failed, lines


def run_lib(case: LibCase, seconds: float, work: Path) -> tuple[dict, int, int, list[str]]:
    """LIB_SEGMENTS worker processes, each after two setup_s samples, sharing
    the time left."""
    out_path, err_path = work / "lib_out.json", work / "lib_err.txt"
    setup, times, rss, outcomes, points = [], [], [], [], 0
    import_wall("linefit")  # compiles bytecode; not a sample
    deadline = time.perf_counter() + seconds
    for left in range(LIB_SEGMENTS, 0, -1):
        setup += [import_wall("linefit"), import_wall("linefit")]
        share = max(deadline - time.perf_counter(), 0.0) / left
        argv = [sys.executable, str(HERE / "lib_worker.py"), str(case.pool_path), str(share),
                str(out_path)]
        out_path.unlink(missing_ok=True)
        with open(err_path, "wb") as err:
            code, _, peak = spawn(argv, subprocess.DEVNULL, err)
        if code != 0 or not out_path.exists():
            raise CheckUnavailable(f"lib_worker exited with {code}: "
                                   f"{err_path.read_text(errors='replace')[-1000:]}")
        result = json.loads(out_path.read_text(encoding="utf-8"))
        rss.append(peak)
        outcomes += result["outcomes"]
        # each worker starts at the head of the pool
        points += sum(len(case.pool[i % len(case.pool)].xs) for i in range(len(result["times"])))
        times += result["times"]
    attempted, failed, lines = case.tally(outcomes)
    if attempted != len(times):
        raise CheckUnavailable(f"{attempted} outcomes for {len(times)} timed requests")
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": points / sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.p99": p99(times),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, attempted, failed, lines


def trace_lib(case: LibCase, seconds: float, spans_path: Path) -> tuple[dict, int, int, list[str]]:
    """Alternate untraced and traced passes over the pool; once LIB_TRACED_PASSES
    passes are traced (enough spans), spend the rest of the time untraced."""
    sys.path.insert(0, str(SRC))
    import lib_worker

    tracer = Tracer()
    traced_request = tracer.wrap("lib.request", lib_worker.run_request)
    requests = [(list(zip(item.xs.tolist(), item.ys.tolist())), item.invariance)
                for item in case.pool]
    size = len(requests)
    untraced, traced, outcomes = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for points, invariance in requests:
            lib_worker.run_request(points, invariance)
        untraced.append((time.perf_counter() - t0) / size)
        if len(traced) == LIB_TRACED_PASSES:
            continue
        results = []
        t0 = time.perf_counter()
        with installed(tracer):
            for points, invariance in requests:
                results.append(traced_request(points, invariance))
                tracer.op += 1
        traced.append((time.perf_counter() - t0) / size)
        outcomes += [(idx, lib_worker.outcome(r), 1) for idx, r in enumerate(results)]
    attempted, failed, lines = case.tally(outcomes)
    metrics = per_layer(layer_metrics(tracer.spans, attempted), None)
    metrics["cli.parse_csv.mb_per_s"] = 0.0
    largest = max(case.pool, key=lambda item: len(item.xs))
    metrics["stats.PairedSample.bytes_per_point"] = bytes_per_point(largest.xs, largest.ys)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    write_spans(tracer.spans, spans_path)
    return metrics, attempted, failed, lines


# ---------------------------------------------------------------------------
# per-layer metrics

def per_layer(layers: dict, root_name: str | None) -> dict[str, float]:
    """Per-op layer metrics from the spans; 0 where the layer did not run.

    Every time is self time: the span minus the wrapped calls inside it.
    """
    self_s, calls, size = layers["self_s"], layers["calls"], layers["bytes"]
    summarize_calls = calls.get("stats.summarize", 0.0)
    metrics = {
        "cli.parse_csv.s": self_s.get("cli.parse_csv", 0.0),
        "stats.PairedSample.s": self_s.get("stats.PairedSample", 0.0),
        "stats.summarize.s": self_s.get("stats.summarize", 0.0),
        "stats.summarize.calls_per_op": summarize_calls,
        "stats.summarize.useful_ratio": 1.0 / summarize_calls if summarize_calls else 0.0,
        "fitters.precondition_failed": layers["precondition_failed"],
        "cli.run.self_s": self_s.get(root_name, 0.0),
    }
    for span in ("fitters.fit_y", "fitters.fit_x", "fitters.fit_d", "fitters.fit_d_report",
                 "diagnostics.compare", "transforms.invariance_report"):
        metrics[span + ".self_s"] = self_s.get(span, 0.0)
    for span in ("cli.render_json", "svg.render_svg", "cli.render_csv"):
        metrics[span + ".s"] = self_s.get(span, 0.0)
        metrics[span + ".bytes"] = size.get(span, 0.0)
    metrics["transforms.apply_motion_points.s"] = self_s.get("transforms.apply_motion_points", 0.0)
    return metrics


def write_spans(spans: list[list], path: Path) -> None:
    """One JSON line per span: name, start_ns, end_ns, parent index, op id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        for span in spans:
            f.write(json.dumps(span[:5]) + "\n")


def bytes_per_point(xs, ys) -> float:
    """Bytes a PairedSample retains per point, float objects included (tracemalloc)."""
    import tracemalloc

    from linefit.stats import PairedSample

    tracemalloc.start()
    try:
        # lists, not point tuples: tuple free lists would keep up to 2000 of
        # the temporaries alive and count them against the sample
        sample = PairedSample.from_xy(xs.tolist(), ys.tolist())
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del sample
    return retained / len(xs)


# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    if not (SRC / "linefit" / "cli.py").is_file():
        print(f"error: no linefit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if numpy is None:
        print("error: numpy is required for the reference checks", file=sys.stderr)
        return 2

    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print(machine_line())
        print(f"# workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        case = LibCase(args.seed, work) if w.name == "lib-small" else CliCase(w, args.seed, work)
        if args.trace:
            metrics = import_times(w.imports)
            runner = trace_lib if w.name == "lib-small" else trace_cli
            spans_path = SPANS / f"{w.name}-seed{args.seed}.jsonl"
            layer, attempted, failed, lines = runner(case, args.seconds, spans_path)
            lines.append(f"# spans: {spans_path.relative_to(ROOT)}")
            metrics.update(layer)
            units = metric_units("per_layer")
            lines += [f"# unmeasured: linefit.{module}: {why}"
                      for module, why in UNMEASURED.items()]
        else:
            if w.name == "lib-small":
                metrics, attempted, failed, lines = run_lib(case, args.seconds, work)
            else:
                metrics, attempted, failed, lines = run_cli(case, args.seconds)
            metrics["success_ratio"] = 1.0 - failed / attempted
            units = metric_units("end_to_end")
    except CheckUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines:
        print(line if line.startswith("#") else "# " + line.replace("\n", " | ")[:400])
    for name in units:
        print(f"{name:<40}{metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
