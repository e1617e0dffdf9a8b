"""The comparisons that tools/output_diff.py reports, and a process_bench.py smoke run."""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_diff import describe  # noqa: E402


def test_json_differences_are_named_by_key_path_and_number_text():
    a = b'{"fits":{"x":{"c":1.0,"m":2}},"points":[[1.50,2.0]]}'
    b = b'{"fits":{"x":{"c":1.00,"m":2}},"points":[[1.5,2.0]]}'
    assert describe("json", a, a) == "same"
    assert describe("json", a, b) == "different: $.fits.x.c, $.points[0][0]"


def test_a_key_removed_with_a_null_value_is_named():
    a = b'{"comparison":{"m":null,"gone":null}}'
    b = b'{"comparison":{"m":null}}'
    assert describe("json", a, b) == "different: $.comparison.gone"


def test_svg_fit_paths_compare_inside_the_viewport():
    a = b'<rect/>\n<path class="fit-d" d="M 0.00 300.00 L 800.00 300.00"/>'
    b = b'<rect/>\n<path class="fit-d" d="M -1000.00 300.00 L 1800.00 300.00"/>'
    assert describe("svg", a, b) == "different: fit-d (clipped ends apart: fit-d 0.0000 px)"


def test_process_bench_times_every_command_on_a_small_input():
    root = Path(__file__).resolve().parents[1]
    commands = ["fit --json --svg", "fit --json", "fit", "transform --rotate 0.3"]
    r = subprocess.run([sys.executable, str(root / "tools" / "process_bench.py"),
                        "--src", f"src={root / 'src'}", "--n", "50", "--reps", "1",
                        "--command", *commands], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert [(row["n"], row["command"]) for row in rows] == [(50, c) for c in commands]
    assert all(row["src"]["runs"] == 1 and row["src"]["peak_rss_mb"] > 0 for row in rows)
