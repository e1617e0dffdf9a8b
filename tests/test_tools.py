"""The comparisons that tools/output_diff.py reports, and process_bench.py: a smoke run
of two sides and its rule for claiming a gain."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import process_bench  # noqa: E402
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
                        "--src", f"parent={root / 'src'}", "--src", f"change={root / 'src'}",
                        "--n", "50", "--reps", "2", "--command", *commands],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    rows = json.loads(r.stdout)["rows"]
    assert [(row["n"], row["command"]) for row in rows] == [(50, c) for c in commands]
    for row in rows:
        for side in ("parent", "change"):
            assert row[side]["runs"] == 2 and row[side]["peak_rss_mb"] > 0
            q1, median, q3 = row[side]["wall_s_quartiles"]
            assert q1 <= median == row[side]["wall_s"] <= q3
        assert len(row["pairs"]["wall_ratios"]) == 2 and 0 <= row["pairs"]["wins"] <= 2
        assert row["pairs"]["gain_holds"] is False  # two pairs are too few to claim


@pytest.mark.parametrize("change, holds", [
    ([0.90] * 9 + [1.20], True),  # 9 of 10 won, the medians 0.10 apart, the base's IQR 0.02
    ([0.90] * 8 + [1.20] * 2, False),  # 8 of 10 won
    ([0.985] * 10, False),  # every pair won, but the medians 0.015 apart
    ([0.90] * 9, False),  # 9 of 9 won: fewer than ten pairs
])
def test_process_bench_claims_a_gain_by_wins_and_the_base_spread(change, holds):
    base = [0.99, 1.01] * 5
    got = process_bench.pairs(base[:len(change)], change)
    assert got["wins"] == sum(c < b for b, c in zip(base, change))
    assert got["gain_holds"] is holds
