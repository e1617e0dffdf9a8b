"""The comparisons that tools/output_diff.py reports."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from output_diff import describe  # noqa: E402


def test_json_differences_are_named_by_key_path_and_number_text():
    a = b'{"fits":{"x":{"c":1.0,"m":2}},"points":[[1.50,2.0]]}'
    b = b'{"fits":{"x":{"c":1.00,"m":2}},"points":[[1.5,2.0]]}'
    assert describe("json", a, a) == "same"
    assert describe("json", a, b) == "different: $.fits.x.c, $.points[0][0]"


def test_svg_fit_paths_compare_inside_the_viewport():
    a = b'<rect/>\n<path class="fit-d" d="M 0.00 300.00 L 800.00 300.00"/>'
    b = b'<rect/>\n<path class="fit-d" d="M -1000.00 300.00 L 1800.00 300.00"/>'
    assert describe("svg", a, b) == "different: fit-d (clipped ends apart: fit-d 0.0000 px)"
