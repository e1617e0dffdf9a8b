"""Every script in scripts/ runs to completion against the current library."""

import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_cleanly(script, tmp_path):
    # scripts that write a file take its path as their one argument
    out = tmp_path / "out.svg"
    proc = subprocess.run(
        [sys.executable, str(script), str(out)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_ladder_figure_draws_all_three_fits(tmp_path):
    out = tmp_path / "ladder.svg"
    script = next(p for p in SCRIPTS if p.name == "ladder_figure.py")
    subprocess.run([sys.executable, str(script), str(out)], cwd=tmp_path, check=True,
                   capture_output=True, timeout=120)
    classes = {el.get("class") for el in ET.parse(out).getroot().iter()}
    assert {"fit-y", "fit-x", "fit-d"} <= classes
