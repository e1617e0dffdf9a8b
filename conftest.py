import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def summarize_calls(monkeypatch):
    """The samples passed to ``linefit.stats.summarize`` during the test, in
    call order: it is rebound in every linefit module that holds it."""
    from linefit import stats

    original, calls = stats.summarize, []

    def counting(p):
        calls.append(p)
        return original(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("linefit") and vars(module).get("summarize") is original:
            monkeypatch.setattr(module, "summarize", counting)
    return calls


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returned to this process, which may run on two
    CPUs whatever the machine has."""
    from linefit import halves

    fork, pids = os.fork, []

    def spy():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(halves, "_cpus", lambda: 2)
    return pids
