"""The benchmark's tracer pre-flight, run on every test pass.

`perfbench/run.py --trace 1` first checks the tracer's counters against
closed forms on tiny inputs: the positive engine must go through the
`step_append_aggregated` seam once per level, with every state live.  A
change that bypasses a seam fails here instead of only in a traced run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counters_match_closed_forms(monkeypatch):
    # sys.path is restored afterwards, the entry `counter_errors` adds included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    assert run.counter_errors() == []
