"""The benchmark's tracer, run on every test pass.

`perfbench/run.py --trace 1` first checks the tracer's counters against
closed forms on tiny inputs: the positive engine must go through the
`step_append_aggregated` seam once per level, with every state live.  A
change that bypasses a seam fails here instead of only in a traced run.
One traced round of every workload runs here too, as its own process, so
a change the tracer cannot follow fails here as well.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counters_match_closed_forms(monkeypatch):
    # sys.path is restored afterwards, the entry `counter_errors` adds included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    assert run.counter_errors() == []


def test_one_traced_round_of_every_workload_passes():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    oracle_calls = {k: v["value"] for k, v in result["metrics"].items()
                    if k.endswith(".permcore.oracle_calls")}
    assert len(oracle_calls) == 4 and not any(oracle_calls.values()), oracle_calls
