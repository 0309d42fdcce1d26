"""The benchmark's contract with the program, in one test of under a second.

`perfbench/` is read here and never edited.  Two things must hold for its
runs to be judged at all: the tracer's counters match their closed forms
on tiny inputs (`run.counter_errors`, the `--trace 1` pre-flight), and
every command whose stdout digest `perfbench/reference.json` records
reproduces that SHA-256 through `cli.main` in process.  The keys are read
from the file itself, so a digest that no command reproduces fails here
whatever the workload table says.
"""

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

from cwilf import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_contract_holds(monkeypatch):
    # sys.path is restored afterwards, the entries for perfbench/ and the
    # one `counter_errors` adds included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    assert importlib.import_module("run").counter_errors() == []
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference
    for key, digest in reference.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(key.split(" "))
        assert code == 0, key
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, key
