"""The benchmark's recorded outputs, checked on every test pass.

`perfbench/reference.json` holds the SHA-256 of the stdout of every
benchmark command.  Each command runs here through `cli.main` in-process;
its stdout must have the recorded digest and pass the benchmark's exact
checks (`workloads.exact_errors`), so a label or byte drift fails here
instead of only as an incorrect output in a benchmark run.
"""

import contextlib
import hashlib
import importlib
import io
from pathlib import Path

import pytest

from cwilf import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # sys.path is restored afterwards, the entry for perfbench/ included
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_every_reference_command_reproduces_its_bytes(workloads):
    reference = workloads.load_reference()
    checked = set()
    for workload in workloads.WORKLOADS.values():
        for seed in range(len(workload.variants)):
            argv = workload.argv(seed)
            key = workloads.reference_key(argv)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            stdout = out.getvalue().encode()
            assert code == 0, key
            assert workloads.exact_errors(workload, argv, stdout) == [], key
            assert hashlib.sha256(stdout).hexdigest() == reference[key], key
            checked.add(key)
    assert checked == set(reference)
