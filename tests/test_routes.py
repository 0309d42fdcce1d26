"""Which modules each command loads, and the old import paths of moved names.

A `count` process compiles only the parser, the router, the pattern
primitives and its engine: the reference side (`permcore`) and the other
commands (`survey`) stay unloaded.  Names that moved keep resolving, as
the same object, through the module they used to live in (PEP 562).
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cwilf

SRC = Path(cwilf.__file__).resolve().parents[1]


def _cwilf_modules_after(argv):
    """The cwilf modules in sys.modules after `main(argv)` in a fresh interpreter."""
    probe = ("import contextlib, io, json, sys\n"
             "from cwilf.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = main({argv!r})\n"
             "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('cwilf.'))]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return set(loaded)


COUNT_ROUTES = [
    (["count", "--avoid", "132", "--n", "20"], False),
    (["count", "--avoid", "1324;2143", "--n", "8"], True),
    (["count", "--track", "2413", "--n", "10"], True),
    (["count", "--track", "123;321", "--n", "8"], True),
]


@pytest.mark.parametrize("argv, ring", COUNT_ROUTES)
def test_count_loads_no_reference_side_and_no_other_command(argv, ring):
    loaded = _cwilf_modules_after(argv)
    assert not loaded & {"cwilf.permcore", "cwilf.survey"}
    assert ("cwilf.weightring" in loaded) == ring


@pytest.mark.parametrize("argv", [
    ["growth", "123", "--n", "12"],
    ["hitparade", "3", "--n", "10"],
])
def test_integer_survey_commands_load_no_reference_side_and_no_ring(argv):
    loaded = _cwilf_modules_after(argv)
    assert "cwilf.survey" in loaded
    assert not loaded & {"cwilf.permcore", "cwilf.weightring"}


@pytest.mark.parametrize("argv", [
    ["count", "--avoid", "123", "--n", "6", "--engine", "brute"],
    ["crosscheck", "123", "--n", "5"],
])
def test_brute_force_routes_load_the_reference_side(argv):
    assert "cwilf.permcore" in _cwilf_modules_after(argv)


# (old home, name, new home)
MOVED = [
    *(("permcore", name, "patterns") for name in (
        "DEFAULT_CLUSTER_CAP", "DEFAULT_PERM_CAP", "InconsistentResult", "OracleLimitError",
        "all_patterns", "complement", "format_pattern", "is_permutation", "occurrences",
        "parse_pattern", "parse_pattern_set", "reduction", "reverse", "symmetry_class")),
    ("weightring", "InconsistentResult", "patterns"),
    *(("cluster_dp", name, "permcore") for name in (
        "EgfReport", "Normalization", "Report321", "_completions", "_negate_var", "_t_coeffs",
        "egf_identity_check", "extend_cluster", "split_ending_cluster", "verify_321_equation")),
    *(("positive_dp", name, "permcore") for name in (
        "append_transition", "state_of", "step_append")),
    ("weightring", "pack", "permcore"),
    *(("analysis", name, "survey") for name in (
        "CrossCheckReport", "DEFAULT_DEPTH", "GrowthEstimate", "cross_check",
        "growth_estimate", "hit_parade")),
]


@pytest.mark.parametrize("old, name, new", MOVED)
def test_moved_name_is_one_object_on_every_path(old, name, new):
    namespace = {}
    exec(f"from cwilf.{old} import {name}", namespace)
    obj = getattr(importlib.import_module(f"cwilf.{new}"), name)
    assert namespace[name] is obj
    if name in cwilf.__all__:
        assert getattr(cwilf, name) is obj


@pytest.mark.parametrize("module", ["analysis", "cluster_dp", "positive_dp", "weightring"])
def test_unknown_name_still_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(importlib.import_module(f"cwilf.{module}"), "nonexistent")
