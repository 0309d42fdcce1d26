"""Which modules each command loads, and where each name lives.

A `count` process compiles only the parser, the router, the pattern
primitives and its engine: the brute-force oracles (`permcore`) and the
other commands (`survey`) stay unloaded.  Each name is defined in one
module and read from there: no module but the package forwards names
(PEP 562), and no module imports a sibling's name only to hand it on.
Where a module does read a sibling's name, it holds the home's object, not
a copy.
"""

import ast
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


def test_every_name_has_one_home():
    # only the package forwards names; a module imports a sibling's name
    # only to use it, never to hand it on
    for path in sorted((SRC / "cwilf").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "__init__":
            assert "__getattr__" not in {node.name for node in tree.body
                                         if isinstance(node, ast.FunctionDef)}, path.stem
        imported = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.stem, sorted(imported - used))


def test_permcore_holds_only_oracles():
    # every function or class of `permcore` is run by a command (read as
    # `permcore.<name>` in the router or the survey commands) or by another
    # `permcore` function; the naive forms live in tests/reference.py
    def tree(stem):
        return ast.parse((SRC / "cwilf" / f"{stem}.py").read_text())

    defs = [node for node in tree("permcore").body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    read = {node.attr for stem in ("analysis", "survey") for node in ast.walk(tree(stem))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "permcore"}
    read |= {node.id for fn in defs if isinstance(fn, ast.FunctionDef)
             for stmt in fn.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name) and node.id != fn.name}
    unread = sorted({node.name for node in defs} - read)
    assert not unread, unread


def test_survey_only_code_lives_in_survey():
    # every process compiles `analysis`, and `count` never loads `survey`:
    # a private function of the router that only `survey` reads belongs there
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "cwilf").glob("*.py")}
    private = [node.name for node in trees["analysis"].body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
    assert private
    for name in private:
        readers = {stem for stem, tree in trees.items()
                   for top in tree.body if getattr(top, "name", None) != name
                   for node in ast.walk(top)
                   if getattr(node, "id", None) == name or getattr(node, "attr", None) == name}
        assert readers != {"survey"}, name


def _functions_where(match):
    """`module.function` for each function of src/cwilf whose own body (not
    a nested function's) holds a node that `match` accepts."""
    found = set()
    for path in sorted((SRC / "cwilf").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            todo = list(fn.body)
            while todo:
                node = todo.pop()
                if match(node):
                    found.add(f"{path.stem}.{fn.name}")
                todo.extend(child for child in ast.iter_child_nodes(node)
                            if not isinstance(child, ast.FunctionDef))
    return found


def _raises(node, exc, text=""):
    return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == exc and text in ast.unparse(node.exc))


def test_each_input_rule_has_one_home():
    # the brute-force cap and the pattern check are each raised in one
    # function, which every route calls; `clusters` takes its class from
    # the router
    assert _functions_where(lambda node: _raises(node, "OracleLimitError")) == {
        "patterns._refuse_above_cap"}
    assert _functions_where(lambda node: _raises(node, "ValueError", "invalid pattern")) == {
        "patterns._check_pattern"}
    survey = ast.parse((SRC / "cwilf" / "survey.py").read_text())
    clusters = next(node for node in survey.body
                    if isinstance(node, ast.FunctionDef) and node.name == "_cmd_clusters")
    read = {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(clusters)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert "symmetry_class" not in read
    assert "_cluster_route" in read


# (reading module, name, home): the primitives that moved to `patterns` and
# are still read where they used to live
SHARED = [
    *(("permcore", name, "patterns") for name in ("all_patterns", "occurrences", "reduction")),
    ("weightring", "InconsistentResult", "patterns"),
]


@pytest.mark.parametrize("reader, name, home", SHARED)
def test_moved_name_is_one_object_on_every_path(reader, name, home):
    namespace = {}
    exec(f"from cwilf.{reader} import {name}", namespace)
    obj = getattr(importlib.import_module(f"cwilf.{home}"), name)
    assert namespace[name] is obj
    if name in cwilf.__all__:
        assert getattr(cwilf, name) is obj


@pytest.mark.parametrize("module", ["analysis", "cluster_dp", "positive_dp", "weightring"])
def test_unknown_name_still_raises_attribute_error(module):
    # with the forwarders gone, a module's unknown name is the interpreter's
    # plain AttributeError
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(importlib.import_module(f"cwilf.{module}"), "nonexistent")


def _collector_call(node, names=("gc.freeze", "gc.disable")):
    return isinstance(node, ast.Call) and ast.unparse(node.func) in names


def test_imports_leave_the_collector_alone():
    # no module freezes or disables the collector outside a function body,
    # so importing cwilf changes nothing; only the command line's own run
    # freezes its start-up heap
    for path in sorted((SRC / "cwilf").glob("*.py")):
        todo = list(ast.parse(path.read_text()).body)
        while todo:
            node = todo.pop()
            assert not _collector_call(node), path.stem
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                todo.extend(ast.iter_child_nodes(node))
    assert _functions_where(lambda node: _collector_call(node, ("gc.freeze",))) == {"cli.main"}
