"""The series router behind `count`, `growth` and `hitparade`, end to end.

Pins the report fields each route gives, the cheapest-member cross-check
on the tracked cluster route and on `clusters`, terms too long for
Python's default int-to-text limit, and the README's command-line examples.
"""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cwilf import cli, cluster_dp
from cwilf.patterns import all_patterns, format_pattern, symmetry_class
from helpers import choose_orientation

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


C3 = ["132", "213", "231", "312"]
# (count flags, engine, [pattern, representative, class, method])
ROUTES = [
    # a single avoided pattern lists its class on every engine; only the
    # cluster engine labels it by the lexicographically smallest member
    (["--avoid", "231"], "auto", ["231", "132", C3, "cluster"]),
    (["--avoid", "231"], "cluster", ["231", "132", C3, "cluster"]),
    (["--avoid", "231"], "positive", ["231", "231", C3, "positive"]),
    (["--avoid", "231"], "brute", ["231", "231", C3, "brute"]),
    # a single tracked pattern lists its class only on the cluster engine
    (["--track", "321"], "auto", ["321", "123", ["123", "321"], "cluster"]),
    (["--track", "321"], "cluster", ["321", "123", ["123", "321"], "cluster"]),
    (["--track", "321"], "positive", ["321", "321", ["321"], "positive"]),
    (["--track", "321"], "brute", ["321", "321", ["321"], "brute"]),
] + [
    # sets, and any mix of avoided and tracked, stand for themselves
    (flags, engine, [text, text, text.split(";"), "positive" if engine == "auto" else engine])
    for flags, text in [(["--avoid", "1324;2143"], "1324;2143"),
                        (["--track", "123;321"], "123;321"),
                        (["--avoid", "12;123"], "12;123"),
                        (["--avoid", "321", "--track", "123"], "123;321")]
    for engine in ("auto", "positive", "brute")
]


@pytest.mark.parametrize("flags, engine, fields", ROUTES)
def test_report_fields_per_route(flags, engine, fields):
    code, out, err = run_cli(["count", *flags, "--n", "6", "--format", "json",
                              "--engine", engine])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert [data["pattern"], data["representative"], data["class"], data["method"]] == fields


def _corrupt_tables_of(member, at):
    honest = cluster_dp.cluster_tables

    def corrupted(p, N, u, work=None):
        for n, table in honest(p, N, u, work):
            if tuple(p) == member and n == at:
                key = next(iter(table))
                table = {**table, key: table[key] + 1}
            yield n, table

    return corrupted


@pytest.mark.parametrize("pattern", ["2413", "3142"])
def test_tracked_member_that_only_probes_exits_4(monkeypatch, pattern):
    # 2413 runs (probe work 569 against 607 at depth 11); one wrong table
    # of 3142 shows only as a mismatch with its probe counts.  Its overlaps
    # are {1, 2}, so no cluster has length 5: the first table past the
    # single atom is at n=6.
    assert choose_orientation((3, 1, 4, 2), 12) == (2, 4, 1, 3)
    monkeypatch.setattr(cluster_dp, "cluster_tables", _corrupt_tables_of((3, 1, 4, 2), 6))
    code, out, err = run_cli(["count", "--track", pattern, "--n", "12"])
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err.endswith(" on 3142\n")


def test_tracked_cluster_runs_the_cheapest_member_under_the_lex_min_label(monkeypatch):
    honest = cluster_dp.assemble_counts
    ran = []

    def spy(p, *args, **kwargs):
        ran.append(tuple(p))
        return honest(p, *args, **kwargs)

    monkeypatch.setattr(cluster_dp, "assemble_counts", spy)
    code, out, _ = run_cli(["count", "--track", "3142", "--n", "10", "--format", "json"])
    assert code == 0
    assert json.loads(out)["representative"] == "2413"
    assert ran == [choose_orientation((3, 1, 4, 2), 10)]
    ran.clear()
    code, out, _ = run_cli(["count", "--track", "132", "--n", "20", "--format", "json"])
    assert code == 0
    assert json.loads(out)["representative"] == "132"
    assert ran == [choose_orientation((1, 3, 2), 20)] != [(1, 3, 2)]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_clusters_prints_the_same_for_every_member_of_a_class(k):
    # C_n(t) is the same for every member; only the JSON "pattern" field
    # names the one given
    for p in all_patterns(k):
        if p != symmetry_class(p)[0]:
            continue
        outputs = set()
        for q in symmetry_class(p):
            text = format_pattern(q)
            code, out, err = run_cli(["clusters", text, "--n", "12"])
            jcode, jout, jerr = run_cli(["clusters", text, "--n", "12", "--format", "json"])
            data = json.loads(jout)
            assert (code, err, jcode, jerr, data.pop("pattern")) == (0, "", 0, "", text)
            outputs.add((out, json.dumps(data)))
        assert len(outputs) == 1, p


def test_clusters_runs_the_cheapest_member(monkeypatch):
    # the probes build every member's tables to 2k+3 = 11; only the member
    # that runs goes deeper
    run = choose_orientation((1, 4, 2, 3), 60)
    assert run == (3, 2, 4, 1)
    honest = cluster_dp.cluster_tables
    built = []

    def spy(p, N, u, work=None):
        built.append((tuple(p), N))
        return honest(p, N, u, work)

    monkeypatch.setattr(cluster_dp, "cluster_tables", spy)
    code, out, err = run_cli(["clusters", "1423", "--n", "60"])
    assert (code, err, len(out.splitlines())) == (0, "", 61)
    assert [p for p, N in built if N > 11] == [run]


def test_clusters_member_that_only_probes_exits_4(monkeypatch):
    # one wrong table at n=5 of the lex-min member 132, which does not run
    assert choose_orientation((1, 3, 2), 20) != (1, 3, 2)
    monkeypatch.setattr(cluster_dp, "cluster_tables", _corrupt_tables_of((1, 3, 2), 5))
    code, out, err = run_cli(["clusters", "231", "--n", "20"])
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert len(err.splitlines()) == 1 and err.endswith(" on 132\n")


def test_terms_longer_than_the_int_text_limit_print():
    # 1800! has 5,080 digits, past the 4,300 Python 3.11 prints by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        code, out, err = run_cli(["count", "--n", "1800"])
        terms = out.rstrip("\n").split(",")
        assert (code, err, len(terms)) == (0, "", 1801)
        assert terms[-1] == str(math.factorial(1800))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _readme_examples():
    """(argv, comment) per line of the README's "Command line" block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.strip().splitlines():
        command, _, comment = line.partition("#")
        examples.append((shlex.split(command), comment.strip()))
    return examples


EXAMPLES = _readme_examples()
# the output a README comment shows, line by line
SHOWN = {
    "cwilf count --avoid 123 --n 6": ["1,1,2,5,17,70,349"],
    "cwilf clusters 123 --n 4": ["C[3] = t - 1", "C[4] = t^2 - 2*t + 1"],
    "cwilf crosscheck --all-s3 --n 8 --strict": ["OK: 0 discrepancies"],
}


def test_readme_shows_the_pinned_outputs():
    comments = {" ".join(argv): comment for argv, comment in EXAMPLES}
    for command, lines in SHOWN.items():
        assert all(line in comments[command] for line in lines), command


@pytest.mark.parametrize("argv", [argv for argv, _ in EXAMPLES], ids=" ".join)
def test_readme_example(argv):
    if argv[0] == "cwilf":
        code, out, err = run_cli(argv[1:])
    else:
        assert argv[:3] == ["python", "-m", "cwilf"]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, *argv[1:]], env=env,
                              capture_output=True, text=True, timeout=60)
        code, out, err = done.returncode, done.stdout, done.stderr
        assert out == run_cli(argv[3:])[1]
    assert code == 0, err
    for line in SHOWN.get(" ".join(argv), []):
        assert line in out.splitlines()
