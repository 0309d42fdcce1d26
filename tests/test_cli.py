import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cwilf import cli, cluster_dp, positive_dp, survey, weightring
from cwilf.weightring import Packing, WeightPoly
from helpers import choose_orientation


def run_cli(args, env=None, monkeypatch=None):
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_count_avoid_series():
    code, out, err = run_cli(["count", "--avoid", "123", "--n", "6"])
    assert (code, out) == (0, "1,1,2,5,17,70,349\n")


def test_count_empty_avoid_gives_factorials():
    code, out, _ = run_cli(["count", "--avoid", "", "--n", "5"])
    assert (code, out) == (0, "1,1,2,6,24,120\n")


def test_count_track_json():
    code, out, _ = run_cli(["count", "--track", "123", "--n", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["pattern", "representative", "class", "method",
                          "terms", "growth", "checks"]
    assert data["terms"][-1] == "t + 5"
    assert data["method"] == "cluster"


def test_count_track_text_uses_polynomials():
    code, out, _ = run_cli(["count", "--track", "123", "--n", "4"])
    assert code == 0
    assert out == "1; 1; 2; t + 5; t^2 + 6*t + 17\n"


def test_count_engines_agree():
    outputs = set()
    for engine in ("auto", "positive", "cluster", "brute"):
        code, out, _ = run_cli(["count", "--avoid", "132", "--n", "7",
                                "--engine", engine])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_count_multi_pattern():
    code, out, _ = run_cli(["count", "--avoid", "123;321", "--n", "6"])
    assert code == 0
    assert out == "1,1,2,4,10,32,122\n"


def test_clusters_output():
    code, out, _ = run_cli(["clusters", "123", "--n", "4"])
    assert code == 0
    assert out.splitlines()[3] == "C[3] = t - 1"
    assert out.splitlines()[4] == "C[4] = t^2 - 2*t + 1"


def test_crosscheck_all_s3():
    code, out, _ = run_cli(["crosscheck", "--all-s3", "--n", "6"])
    assert (code, out) == (0, "OK: 0 discrepancies\n")


def test_crosscheck_pattern_set():
    code, out, _ = run_cli(["crosscheck", "123;321", "--n", "6", "--strict"])
    assert (code, out) == (0, "OK: 0 discrepancies\n")


def test_crosscheck_strict_exit_code(monkeypatch):
    fake = survey.CrossCheckReport(
        patterns=("123",), n_max=3, methods=("brute", "positive"),
        rows=[], discrepancies=[{"n": 3, "terms": {"brute": "5", "positive": "6"}}])
    monkeypatch.setattr(survey, "cross_check", lambda *a, **kw: fake)
    code, out, _ = run_cli(["crosscheck", "123", "--n", "3", "--strict"])
    assert code == cli.EXIT_INCONSISTENT
    assert out.startswith("FAIL: 1 discrepancies")
    code, _, _ = run_cli(["crosscheck", "123", "--n", "3"])
    assert code == 0


def test_hitparade_text_and_json():
    code, out, _ = run_cli(["hitparade", "3", "--n", "12"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3  # header + 2 symmetry classes
    code, out, _ = run_cli(["hitparade", "--k", "3", "--n", "12", "--format", "json"])
    rows = json.loads(out)
    assert len(rows) == 2
    assert list(rows[0]) == ["pattern", "representative", "class", "method",
                             "terms", "growth", "checks"]


def test_growth_command():
    code, out, _ = run_cli(["growth", "123", "--n", "30", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["growth"] is not None
    assert len(data["checks"]["tail_ratios"]) == 5


def test_parse_error_exits_2():
    code, _, err = run_cli(["count", "--avoid", "1x3", "--n", "5"])
    assert code == 2
    assert "error:" in err
    code, _, _ = run_cli(["count", "--avoid", "123", "--track", "123", "--n", "5"])
    assert code == 2
    code, _, _ = run_cli(["crosscheck", "--n", "5"])
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["count"])
    assert exc.value.code == 2


def test_cap_exceeded_exits_3():
    code, _, err = run_cli(["count", "--avoid", "123", "--n", "12",
                            "--engine", "brute"])
    assert code == 3
    assert "oracle limit" in err


def test_cap_env_and_flag(monkeypatch):
    code, _, _ = run_cli(["count", "--avoid", "123", "--n", "7",
                          "--engine", "brute"],
                         env={"CWILF_CAP": "6"}, monkeypatch=monkeypatch)
    assert code == 3
    code, _, _ = run_cli(["count", "--avoid", "123", "--n", "7",
                          "--engine", "brute", "--cap", "8"],
                         env={"CWILF_CAP": "6"}, monkeypatch=monkeypatch)
    assert code == 0


def test_hitparade_refuses_negative_n():
    code, out, err = run_cli(["hitparade", "3", "--n", "-1"])
    assert (code, out, err) == (2, "", "error: --n must be nonnegative\n")


@pytest.mark.parametrize("flag, env, source", [
    (["--cap", "-1"], {}, "--cap"),
    ([], {"CWILF_CAP": "-2"}, "CWILF_CAP"),
    ([], {"CWILF_CAP": "x"}, "CWILF_CAP"),
    (["--cap", "-1"], {"CWILF_CAP": "6"}, "--cap"),
])
def test_invalid_cap_exits_2(monkeypatch, flag, env, source):
    code, out, err = run_cli(["count", "--avoid", "123", "--n", "3", "--engine", "brute", *flag],
                             env=env, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {source} must be") and len(err.splitlines()) == 1


def test_cap_zero_is_a_cap(monkeypatch):
    code, out, _ = run_cli(["count", "--avoid", "123", "--n", "0", "--engine", "brute",
                            "--cap", "0"])
    assert (code, out) == (0, "1\n")
    code, _, err = run_cli(["count", "--avoid", "123", "--n", "1", "--engine", "brute"],
                           env={"CWILF_CAP": "0"}, monkeypatch=monkeypatch)
    assert code == 3 and "exceeds cap 0" in err


@pytest.mark.parametrize("engine", ["cluster", "positive"])
def test_undersized_packing_exits_4(monkeypatch, engine):
    def undersized(nvars, coeff_bound, degree_bound):
        return Packing(nvars, coeff_bound.bit_length() // 2, degree_bound + 1)

    monkeypatch.setattr(weightring, "packing_layout", undersized)
    code, out, err = run_cli(["count", "--track", "123", "--n", "12",
                              "--engine", engine])
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_corrupt_avoidance_term_exits_4(monkeypatch):
    # one wrong cluster number changes a_k, which must equal k! - 1
    honest = cluster_dp.cluster_values

    def corrupted(p, N, t_value):
        values = honest(p, N, t_value)
        values[len(p)] += 1
        return values

    monkeypatch.setattr(cluster_dp, "cluster_values", corrupted)
    code, out, err = run_cli(["count", "--avoid", "132", "--n", "8"])
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("engine", ["cluster", "positive"])
def test_corrupt_first_moment_exits_4(monkeypatch, engine):
    # move one permutation of size 5 from one occurrence of 123 to two:
    # P_5(1) = 5! still holds, the first moment (3 * 5!/3! = 60) does not
    module, name = ((cluster_dp, "assemble_counts") if engine == "cluster"
                    else (positive_dp, "enumerate_for_patterns"))
    honest = getattr(module, name)

    def corrupted(*args, **kwargs):
        terms = honest(*args, **kwargs)
        t = WeightPoly.variable(0, 1)
        terms[5] = terms[5] - t + t * t
        return terms

    monkeypatch.setattr(module, name, corrupted)
    code, out, err = run_cli(["count", "--track", "123", "--n", "8", "--engine", engine])
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "first moment" in err


@pytest.mark.parametrize("engine", ["cluster", "positive"])
def test_corrupt_second_moment_exits_4(monkeypatch, engine):
    # in P_20 of 132, take 1 from t^0 and t^2 and add 2 to t^1: P_20(1) and
    # the first moment hold, the second moment drops by 2
    module, name = ((cluster_dp, "assemble_counts") if engine == "cluster"
                    else (positive_dp, "enumerate_for_patterns"))
    honest = getattr(module, name)

    def corrupted(*args, **kwargs):
        terms = honest(*args, **kwargs)
        terms[20] = terms[20] + WeightPoly(1, {(0,): -1, (1,): 2, (2,): -1})
        return terms

    monkeypatch.setattr(module, name, corrupted)
    code, out, err = run_cli(["count", "--track", "132", "--n", "30", "--engine", engine])
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: second moment of 132 in P_20: ")


def test_corrupt_two_atom_count_exits_4(monkeypatch):
    # 123's two-atom clusters are at most 5 long, so [u^2]C_15 = 0; adding
    # t^3 - 2t^2 + t, which is u^3 + u^2, keeps C_15 at t = 0 and t = 1,
    # and n = 15 lies past the member check's probe depth anyway
    honest = cluster_dp.cluster_polys

    def corrupted(p, N):
        terms = honest(p, N)
        terms[15] = terms[15] + WeightPoly(1, {(3,): 1, (2,): -2, (1,): 1})
        return terms

    monkeypatch.setattr(cluster_dp, "cluster_polys", corrupted)
    code, out, err = run_cli(["clusters", "123", "--n", "20"])
    assert (code, out, err) == (cli.EXIT_INCONSISTENT, "", "error: [u^2]C_15 = 1, expected 0\n")


def test_undersized_cluster_layout_exits_4(monkeypatch):
    # 6 bits hold balanced digits below 32 in size; C_20(t) has larger
    # coefficients, whose carries move the digit sum off C_n(1) = 0
    def six_bits(nvars, coeff_bound, degree_bound):
        return Packing(nvars, 6, degree_bound + 1)

    monkeypatch.setattr(weightring, "packing_layout", six_bits)
    code, out, err = run_cli(["clusters", "123", "--n", "20"])
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: C_") and "(1) = " in err and "expected 0" in err


def test_clusters_multiplies_no_polynomials(monkeypatch):
    # C_n(t) is decoded straight from packed integers, not shifted from u
    # to t in the polynomial ring
    expected = run_cli(["clusters", "123", "--n", "60"])

    def refuse(self, other):
        raise AssertionError("WeightPoly product on the clusters route")

    monkeypatch.setattr(WeightPoly, "__mul__", refuse)
    assert run_cli(["clusters", "123", "--n", "60"]) == expected
    assert expected[0] == 0


def test_short_packing_stride_exits_4(monkeypatch):
    # one digit short, 123's top exponent spills into 321's and 321's into
    # 132's; the digit sum holds and 132 stays in range, so only the first
    # moments see it
    def short_stride(nvars, coeff_bound, degree_bound):
        return Packing(nvars, coeff_bound.bit_length() + 1, degree_bound)

    monkeypatch.setattr(weightring, "packing_layout", short_stride)
    code, out, err = run_cli(["count", "--track", "123;321;132", "--n", "12"])
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert len(err.splitlines()) == 1 and "first moment" in err


def test_python_dash_m_matches_main():
    argv = ["count", "--avoid", "1342", "--n", "9"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "cwilf", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(argv)[1]


def _modules_loaded_by(code):
    """The modules a fresh interpreter imports while running `code`.

    It runs with -S: `site` may import modules (`typing` through a `.pth`
    file) before the probe starts, which would hide them from it.
    """
    probe = ("import json, sys\n"
             "before = set(sys.modules)\n"
             f"{code}\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_startup_loads_no_engine_and_no_heavy_stdlib():
    loaded = _modules_loaded_by("import cwilf.cli as cli; cli.build_parser()")
    assert "cwilf.cli" in loaded
    heavy = {"cwilf.cluster_dp", "cwilf.positive_dp", "dataclasses", "inspect",
             "fractions", "typing"}
    assert not loaded & heavy


@pytest.mark.parametrize("argv, engine, unused", [
    (["count", "--avoid", "132", "--n", "20"], "cwilf.cluster_dp", "cwilf.positive_dp"),
    (["count", "--avoid", "1324;2143", "--n", "8"], "cwilf.positive_dp", "cwilf.cluster_dp"),
])
def test_count_loads_only_the_engine_it_runs(argv, engine, unused):
    loaded = _modules_loaded_by(f"from cwilf.cli import main; main({argv!r})")
    assert engine in loaded
    assert unused not in loaded


def test_startup_leaves_the_weight_ring_unloaded():
    assert "cwilf.weightring" not in _modules_loaded_by(
        "import cwilf.cli as cli; cli.build_parser()")


@pytest.mark.parametrize("argv, ring", [
    (["count", "--avoid", "132", "--n", "20"], False),
    (["growth", "123", "--n", "30"], False),
    (["hitparade", "3", "--n", "10"], False),
    (["count", "--track", "123", "--n", "8"], True),
])
def test_only_polynomial_routes_load_the_weight_ring(argv, ring):
    loaded = _modules_loaded_by(f"from cwilf.cli import main; main({argv!r})")
    assert ("cwilf.weightring" in loaded) == ring


def test_corrupt_orientation_that_runs_exits_4(monkeypatch):
    # a wrong C_4 on the member that runs leaves a_0..a_3 intact, so only
    # the comparison with the other members' probes sees it
    run = choose_orientation((1, 3, 2), 20)
    assert run != (1, 3, 2)
    honest = cluster_dp.cluster_values

    def corrupted(p, N, t_value):
        values = honest(p, N, t_value)
        if tuple(p) == run:
            values[4] += 1
        return values

    monkeypatch.setattr(cluster_dp, "cluster_values", corrupted)
    code, out, err = run_cli(["count", "--avoid", "132", "--n", "20"])
    assert code == cli.EXIT_INCONSISTENT
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: avoidance count a_4")


def test_corrupt_orientation_that_only_probes_exits_4(monkeypatch):
    # one wrong table at n=5 of the lex-min member, which does not run
    honest = cluster_dp.cluster_tables

    def corrupted(p, N, u, work=None):
        for n, table in honest(p, N, u, work):
            if tuple(p) == (1, 3, 2) and n == 5:
                key = next(iter(table))
                table = {**table, key: table[key] + 1}
            yield n, table

    monkeypatch.setattr(cluster_dp, "cluster_tables", corrupted)
    for argv in (["count", "--avoid", "231", "--n", "20"], ["hitparade", "3", "--n", "20"]):
        code, out, err = run_cli(argv)
        assert code == cli.EXIT_INCONSISTENT
        assert out == ""
        assert len(err.splitlines()) == 1 and err.endswith(" on 132\n")


def test_closed_stdout_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "cwilf", "hitparade", "4", "--n", "12"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (cli.EXIT_BROKEN_PIPE, b"")



def test_in_process_main_leaves_the_collector_unchanged():
    frozen = gc.get_freeze_count()
    for argv in (["count", "--avoid", "132", "--n", "8"], ["clusters", "123", "--n", "5"]):
        assert run_cli(argv)[0] == 0
    assert gc.get_freeze_count() == frozen


OWN_COMMAND_LINES = [
    *(["count", "--avoid", "132", "--n", "7", "--engine", engine, "--format", fmt]
      for engine in ("cluster", "positive", "brute") for fmt in ("text", "json")),
    *(["clusters", "1342", "--n", "8", "--format", fmt] for fmt in ("text", "json")),
]


@pytest.mark.parametrize("argv", OWN_COMMAND_LINES)
def test_own_command_line_freezes_the_start_up_heap(argv):
    # `main()` on the process's own arguments, as the console script and
    # `python -m cwilf` call it, freezes what start-up left and prints the
    # same bytes as a run that passes argv
    probe = ("import gc, sys\n"
             "from cwilf.cli import main\n"
             "code = main()\n"
             "sys.stderr.write(f'{code} {gc.get_freeze_count()}')")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, timeout=60)
    code, frozen = done.stderr.decode().split()
    assert int(code) == 0
    assert int(frozen) > 0
    assert done.stdout == run_cli(argv)[1].encode()

@pytest.mark.parametrize("argv", [
    ["hitparade", "3", "--n", "5", "--cap", "-1"],
    ["clusters", "123", "--n", "3", "--cap", "5"],
    ["growth", "123", "--n", "12", "--cap", "3"],
])
def test_cap_is_refused_where_nothing_reads_it(argv):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["count", "--avoid", "123", "--n", "3", "--cap", "3"],
    ["crosscheck", "123", "--n", "3", "--cap", "3"],
])
def test_cap_is_accepted_where_it_is_read(argv):
    assert run_cli(argv)[0] == 0


def test_interrupt_exits_130_without_traceback(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._HANDLERS, "count", interrupted)
    code, out, err = run_cli(["count", "--avoid", "123", "--n", "6"])
    assert (code, out, err) == (130, "", "error: interrupted\n")


def test_repeated_runs_are_byte_identical():
    a = run_cli(["hitparade", "3", "--n", "15", "--format", "json"])
    b = run_cli(["hitparade", "3", "--n", "15", "--format", "json"])
    assert a == b


def test_clusters_and_count_name_the_same_class():
    from cwilf.patterns import all_patterns, format_pattern

    for p in all_patterns(3) + all_patterns(4):
        text = format_pattern(p)
        labels = []
        for argv in (["clusters", text], ["count", "--avoid", text]):
            code, out, _ = run_cli([*argv, "--n", "4", "--format", "json"])
            assert code == 0
            data = json.loads(out)
            labels.append((data["representative"], data["class"]))
        assert labels[0] == labels[1], text


@pytest.mark.parametrize("argv", [
    ["count", "--avoid", "123"],
    ["clusters", "123"],
    ["crosscheck", "123"],
    ["hitparade", "3"],
    ["growth", "123"],
])
def test_every_command_refuses_negative_n(argv):
    code, out, err = run_cli([*argv, "--n", "-1"])
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: --n must be nonnegative\n")


def test_crosscheck_refuses_a_pattern_set_with_all_s3():
    # the set would go unchecked behind the length-3 sweep
    code, out, err = run_cli(["crosscheck", "1234", "--all-s3", "--n", "5"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_hitparade_refuses_two_different_lengths():
    code, out, err = run_cli(["hitparade", "3", "--k", "4", "--n", "5"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # the same length given both ways is one length
    assert run_cli(["hitparade", "3", "--k", "3", "--n", "12"]) == run_cli(
        ["hitparade", "3", "--n", "12"])
