"""What `crosscheck` gets from the series router: the brute-force cap
refused before any oracle runs, and the cheapest-member cross-check on
the cluster column.  Its stdout is pinned in `test_pinned_outputs.py`.
"""

import pytest

from cwilf import cli, cluster_dp, patterns, permcore

from test_router import _corrupt_tables_of, run_cli


@pytest.mark.parametrize("argv", [
    ["crosscheck", "123", "--n", "10", "--cap", "9"],
    ["crosscheck", "12;123", "--n", "10", "--cap", "8"],
])
def test_cap_is_refused_before_any_oracle_runs(monkeypatch, argv):
    def oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the cap was checked")

    monkeypatch.setattr(permcore, "brute_weight_enum", oracle)
    monkeypatch.setattr(permcore, "brute_avoider_count", oracle)
    code, out, err = run_cli(argv)
    assert (code, out) == (cli.EXIT_CAP, "")
    assert err == f"error: oracle limit: n=10 exceeds cap {argv[-1]}\n"


def test_cluster_column_cross_checks_every_member(monkeypatch):
    # one wrong table of 3142 shows as a mismatch with the member that
    # runs, not as a packed-layout fault of 3142's own run
    monkeypatch.setattr(cluster_dp, "cluster_tables", _corrupt_tables_of((3, 1, 4, 2), 6))
    code, out, err = run_cli(["crosscheck", "3142", "--n", "8"])
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err.endswith(" on 3142\n")


@pytest.mark.parametrize("argv, cap", [
    (["crosscheck", "", "--n", "10", "--cap", "9"], 9),
    (["crosscheck", "", "--n", str(patterns.DEFAULT_PERM_CAP + 1)], patterns.DEFAULT_PERM_CAP),
])
def test_empty_family_refuses_the_cap_before_any_oracle_runs(monkeypatch, argv, cap):
    def oracle(*args, **kwargs):
        raise AssertionError("oracle ran before the cap was checked")

    monkeypatch.setattr(permcore, "brute_weight_enum", oracle)
    code, out, err = run_cli(argv)
    assert (code, out) == (cli.EXIT_CAP, "")
    assert err == f"error: oracle limit: n={argv[3]} exceeds cap {cap}\n"
