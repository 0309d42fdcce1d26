import itertools
import math
import random

import pytest

from cwilf import cluster_dp, positive_dp, weightring
from cwilf.analysis import avoidance_series, tracked_series
from cwilf.patterns import all_patterns, reduction, symmetry_class
from cwilf.permcore import brute_weight_enum
from cwilf.survey import cross_check, growth_estimate, hit_parade
from cwilf.weightring import PatternAssignment, WeightPoly
from helpers import factorials
from reference import window_pairs


def test_growth_estimate_on_factorials():
    est = growth_estimate(factorials(20))
    assert abs(est.estimate - 1.0) < 1e-9
    assert all(abs(r - 1.0) < 1e-12 for r in est.tail_ratios)


def test_growth_estimate_on_constant_sequence():
    est = growth_estimate([1] * 21)
    assert abs(est.estimate) < 1e-12


def test_growth_estimate_is_scale_free():
    counts = avoidance_series([(1, 2, 3)], 25).terms
    a = growth_estimate(counts)
    b = growth_estimate([7 * c for c in counts])
    assert a.estimate == b.estimate
    assert a.tail_ratios == b.tail_ratios


# exact limits: 1/rho with rho the first positive zero of the EGF's denominator
LIMITS = {(1, 2, 3): 3 * math.sqrt(3) / (2 * math.pi),  # 0.8269933431326881
          (1, 3, 2): 0.7839769312035472}  # rho: integral of exp(-t^2/2) from 0 to rho is 1


@pytest.mark.parametrize("pattern", sorted(LIMITS), ids=lambda p: "".join(map(str, p)))
def test_growth_estimate_on_geometric_tails(pattern):
    # consecutive-pattern ratios converge geometrically, where a Richardson
    # step would add error: the estimate stays the last raw ratio
    limit = LIMITS[pattern]
    for N, tol in ((12, 1e-4), (20, 1e-6), (30, 1e-9)):
        counts = avoidance_series([pattern], N).terms
        est = growth_estimate(counts)
        assert est.estimate == est.tail_ratios[-1], (pattern, N)
        assert abs(est.estimate - limit) < tol, (pattern, N)
        step = N * est.tail_ratios[-1] - (N - 1) * est.tail_ratios[-2]
        assert abs(est.estimate - limit) < abs(step - limit), (pattern, N)


def test_growth_estimate_validation():
    with pytest.raises(ValueError):
        growth_estimate(factorials(9))
    with pytest.raises(ValueError):
        growth_estimate([1] * 10 + [0] * 5)


def test_avoidance_series_engines_agree():
    for pats in [[(1, 2, 3)], [(1, 3, 2)]]:
        auto = avoidance_series(pats, 8)
        assert auto.method == "cluster"
        positive = avoidance_series(pats, 8, engine="positive")
        brute = avoidance_series(pats, 8, engine="brute")
        assert auto.terms == positive.terms == brute.terms


def test_avoidance_series_empty_and_sets():
    empty = avoidance_series((), 6)
    assert empty.terms == factorials(6)
    assert empty.method == "factorial"
    pair = avoidance_series([(1, 2, 3), (3, 2, 1)], 7)
    assert pair.method == "positive"
    assert pair.terms == avoidance_series([(1, 2, 3), (3, 2, 1)], 7, engine="brute").terms
    with pytest.raises(ValueError):
        avoidance_series([(1, 2, 3), (3, 2, 1)], 7, engine="cluster")


def test_avoidance_series_uses_cheapest_representative():
    rep = avoidance_series([(4, 2, 3, 1)], 6)
    assert rep.representative == "1324"
    assert rep.pattern == "4231"
    assert set(rep.members) == {"1324", "4231"}
    direct = avoidance_series([(1, 3, 2, 4)], 6)
    assert direct.terms == rep.terms


def test_tracked_series_cluster_vs_positive():
    for engine in ("cluster", "positive", "brute"):
        rep = tracked_series([(1, 2, 3)], N=8, engine=engine)
        a = PatternAssignment.tracking([(1, 2, 3)])
        for n in range(9):
            assert rep.terms[n] == brute_weight_enum(n, 3, a), (engine, n)


def test_tracked_series_representative_substitution_is_sound():
    # occurrence counts biject under reverse/complement, so the full
    # polynomials of the representative are the pattern's own
    rep = tracked_series([(3, 2, 1)], N=8)
    assert rep.representative == "123"
    a = PatternAssignment.tracking([(3, 2, 1)])
    for n in range(9):
        assert rep.terms[n] == brute_weight_enum(n, 3, a), n


def test_cross_check_single_pattern():
    report = cross_check([(1, 2, 3)], 8)
    assert report.ok
    assert set(report.methods) == {"brute", "positive", "cluster"}
    assert len(report.rows) == 9
    assert all(row["equal"] for row in report.rows)
    assert report.first_discrepancy is None


def test_cross_check_all_length_3_patterns_to_8():
    # the headline validation property: zero discrepancies anywhere
    for p in all_patterns(3):
        report = cross_check([p], 8)
        assert report.ok, p


def test_cross_check_pattern_set_skips_cluster():
    report = cross_check([(1, 2, 3), (3, 2, 1)], 7)
    assert report.ok
    assert set(report.methods) == {"brute", "positive"}


def test_cross_check_empty_set_gives_factorials():
    report = cross_check((), 6)
    assert report.ok
    fact = [str(f) for f in factorials(6)]
    for n, row in enumerate(report.rows):
        assert set(row["terms"].values()) == {fact[n]}


def test_cross_check_mixed_lengths():
    report = cross_check([(1, 2), (1, 2, 3)], 6)
    assert report.ok
    assert set(report.methods) == {"brute", "positive"}


def test_hit_parade_k3():
    rows = hit_parade(3, 12)
    assert len(rows) == 2
    assert {r.pattern for r in rows} == {"123", "132"}
    by_pattern = {r.pattern: r for r in rows}
    assert set(by_pattern["123"].members) == {"123", "321"}
    assert set(by_pattern["132"].members) == {"132", "213", "231", "312"}
    # the two classes separate by size 6 already
    assert by_pattern["123"].terms[6] != by_pattern["132"].terms[6]
    # ranked by avoider count, descending
    assert rows[0].terms[-1] >= rows[1].terms[-1]


def test_hit_parade_counts_match_positive_engine():
    rows = hit_parade(4, 20)
    assert len(rows) == 8
    for row in rows:
        p = tuple(int(ch) for ch in row.pattern)
        series = positive_dp.enumerate_series(
            4, PatternAssignment.avoiding([p]), 20)
        assert row.terms == [w.constant_value() for w in series], row.pattern
    counts = [r.terms[-1] for r in rows]
    assert counts == sorted(counts, reverse=True)


def test_hit_parade_validation():
    with pytest.raises(ValueError):
        hit_parade(7)
    with pytest.raises(ValueError):
        hit_parade(2)


def test_series_report_json_schema():
    report = avoidance_series([(1, 2, 3)], 5)
    data = report.to_json_dict()
    assert list(data) == ["pattern", "representative", "class", "method",
                          "terms", "growth", "checks"]
    assert data["terms"] == ["1", "1", "2", "5", "17", "70"]
    tracked = tracked_series([(1, 2, 3)], N=3)
    assert tracked.to_json_dict()["terms"][-1] == "t + 5"


def _second_moments(terms, nvars):
    """Per term, the sum of c e_i e_j over its terms c t^e, for i <= j."""
    return [[sum(c * e[i] * e[j] for e, c in poly.items())
             for i in range(nvars) for j in range(i, nvars)] for poly in terms]


def _closed_forms(track, N):
    pairs = [(a, b) for i, a in enumerate(track) for b in track[i:]]
    return [[weightring._second_moment(a, b, n, math.factorial(n)) for a, b in pairs]
            for n in range(N + 1)]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_second_moment_closed_form_matches_every_tracked_class(k):
    # the cluster engine, one member per class, to n=30
    for p in sorted({symmetry_class(q)[0] for q in all_patterns(k)}):
        terms = cluster_dp.assemble_counts(p, 30)
        assert _second_moments(terms, 1) == _closed_forms((p,), 30), p


def test_second_moment_closed_form_matches_seeded_pairs():
    # the positive engine on same-length and mixed-length pairs
    rng = random.Random(22)
    for ka, kb in [(3, 3), (3, 3), (4, 4), (4, 4), (2, 3), (3, 4), (3, 4), (2, 4)]:
        a = rng.choice(all_patterns(ka))
        b = rng.choice([q for q in all_patterns(kb) if q != a])
        terms = positive_dp.enumerate_for_patterns(track=(a, b), N=14)
        assert _second_moments(terms, 2) == _closed_forms((a, b), 14), (a, b)



def test_window_pairs_match_the_subset_dp():
    # the product of binomials against the linear extensions counted one
    # set of smallest positions at a time: every ordered pair of lengths
    # 2-4, and seeded pairs of lengths 5-6
    pairs = [(a, b) for ka in (2, 3, 4) for kb in (2, 3, 4)
             for a in all_patterns(ka) for b in all_patterns(kb)]
    rng = random.Random(24)
    pairs += [tuple(rng.choice(all_patterns(rng.choice((5, 6)))) for _ in "ab")
              for _ in range(40)]
    for a, b in pairs:
        assert weightring._window_pairs(a, b) == window_pairs(a, b), (a, b)


def test_window_pairs_match_every_order_of_the_span():
    # length-3 pairs against all L! orders of each span, which needs
    # neither the closed form nor the DP
    for a in all_patterns(3):
        for b in all_patterns(3):
            expected = []
            for d in range(-2, 3):
                lo = min(0, d)
                L = max(3, d + 3) - lo
                expected.append((L, sum(reduction(order[-lo:3 - lo]) == a
                                        and reduction(order[d - lo:d - lo + 3]) == b
                                        for order in itertools.permutations(range(L)))))
            assert weightring._window_pairs(a, b) == tuple(expected), (a, b)
