import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwilf import cluster_dp, positive_dp
from cwilf.analysis import _series
from cwilf.cluster_dp import (
    assemble_counts,
    binomial_row,
    cluster_polys,
    cluster_polys_shifted,
    cluster_tables,
    cluster_values,
    overlap_set,
    _extension_slots,
)
from cwilf.patterns import all_patterns, format_pattern, symmetry_class
from cwilf.permcore import (
    EgfReport,
    brute_cluster_enum,
    brute_weight_enum,
    egf_identity_check,
    extend_cluster,
    split_ending_cluster,
    verify_321_equation,
)
from cwilf.weightring import PatternAssignment, WeightPoly
from helpers import choose_orientation, factorials

U = WeightPoly.variable(0, 1)
S4_SAMPLE = [(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2), (4, 3, 2, 1)]


def test_overlap_set_examples():
    assert overlap_set((1, 3, 2, 4)) == (1, 2)
    assert overlap_set((1, 2, 3)) == (1, 2)
    assert overlap_set((1, 3, 2)) == (1,)
    assert overlap_set((3, 2, 1)) == (1, 2)
    assert overlap_set((2, 1)) == (1,)


def test_overlap_one_is_always_admissible():
    for k in (2, 3, 4):
        for p in all_patterns(k):
            assert 1 in overlap_set(p)


def test_extension_slots_for_1324_match_both_overlap_cases():
    # two-entry overlap: new smallest = old second, new third = old largest + 1
    fixed, free = _extension_slots((1, 3, 2, 4), 2)
    assert fixed == ((1, 2, 0), (3, 4, 1))
    assert free == (2, 4)
    # single-entry overlap: new smallest = old largest
    fixed, free = _extension_slots((1, 3, 2, 4), 1)
    assert fixed == ((1, 4, 0),)
    assert free == (2, 3, 4)


def test_extend_cluster_enumerates_the_constrained_ranges():
    # from last atom values (i1,i2,i3,i4) at length n, the overlap-2
    # extensions are exactly { (i2, j2, i4+1, j4) : i2 < j2 < i4+1 < j4 <= n+2 }
    state, n = (2, 3, 5, 6), 8
    got = extend_cluster(state, n, 2, (1, 3, 2, 4))
    expected = [
        (3, j2, 7, j4)
        for j2 in range(4, 7)
        for j4 in range(8, n + 3)
    ]
    assert sorted(got) == sorted(expected)
    got1 = extend_cluster(state, n, 1, (1, 3, 2, 4))
    expected1 = [
        (6, j2, j3, j4)
        for j2 in range(7, 12)
        for j3 in range(j2 + 1, 12)
        for j4 in range(j3 + 1, 12)
    ]
    assert sorted(got1) == sorted(expected1)


def test_extend_cluster_examples_and_errors():
    assert extend_cluster((1, 2, 3), 3, 2, (1, 2, 3)) == [(2, 3, 4)]
    with pytest.raises(ValueError, match="not admissible"):
        extend_cluster((1, 2, 3), 3, 2, (1, 3, 2))
    with pytest.raises(ValueError, match="invalid cluster state"):
        extend_cluster((3, 2, 1), 3, 1, (1, 2, 3))


def test_cluster_polys_against_oracle():
    for p in all_patterns(3):
        series = cluster_polys(p, 8)
        for n in range(9):
            assert series[n] == brute_cluster_enum(n, p), (p, n)
    for p in S4_SAMPLE:
        series = cluster_polys(p, 8)
        for n in range(9):
            assert series[n] == brute_cluster_enum(n, p), (p, n)


def test_cluster_polys_basics():
    t_minus_1 = WeightPoly(1, {(1,): 1, (0,): -1})
    for p in [(1, 2, 3), (2, 1, 3), (1, 3, 2, 4), (2, 1)]:
        series = cluster_polys(p, len(p) + 1)
        assert all(series[n] == 0 for n in range(len(p)))
        assert series[len(p)] == t_minus_1


def _full_state_tables(p, N, u):
    """Reference tables keyed by all k sorted values of the last atom,
    grown one `extend_cluster` extension at a time."""
    k = len(p)
    tables = {k: {tuple(range(1, k + 1)): u}}
    for n in range(k + 1, N + 1):
        table = {}
        for m in overlap_set(p):
            src_n = n - (k - m)
            for state, w in tables.get(src_n, {}).items():
                for new in extend_cluster(state, src_n, m, p):
                    prev = table.get(new)
                    table[new] = w * u if prev is None else prev + w * u
        tables[n] = table
    return tables


def _project(table, p):
    """Sum a full-state table onto the values at ranks p[k-M:]."""
    k, M = len(p), max(overlap_set(p))
    out = {}
    for state, w in table.items():
        key = tuple(state[r - 1] for r in p[k - M:])
        prev = out.get(key)
        out[key] = w if prev is None else prev + w
    return out


CLASS_REPS = sorted({symmetry_class(q)[0] for k in (3, 4, 5) for q in all_patterns(k)})


def test_aggregated_and_direct_tables_agree():
    # the engine's key tables are the full-state tables aggregated onto the
    # key; 2413 walks its two-entry overlap downwards, with a two-value key
    for p in [(1, 2, 3), (1, 3, 2), (1, 3, 2, 4), (1, 3, 4, 2), (2, 1), (2, 4, 1, 3)]:
        direct = _full_state_tables(p, 10, U)
        fast = dict(cluster_tables(p, 10, U))
        assert fast == {n: _project(t, p) for n, t in direct.items()}, p


def test_table_sizes_are_bounded_by_the_key():
    assert len(CLASS_REPS) == 42
    for p in CLASS_REPS:
        M = max(overlap_set(p))
        for n, table in cluster_tables(p, 16, 1):
            assert len(table) <= math.comb(n, M), (p, n)
            if overlap_set(p) == (1,):
                assert len(table) <= n, (p, n)


def test_minimal_overlapping_clusters_depend_on_first_and_last_entries():
    # Duane-Remmel / Bona: with overlap set {1}, C_n(t) depends only on
    # the length and on p's first and last entries
    groups = {}
    for k in (4, 5):
        for p in all_patterns(k):
            if overlap_set(p) == (1,):
                groups.setdefault((k, p[0], p[-1]), []).append(p)
    assert sum(len(g) - 1 for g in groups.values()) > 0
    for members in groups.values():
        first = cluster_polys(members[0], 14)
        for q in members[1:]:
            assert cluster_polys(q, 14) == first, (members[0], q)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 6).flatmap(lambda k: st.permutations(range(1, k + 1))),
       st.integers(-3, 3))
def test_cluster_values_match_the_full_state_reference(p, t0):
    p = tuple(p)
    N = len(p) + 6
    expected = [0] * (N + 1)
    for n, table in _full_state_tables(p, N, t0 - 1).items():
        expected[n] = sum(table.values())
    assert cluster_values(p, N, t0) == expected


def test_cluster_values_specialize_the_polynomials():
    for p in [(1, 2, 3), (1, 3, 2, 4)]:
        polys = cluster_polys(p, 10)
        for t0 in (0, 1, 2, -1):
            values = cluster_values(p, 10, t0)
            assert values == [c.evaluate([t0]) for c in polys]


def test_u_degree_bounds():
    # r atoms need length between k+(r-1) and k+(r-1)(k-1)
    for p in [(1, 2, 3), (1, 3, 2), (1, 3, 2, 4), (2, 1, 4, 3)]:
        k = len(p)
        shifted = cluster_polys_shifted(p, 12)
        for n, c in enumerate(shifted):
            for (r,), coeff in c.items():
                assert coeff != 0
                assert k + (r - 1) <= n <= k + (r - 1) * (k - 1), (p, n, r)


def test_shifted_polys_are_the_polynomial_table_sums():
    # the packed route decodes to what tables with polynomial weights sum to,
    # for one pattern per overlap set of length 3-5
    firsts = {}
    for k in (3, 4, 5):
        for p in all_patterns(k):
            firsts.setdefault((k, overlap_set(p)), p)
    assert len(firsts) == 9
    for p in firsts.values():
        expected = [WeightPoly.zero(1)] * 13
        for n, table in cluster_tables(p, 12, U):
            expected[n] = sum(table.values())
        assert cluster_polys_shifted(p, 12) == expected, p


def test_monotone_pattern_cluster_polys_are_chain_counts():
    # every cluster of an increasing pattern lives on the identity, so the
    # u-coefficients count overlap chains; cross-checked against the oracle
    for k in (3, 4):
        p = tuple(range(1, k + 1))
        series = cluster_polys(p, 9)
        for n in range(10):
            assert series[n] == brute_cluster_enum(n, p)


def test_binomials():
    for n in range(12):
        for r in range(n + 1):
            assert binomial_row(n)[r] == math.comb(n, r)
    assert binomial_row(6) == (1, 6, 15, 20, 15, 6, 1)


def test_assemble_counts_examples():
    P = assemble_counts((1, 2, 3), 3)
    assert P[3] == WeightPoly(1, {(1,): 1, (0,): 5})
    for p in [(1, 2, 3), (1, 3, 2), (1, 3, 2, 4)]:
        P = assemble_counts(p, 15)
        for n, f in enumerate(factorials(15)):
            assert P[n].evaluate([1]) == f


def test_assemble_counts_against_oracle():
    for p in all_patterns(3):
        P = assemble_counts(p, 8)
        a = PatternAssignment.tracking([p])
        for n in range(9):
            assert P[n] == brute_weight_enum(n, 3, a), (p, n)
    for p in S4_SAMPLE:
        P = assemble_counts(p, 8)
        a = PatternAssignment.tracking([p])
        for n in range(9):
            assert P[n] == brute_weight_enum(n, 4, a), (p, n)


def test_assemble_counts_specialized_matches_positive_engine():
    for p, N in [((1, 2, 3), 25), ((1, 3, 2), 25), ((1, 3, 2, 4), 15)]:
        counts = assemble_counts(p, N, t_value=0)
        series = positive_dp.enumerate_series(
            len(p), PatternAssignment.avoiding([p]), N)
        assert counts == [w.constant_value() for w in series]


def test_avoidance_engines_agree_past_the_oracle_cap():
    # every length-4 symmetry class, and one length-5 class per overlap set
    reps4 = sorted({min(symmetry_class(q)) for q in all_patterns(4)})
    reps5 = {}
    for q in sorted({min(symmetry_class(q)) for q in all_patterns(5)}):
        reps5.setdefault(overlap_set(q), q)
    assert len(reps4) == 8 and len(reps5) == 4
    for p, N in [(p, 28) for p in reps4] + [(p, 18) for p in reps5.values()]:
        series = positive_dp.enumerate_series(len(p), PatternAssignment.avoiding([p]), N)
        assert [w.constant_value() for w in series] == assemble_counts(p, N, t_value=0), p


def test_every_length_5_class_agrees_across_engines():
    reps = sorted({min(symmetry_class(q)) for q in all_patterns(5)})
    assert len(reps) == 32
    for p in reps:
        series = positive_dp.enumerate_series(5, PatternAssignment.avoiding([p]), 14)
        assert [w.constant_value() for w in series] == assemble_counts(p, 14, t_value=0), p


def test_tracked_engines_agree_past_the_oracle_cap():
    # one member of each length-4 symmetry class
    reps = sorted({min(symmetry_class(q)) for q in all_patterns(4)})
    assert len(reps) == 8
    for p in reps:
        positive = positive_dp.enumerate_series(4, PatternAssignment.tracking([p]), 18)
        assert positive == assemble_counts(p, 18), p


def test_bivariate_tracking_marginals_match_the_cluster_engine():
    # setting one variable to 1 leaves the other pattern's series; this
    # reaches the second variable's packing stride, which no oracle does
    both = positive_dp.enumerate_series(
        3, PatternAssignment.tracking([(1, 2, 3), (3, 2, 1)]), 20)
    for point, p in (([U, 1], (1, 2, 3)), ([1, U], (3, 2, 1))):
        assert [w.evaluate(point) for w in both] == assemble_counts(p, 20), p


def test_egf_identity():
    for p, N in [((1, 2, 3), 12), ((1, 3, 2), 12), ((1, 3, 2, 4), 10)]:
        P = assemble_counts(p, N)
        C = cluster_polys(p, N)
        report = egf_identity_check(P, C, N)
        assert isinstance(report, EgfReport)
        assert report.ok
        assert all(not r for r in report.residuals)
    trivial = egf_identity_check([WeightPoly.const(1, 1)], [WeightPoly.zero(1)], 0)
    assert trivial.ok


def test_egf_identity_detects_corruption():
    P = assemble_counts((1, 2, 3), 8)
    C = cluster_polys((1, 2, 3), 8)
    P[5] = P[5] + 1
    assert not egf_identity_check(P, C, 8).ok


def test_verify_321_equation():
    report = verify_321_equation(30)
    assert report.ok
    match = report.matches[0]
    assert (match.sign, match.shift, match.negate_u) == (1, -1, True)
    assert match.verified_to == 30
    assert match.residual_orders == ()
    # the candidate without the variable flip fails beyond the lowest order
    naive = [c for c in report.candidates if not c.negate_u]
    assert naive and all(c.residual_orders for c in naive)
    with pytest.raises(ValueError):
        verify_321_equation(4)


def test_verify_321_lowest_terms():
    # the one-atom cluster: C_3(t) = t - 1
    c = cluster_polys((3, 2, 1), 3)
    assert c[3] == WeightPoly(1, {(1,): 1, (0,): -1})
    # the algebraic equation's series starts at -(t-1)z^2, handled by the
    # shift/negation normalization that verify_321_equation reports
    report = verify_321_equation(10)
    assert all(c.shift == -1 for c in report.candidates)


def test_choose_representative():
    # the class label the router reports for a single avoided pattern
    def label(q):
        return _series([q], (), len(q), "cluster").representative

    assert label((1, 2, 3)) == "123"
    assert label((3, 2, 1)) == "123"
    for q in symmetry_class((1, 3, 2)):
        assert label(q) == "132"
    assert label((4, 2, 3, 1)) == "1324"
    # the chosen member never has more overlaps than any classmate
    for p in all_patterns(4):
        rep = symmetry_class(p)[0]
        assert label(p) == format_pattern(rep)
        assert len(overlap_set(rep)) <= min(
            len(overlap_set(q)) for q in symmetry_class(p))


def test_representative_is_the_lex_min_class_member():
    # the router labels a class by its first, lexicographically smallest
    # member, avoided or tracked; reverse and complement keep the overlap
    # set, so it cannot rank members
    assert _series([(3, 2, 1)], (), 3, "cluster").representative == "123"
    assert _series([(4, 2, 3, 1)], (), 4, "cluster").representative == "1324"
    for k in range(3, 7):
        for p in all_patterns(k):
            members = symmetry_class(p)
            label = format_pattern(min(members))
            assert _series([p], (), k, "cluster").representative == label, p
            if k < 6:
                assert _series((), [p], k, "cluster").representative == label, p
            assert {overlap_set(q) for q in members} == {overlap_set(p)}


@pytest.mark.parametrize("k, N", [(3, 30), (4, 20), (5, 14), (6, 12)])
def test_chosen_orientation_counts_like_the_representative(k, N):
    seen = set()
    for p in all_patterns(k):
        if p in seen:
            continue
        members = symmetry_class(p)
        seen.update(members)
        run = choose_orientation(p, N)
        assert run in members
        assert all(choose_orientation(q, N) == run for q in members)
        assert assemble_counts(run, N, t_value=0) == assemble_counts(min(members), N, t_value=0)


def test_orientations_rank_by_spread_work():
    # 2314's tables are the size of 3241's but take 21 times the work to n=200
    ranked = cluster_dp.rank_orientations((1, 4, 2, 3), 200)
    assert ranked[0][1] == (3, 2, 4, 1)
    assert ranked == sorted(ranked)  # by work, then member
    assert [q for _w, q, _c in sorted(ranked, key=lambda r: r[1])] == list(
        symmetry_class((1, 4, 2, 3)))
    assert all(counts == ranked[0][2] for _w, _q, counts in ranked)
    assert ranked[0][2] == assemble_counts((1, 4, 2, 3), 2 * 4 + 3, t_value=0)
    # a shallow run probes no deeper than it counts
    assert all(len(counts) == 6 for _w, _q, counts in cluster_dp.rank_orientations((1, 3, 2), 5))


def test_split_ending_cluster_worked_example():
    pi = (1, 5, 7, 4, 2, 3, 6, 8, 9)
    remainder, rest, ending = split_ending_cluster(pi, (1, 5, 6, 7), (1, 2, 3))
    assert ending == (5, 6, 7)
    assert remainder == (1, 5, 7, 4)
    assert rest == (1,)
    # value windows of the ending chain are 236, 368, 689
    windows = [pi[s - 1:s + 2] for s in ending]
    assert windows == [(2, 3, 6), (3, 6, 8), (6, 8, 9)]


def test_split_ending_cluster_whole_chain():
    remainder, rest, ending = split_ending_cluster((1, 2, 3, 4), (1, 2), (1, 2, 3))
    assert remainder == () and rest == () and ending == (1, 2)


def test_split_ending_cluster_errors():
    with pytest.raises(ValueError):
        split_ending_cluster((1, 2, 3, 4), (1,), (1, 2, 3))  # window not at the end
    with pytest.raises(ValueError):
        split_ending_cluster((1, 3, 2, 4), (2,), (1, 2, 3))  # not an occurrence
