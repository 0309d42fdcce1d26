import hashlib
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwilf import cluster_dp, positive_dp
from cwilf.analysis import _series
from cwilf.cluster_dp import (
    assemble_counts,
    cluster_polys,
    cluster_tables,
    cluster_values,
    overlap_set,
    _add,
    _extension_slots,
)
from cwilf.patterns import all_patterns, format_pattern, symmetry_class
from cwilf.permcore import brute_weight_enum
from cwilf.weightring import PatternAssignment, WeightPoly, packing_layout
from helpers import choose_orientation, factorials
from reference import (
    cluster_tables_by_entry,
    EgfReport,
    brute_cluster_enum,
    cluster_polys_shifted,
    egf_identity_check,
    extend_cluster,
    monotone_cluster_series,
    split_ending_cluster,
)

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


def test_chopping_recurrence_keeps_no_binomial_triangle():
    # a rolling Pascal row: a triangle to row 500 alone takes about 8 MB
    tracemalloc.start()
    try:
        assemble_counts((2, 3, 1), 500, t_value=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("N", [-1, -2])
@pytest.mark.parametrize("run", [
    pytest.param(lambda N: cluster_values((1, 2, 3), N, 0), id="cluster_values"),
    pytest.param(lambda N: assemble_counts((1, 2, 3), N, t_value=0), id="assemble_counts"),
    pytest.param(lambda N: assemble_counts((1, 2, 3), N), id="assemble_counts_polys"),
    pytest.param(lambda N: cluster_polys((1, 2, 3), N), id="cluster_polys"),
    pytest.param(lambda N: cluster_polys_shifted((1, 2, 3), N), id="cluster_polys_shifted"),
    pytest.param(lambda N: cluster_dp.rank_orientations((1, 3, 2), N), id="rank_orientations"),
])
def test_negative_depth_is_refused(run, N):
    with pytest.raises(ValueError, match="^N must be nonnegative$"):
        run(N)


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
        assert counts == series


def test_avoidance_engines_agree_past_the_oracle_cap():
    # every length-4 symmetry class, and one length-5 class per overlap set
    reps4 = sorted({min(symmetry_class(q)) for q in all_patterns(4)})
    reps5 = {}
    for q in sorted({min(symmetry_class(q)) for q in all_patterns(5)}):
        reps5.setdefault(overlap_set(q), q)
    assert len(reps4) == 8 and len(reps5) == 4
    for p, N in [(p, 28) for p in reps4] + [(p, 18) for p in reps5.values()]:
        series = positive_dp.enumerate_series(len(p), PatternAssignment.avoiding([p]), N)
        assert series == assemble_counts(p, N, t_value=0), p


def test_every_length_5_class_agrees_across_engines():
    reps = sorted({min(symmetry_class(q)) for q in all_patterns(5)})
    assert len(reps) == 32
    for p in reps:
        series = positive_dp.enumerate_series(5, PatternAssignment.avoiding([p]), 14)
        assert series == assemble_counts(p, 14, t_value=0), p


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


def test_monotone_cluster_recurrence():
    # 12...k and k...1 have the same clusters: C_k = u and
    # C_n = u * (C_{n-k+1} + ... + C_{n-1}); for 321 this is the algebraic
    # equation C(z) = u*z^3 + u*(z + z^2)*C(z)
    for k in (3, 4, 5):
        expected = monotone_cluster_series(k, 30)
        for p in (tuple(range(1, k + 1)), tuple(range(k, 0, -1))):
            assert cluster_polys_shifted(p, 30) == expected, p
    # one changed coefficient at n = 20 is caught
    wrong = monotone_cluster_series(3, 30)
    wrong[20] = wrong[20] + U ** 10
    assert cluster_polys_shifted((3, 2, 1), 30) != wrong


def test_verify_321_equation():
    # C(z) = u*z^3 + u*(z + z^2)*C(z), coefficient by coefficient to n = 30
    C = cluster_polys_shifted((3, 2, 1), 30)
    zero = WeightPoly.zero(1)
    assert C[:3] == [zero] * 3
    assert C[3] == U
    for n in range(4, 31):
        assert C[n] == U * (C[n - 1] + C[n - 2]), n
    # dropping the z^2 term (two atoms overlapping in one entry only)
    # fails from n = 5 on
    assert C[5] != U * C[4]


def test_verify_321_lowest_terms():
    # the one-atom cluster: C_3(t) = t - 1
    c = cluster_polys((3, 2, 1), 3)
    assert c[3] == WeightPoly(1, {(1,): 1, (0,): -1})
    # in u = t - 1 the series starts u*z^3 + u^2*z^4 + (u^2 + u^3)*z^5
    C = cluster_polys_shifted((3, 2, 1), 5)
    assert C[3:] == [U, U ** 2, U ** 2 + U ** 3]


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


def test_probe_work_is_pinned():
    # every member's probe work, for one pattern of each symmetry class of
    # length 3-6: the router's ranking reads it, so the way `_spread` sums
    # may change but the work it reports may not
    seen, probes = set(), []
    for k in range(3, 7):
        for p in all_patterns(k):
            if p not in seen:
                seen.update(symmetry_class(p))
                probes.append([(work, q) for work, q, _ in cluster_dp.rank_orientations(p, 3 * k)])
    assert len(probes) == 234
    assert sum(ranked[0][0] for ranked in probes) == 56_969
    assert sum(work for ranked in probes for work, _q in ranked) == 239_880
    assert hashlib.sha256(repr(probes).encode()).hexdigest() == (
        "38e4cf9b87fe1579d777d515fc04eb6974e0e0d3ca099fbaea1a3af75b79dbd9")


@pytest.mark.parametrize("patterns, N", [
    *((all_patterns(k), 3 * k) for k in (3, 4, 5, 6)),
    # no pattern of length 3-6 leaves gaps in a column by n = 3k, but at
    # n = 24 1367245's summed columns do: values that no summed column
    # holds, which must not become keys
    ([(1, 3, 6, 7, 2, 4, 5)], 24),
], ids=["3", "4", "5", "6", "1367245"])
def test_value_indexed_tables_match_the_entry_by_entry_spread(patterns, N):
    # at t = 0 (u = -1) and at the packed u of `cluster_polys_shifted`: the
    # same keys, zero-weight ones included, the same weights and the same work
    k = len(patterns[0])
    atoms = N - k + 1
    packed = packing_layout(1, math.factorial(N) << atoms, atoms).variable(0)
    for p in patterns:
        for u in (-1, packed):
            work, expected_work = [0], [0]
            assert list(cluster_tables(p, N, u, work)) == list(
                cluster_tables_by_entry(p, N, u, expected_work)), (p, u)
            assert work == expected_work, (p, u)


def test_adding_columns_marks_only_the_values_either_holds():
    # value ranges 2..3 and 6..7 leave 4 and 5 to neither: they pad the sum
    # with zeros and stay unmarked, and a zero weight one holds stays marked
    a, b = (2, [5, 0], [True, True]), (6, [1, 4], [True, False])
    expected = (2, [5, 0, 0, 0, 1, 4], [True, True, False, False, True, False])
    assert _add(a, b) == _add(b, a) == expected
    # overlapping ranges add where both hold values
    assert _add((1, [1, 2, 3], [True] * 3), (2, [10], [True])) == (1, [1, 12, 3], [True] * 3)


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
