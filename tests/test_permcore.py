import itertools
import random

import pytest

from cwilf import permcore
from cwilf.patterns import (
    OracleLimitError,
    all_patterns,
    complement,
    format_pattern,
    occurrences,
    parse_pattern,
    parse_pattern_set,
    reduction,
    reverse,
    symmetry_class,
)
from cwilf.permcore import (
    ClusterWitness,
    brute_avoider_count,
    brute_cluster_enum,
    brute_weight_enum,
    iter_cluster_witnesses,
    weight_monomial,
)
from cwilf.weightring import PatternAssignment, WeightPoly
from helpers import factorials, filtering_cluster_enum


def test_reduction_examples():
    assert reduction([4, 2, 7, 5]) == (2, 1, 4, 3)
    assert reduction([1, 2, 3]) == (1, 2, 3)
    assert reduction([]) == ()
    assert reduction([3.14, 2.71, 0.57, 1.61]) == (4, 3, 1, 2)


def test_reduction_rejects_duplicates():
    with pytest.raises(ValueError, match="not reducible"):
        reduction([1, 2, 2])


def test_reduction_is_idempotent():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(0, 9)
        vals = rng.sample(range(-50, 50), n)
        once = reduction(vals)
        assert reduction(once) == once


def test_occurrence_tables():
    pi = (1, 7, 9, 2, 3, 4, 5, 6, 8)
    assert occurrences(pi, (1, 2, 3)) == (1, 4, 5, 6, 7)
    assert occurrences(pi, (2, 3, 1)) == (2,)
    assert occurrences(pi, (3, 1, 2)) == (3,)
    assert occurrences(pi, (1, 3, 2)) == ()
    assert occurrences(pi, (2, 1, 3)) == ()
    assert occurrences(pi, (3, 2, 1)) == ()
    assert occurrences((1, 2), (1, 2, 3)) == ()


def test_window_counts_sum_to_window_count():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(0, 8)
        k = rng.randint(2, 4)
        pi = tuple(rng.sample(range(1, n + 1), n))
        counts = weight_monomial(pi, k)
        assert sum(counts.values()) == max(n - k + 1, 0)
        for p, c in counts.items():
            assert len(occurrences(pi, p)) == c


def test_weight_monomial_examples():
    assert weight_monomial((2, 5, 1, 4, 6, 3), 3) == {
        (1, 2, 3): 1, (2, 3, 1): 2, (3, 1, 2): 1}
    assert weight_monomial((1, 2), 3) == {}
    assert weight_monomial((4, 7, 1, 6, 3, 5, 8, 2), 3) == {
        (1, 2, 3): 1, (1, 3, 2): 1, (2, 3, 1): 2, (3, 1, 2): 2}
    with pytest.raises(ValueError):
        weight_monomial((1, 2, 3), 1)


def test_symmetry_operations():
    assert reverse((1, 3, 2, 4)) == (4, 2, 3, 1)
    assert complement((3, 2, 1)) == (1, 2, 3)
    assert symmetry_class((1, 2, 3)) == ((1, 2, 3), (3, 2, 1))
    assert symmetry_class((1, 3, 2)) == ((1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2))
    assert symmetry_class((1, 3, 2, 4)) == ((1, 3, 2, 4), (4, 2, 3, 1))


def test_pattern_parsing():
    assert parse_pattern("1324") == (1, 3, 2, 4)
    assert parse_pattern("1,3,2,4") == (1, 3, 2, 4)
    assert parse_pattern_set("123;321") == ((1, 2, 3), (3, 2, 1))
    assert parse_pattern_set("") == ()
    long = tuple(range(1, 11))
    assert parse_pattern(format_pattern(long)) == long
    for bad in ("1224", "1x3", "13", "1", "0,1", ""):
        with pytest.raises(ValueError):
            parse_pattern(bad)
    with pytest.raises(ValueError):
        parse_pattern_set("123;123")


def test_brute_weight_enum_examples():
    assert brute_weight_enum(3, 3, PatternAssignment.all_one(3)) == 6
    tracked = brute_weight_enum(3, 3, PatternAssignment.tracking([(1, 2, 3)]))
    assert tracked == WeightPoly(1, {(1,): 1, (0,): 5})
    avoid = brute_weight_enum(4, 3, PatternAssignment.avoiding([(1, 2, 3)]))
    assert avoid.constant_value() == 17


def test_brute_weight_enum_all_one_is_factorial():
    for k in (2, 3, 4):
        a = PatternAssignment.all_one(k)
        for n, f in enumerate(factorials(7)):
            assert brute_weight_enum(n, k, a).constant_value() == f


def test_brute_weight_enum_cap():
    with pytest.raises(OracleLimitError, match="oracle limit"):
        brute_weight_enum(7, 3, PatternAssignment.all_one(3), cap=6)



def test_brute_weight_enum_refuses_shorter_patterns():
    # the oracle reads window factors only, so the occurrences of a shorter
    # pattern inside the last k-1 entries would go uncounted
    for a in (PatternAssignment(3, zero=[(1, 2)], tracked=[(1, 2, 3)]),
              PatternAssignment.tracking([(2, 1), (1, 3, 2)])):
        with pytest.raises(ValueError):
            brute_weight_enum(4, 3, a)

def test_avoidance_is_symmetry_invariant():
    for k in (2, 3, 4):
        for p in all_patterns(k):
            base = [
                brute_weight_enum(n, k, PatternAssignment.avoiding([p])).constant_value()
                for n in range(9)
            ]
            for q in symmetry_class(p):
                other = [
                    brute_weight_enum(n, k, PatternAssignment.avoiding([q])).constant_value()
                    for n in range(9)
                ]
                assert other == base, (p, q)


def test_tracked_specializations_match_avoidance():
    # at t=1 the tracked series is n!; the t^0 coefficient is the avoider count
    for p in all_patterns(3):
        tracked = PatternAssignment.tracking([p])
        zero = PatternAssignment.avoiding([p])
        for n in range(10):
            poly = brute_weight_enum(n, 3, tracked)
            assert poly.evaluate([1]) == factorials(n)[n]
            assert poly.coefficient((0,)) == brute_weight_enum(n, 3, zero).constant_value()


def test_brute_avoider_count_matches_weight_enum():
    for pats in [[(1, 2, 3)], [(1, 2, 3), (3, 2, 1)], [(2, 1, 3), (1, 3, 2)]]:
        a = PatternAssignment.avoiding(pats)
        for n in range(8):
            assert brute_avoider_count(pats, n) == \
                brute_weight_enum(n, 3, a).constant_value()


def test_cluster_witness_validation():
    ClusterWitness((1, 2, 3, 4), (1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        ClusterWitness((1, 2, 3, 4), (1,), (1, 2, 3))  # does not cover position 4
    with pytest.raises(ValueError):
        ClusterWitness((1, 2, 4, 3), (1, 2), (1, 2, 3))  # start 2 not an occurrence
    with pytest.raises(ValueError):
        ClusterWitness((1, 2, 3, 4, 5, 6, 7), (1, 5), (1, 2, 3))  # atoms disjoint
    with pytest.raises(ValueError):
        ClusterWitness((1, 2, 3), (), (1, 2, 3))


def test_brute_cluster_enum_examples():
    t_minus_1 = WeightPoly(1, {(1,): 1, (0,): -1})
    for p in [(1, 2, 3), (1, 3, 2), (3, 2, 1), (1, 3, 2, 4)]:
        assert brute_cluster_enum(len(p), p) == t_minus_1
        assert brute_cluster_enum(len(p) - 1, p) == WeightPoly.zero(1)
    assert brute_cluster_enum(4, (1, 2, 3)) == t_minus_1 * t_minus_1
    with pytest.raises(OracleLimitError):
        brute_cluster_enum(10, (1, 2, 3))


def test_cluster_extension_agrees_with_subset_filtering():
    # two fully independent cluster oracles must coincide at tiny sizes
    for p in all_patterns(3):
        for n in range(2, 7):
            assert brute_cluster_enum(n, p) == filtering_cluster_enum(n, p), (p, n)
    for n in range(4, 8):
        assert brute_cluster_enum(n, (1, 3, 2, 4)) == filtering_cluster_enum(n, (1, 3, 2, 4))


def test_monotone_cluster_permutations_are_identity():
    for p, N in [((1, 2, 3), 8), ((1, 2, 3, 4), 9)]:
        for n in range(len(p), N + 1):
            for w in iter_cluster_witnesses(n, p):
                assert w.perm == tuple(range(1, n + 1))


def test_witnesses_are_unique():
    for p in [(1, 2, 3), (1, 3, 2), (2, 1, 3)]:
        for n in range(3, 8):
            seen = [(w.perm, w.atoms) for w in iter_cluster_witnesses(n, p)]
            assert len(seen) == len(set(seen))
