"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from cwilf import analysis, patterns, survey
from cwilf.cluster_dp import (
    assemble_counts,
    cluster_polys,
    _extension_slots,
)
from cwilf.patterns import all_patterns, reduction, symmetry_class
from cwilf.permcore import brute_weight_enum
from cwilf.positive_dp import enumerate_series, step_append_aggregated
from cwilf.weightring import PatternAssignment, WeightPoly
from helpers import factorials, random_poly, random_state_table
from reference import (
    brute_cluster_enum,
    cluster_polys_shifted,
    egf_identity_check,
    monotone_cluster_series,
    split_ending_cluster,
    state_of,
    step_append,
    weight_monomial,
)


@contextmanager
def criterion(label):
    started = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.monotonic() - started:.1f}s)")


def _triangle(patterns, n_max):
    """Brute force, positive evolution, and cluster method must agree
    exactly, on both the avoidance integers and the full t-polynomials."""
    for p in patterns:
        k = len(p)
        tracked = PatternAssignment.tracking([p])
        avoided = PatternAssignment.avoiding([p])
        pos_tracked = enumerate_series(k, tracked, n_max)
        pos_avoided = enumerate_series(k, avoided, n_max)
        clu_tracked = assemble_counts(p, n_max)
        for n in range(n_max + 1):
            oracle_poly = brute_weight_enum(n, k, tracked)
            oracle_int = brute_weight_enum(n, k, avoided).constant_value()
            assert pos_tracked[n] == oracle_poly, (p, n)
            assert clu_tracked[n] == oracle_poly, (p, n)
            assert pos_avoided[n] == oracle_int, (p, n)
            assert oracle_poly.evaluate([0]) == oracle_int, (p, n)
        clu_series = cluster_polys(p, min(n_max, 9))
        for n in range(len(clu_series)):
            assert clu_series[n] == brute_cluster_enum(n, p), (p, n)


def test_c1_oracle_triangle_length_3():
    with criterion("1 (oracle triangle, length 3)"):
        started = time.monotonic()
        _triangle(all_patterns(3), 8)
        assert time.monotonic() - started < 60


def test_c2_oracle_triangle_length_4_sample():
    with criterion("2 (oracle triangle, length 4 sample)"):
        started = time.monotonic()
        _triangle([(1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2), (4, 3, 2, 1)], 8)
        # the two admissible ways to attach a 1324 atom
        fixed, free = _extension_slots((1, 3, 2, 4), 2)
        assert fixed == ((1, 2, 0), (3, 4, 1)) and free == (2, 4)
        fixed, free = _extension_slots((1, 3, 2, 4), 1)
        assert fixed == ((1, 4, 0),) and free == (2, 3, 4)
        assert time.monotonic() - started < 300


def test_c3_worked_examples_bit_exact():
    with criterion("3 (worked examples)"):
        assert reduction([4, 2, 7, 5]) == (2, 1, 4, 3)
        assert weight_monomial((2, 5, 1, 4, 6, 3), 3) == {
            (1, 2, 3): 1, (2, 3, 1): 2, (3, 1, 2): 1}
        assert state_of((4, 7, 1, 6, 3, 5, 8, 2), 3) == ((2, 1), (2, 8))
        pi = (1, 7, 9, 2, 3, 4, 5, 6, 8)
        assert patterns.occurrences(pi, (1, 2, 3)) == (1, 4, 5, 6, 7)
        assert patterns.occurrences(pi, (2, 3, 1)) == (2,)
        assert patterns.occurrences(pi, (3, 1, 2)) == (3,)
        for p in [(1, 3, 2), (2, 1, 3), (3, 2, 1)]:
            assert patterns.occurrences(pi, p) == ()
        remainder, rest, ending = split_ending_cluster(
            (1, 5, 7, 4, 2, 3, 6, 8, 9), (1, 5, 6, 7), (1, 2, 3))
        assert ending == (5, 6, 7)
        assert remainder == (1, 5, 7, 4) and rest == (1,)


def test_c4_egf_identity():
    with criterion("4 (EGF identity)"):
        for p, order in [((1, 2, 3), 30), ((1, 3, 2), 30), ((1, 3, 2, 4), 20)]:
            report = egf_identity_check(
                assemble_counts(p, order), cluster_polys(p, order), order)
            assert report.ok, p
            assert all(not r for r in report.residuals)


def test_c5_321_algebraic_equation():
    with criterion("5 (monotone cluster recurrence)"):
        # for 321 the recurrence is the algebraic equation
        # C(z) = u*z^3 + u*(z + z^2)*C(z), u = t - 1
        for k in (3, 4, 5):
            expected = monotone_cluster_series(k, 30)
            for p in (tuple(range(1, k + 1)), tuple(range(k, 0, -1))):
                assert cluster_polys_shifted(p, 30) == expected, p


def test_c6_scale_targets():
    with criterion("6 (scale targets)"):
        for p, depth in [((1, 2, 3), 200), ((1, 3, 2, 4), 60),
                         ((1, 2, 3, 4, 5), 40), ((1, 2, 3, 4, 5, 6), 30)]:
            started = time.monotonic()
            report = analysis.avoidance_series((p,), depth)
            assert time.monotonic() - started < 600, p
            assert len(report.terms) == depth + 1
            assert all(isinstance(c, int) for c in report.terms)
            assert report.terms[:len(p) + 1] == factorials(len(p) - 1) + [
                math.factorial(len(p)) - 1]
            rep = tuple(int(ch) for ch in report.representative)
            ones = assemble_counts(rep, depth, t_value=1)
            assert ones == factorials(depth), p


def test_c7_symmetry_invariance_to_30():
    with criterion("7 (symmetry invariance to n=30)"):
        for k in (3, 4):
            for p in all_patterns(k):
                reference = None
                for q in symmetry_class(p):
                    series = enumerate_series(
                        k, PatternAssignment.avoiding([q]), 30)
                    if reference is None:
                        reference = series
                    assert series == reference, (p, q)


def test_c8_property_suites():
    with criterion("8 (property suites)"):
        # ring axioms, 1000 random triples
        rng = random.Random(424242)
        for _ in range(1000):
            nvars = rng.randint(1, 3)
            a, b, c = (random_poly(rng, nvars) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
        # the two step implementations agree on random tables
        for _ in range(40):
            k = rng.randint(2, 4)
            tbl = random_state_table(rng, k, rng.randint(k - 1, 9), nvars=1)
            zero = rng.sample(all_patterns(k), rng.randint(0, 2))
            assignment = PatternAssignment(k, zero=zero)
            assert step_append(tbl, assignment).cells == \
                step_append_aggregated(tbl, assignment).cells
        # mass conservation at every computed size
        for k in (2, 3, 4):
            series = enumerate_series(k, PatternAssignment.all_one(k), 15)
            assert series == factorials(15)
        # atom-count degree bounds on every computed cluster enumerator
        for p in [(1, 2, 3), (1, 3, 2), (1, 3, 2, 4), (2, 1, 4, 3)]:
            k = len(p)
            for n, c in enumerate(cluster_polys_shifted(p, 14)):
                for (r,), coeff in c.items():
                    assert coeff

                    assert k + (r - 1) <= n <= k + (r - 1) * (k - 1), (p, n, r)


def test_c9_growth_estimate_stability():
    with criterion("9 (growth estimate stability)"):
        counts = analysis.avoidance_series(((1, 2, 3),), 60).terms
        est = survey.growth_estimate(counts)
        tail = est.tail_ratios
        assert all(abs(a - b) < 1e-4 for a, b in zip(tail, tail[1:]))
        fact = survey.growth_estimate(factorials(60))
        assert abs(fact.estimate - 1.0) < 1e-9
