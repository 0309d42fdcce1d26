import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwilf import patterns, positive_dp
from cwilf.patterns import all_patterns
from cwilf.permcore import brute_avoider_count, brute_weight_enum
from cwilf.positive_dp import (
    PackedAssignment,
    StateTable,
    build_assignment,
    enumerate_for_patterns,
    enumerate_series,
    init_table,
    step_append_aggregated,
)
from cwilf.weightring import PatternAssignment, WeightPoly
from helpers import factorials, random_cells, random_state_table
from reference import (
    append_transition,
    pack,
    state_of,
    step_append,
)

ALL_ONE_3 = PatternAssignment.all_one(3)


def test_init_table():
    t3 = init_table(3)
    assert t3.n == 2 and t3.cells == {
        ((1, 2), (1, 2)): 1,
        ((2, 1), (1, 2)): 1,
    }
    t2 = init_table(2)
    assert t2.cells == {((1,), (1,)): 1}
    t4 = init_table(4)
    assert len(t4.cells) == 6
    assert all(w == 1 for w in t4.cells.values())
    with pytest.raises(ValueError):
        init_table(1)


def test_state_of_worked_example():
    assert state_of((4, 7, 1, 6, 3, 5, 8, 2), 3) == ((2, 1), (2, 8))


def test_append_transition_cases():
    a = PatternAssignment.tracking([(2, 3, 1)])
    # new value at or below both retained values: suffix flips, window is 231
    state, factor = append_transition(((1, 2), (3, 5)), 6, 2, a)
    assert state == ((2, 1), (2, 6))
    assert factor == WeightPoly.variable(0, 1)
    # middle insertion from a descending suffix gives 312
    a312 = PatternAssignment.tracking([(3, 1, 2)])
    state, factor = append_transition(((2, 1), (3, 5)), 6, 4, a312)
    assert state == ((1, 2), (3, 4))
    assert factor == WeightPoly.variable(0, 1)
    # appending a new maximum extends an ascending suffix: 123
    a123 = PatternAssignment.tracking([(1, 2, 3)])
    state, factor = append_transition(((1, 2), (2, 5)), 5, 6, a123)
    assert state == ((1, 2), (5, 6))
    assert factor == WeightPoly.variable(0, 1)
    with pytest.raises(ValueError):
        append_transition(((1, 2), (1, 2)), 2, 4, a)


def test_append_transition_traces_actual_permutations():
    # appending rank i to an explicit permutation must land in the predicted
    # state with the predicted window pattern
    rng = random.Random(77)
    for k in (2, 3, 4):
        a = PatternAssignment.all_one(k)
        for _ in range(200):
            n = rng.randint(k - 1, 7)
            pi = tuple(rng.sample(range(1, n + 1), n))
            i = rng.randint(1, n + 1)
            state = state_of(pi, k)
            new_state, _ = append_transition(state, n, i, a)
            grown = tuple(v + 1 if v >= i else v for v in pi) + (i,)
            assert state_of(grown, k) == new_state
            gained = patterns.reduction(grown[-k:])
            tracked = PatternAssignment.tracking([gained])
            _, factor = append_transition(state, n, i, tracked)
            assert factor == WeightPoly.variable(0, 1)


def test_child_count():
    rng = random.Random(3)
    for k in (2, 3, 4):
        a = PatternAssignment.all_one(k)
        for _ in range(50):
            n = rng.randint(k - 1, 8)
            q = all_patterns(k - 1)[rng.randrange(len(all_patterns(k - 1)))]
            j = tuple(sorted(rng.sample(range(1, n + 1), k - 1)))
            children = [append_transition((q, j), n, i, a) for i in range(1, n + 2)]
            assert len(children) == n + 1


def test_step_masses():
    tbl = step_append(init_table(3), ALL_ONE_3)
    assert tbl.total(ALL_ONE_3).constant_value() == 6
    avoid = PatternAssignment.avoiding([(1, 2, 3)])
    tbl = step_append(init_table(3), avoid)
    assert tbl.total(avoid).constant_value() == 5


def test_step_tracked_mass_matches_oracle():
    tracked = PatternAssignment.tracking([(1, 2, 3)])
    tbl = init_table(3)
    for _ in range(2):
        tbl = step_append(tbl, tracked)
    assert tbl.n == 4
    assert tbl.total(tracked) == brute_weight_enum(4, 3, tracked)


def test_enumerate_examples():
    series = enumerate_series(3, ALL_ONE_3, 6)
    assert [w.constant_value() for w in series] == factorials(6)
    avoid = enumerate_series(3, PatternAssignment.avoiding([(1, 2, 3)]), 6)
    assert [w.constant_value() for w in avoid] == [1, 1, 2, 5, 17, 70, 349]
    double = PatternAssignment(3, zero=[(1, 2, 3), (3, 2, 1)])
    series = enumerate_series(3, double, 5)
    assert all(series[n] == brute_weight_enum(n, 3, double) for n in range(6))


def test_direct_and_aggregated_steps_agree_on_random_tables():
    rng = random.Random(2024)
    for _ in range(60):
        k = rng.randint(2, 4)
        n = rng.randint(k - 1, 9)
        tbl = random_state_table(rng, k, n, nvars=1, cells=rng.randint(1, 15))
        zero = rng.sample(all_patterns(k), rng.randint(0, 2))
        track = [p for p in rng.sample(all_patterns(k), 1) if p not in zero]
        a = PatternAssignment(k, zero=zero, tracked=track)
        direct = step_append(tbl, a)
        fast = step_append_aggregated(tbl, a)
        assert direct.n == fast.n
        assert direct.cells == fast.cells


@st.composite
def step_cases(draw):
    k = draw(st.integers(2, 5))
    pattern = st.permutations(range(1, k + 1)).map(tuple)
    zero = draw(st.lists(pattern, max_size=2, unique=True))
    track = draw(st.lists(pattern.filter(lambda p: p not in zero), max_size=2, unique=True))
    return k, draw(st.integers(k - 1, 10)), zero, track, draw(st.randoms(use_true_random=False))


# Group keys take bitlen(n) bits per value, so the children of parents of
# size 7, 15 and 31 are laid out one bit wider.  Each size at a boundary runs
# once avoiding (integer weights) and once tracking (packed weights), after
# the polynomial run every case makes.
BOUNDARY_STEP_CASES = [
    case for n in (7, 8, 15, 16, 31, 32) for case in (
        (4, n, [(1, 3, 2, 4)], [], random.Random(n)),
        (5, n, [], [(5, 4, 3, 2, 1)], random.Random(n)))]


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(step_cases())
@_with_examples(BOUNDARY_STEP_CASES)
def test_pulled_step_matches_the_reference_on_random_tables(case):
    k, n, zero, track, rng = case
    tbl = random_state_table(rng, k, n, nvars=len(track), cells=rng.randint(1, 30))
    a = PatternAssignment(k, zero=zero, tracked=track)
    assert step_append_aggregated(tbl, a).cells == step_append(tbl, a).cells
    # the same table on plain integers: packed when tracking, else constants
    if track:
        a = PackedAssignment(a, n + 1)
        ints = {s: pack(w, a.layout) for s, w in tbl.cells.items()}
    else:
        ints = {s: w.constant_value() for s, w in tbl.cells.items()}
    tbl = StateTable(n, k, ints)
    assert step_append_aggregated(tbl, a).cells == step_append(tbl, a).cells


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(k - 1, 10), st.integers(1, 2), st.randoms(use_true_random=False))))
@_with_examples([(k, n, 1, random.Random(n)) for n in (7, 8, 15, 16, 31, 32) for k in (2, 4, 5)])
def test_state_table_round_trips_its_cells(case):
    k, n, nvars, rng = case
    cells = random_cells(rng, k, n, nvars=nvars, cells=rng.randint(0, 30))
    table = StateTable(n, k, cells)
    assert len(table.cells) == len(cells)
    assert table.cells == cells


def test_cells_view_holds_only_the_tables_states():
    table = init_table(4)
    while table.n < 7:
        table = step_append_aggregated(table, PatternAssignment.all_one(4))
    # 3 bits per value: (2, 12) would pack like the retained values (3, 4)
    assert ((1, 2, 3), (1, 3, 4)) in table.cells
    for state in [((1, 2, 3), (1, 2, 12)), ((1, 1, 3), (1, 3, 4)), ((1, 2, 3), (3, 1, 4)),
                  ((1, 2, 3), (0, 3, 4)), ((1, 2), (3, 4))]:
        assert state not in table.cells
        with pytest.raises(KeyError):
            table.cells[state]


def test_a_table_steps_under_another_assignment():
    # the child of a step keeps the plan of the assignment that made it
    first = PatternAssignment(4, zero=[(1, 3, 2, 4)])
    second = PatternAssignment(4, zero=[(2, 1, 4, 3)], tracked=[(1, 2, 3, 4)])
    table = init_table(4)
    for _ in range(5):
        table = step_append_aggregated(table, first)
    poly = StateTable(table.n, 4, {s: WeightPoly.const(w, 1) for s, w in table.cells.items()})
    assert step_append_aggregated(table, second).cells == step_append(poly, second).cells
    again = step_append_aggregated(step_append_aggregated(table, second), first)
    assert again.cells == step_append(step_append(table, second), first).cells


def test_one_pull_plan_per_run(monkeypatch):
    built = []
    honest = positive_dp._pull_plan

    def counted(k, factor):
        built.append(k)
        return honest(k, factor)

    monkeypatch.setattr(positive_dp, "_pull_plan", counted)
    enumerate_series(4, PatternAssignment.avoiding([(1, 3, 2, 4), (2, 1, 4, 3)]), 12)
    assert built == [4]
    enumerate_series(3, PatternAssignment.tracking([(1, 2, 3), (3, 2, 1)]), 12)
    assert built == [4, 3]


def test_all_ones_tables_hold_every_state():
    # (k-1)! suffix orders times C(n, k-1) value sets, all reachable
    for k in range(2, 6):
        a = PatternAssignment.all_one(k)
        table = init_table(k)
        while True:
            assert len(table.cells) == math.factorial(k - 1) * math.comb(table.n, k - 1)
            if table.n == 9:
                break
            table = step_append_aggregated(table, a)


def test_weight_sum_applies_each_cells_suffix_factor():
    rng = random.Random(7)
    families = [([(1, 2)], [(1, 2, 3)]), ([(2, 1, 3)], [(1, 2), (3, 2, 1)]),
                ([], [(2, 1), (1, 3, 2), (1, 2, 3, 4)]), ([(1, 2, 3)], [(2, 1), (1, 2, 4, 3)])]
    for avoid, track in families:
        a = build_assignment(avoid, track)
        for _ in range(10):
            n = rng.randint(a.k - 1, 9)
            table = random_state_table(rng, a.k, n, nvars=a.nvars, cells=rng.randint(1, 40))
            expected = WeightPoly.zero(a.nvars)
            for (q, _j), w in table.cells.items():
                expected = expected + a.suffix_factor(q) * w
            assert table.weight_sum(a) == expected, (avoid, track, n)


def test_direct_and_aggregated_steps_agree_along_real_runs():
    a = PatternAssignment.tracking([(1, 3, 2)], zero=[(3, 2, 1)])
    t1 = t2 = init_table(3)
    for _ in range(7):
        t1 = step_append(t1, a)
        t2 = step_append_aggregated(t2, a)
        assert t1.cells == t2.cells


def test_mass_conservation():
    for k in (2, 3, 4):
        a = PatternAssignment.all_one(k)
        series = enumerate_series(k, a, 12)
        assert [w.constant_value() for w in series] == factorials(12)


def test_oracle_equivalence_single_zero_and_tracked():
    for k in (2, 3, 4):
        for p in all_patterns(k):
            for a in (PatternAssignment.avoiding([p]), PatternAssignment.tracking([p])):
                series = enumerate_series(k, a, 8)
                for n in range(9):
                    assert series[n] == brute_weight_enum(n, k, a), (k, p, n)


def test_oracle_equivalence_two_zeros():
    for k in (2, 3, 4):
        for z1, z2 in itertools.combinations(all_patterns(k), 2):
            a = PatternAssignment(k, zero=[z1, z2])
            series = enumerate_series(k, a, 8)
            for n in range(9):
                assert series[n] == brute_weight_enum(n, k, a), (k, z1, z2, n)


def test_packed_and_sparse_tables_agree(monkeypatch):
    # past PACKED_VARIABLES_MAX tracked variables the table stays sparse
    many = PatternAssignment.tracking(all_patterns(3)[:positive_dp.PACKED_VARIABLES_MAX + 1])

    def refuse(*args):
        raise AssertionError("packed a table that should stay sparse")

    with monkeypatch.context() as m:
        m.setattr(positive_dp, "PackedAssignment", refuse)
        sparse = enumerate_series(3, many, 8)
    monkeypatch.setattr(positive_dp, "PACKED_VARIABLES_MAX", many.nvars)
    assert enumerate_series(3, many, 8) == sparse
    for n in range(9):
        assert sparse[n] == brute_weight_enum(n, 3, many), n


def test_specialization_commutes_with_enumeration():
    for p in [(1, 2, 3), (2, 1, 3), (1, 3, 2, 4)]:
        k = len(p)
        tracked = enumerate_series(k, PatternAssignment.tracking([p]), 10)
        avoided = enumerate_series(k, PatternAssignment.avoiding([p]), 10)
        for n in range(11):
            assert tracked[n].evaluate([0]) == avoided[n].constant_value()


def test_symmetry_invariance_small():
    for p in all_patterns(3):
        base = None
        for q in patterns.symmetry_class(p):
            series = enumerate_series(3, PatternAssignment.avoiding([q]), 12)
            values = [w.constant_value() for w in series]
            if base is None:
                base = values
            assert values == base


def test_mixed_length_families_match_direct_scan():
    cases = [
        [(1, 2), (1, 2, 3)],
        [(2, 1), (1, 3, 2)],
        [(1, 2), (3, 2, 1), (1, 3, 2)],
        [(1, 2, 3), (2, 1, 4, 3)],
    ]
    for pats in cases:
        series = enumerate_for_patterns(avoid=pats, N=7)
        for n in range(8):
            assert series[n].constant_value() == brute_avoider_count(pats, n), (pats, n)


def test_mixed_length_tracking_matches_direct_scan():
    series = enumerate_for_patterns(avoid=[(1, 2, 3)], track=[(1, 2)], N=6)
    for n in range(7):
        total = WeightPoly.zero(1)
        for pi in itertools.permutations(range(1, n + 1)):
            if patterns.occurrences(pi, (1, 2, 3)):
                continue
            hits = len(patterns.occurrences(pi, (1, 2)))
            total = total + WeightPoly.variable(0, 1) ** hits
        assert series[n] == total, n


def test_build_assignment_dispatch():
    plain = build_assignment(avoid=[(1, 2, 3)], track=[(3, 2, 1)])
    assert isinstance(plain, PatternAssignment)
    lifted = build_assignment(avoid=[(1, 2)], track=[(1, 2, 3)])
    assert lifted.k == 3
    assert lifted.factor((1, 2, 3)) == 0  # prefix 12 is forbidden
    assert lifted.factor((1, 3, 2)) == 0  # prefix 13 reduces to 12
    assert lifted.factor((2, 1, 3)) == 1
    assert lifted.suffix_factor((1, 2)) == 0
    assert lifted.suffix_factor((2, 1)) == 1
    with pytest.raises(ValueError):
        build_assignment()
    with pytest.raises(ValueError):
        build_assignment(avoid=[(1, 2)], track=[(1, 2)])
