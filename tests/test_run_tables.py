"""Positive-engine tables stored as runs: one weight per group and gap.

`step_append_aggregated` writes runs and reads group totals off prefix sums;
cells are expanded from the runs only where a gap is split or `.cells` is
read.  These tests chain the pulled step against the reference
`step_append` on random families, cover the groups whose totals cancel,
and check that counting a table's cells expands nothing.
"""

import math
import random

import pytest

from cwilf.patterns import all_patterns
from cwilf.permcore import step_append
from cwilf.positive_dp import (
    PackedAssignment,
    StateTable,
    _pull_plan,
    build_assignment,
    init_table,
    step_append_aggregated,
)
from cwilf.weightring import PatternAssignment, WeightPoly

# first and last entries adjacent in value: the window factor moves as the
# new entry passes the dropped value, so the pulled step splits gaps
ADJACENT_ENDS = [p for m in (3, 4, 5) for p in all_patterns(m) if abs(p[0] - p[-1]) == 1]


def _family(rng, k, tracked):
    """One adjacent-ends pattern of length k, then patterns of lengths 3..k,
    `tracked` of them tracked and the rest avoided."""
    patterns = [rng.choice([p for p in ADJACENT_ENDS if len(p) == k])]
    while len(patterns) < max(tracked, 1) + rng.randint(0, 2):
        p = rng.choice(all_patterns(rng.randint(3, k)))
        if p not in patterns:
            patterns.append(p)
    rng.shuffle(patterns)
    return build_assignment(avoid=patterns[tracked:], track=patterns[:tracked])


def _cases():
    rng = random.Random(20261019)
    for case in range(24):
        mode = ("avoided", "packed", "sparse")[case // 3 % 3]
        # sparse polynomials on windows of 5 make the reference slow
        k = 3 + case % (2 if mode == "sparse" else 3)
        tracked = {"avoided": 0, "packed": rng.randint(1, 3), "sparse": 4}[mode]
        steps = rng.randint(3, 5)
        yield k, mode, tracked, steps, random.Random(rng.random())


@pytest.mark.parametrize("k, mode, tracked, steps, rng", list(_cases()))
def test_chained_run_tables_match_the_reference(k, mode, tracked, steps, rng):
    first, second = _family(rng, k, tracked), _family(rng, k, tracked)
    if mode == "packed":
        first, second = (PackedAssignment(a, k + steps) for a in (first, second))
    fast = slow = init_table(k)
    switch = rng.randint(1, steps - 1)
    for level in range(steps):
        a = first if level < switch else second
        fast, slow = step_append_aggregated(fast, a), step_append(slow, a)
        assert fast.n == slow.n
        assert len(fast.cells) == len(slow.cells)
        assert fast.cells == slow.cells
        # mixed lengths: the shorter patterns' suffix factors apply here
        assert fast.weight_sum(a) == slow.weight_sum(a)


def test_the_chained_cases_split_gaps_and_apply_suffix_factors():
    changing = suffixes = 0
    for k, _mode, tracked, _steps, rng in _cases():
        for a in (_family(rng, k, tracked), _family(rng, k, tracked)):
            changing += any(row[3] != 0 for rows in _pull_plan(k, a.factor) for row in rows)
            suffixes += any(a.suffix_factor(q) != 1 for q in all_patterns(k - 1))
    assert changing >= 40 and suffixes >= 10


def test_groups_whose_totals_cancel_still_pass_their_cells():
    # two cells of one group, +w and -w: the group's totals are 0, but the
    # next step splits a gap at each of them
    rng = random.Random(5)
    checked = 0
    for p in [(1, 2), (1, 3, 2), (2, 1, 4, 3)]:
        k, a = len(p), PatternAssignment.avoiding([p])
        for _ in range(60):
            n = rng.randint(k, 8)
            q = rng.choice(all_patterns(k - 1))
            d = q[0] - 1
            s = sorted(rng.sample(range(1, n + 1), k - 2))
            gap = range(s[d - 1] + 1 if d else 1, s[d] if d < k - 2 else n + 1)
            if len(gap) < 2:
                continue
            x, y = rng.sample(gap, 2)
            w = WeightPoly.const(rng.randint(1, 5), 1)
            table = StateTable(n, k, {(q, tuple(sorted(s + [x]))): w,
                                      (q, tuple(sorted(s + [y]))): -w})
            assert step_append_aggregated(table, a).cells == step_append(table, a).cells
            checked += 1
    assert checked > 100


def test_counting_cells_expands_no_runs(monkeypatch):
    all_one = PatternAssignment.all_one(4)
    table = init_table(4)
    for _ in range(10):
        table = step_append_aggregated(table, all_one)
    avoid_set = build_assignment(avoid=[(1, 3, 2, 4), (2, 1, 4, 3)])
    levels = [init_table(4)]
    while levels[-1].n < 25:
        levels.append(step_append_aggregated(levels[-1], avoid_set))

    def refuse(self, d, oi):
        raise AssertionError("runs expanded to count cells")

    monkeypatch.setattr(StateTable, "_cells_of", refuse)
    assert len(table.cells) == math.factorial(3) * math.comb(13, 3)
    # the cell counts `perfbench/layertrace.py` reports for `avoid-set`
    counts = [len(t.cells) for t in levels]
    assert (sum(counts), max(counts)) == (89656, 13798)
