"""Incremental weighted enumeration by appending one entry at a time.

A permutation grows by choosing the relative rank i of its next entry among
1..n+1; existing values at or above i shift up to make room.  For windows of
length k, everything the future depends on is the state

    (q, j) = (reduction of the last k-1 entries, their sorted values),

so the whole of S_n collapses to a table mapping states to weights.  Each
append creates exactly one new window, whose pattern is a function of q and
of which gap between consecutive j-values the new rank lands in; the window's
factor (0, 1, or a tracked variable) multiplies the weight.

A table is stored in the groups that the next append reads (`StateTable`).
The reference step, `step_append` in `tests/reference.py`, loops over
every child rank i.  `step_append_aggregated` pulls each child from its
one group of parents: all children of a group in one gap weigh the same,
so the step writes one run per group and gap, split only where a factor
changes inside it.  The next table's group totals are prefix sums of the
runs' weights, and cells are expanded from the runs only where a split or
`StateTable.cells` reads them.  Which factor applies where is worked out
once per run, in a plan that each table hands on to its child.  The two
steps must agree exactly on every input.

The steps are generic over the weight ring: integers, or `WeightPoly` for
the tests and the reference runs.  One `PatternAssignment` supplies every
factor.  `enumerate_series` runs tracked queries on plain integers, on the
assignment rebuilt with packed variables (`PackedAssignment`), and
`StateTable.total` decodes each term.  Every cell weight is a polynomial
with nonnegative coefficients of at most n! (it counts permutations by
occurrences), and a tracked pattern of length m occurs at most n-m+1
times, so B = bitlen(N!)+1 bits per coefficient and stride D = N-m+2
decode every term exactly.  The packed width grows like D^v in the number
v of tracked variables, the sparse polynomial only like D^v/v!, so above
`PACKED_VARIABLES_MAX` tracked variables the table keeps `WeightPoly`
weights instead.

A family of mixed pattern lengths runs on windows of its longest length k.
An occurrence of a shorter pattern counts in the factor of the window it
starts, or, when it lies in the last k-1 entries, in the suffix factor that
`StateTable.weight_sum` applies per suffix order.  Sizes below k-1, where
no state exists yet, are summed word by word (`PatternAssignment.weight`).
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from itertools import accumulate, compress, repeat
from operator import add, itemgetter, lshift, mul, sub

from .patterns import all_patterns, reduction
from .weightring import PatternAssignment, WeightPoly, as_weight_poly, packing_layout, unpack

State = tuple[tuple[int, ...], tuple[int, ...]]

# Most tracked variables packed into one integer.  A layout for exponents up
# to E spans (E+1)^v digits, while the polynomial has at most C(E+v, v)
# terms, about v! times fewer.  Measured packed against sparse (Python
# 3.11.7, 2 CPUs, shared host): up to three variables packing is 15-23x
# faster in-process ("123" to n=30, "123;321" to n=16: 5 vs 93 ms,
# "1234;4321;1324" to n=12).  At four it wins or loses by at most 2x, for
# more memory, in whole processes ("1234;4321;1324;2143" to n=12: 0.25 vs
# 0.52 s, 41 vs 24 MB; "123;321;132;213" to n=14: 1.8-1.9 vs 1.5-2.4 s over
# three pairs, 43 vs 39 MB).  At five it is 9x slower (five length-3
# patterns to n=12: 6.4 vs 0.70 s, 109 vs 23 MB).
PACKED_VARIABLES_MAX = 3


def _suffix(o: tuple, d: int) -> tuple:
    """The suffix order whose oldest entry has rank d+1 and whose rest reduces to o."""
    return (d + 1,) + tuple(r + 1 if r > d else r for r in o)


def _group_key(order_index: int, values: Iterable[int], width: int) -> int:
    key = order_index
    for v in values:
        key = key << width | v
    return key


class StateTable:
    """Weights of all permutations of size n, stored as runs of cells.

    A state (q, j) is the cell (d, key, x) of what it drops and keeps next:
    drop index d = q[0]-1, value x = j[d], and a key of the index of
    o = reduction(q[1:]) among the orders of length k-2, then a field of
    `width` = bitlen(n) bits per retained value, smallest first.
    `lines[base]` (`_new_line`) holds the runs on the keys base + i*stride.
    `totals[oi][key][d]`, read off the lines' prefix sums, is the weight of
    drop index d on a key of order index oi whose totals are not all 0.
    `cells` is the flat (q, j) -> w view: its length is the live count kept
    as runs are written, and its cells are expanded from the runs
    (`_cells_of`) only to be read.
    """

    def __init__(self, n: int, k: int, cells):
        width = n.bit_length()
        index = {o: i for i, o in enumerate(all_patterns(k - 2))}
        lines: dict[int, list] = {}
        for (q, j), w in cells.items():
            d = q[0] - 1
            key = _group_key(index[reduction(q[1:])], j[:d] + j[d + 1:], width)
            i = key & (1 << width) - 1  # one run per cell, on its key's lowest field
            line = lines.get(key - i) or lines.setdefault(key - i, _new_line(1, n + 2, k))
            line[1].append((d, i, i + 1, j[d], w))
            line[2 + d][i] += w
            line[2 + d][i + 1] -= w
        self._build(n, k, lines, len(cells), None)

    def _build(self, n: int, k: int, lines: dict, live: int, plan) -> StateTable:
        # plan: (assignment, pull plan, layouts by bit width) of the run that
        # built the table, or None
        self.n, self.k, self.lines, self.live, self._plan = n, k, lines, live, plan
        self.width = n.bit_length()
        self._classes: dict[tuple[int, int], dict] = {}
        shift = self.width * (k - 2)
        self.totals: list[dict] = [{} for _ in all_patterns(k - 2)]
        for base, (stride, _runs, *columns) in lines.items():
            sums = list(zip(*map(accumulate, columns)))
            self.totals[base >> shift].update(compress(
                zip(range(base, base + len(sums) * stride, stride), sums), map(any, sums)))
        return self

    def _cells_of(self, d: int, oi: int) -> Mapping[int, list]:
        """key -> [(x, w), ...] by increasing x, for the cells with drop
        index d and retained order index oi: expanded from the runs once."""
        found = self._classes.get((d, oi))
        if found is None:
            found = self._classes[d, oi] = defaultdict(list)
            shift = self.width * (self.k - 2)
            ordered = sorted(((x, base, stride, lo, end, w)
                              for base, (stride, runs, *_columns) in self.lines.items()
                              if base >> shift == oi
                              for d2, lo, end, x, w in runs if d2 == d), key=itemgetter(0))
            for x, base, stride, lo, end, w in ordered:
                cell = (x, w)
                for key in range(base + lo * stride, base + end * stride, stride):
                    found[key].append(cell)
        return found

    @property
    def cells(self) -> Mapping[State, object]:
        return _Cells(self)

    def weight_sum(self, assignment):
        """Sum of all cell weights, each suffix factor (a function of (o, d))
        applied once per sum."""
        orders = all_patterns(self.k - 2)
        total = 0
        for oi, by_key in enumerate(self.totals):
            for d, t in enumerate(map(sum, zip(*by_key.values()))):
                if t:
                    f = assignment.suffix_factor(_suffix(orders[oi], d))
                    if f != 0:
                        total = total + (t if f == 1 else f * t)
        return total

    def total(self, assignment) -> WeightPoly:
        """`weight_sum` as a polynomial (`_decoded`)."""
        return _decoded(self.weight_sum(assignment), assignment, self.n)


def _decoded(value, assignment, n: int) -> WeightPoly:
    """A size-n weight sum as a polynomial, unpacked if the assignment is
    packed: with nothing forbidden its coefficients must sum to n!."""
    if assignment.layout is None:
        return as_weight_poly(value, assignment.nvars)
    return unpack(value, assignment.layout, None if assignment.zero else math.factorial(n))


class _Cells(Mapping):
    """The flat (q, j) -> w view of a table's runs.  A lookup reads the
    view's own expansion (`items`), made by the first one."""

    def __init__(self, table: StateTable):
        self._table = table
        self._found: dict | None = None

    def __len__(self) -> int:
        return self._table.live

    def __getitem__(self, state: State):
        if self._found is None:
            self._found = dict(self.items())
        return self._found[state]

    def __iter__(self):
        return (state for state, _w in self.items())

    def items(self):
        table = self._table
        mask = (1 << table.width) - 1
        for oi, o in enumerate(all_patterns(table.k - 2)):
            for d in range(table.k - 1):
                q = _suffix(o, d)
                for key, dropped in table._cells_of(d, oi).items():
                    s = [key >> table.width * t & mask for t in range(table.k - 3, -1, -1)]
                    for x, w in dropped:
                        yield (q, (*s[:d], x, *s[d:])), w


def _new_line(stride: int, size: int, k: int) -> list:
    """[stride, runs, a column per drop index]: the runs on keys base +
    i*stride.  A run (d, lo, end, x, w) is the cell (d, key, x) of weight w
    for lo <= i < end: it adds w at lo and -w at end of column d, whose
    prefix sums are then the keys' totals."""
    return [stride, [], *([0] * size for _ in range(k - 1))]


def init_table(k: int) -> StateTable:
    """The table at size k-1: one cell per suffix pattern, weight 1.

    Each permutation of length k-1 is its own suffix, with values 1..k-1
    and no complete window yet.
    """
    if k < 2:
        raise ValueError("window length must be at least 2")
    base = tuple(range(1, k))
    cells: dict[State, object] = {(q, base): 1 for q in all_patterns(k - 1)}
    return StateTable(k - 1, k, cells)


def _with_rank(ranks: tuple, g: int) -> tuple:
    """Ranks with an entry of rank g+1 appended; those above it move up."""
    return tuple(r + 1 if r > g else r for r in ranks) + (g + 1,)


def _pull_plan(k: int, factor) -> list:
    """Per retained order (by index) and gap p: the child's group and factors.

    A parent dropping its oldest entry, of rank d+1, keeps the order o.  A
    child whose new entry lands in gap p of the retained values has suffix
    q2 = o with rank p+1 appended, so it drops index d2 = q2[0]-1 next and
    keeps the order o2 = reduction(q2[1:]).  Its window factor is fixed by
    d, except that for d = p it moves by `change` once the new entry passes
    the dropped value.  Drop indices whose fixed factor is 0 are left out.

    The child's values are s[:p] + (i,) + (s[p:] each plus one).  It drops
    the one at index d2 next and keeps the rest in order: `kept` gives, per
    value field of its group key, the pair (r, u) for the value s[r] + u, or
    None for the new entry i; `x2_from` gives the pair for the value x2 it
    drops, or None when k = 2 and x2 is i itself.
    """
    m = k - 1
    orders = all_patterns(m - 1)
    index = {o: oi for oi, o in enumerate(orders)}
    plan = []
    for o in orders:
        parents = [_suffix(o, d) for d in range(m)]
        rows = []
        for p in range(m):
            # the dropped value is below the new entry exactly when d < p
            fixed = [(d, factor(_with_rank(parents[d], p + (d < p)))) for d in range(m)]
            below = factor(_with_rank(parents[p], p + 1))
            q2 = _with_rank(o, p)
            d2 = q2[0] - 1
            values = [(r, 0) for r in range(p)] + [None] + [(r, 1) for r in range(p, m - 1)]
            rows.append((d2, index[reduction(q2[1:])], [(d, f) for d, f in fixed if f],
                         below - fixed[p][1], values[:d2] + values[d2 + 1:], values[d2]))
        plan.append(rows)
    return plan


def _at_width(plan: list, k: int, width: int, child: int) -> list:
    """The plan for a step from keys of `width` to `child` bits per value.

    Row (p, d2, start, terms, change, base, copies, stride, lo, end, x2): a
    group's fixed weight in gap p is, per (d, scale, by) in `terms`, its
    total t of drop index d, or scale(t, by), summed, or taken off the sum
    of its totals if `start`.  A child key is `base`, plus each parent field
    moved per (shift, mask, offset) of `copies`, plus i times `stride`.  lo
    <= i < end, and the x2 dropped next, are (shift, mask, plus) for
    (key >> shift & mask) + plus, where a plus of None stands for n+2.
    """
    mask, top, fields = (1 << width) - 1, child * (k - 2), k - 2

    def read(r: int, plus: int) -> tuple:
        # the parent value s[r] plus `plus`, or `plus` alone outside s
        return (width * (fields - 1 - r), mask, plus) if 0 <= r < fields else (0, 0, plus)

    out = []
    for rows in plan:
        level = []
        for p, (d2, o2, fixed, change, kept, x2_from) in enumerate(rows):
            base, copies, stride = o2 << top, [], 1
            for t, field in enumerate(kept):
                offset = top - child * (t + 1)
                if field is None:
                    stride = 1 << offset
                else:
                    base += field[1] << offset
                    copies.append((width * (fields - 1 - field[0]), mask, offset))
            factors = dict(fixed)
            # 0/1 factors start from the sum when fewer totals are left out;
            # a power of two, as packed variables are, shifts.  Both pay:
            # with every factor a plain multiply, in-process `count --track
            # "123;321" --n 24` took 60 ms instead of 36 (medians of 11
            # runs, 2 shared vCPUs, Python 3.11.7)
            from_sum = [(d, -1) for d in range(k - 1) if d not in factors]
            start = all(f == 1 for f in factors.values()) and len(from_sum) < len(factors)
            terms = [(d, None, 0) if start or g == 1 else (d, lshift, g.bit_length() - 1)
                     if isinstance(g, int) and g > 0 and not g & g - 1 else (d, mul, g)
                     for d, g in (from_sum if start else fixed)]
            level.append((p, d2, start, terms, change, base, copies, stride, read(p - 1, 1),
                          read(p, 1) if p < fields else (0, 0, None),
                          read(*x2_from) if x2_from else (0, 0, 0)))
        out.append(level)
    return out


def step_append_aggregated(table: StateTable, assignment) -> StateTable:
    """Same contract as the reference `step_append`, pulled from retained-value groups.

    A group's children come from no other group, and in its gap p only the
    new entry i varies: x2 is fixed, the key steps with i, and the weight is
    the fixed factors times the group's totals (taken for all groups of an
    order at once).  So the step writes one run per group and gap, split at
    the group's dropped values, expanded from the parent's runs, only where
    the factor moves as i passes them (`change`).  The plan depends only on
    the assignment: the first step builds it, each table hands it on.
    """
    n, k = table.n, table.k
    plan = table._plan
    if plan is None or plan[0] is not assignment:
        plan = (assignment, _pull_plan(k, assignment.factor), {})
    widths = (n.bit_length(), (n + 1).bit_length())
    layout = plan[2].get(widths) or plan[2].setdefault(widths, _at_width(plan[1], k, *widths))
    lines: dict[int, list] = {}
    live = 0
    for oi, rows in enumerate(layout):
        by_key = table.totals[oi]
        columns = list(zip(*by_key.values())) or [()] * (k - 1)
        sums = list(map(sum, by_key.values()))
        for (p, d2, start, terms, change, base0, copies, stride, (lo_shift, lo_mask, lo_plus),
             (end_shift, end_mask, end_plus), (x2_shift, x2_mask, x2_plus)) in rows:
            end_plus = n + 2 if end_plus is None else end_plus
            values = sums if start else None
            for d, scale, by in terms:
                column = columns[d] if scale is None else map(scale, columns[d], repeat(by))
                values = column if values is None else map(sub if start else add, values, column)
            values = list(values or [0] * len(sums))
            groups = compress(zip(by_key, values), values)
            if change:
                # every group with cells to pass, its totals 0 or not
                dropped = table._cells_of(p, oi)
                extra = dropped.keys() - by_key.keys()
                groups = zip([*by_key, *extra], values + [0] * len(extra))
            for key, value in groups:
                base = base0
                for shift, mask, offset in copies:
                    base += (key >> shift & mask) << offset
                lo = (key >> lo_shift & lo_mask) + lo_plus
                end = (key >> end_shift & end_mask) + end_plus
                x2 = (key >> x2_shift & x2_mask) + x2_plus
                line = lines.get(base)
                if line is None:
                    line = lines[base] = _new_line(stride, n + 3, k)
                diff = line[2 + d2]
                diff[lo] += value
                if change:
                    # one run per piece between dropped values y
                    for y, w in dropped.get(key, ()):
                        y += 1
                        if value:
                            line[1].append((d2, lo, y, x2, value))
                            live += y - lo
                        w = w if change == 1 else change * w
                        diff[y] += w
                        value, lo = value + w, y
                diff[end] -= value
                if value:
                    line[1].append((d2, lo, end, x2, value))
                    live += end - lo
    if k == 2:
        # a child keeps no values and drops its new entry i next: its runs
        # are on key i, and its state is ((1,), (i,))
        table = StateTable(n + 1, 2, {((1,), (i,)): w for line in lines.values()
                                      for _d, lo, end, _x, w in line[1] for i in range(lo, end)})
        table._plan = plan
        return table
    return StateTable.__new__(StateTable)._build(n + 1, k, lines, live, plan)


def PackedAssignment(assignment: PatternAssignment, N: int) -> PatternAssignment:
    """The assignment on integers: its variables packed for sizes up to N."""
    return PatternAssignment(assignment.k, assignment.zero, assignment.tracked, packing_layout(
        assignment.nvars, math.factorial(N), max(N - min(map(len, assignment.tracked)) + 1, 0)))


def enumerate_series(k: int, assignment: PatternAssignment, N: int) -> list[WeightPoly]:
    """Weighted counts of S_0..S_N, one window factor per length-k window.

    Below size k-1 each term sums its permutations' weights (n! when every
    pattern has length k).  From size k-1 on, the table evolves one append
    at a time and each term is the sum of the live cells.  Up to
    `PACKED_VARIABLES_MAX` tracked variables run packed (`PackedAssignment`).
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if 0 < assignment.nvars <= PACKED_VARIABLES_MAX:
        assignment = PackedAssignment(assignment, N)
    out = [_decoded(sum(map(assignment.weight, all_patterns(n))), assignment, n)
           for n in range(min(N, k - 2) + 1)]
    if N >= k - 1:
        table = init_table(k)
        out.append(table.total(assignment))
        while table.n < N:
            table = step_append_aggregated(table, assignment)
            out.append(table.total(assignment))
    return out


def build_assignment(avoid: Sequence = (), track: Sequence = ()) -> PatternAssignment:
    """The assignment of a pattern family, on windows as long as its longest
    pattern: shorter patterns are lifted (see `PatternAssignment`)."""
    if track:
        return PatternAssignment.tracking(track, zero=avoid)
    return PatternAssignment.avoiding(avoid)


def enumerate_for_patterns(avoid: Sequence = (), track: Sequence = (),
                           N: int = 0) -> list[WeightPoly]:
    """Series for an arbitrary pattern family, avoided and tracked mixed
    (`build_assignment`, `enumerate_series`)."""
    assignment = build_assignment(avoid, track)
    return enumerate_series(assignment.k, assignment, N)
