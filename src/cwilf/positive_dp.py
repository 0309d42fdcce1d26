"""Incremental weighted enumeration by appending one entry at a time.

A permutation grows by choosing the relative rank i of its next entry among
1..n+1; existing values at or above i shift up to make room.  For windows of
length k, everything the future depends on is the state

    (q, j) = (reduction of the last k-1 entries, their sorted values),

so the whole of S_n collapses to a table mapping states to weights.  Each
append creates exactly one new window, whose pattern is a function of q and
of which gap between consecutive j-values the new rank lands in; the window's
factor (0, 1, or a tracked variable) multiplies the weight.

A table is stored in the groups that the next append reads: a state keeps,
after dropping its oldest entry, a retained order o and retained values s,
packed into one integer group key, and `StateTable.groups[d][key][x]` holds
the weight of the state whose oldest entry has drop index d (its rank minus
one) and value x.  Each table sums its groups per drop index once, when it
is built; the readout and the next step share those totals.

Two step implementations are provided.  `step_append` loops over every child
rank i and is the reference.  `step_append_aggregated` pulls each child from
its one group of parents: every parent adds its factor times its weight, and
the factor changes only with whether the dropped value lies below the new
entry.  Per group and gap, one fixed sum covers the other gaps and a running
sum over the dropped values covers the gap itself.  Each child is written
straight into its own group of the next table, whose key steps by a fixed
stride with the new entry, so a level costs one pass over the groups and
one integer-keyed write per child.  Which factor applies where is worked
out once per run, in a plan that each table hands on to its child.  The two
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

from .permcore import all_patterns, reduction
from .weightring import PatternAssignment, WeightPoly, as_weight_poly, packing_layout, unpack

State = tuple[tuple[int, ...], tuple[int, ...]]

# Most tracked variables packed into one integer.  A layout for exponents up
# to E spans (E+1)^v digits, while the polynomial has at most C(E+v, v)
# terms, about v! times fewer.  Up to three variables the packed table is
# still the smaller and faster one (a digit costs B bits, a sparse term about
# 200 bytes); from four on it takes several times the memory of the sparse
# table for at most a 2.5x gain in time, and from six on it is slower too.
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
    """Weights of all permutations of size n, grouped by suffix state.

    A state (q, j) is stored under what it keeps on the next append: its
    drop index d = q[0]-1, the value x = j[d] it drops next, and one integer
    key for its retained order o = reduction(q[1:]) and retained values s
    (j without x), so that `groups[d][key][x] = w`.  The key holds the index
    of o among the orders of length k-2, then one field of `width` =
    bitlen(n) bits per value of s, smallest first.  `totals[key][d]` is the
    sum of `groups[d][key]` (0 where it is empty), taken once when the table
    is built for the readout and the next step to share.  `cells` is the
    flat (q, j) -> w view.
    """

    def __init__(self, n: int, k: int, cells):
        width = n.bit_length()
        index = {o: i for i, o in enumerate(all_patterns(k - 2))}
        groups = [defaultdict(dict) for _ in range(k - 1)]
        for (q, j), w in cells.items():
            d = q[0] - 1
            groups[d][_group_key(index[reduction(q[1:])], j[:d] + j[d + 1:], width)][j[d]] = w
        self._build(n, k, groups, None)

    @classmethod
    def _from_groups(cls, n: int, k: int, groups: list, plan) -> StateTable:
        table = cls.__new__(cls)
        table._build(n, k, groups, plan)
        return table

    def _build(self, n: int, k: int, groups: list, plan) -> None:
        # plan: (assignment, pull plan) of the run that built the table, or None
        self.n, self.k, self.groups, self._plan = n, k, groups, plan
        self.width = n.bit_length()
        totals: dict[int, list] = {}
        for d, by_key in enumerate(groups):
            for key, dropped in by_key.items():
                sums = totals.get(key)
                if sums is None:
                    sums = totals[key] = [0] * (k - 1)
                sums[d] = sum(dropped.values())
        self.totals = totals

    def _retained(self, key: int) -> tuple[int, list[int]]:
        """The order index and the retained values in a group key."""
        fields, width = self.k - 2, self.width
        mask = (1 << width) - 1
        return key >> width * fields, [key >> width * t & mask for t in range(fields - 1, -1, -1)]

    @property
    def cells(self) -> Mapping[State, object]:
        return _Cells(self)

    def weight_sum(self, assignment):
        """Sum of all cell weights, with any suffix factors applied.

        A suffix factor depends only on q, that is on (o, d), so the group
        totals are added up per (o, d) and each sum gets its factor once.
        """
        m = self.k - 1
        shift = self.width * (m - 1)
        by_order: dict[int, list] = {}
        for key, sums in self.totals.items():
            acc = by_order.setdefault(key >> shift, [0] * m)
            for d, t in enumerate(sums):
                if t:
                    acc[d] = acc[d] + t
        orders = all_patterns(m - 1)
        total = 0
        for oi, acc in by_order.items():
            for d, t in enumerate(acc):
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
    """The flat (q, j) -> w view of a table's groups."""

    def __init__(self, table: StateTable):
        self._table = table

    def __len__(self) -> int:
        return sum(len(dropped) for by_key in self._table.groups for dropped in by_key.values())

    def __getitem__(self, state: State):
        q, j = state
        table = self._table
        # a value outside 1..n would spill into the next field of the key
        if (sorted(q) != list(range(1, table.k)) or len(j) != len(q)
                or list(j) != sorted(set(j)) or not 1 <= j[0] <= j[-1] <= table.n):
            raise KeyError(state)
        d = q[0] - 1
        key = _group_key(all_patterns(table.k - 2).index(reduction(q[1:])),
                         j[:d] + j[d + 1:], table.width)
        return table.groups[d].get(key, {})[j[d]]

    def __iter__(self):
        return (state for state, _w in self.items())

    def items(self):
        table = self._table
        orders = all_patterns(table.k - 2)
        for d, by_key in enumerate(table.groups):
            for key, dropped in by_key.items():
                oi, s = table._retained(key)
                q = _suffix(orders[oi], d)
                for x, w in dropped.items():
                    yield (q, (*s[:d], x, *s[d:])), w


def state_of(pi: Sequence[int], k: int) -> State:
    """The suffix state of an explicit permutation."""
    pi = tuple(pi)
    if len(pi) < k - 1:
        raise ValueError("permutation shorter than k-1")
    tail = pi[len(pi) - (k - 1):]
    return reduction(tail), tuple(sorted(tail))


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


def append_transition(state: State, n: int, i: int, assignment) -> tuple[State, object]:
    """Append rank i to a size-n suffix state; new state and gained factor.

    Reconstructs the last k-1 values, shifts those >= i, reads off the new
    window's pattern, and drops the oldest entry.
    """
    q, j = state
    k = len(q) + 1
    if not 1 <= i <= n + 1:
        raise ValueError(f"append rank {i} out of range 1..{n + 1}")
    values = [j[r - 1] for r in q]
    shifted = [v + 1 if v >= i else v for v in values]
    gained = reduction(shifted + [i])
    new_last = shifted[1:] + [i]
    new_state = (reduction(new_last), tuple(sorted(new_last)))
    return new_state, assignment.factor(gained)


def step_append(table: StateTable, assignment) -> StateTable:
    """Reference step: every cell spawns one child per rank i in 1..n+1."""
    n = table.n
    cells: dict[State, object] = {}
    for state, w in table.cells.items():
        for i in range(1, n + 2):
            new_state, f = append_transition(state, n, i, assignment)
            if f == 0:
                continue
            contrib = w if f == 1 else w * f
            prev = cells.get(new_state)
            cells[new_state] = contrib if prev is None else prev + contrib
    return StateTable(n + 1, table.k, {s: w for s, w in cells.items() if w})


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


def _at_width(plan: list, k: int, width: int) -> list:
    """The plan with its child key fields laid out at `width` bits per value.

    Each row becomes (d2, fixed, change, base, copies, stride, x2_from): the
    order field and the u of every (r, u) in `base`, an (r, bit offset) per
    retained value copied, and the stride of the new entry's field.
    """
    top = width * (k - 2)
    out = []
    for rows in plan:
        level = []
        for d2, o2, fixed, change, kept, x2_from in rows:
            base, copies, stride = o2 << top, [], 1
            for t, field in enumerate(kept):
                offset = top - width * (t + 1)
                if field is None:
                    stride = 1 << offset
                else:
                    copies.append((field[0], offset))
                    base += field[1] << offset
            level.append((d2, fixed, change, base, copies, stride, x2_from))
        out.append(level)
    return out


def step_append_aggregated(table: StateTable, assignment) -> StateTable:
    """Same contract as `step_append`, pulled from retained-value groups.

    A child of the group (o, s) comes from no other group, so it is written
    once, straight into its own group: the fixed factors times the group's
    totals per drop index, plus a running sum over the parents whose dropped
    value lies in its own gap.  In gap p only the new entry i varies, so the
    value x2 the child drops next is fixed and its group key is an
    arithmetic progression in i.

    The plan depends only on the assignment.  The first step builds it and
    each table hands it on to its child.
    """
    n, k = table.n, table.k
    plan = table._plan
    if plan is None or plan[0] is not assignment:
        plan = (assignment, _pull_plan(k, assignment.factor))
    rows_of = _at_width(plan[1], k, (n + 1).bit_length())
    groups = [defaultdict(dict) for _ in range(k - 1)]
    parents = table.groups
    # the parent keys' layout, as in `StateTable._retained`
    mask = (1 << table.width) - 1
    offsets = [table.width * t for t in range(k - 3, -1, -1)]
    top = table.width * (k - 2)
    for key, totals in table.totals.items():
        s = [key >> offset & mask for offset in offsets]
        s.append(n + 1)
        lo = 1
        for p, (d2, fixed, change, base, copies, stride, x2_from) in enumerate(rows_of[key >> top]):
            hi = s[p]
            value = 0
            for d, f in fixed:
                t = totals[d]
                if t:
                    value = value + (t if f == 1 else f * t)
            for r, offset in copies:
                base += s[r] << offset
            x2 = 0 if x2_from is None else s[x2_from[0]] + x2_from[1]
            into = groups[d2]
            # split the gap at its dropped values, where the window factor moves
            dropped = parents[p].get(key) if change else None
            if dropped:
                for x, w in sorted(dropped.items()):
                    if value:
                        for child in range(base + lo * stride, base + (x + 1) * stride, stride):
                            into[child][x2] = value
                    value = value + (w if change == 1 else change * w)
                    lo = x + 1
            if value:
                for child in range(base + lo * stride, base + (hi + 1) * stride, stride):
                    into[child][x2] = value
            lo = hi + 1
    if k == 2:
        # a child keeps no values and drops its new entry i next: the loop
        # filed it under key i, and its cell moves to key 0, value i
        cells = {i: row[0] for i, row in groups[0].items()}
        groups[0] = defaultdict(dict, {0: cells} if cells else {})
    return StateTable._from_groups(n + 1, k, groups, plan)


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


LiftedAssignment = build_assignment  # one class serves mixed lengths too


def enumerate_for_patterns(avoid: Sequence = (), track: Sequence = (),
                           N: int = 0) -> list[WeightPoly]:
    """Series for an arbitrary pattern family, avoided and tracked mixed
    (`build_assignment`, `enumerate_series`)."""
    assignment = build_assignment(avoid, track)
    return enumerate_series(assignment.k, assignment, N)
