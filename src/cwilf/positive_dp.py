"""Incremental weighted enumeration by appending one entry at a time.

A permutation grows by choosing the relative rank i of its next entry among
1..n+1; existing values at or above i shift up to make room.  For windows of
length k, everything the future depends on is the state

    (q, j) = (reduction of the last k-1 entries, their sorted values),

so the whole of S_n collapses to a table mapping states to weights.  Each
append creates exactly one new window, whose pattern is a function of q and
of which gap between consecutive j-values the new rank lands in; the window's
factor (0, 1, or a tracked variable) multiplies the weight.

A table keeps its totals as value-indexed grids (`StateTable`): per order
of the retained values and drop index, lines over the newest retained
value.  The reference step, `step_append` in `tests/reference.py`, loops
over every child rank i.  `step_append_aggregated` pulls each child from
its one parent key: all children of a key in one gap weigh the same, and
along a column over the oldest retained value, which the children drop
next, their line is fixed and the bounds on i either stay or move with
that value.  The keys that differ only in their second oldest value, the
child's oldest, write consecutive child lines, so each gap adds a whole
plane of columns into the children's difference grids with a few slices,
whose prefix sums are the next table's totals; where a factor changes as
i passes the dropped value, the parent's cells summed by dropped value
are added the same way.  The cells stay in the blocks that wrote them
until the tests or a rare step read them (`positive_cells`, which also
steps windows of two, whose keys keep no value).  Which factor applies
where is worked out once per run, in a plan that each table hands on to
its child.  The two steps must agree exactly on every input.

The steps are generic over the weight ring: integers, or `WeightPoly` for
the tests and the reference runs.  One `PatternAssignment` (`factors`)
supplies every factor.  An avoidance query is counted on plain integers
and its terms are ints, so its route never loads the weight ring
(`weightring`); only the tracked paths import it, where they run.
`enumerate_series` runs tracked queries on plain integers too, on the
assignment rebuilt with packed variables (`weightring.PackedAssignment`),
and `StateTable.total` decodes each term.  Every cell weight is a polynomial
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
from collections.abc import Mapping, Sequence
from itertools import accumulate, chain, repeat
from operator import add, lshift, mul, neg, sub

from .factors import PatternAssignment
from .patterns import all_patterns, reduction

State = tuple[tuple[int, ...], tuple[int, ...]]

# Most tracked variables packed into one integer.  A layout for exponents up
# to E spans (E+1)^v digits, while the polynomial has at most C(E+v, v)
# terms, about v! times fewer.  Measured sparse against packed in process
# (Python 3.11.7, 2 CPUs, shared host, two runs each): up to three variables
# packing is 2-4x faster ("123;321" to n=16: 25-27 vs 11-14 ms;
# "1234;4321;1324" to n=12: 61-66 vs 14-15 ms).  At four it loses or ties,
# for more memory ("123;321;132;213" to n=14: 0.77-1.36 vs 1.55-1.78 s, 36
# vs 59 MB; "1234;4321;1324;2143" to n=12: 0.19-0.27 vs 0.18-0.19 s, 23 vs
# 36 MB).  At five it is 12-28x slower ("123;321;132;213;231" to n=12:
# 0.27-0.49 vs 6.1-7.5 s, 22-23 vs 152 MB).
PACKED_VARIABLES_MAX = 3


def _suffix(o: tuple, d: int) -> tuple:
    """The suffix order whose oldest entry has rank d+1 and whose rest reduces to o."""
    return (d + 1,) + tuple(r + 1 if r > d else r for r in o)


class StateTable:
    """Weights of all permutations of size n, kept as value-indexed grids.

    A state (q, j) is the cell (d, s, x) of what it drops and keeps next:
    drop index d = q[0]-1, value x = j[d], and the k-2 retained values s,
    the rest of j, whose order o = reduction(q[1:]) has index oi among the
    orders of length k-2.  Field a = o[0]-1 of s holds the oldest retained
    value, the one a child drops next, and field c = o[-1]-1 the newest.
    `slabs[oi]` maps the values of the other fields to one grid per drop
    index: entry s[a]*(n+2) + s[c] of grid d is the total weight of drop
    index d on that key, each line of a grid running over the newest
    value.  With one value kept (k = 3) a = c, and a grid is one line.

    The cells are kept as the constructor gave them (`given`, (s, x, w) per
    cell) or as the blocks of the step that wrote them, one per slab and
    gap (`blocks`), per class (d, oi); a block also keeps its parent
    stack's grids as the step combined them by the row's factors.
    `_cells_of` and the flat (q, j) -> w view `cells` read them
    (`positive_cells`); the view's length, the live count, is counted off
    the blocks without building a cell.
    """

    def __init__(self, n: int, k: int, cells):
        orders, width = all_patterns(k - 2), n + 2
        index = {o: i for i, o in enumerate(orders)}
        slabs: list[dict] = [{} for _ in orders]
        given: dict[tuple[int, int], list] = defaultdict(list)
        for (q, j), w in cells.items():
            d, oi = q[0] - 1, index[reduction(q[1:])]
            s, o = j[:d] + j[d + 1:], orders[oi]
            a, c = (o[0] - 1, o[-1] - 1) if o else (0, 0)
            grids = slabs[oi].get(key := tuple(v for f, v in enumerate(s) if f not in (a, c))) \
                or slabs[oi].setdefault(key, _new_slab(width, k))
            at = s[a] * width * (k > 3) + s[c] if o else 0
            grids[d][at] += w
            grids[d][at + 1] -= w
            given[d, oi].append((s, j[d], w))
        self._build(n, k, slabs, {}, dict(given), None)

    def _build(self, n: int, k: int, slabs: list, blocks: dict, given: dict,
               plan) -> StateTable:
        # slabs hold difference grids until here, whose lines each sum to 0;
        # plan: (assignment, pull plan) of the run that built the table, or None
        for by_others in slabs:
            for grids in by_others.values():
                grids[:] = [list(accumulate(grid)) for grid in grids]
        self.n, self.k, self.slabs, self._plan = n, k, slabs, plan
        self.blocks, self.given = blocks, given
        self._classes: dict[tuple[int, int], _Class] = {}
        self._live = None  # the live count, once `positive_cells.live` counts it
        return self

    def _cells_of(self, d: int, oi: int) -> _Class:
        """The cells with drop index d and order index oi (`_Class`)."""
        found = self._classes.get((d, oi))
        if found is None:
            found = self._classes[d, oi] = _Class(
                self.n, all_patterns(self.k - 2)[oi], self.given.get((d, oi), ()),
                self.blocks.get((d, oi), ()))
        return found

    @property
    def cells(self) -> Mapping[State, object]:
        from .positive_cells import Cells

        return Cells(self)

    def weight_sum(self, assignment):
        """Sum of all cell weights, each suffix factor (a function of (o, d))
        applied once per sum."""
        orders = all_patterns(self.k - 2)
        total = 0
        for oi, by_others in enumerate(self.slabs):
            for d in range(self.k - 1):
                t = sum([sum(grids[d]) for grids in by_others.values()])
                if t:
                    f = assignment.suffix_factor(_suffix(orders[oi], d))
                    if f != 0:
                        total = total + (t if f == 1 else f * t)
        return total

    def total(self, assignment):
        """`weight_sum` as a term of the series (`_decoded`)."""
        return _decoded(self.weight_sum(assignment), assignment, self.n)


def _decoded(value, assignment, n: int):
    """A size-n weight sum as a term: the int itself when nothing is
    tracked, else a polynomial, unpacked if the assignment is packed (with
    nothing forbidden its coefficients must sum to n!)."""
    if not assignment.nvars:
        return value
    from .weightring import as_weight_poly, unpack

    if assignment.layout is None:
        return as_weight_poly(value, assignment.nvars)
    return unpack(value, assignment.layout, None if assignment.zero else math.factorial(n))


class _Class:
    """The cells of one class (d, o) of a size-n table: those given and the
    blocks that hold them, until read (`positive_cells.expanded`)."""

    def __init__(self, n: int, o: tuple, given, blocks):
        self.n, self.o, self.given, self.blocks = n, o, given, blocks
        self.found: dict | None = None
        self._by_dropped: dict | None = None

    def by_dropped(self) -> dict:
        """others -> D: the class's weights summed over the oldest retained
        value, on the keys whose values other than the oldest and the newest
        are `others`.  D[x*(n+2) + i] sums the cells of drop value x on those
        keys with newest value i.

        A block of an unsplit row with at most two values kept, whose
        bounds on i do not depend on the parent's newest value, writes its
        part whole, summed over that value, from the grids the step
        combined for it (its stack is its one slab), and so do cells
        given.  Other classes are read off their cells
        (`positive_cells.by_dropped`)."""
        if self._by_dropped is None:
            width = self.n + 2
            diff = [0] * width * width
            whole = self.found is None and len(self.o) < 3
            for o, _others, _grids, row, p, _source, weights in self.blocks if whole else ():
                _d2, _o2, _terms, change, _shifts, lo_at, end_at = row
                if change or {lo_at, end_at} - {None, _MOVING}:
                    whole = False
                    break
                # per oldest value, the sum over the newest
                rows = weights if len(o) == 1 else _line_sums(weights, width - 1)
                for bound, op in ((lo_at, add), (end_at, sub)):
                    step = width + (bound == _MOVING)
                    first = (width - 1 if bound is None and op is sub else 1) + \
                        int(o[0] > p) * width
                    at = slice(first, first + len(rows) * step, step)
                    diff[at] = map(op, diff[at], rows)
            if whole:
                self._by_dropped = {(): list(accumulate(diff))}
                for s, x, w in self.given:
                    self._by_dropped[()][x * width + s[self.o[-1] - 1]] += w
            else:
                from .positive_cells import by_dropped

                self._by_dropped = by_dropped(self)
        return self._by_dropped


def _new_slab(size: int, k: int) -> list:
    """A slab's difference grids, one per drop index: size*size entries,
    or size with one value kept."""
    return [[0] * (size * size if k > 3 else size) for _ in range(k - 1)]


def _combined(terms: list, columns: Sequence) -> list:
    """Per entry of the columns, the sum over (d, op, by) in `terms` of
    columns[d], or op(columns[d], by)."""
    out = None
    for d, op, by in terms:
        column = columns[d] if op is None else map(op, columns[d], repeat(by))
        out = column if out is None else map(add, out, column)
    return [0] * len(columns[0]) if out is None else list(out)


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


# a bound on the new entry that moves with the value the child drops next
_MOVING = -1


def _pull_plan(k: int, factor) -> list:
    """Per retained order (by index) and gap p: the child's class and factors.

    A parent dropping its oldest entry, of rank d+1, keeps the order o, of
    retained values s.  A child whose new entry i lands in gap p of s has
    suffix q2 = o with rank p+1 appended, so it drops index d2 = q2[0]-1
    next and keeps the order o2 = reduction(q2[1:]).  Its window factor is
    fixed by d, except that for d = p it moves by `change` once i passes
    the dropped value.  Drop indices whose fixed factor is 0 are left out.

    Row (d2, o2, terms, change, shifts, lo, end): the child weighs the sum
    over (d, op, by) in `terms` of the parent's total of drop index d, or
    op(total, by).  It drops x2 = s[a] + (a >= p) next, a = o[0]-1 the
    oldest retained field, and keeps the other values, each plus its entry
    of `shifts`, with i inserted among them at field p - (a < p).
    s[p-1] < i <= s[p]: lo and end name the kept value, other than s[a],
    whose value plus one bounds i, by its index among them, or are None for
    1 and n+2, or `_MOVING` for s[a]+1.
    """
    fields = k - 2
    orders = all_patterns(fields)
    index = {o: oi for oi, o in enumerate(orders)}
    plan, seen = [], []
    for o in orders:
        parents = [_suffix(o, d) for d in range(k - 1)]
        a = o[0] - 1 if o else -1
        rows = []
        for p in range(k - 1):
            # the dropped value is below the new entry exactly when d < p
            fixed = [(d, factor(_with_rank(parents[d], p + (d < p)))) for d in range(k - 1)]
            below = factor(_with_rank(parents[p], p + 1))
            q2 = _with_rank(o, p)
            # 0/1 factors add; a power of two, as packed variables are,
            # shifts: with every factor a plain multiply, in-process `count
            # --track "123;321" --n 24` took 60 ms instead of 36 (medians of
            # 11 runs, 2 shared vCPUs, Python 3.11.7)
            terms = [(d, None, 0) if f == 1 else (d, lshift, f.bit_length() - 1)
                     if isinstance(f, int) and f > 0 and not f & f - 1 else (d, _times, f)
                     for d, f in fixed if f]
            # rows of equal terms share them, and the step their weights
            if terms in seen:
                terms = seen[seen.index(terms)]
            seen.append(terms)
            rows.append((q2[0] - 1, index[reduction(q2[1:])], terms, below - fixed[p][1],
                         tuple(int(r >= p) for r in range(fields) if r != a),
                         None if p == 0 else _MOVING if p - 1 == a else p - 1 - (p > a),
                         None if p == fields else _MOVING if p == a else p - (p > a)))
        plan.append(rows)
    return plan


def _times(x, factor):
    """x times a factor, an int 0 staying one: a polynomial factor would
    make each 0 of a grid a polynomial of its own."""
    return x * factor if x else x


def _transposed(grid: list, width: int) -> list:
    """A grid of lines of `width` entries as lines over those entries, each
    led by a 0: entry v*(len(grid)/width + 1) + 1 + x holds entry x*width + v."""
    if width == 1:
        return [0, *grid]
    return list(chain.from_iterable(zip(repeat(0, width), *zip(*[iter(grid)] * width))))


def _stacked(grids: list, width: int) -> list:
    """Grids end to end, `width` zeros between each two (one as it is)."""
    if len(grids) == 1:
        return grids[0]
    gap = [0] * width
    return list(chain(grids[0], *chain.from_iterable((gap, grid) for grid in grids[1:])))


def _line_sums(grid: list, width: int) -> list:
    """The sums of a grid's lines of `width` entries."""
    return list(map(sum, zip(*[iter(grid)] * width)))


def _cut(line: list, parts: int) -> list:
    """A list cut into `parts` lists of equal length (itself for one)."""
    size = len(line) // parts
    return [line] if parts == 1 else [line[at:at + size] for at in range(0, len(line), size)]


def _planes(rows: list, parts: int, wide: int) -> tuple:
    """Rows of `wide` entries end to end, cut into `parts` planes: per
    plane its rows, and per plane the rows' sums."""
    return _cut(rows, parts), _cut(_line_sums(rows, wide), parts)


def step_append_aggregated(table: StateTable, assignment) -> StateTable:
    """Same contract as the reference `step_append`, pulled plane by plane.

    A parent key's children in gap p come from no other key, and only their
    new entry i varies: they drop x2 = s[a] + u next and weigh the key's
    fixed factors times its totals, for s[p-1] < i <= s[p].  Along a column
    over the oldest value s[a] the child's line is fixed, and each bound on
    i either stays (its difference entry takes the column's sum) or moves
    with s[a] (it takes the column, at an offset).  The child's oldest
    value is the parent's second oldest s[b], so the columns of the keys
    that differ only in s[b] land on consecutive lines of one child slab:
    stacked and transposed once, a parent's grids are planes of such rows,
    one per newest value with three or more values kept, or one per slab,
    whose rows run over the newest value (k = 4) or are the one line
    (k = 3).  A gap writes a plane with a few slices: a bound at 1 or n+2,
    or at a value fixed for the plane, takes the rows' sums down a column,
    one at s[b]+1 down the diagonal, and one at s[a]+1 takes the plane.
    Where the factor moves by `change` as i passes the parent's dropped
    value (a split row), each row also takes change times its keys' cells
    summed by dropped value (`_Class.by_dropped`).  k = 2 keeps no value
    (`positive_cells.pull_window_of_two`).  The cells are left as one block
    per slab and gap (`positive_cells.columns`).  The plan depends only on
    the assignment: the first step builds it, each table hands it on.
    """
    n, k = table.n, table.k
    plan = table._plan
    if plan is None or plan[0] is not assignment:
        plan = (assignment, _pull_plan(k, assignment.factor))
    if k == 2:
        from .positive_cells import pull_window_of_two

        return pull_window_of_two(table, plan)
    width, wide, orders = n + 2, n + 3, all_patterns(k - 2)
    # a grid's lines run over the newest value, or it is the one line
    lines, zero = width if k > 3 else 1, [0] * width * width
    slabs: list[dict] = [{} for _ in orders]
    blocks: dict[tuple[int, int], list] = {}
    for oi, rows in enumerate(plan[1]):
        o = orders[oi]
        # among the values kept but s[a], jb and ic are the fields of s[b]
        # (the one value with one kept) and of the newest; a slab's key
        # leaves s[b] out at ib, a plane's keeps the newest at `into`
        a, b, c = o[0] - 1, o[len(o) > 1] - 1, o[-1] - 1
        jb, ic = b - (b > a), c - (c > a)
        ib, into = jb - (jb > ic), ic - (ic > jb)
        stacks: dict[tuple, dict] = defaultdict(dict)
        for others, grids in table.slabs[oi].items():
            stacks[others[:ib] + others[ib + 1:]][others[ib] if k > 4 else 0] = others, grids
        for rest, by_b in stacks.items():
            # s[b] runs over b0..b1-1: per drop index, the stack's grids (of
            # zeros where no slab is), whose lines transposed lead each row
            # of a plane with a 0
            b0, b1 = min(by_b), max(by_b) + 1
            stack = by_b[b0][1] if b1 - b0 == 1 else [_stacked(grids, lines) for grids in zip(
                *(by_b[v][1] if v in by_b else [zero] * (k - 1) for v in range(b0, b1)))]
            # per plane, the values kept but s[a] and s[b]
            fixed = [(*rest[:into], v, *rest[into:]) for v in range(width)] if k > 4 else [()]
            made: dict[int, tuple] = {}
            for p, row in enumerate(rows):
                d2, o2, terms, change, shifts, lo_at, end_at = row
                if not terms and not change:
                    continue
                if id(terms) not in made:
                    combined = _combined(terms, stack)
                    made[id(terms)] = combined, _planes(
                        _transposed(combined, lines), len(fixed), wide)
                combined, weights = made[id(terms)]
                ends = weights
                split, source = repeat(None), None
                if change:
                    # past all its dropped values a key weighs change times
                    # their total more, and each adds its part as i passes
                    # it: change times the cells by dropped value, at y+1
                    times = mul if isinstance(change, int) else _times
                    ends = _planes(list(map(add, chain.from_iterable(weights[0]), map(
                        times, _transposed(stack[p], lines), repeat(change)))), len(fixed), wide)
                    source = table._cells_of(p, oi)
                    by_dropped = source.by_dropped()
                    dropped = [by_dropped.get((*rest[:ib], v, *rest[ib:]) if k > 4 else (), zero)
                               for v in range(b0, b1)]
                    split = _cut(list(map(times, _transposed(_stacked(
                        dropped, lines) if k > 3 else _line_sums(dropped[0], width), lines),
                        repeat(change))), len(fixed))
                # the rows land on the child lines of their s[b], shifted
                base = (b0 + sum(shifts[jb:jb + 1])) * wide
                lifts, child = shifts[:jb] + shifts[jb + 1:], slabs[o2]
                for held, part, total, end, end_total, moved in zip(fixed, *weights, *ends, split):
                    if not any(part) and not (change and any(moved)):
                        continue
                    key = tuple(map(add, held, lifts))
                    diff = (child.get(key) or child.setdefault(key, _new_slab(wide, k)))[d2]
                    # a child class has one parent row, so the plane is its
                    # grid's one writer: a bound at s[a]+1 and the split set
                    # the span outright
                    span = part if lo_at == _MOVING else map(neg, end) if end_at == _MOVING \
                        else None
                    if change:
                        span = moved if span is None else map(add, span, moved)
                    if span is not None:
                        diff[base:base + len(part)] = span
                    for bound, op, whole_sums in ((lo_at, add, total), (end_at, sub, end_total)):
                        if bound == _MOVING:
                            continue
                        # 1 or n+2, s[b] or a value fixed for the plane, plus one
                        first = base + ((width if op is sub else 1) if bound is None else
                                        b0 + 1 if bound == jb else held[bound - (bound > jb)] + 1)
                        step = wide + (bound == jb)
                        at = slice(first, first + len(whole_sums) * step, step)
                        diff[at] = map(op, diff[at], whole_sums)
                found = blocks.setdefault((d2, o2), [])
                for others, grids in by_b.values():
                    found.append((o, others, grids, row, p, source, combined))
    return StateTable.__new__(StateTable)._build(n + 1, k, slabs, blocks, {}, plan)


def enumerate_series(k: int, assignment: PatternAssignment, N: int) -> list:
    """Weighted counts of S_0..S_N, one window factor per length-k window:
    ints when nothing is tracked, `WeightPoly` terms otherwise.

    Below size k-1 each term sums its permutations' weights (n! when every
    pattern has length k).  From size k-1 on, the table evolves one append
    at a time and each term is the sum of the live cells.  Up to
    `PACKED_VARIABLES_MAX` tracked variables run packed
    (`weightring.PackedAssignment`).
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if 0 < assignment.nvars <= PACKED_VARIABLES_MAX:
        from .weightring import PackedAssignment

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
                           N: int = 0) -> list:
    """Series for an arbitrary pattern family, avoided and tracked mixed
    (`build_assignment`, `enumerate_series`)."""
    assignment = build_assignment(avoid, track)
    return enumerate_series(assignment.k, assignment, N)
