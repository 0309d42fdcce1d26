"""The positive engine's tables cell by cell, and its steps on other keys.

`positive_dp.step_append_aggregated` keeps each table's totals as grids and
its cells as the blocks of the step that wrote them, one per parent slab
and gap, from which `columns` reads the child cells column by column.
Only the tests, the benchmark's tracer and a step that walks a class of
cells its blocks cannot sum whole (`positive_dp._Class.by_dropped`) read
the cells: expanding a class (`expanded`), its totals by dropped value
from its cells (`by_dropped`), counting a table's live cells (`live`) and
the flat (q, j) -> w view (`Cells`).  Beside them are the steps on keys
that do not fit `positive_dp`'s one slab per order: windows of two, which
keep no value (`pull_window_of_two`), and windows of five or more, whose
columns each land on a child slab of their own (`pull_stacked`).  A
process loads this module only where it runs one of these.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from itertools import accumulate, chain, compress, repeat
from operator import add, mul, sub

from .patterns import all_patterns
from .positive_dp import _MOVING, _combined, _new_slab, _suffix, _times


def columns(n: int, o: tuple, others: tuple, grids: list, row: tuple, p: int, source):
    """The columns of the child cells one slab of a size-n parent wrote in
    gap p, a block: per value of the newest field whose column over the
    oldest holds a nonzero total or, in a split row, cells, the child line
    `rest` with the new value i to insert at field t, x0, lo, ls, end, es,
    the column's weights and, in a split row, per entry its weights over i
    (`pieces`).  Entry r is the cell of drop value x0+r on the keys with
    lo + r*ls <= i < end + r*es."""
    _d2, _o2, terms, change, shifts, lo_at, end_at = row
    width, a, c = n + 2, o[0] - 1, o[-1] - 1
    t, u = p - (a < p), int(a >= p)
    found = [((), grids, 1, n + 1)] if len(o) == 1 else []
    dropped = source.by_dropped().get(others, ()) if change and not found else ()
    for newest in range(width) if len(o) > 1 else ():
        cols = [grid[newest::width] for grid in grids]
        if any(map(any, cols)) or any(dropped[newest::width]):
            vals = (*others[:c - (c > a)], newest, *others[c - (c > a):])
            found.append((vals, cols, vals[a - 1] + 1 if a else 1,
                          vals[a] if a < len(o) - 1 else n + 1))
    for vals, cols, lo_a, hi_a in found:
        lo, ls = (lo_a + 1, 1) if lo_at == _MOVING else \
            (1 if lo_at is None else vals[lo_at] + 1, 0)
        end, es = (lo_a + 1, 1) if end_at == _MOVING else \
            (width if end_at is None else vals[end_at] + 1, 0)
        values = _combined(terms, cols, lo_a, hi_a)
        split = [pieces(lo + r * ls, end + r * es, w, change,
                        *expanded(source).get((*vals[:a], lo_a + r, *vals[a:]), (0, ())))
                 for r, w in enumerate(values)] if change else None
        yield tuple(map(add, vals, shifts)), t, lo_a + u, lo, ls, end, es, values, split


def pieces(lo: int, end: int, value, change, y0: int, ys: Sequence) -> list:
    """The weights for i = lo..end-1 of value plus change times the sum of
    ys[y-y0] over y < i: the factor moves by `change` as the new value i
    passes each dropped value y, lo <= y0 <= y < end-1."""
    if not ys:
        return [value] * (end - lo)
    weights = [value] * (y0 - lo) + list(accumulate(
        ys if change == 1 else map(mul if isinstance(change, int) else _times, ys,
                                   repeat(change)), initial=value))
    return weights + [weights[-1]] * (end - lo - len(weights))


def pull_stacked(table, oi: int, rows: list, slabs: list, blocks: dict) -> None:
    """`positive_dp.step_append_aggregated` for the slabs of order oi with
    three or more values kept.

    A child's oldest value is the parent's second oldest s[b], and its
    other values but i are the parent's other than s[a] and s[b]: the slabs
    that differ only in s[b] write into one child slab per newest value,
    each on the child line of its s[b].  Stacked over s[b], their grids
    give per newest value the plane over (s[b], s[a]) that goes there, one
    slice per (gap, stack, newest value).
    """
    n, k = table.n, table.k
    width, wide, fields = n + 2, n + 3, k - 2
    o = all_patterns(fields)[oi]
    a, b, c = o[0] - 1, o[1] - 1, o[-1] - 1
    # positions of s[c] and s[b] among the values kept but s[a], of s[b]
    # among those but s[c] too, and of the rest
    ic, jb = c - (c > a), b - (b > a)
    ib = jb - (jb > ic)
    others_at = [j for j in range(fields - 1) if j not in (ic, jb)]
    stacks: dict[tuple, dict] = defaultdict(dict)
    for others, grids in table.slabs[oi].items():
        stacks[others[:ib] + others[ib + 1:]][others[ib]] = grids
    zero, plane = [0] * (width * width), width * width
    for rest, by_b in stacks.items():
        # s[b] runs over b0..b1-1: the stack's planes hold those lines only
        b0, b1 = min(by_b), max(by_b) + 1
        stacked = [list(chain.from_iterable(by_b[v][d] if v in by_b else zero
                                            for v in range(b0, b1))) for d in range(k - 1)]
        made: dict[int, list] = {}
        for p, row in enumerate(rows):
            d2, o2, terms, change, shifts, lo_at, end_at = row
            if not terms and not change:
                continue
            weights = made.get(id(terms))
            if weights is None:
                weights = made[id(terms)] = _combined(terms, stacked, 0, (b1 - b0) * plane)
            source = dropped = None
            times = mul if isinstance(change, int) else _times
            if change:
                source = table._cells_of(p, oi)
                by_dropped = source.by_dropped()
                dropped = list(chain.from_iterable(
                    by_dropped.get((*rest[:ib], v, *rest[ib:]), zero) for v in range(b0, b1)))
            # the child's others: the rest and the newest value, shifted
            kept = [rest[j] + shifts[at] for j, at in enumerate(others_at)]
            lift, into = shifts[ic], ic - (ic > jb)
            head, tail, base = kept[:into], kept[into:], (b0 + shifts[jb]) * wide
            bounds = [(bound, op, None if bound is None or bound == _MOVING else
                       -1 if bound == ic else -2 if bound == jb else rest[others_at.index(bound)])
                      for bound, op in ((lo_at, add), (end_at, sub))]
            child = slabs[o2]
            for newest in range(width):
                values = weights[newest::width]
                split = dropped[newest::width] if change else None
                if not any(values) and not (change and any(split)):
                    continue
                others2 = (*head, newest + lift, *tail)
                diff = (child.get(others2) or child.setdefault(others2, _new_slab(wide, k)))[d2]
                for bound, op, value in bounds:
                    part = values
                    if change and op is sub:
                        part = list(map(add, values, map(times, stacked[p][newest::width],
                                                         repeat(change))))
                    if bound == _MOVING:
                        # s[a] + 1: the plane's lines, each led by a 0
                        padded = padded_lines(part, width)
                        at = slice(base + 1, base + 1 + len(padded))
                        diff[at] = map(op, diff[at], padded)
                        continue
                    # 1 or n+2, the newest value, s[b] or another value, plus one
                    first = base + (width if bound is None and op is sub else 1 if bound is None
                                    else newest + 1 if value == -1 else b0 + 1 if value == -2
                                    else value + 1)
                    step = wide + (value == -2)
                    at = slice(first, first + (b1 - b0) * step, step)
                    diff[at] = map(op, diff[at], map(sum, zip(*[iter(part)] * width)))
                if change:
                    padded = padded_lines(list(map(times, split, repeat(change))), width)
                    at = slice(base + 1, base + 1 + len(padded))
                    diff[at] = map(add, diff[at], padded)
        for v, grids in by_b.items():
            others = (*rest[:ib], v, *rest[ib:])
            for p, row in enumerate(rows):
                if row[2] or row[3]:
                    blocks.setdefault(row[:2], []).append(
                        (o, others, grids, row, p, table._cells_of(p, oi) if row[3] else None))


def padded_lines(grid: list, width: int) -> list:
    """A grid's lines of `width` entries, each followed by a 0 but the last."""
    return list(chain.from_iterable(map(chain, zip(*[iter(grid)] * width), repeat((0,)))))[:-1]


def pull_window_of_two(table, plan):
    """`positive_dp.step_append_aggregated` on windows of length 2: a child
    keeps no value and drops its new entry i next, so its state is
    ((1,), (i,)), and the step walks the parent's cells, one piece over i."""
    from .positive_dp import StateTable

    _d2, _o2, terms, change, *_ = plan[1][0][0]
    n, grids = table.n, table.slabs[0].get((), [[0]])
    weights = pieces(1, n + 2, _combined(terms, [[sum(grids[0])]], 0, 1)[0], change,
                     *expanded(table._cells_of(0, 0)).get((), (1, ())))
    child = StateTable(n + 1, 2, {((1,), (i,)): w for i, w in enumerate(weights, 1) if w})
    child._plan = plan
    return child


def expanded(cells) -> dict:
    """A class's cells (`positive_dp._Class`) as key s -> (x0, ws), made
    once; the class then lets go of its blocks, and of the parent class a
    split row's blocks read."""
    if cells.found is None:
        spread: dict = defaultdict(dict)
        for s, x, w in cells.given:
            spread[s][x] = w
        found = {s: (min(ws), [ws.get(x, 0) for x in range(min(ws), max(ws) + 1)])
                 for s, ws in spread.items()}
        for block in cells.blocks:
            for rest, t, x0, lo, ls, end, es, values, split in columns(cells.n - 1, *block):
                size = len(values)
                # the entries first..last-1 lie on the key with new value i
                for i in range(lo, end + (size - 1) * es):
                    first = max(i - end + 1, 0) if es else 0 if i < end else size
                    last = min(i - lo + 1, size) if ls else size if lo <= i else 0
                    ws = values[first:last] if split is None else \
                        [split[r][i - lo - r * ls] for r in range(first, last)]
                    if any(ws):
                        found[(*rest[:t], i, *rest[t:])] = (x0 + first, ws)
        cells.found, cells.given, cells.blocks = found, (), ()
    return cells.found


def by_dropped(cells) -> dict:
    """`positive_dp._Class.by_dropped` read off a class's expanded cells."""
    width, o, found = cells.n + 2, cells.o, {}
    c = o[-1] - 1
    kept = [f for f in range(len(o)) if f not in (o[0] - 1, c)]
    for s, (x0, ws) in expanded(cells).items():
        weights = found.get(others := tuple(map(s.__getitem__, kept))) or \
            found.setdefault(others, [0] * width * width)
        at = slice(x0 * width + s[c], (x0 + len(ws)) * width, width)
        weights[at] = map(add, weights[at], ws)
    return found


def live(table) -> int:
    """The nonzero cells of a table, counted off its blocks once."""
    if table._live is not None:
        return table._live
    total = sum(1 for cells in table.given.values() for _s, _x, w in cells if w)
    for block in (block for found in table.blocks.values() for block in found):
        for _rest, _t, _x0, lo, ls, end, es, values, split in columns(table.n - 1, *block):
            if split:
                total += sum(sum(map(bool, weights)) for weights in split)
            elif ls == es:
                total += (end - lo) * sum(map(bool, values))
            else:
                total += sum(compress(range(end - lo, end - lo + len(values) * (es - ls),
                                            es - ls), values))
    table._live = total
    return total


class Cells(Mapping):
    """The flat (q, j) -> w view of a table's cells.  Its length is the live
    count; a lookup reads the view's own expansion (`items`), made by the
    first one."""

    def __init__(self, table):
        self._table = table
        self._found: dict | None = None

    def __len__(self) -> int:
        return live(self._table)

    def __getitem__(self, state):
        if self._found is None:
            self._found = dict(self.items())
        return self._found[state]

    def __iter__(self):
        return (state for state, _w in self.items())

    def items(self):
        table = self._table
        orders = all_patterns(table.k - 2)
        for d, oi in {*table.given, *table.blocks}:
            q = _suffix(orders[oi], d)
            for s, (x0, ws) in expanded(table._cells_of(d, oi)).items():
                for x, w in enumerate(ws, x0):
                    if w:
                        yield (q, (*s[:d], x, *s[d:])), w
