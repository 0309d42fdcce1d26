"""The positive engine's tables cell by cell, and its step on windows of two.

`positive_dp.step_append_aggregated` keeps each table's totals as grids and
its cells as the blocks of the step that wrote them, one per parent slab
and gap, from which `columns` reads the child cells column by column.
Only the tests, the benchmark's tracer and a step that walks a class of
cells its blocks cannot sum whole (`positive_dp._Class.by_dropped`) read
the cells: expanding a class (`expanded`), its totals by dropped value
from its cells (`by_dropped`), counting a table's live cells (`live`) and
the flat (q, j) -> w view (`Cells`).  Beside them is the step on windows
of two, whose keys keep no value (`pull_window_of_two`); longer windows
all run `positive_dp`'s one writer.  A process loads this module only
where it reads cells or steps windows of two.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from itertools import accumulate, compress, repeat
from operator import add, mul

from .patterns import all_patterns
from .positive_dp import _MOVING, _combined, _suffix, _times


def columns(n: int, o: tuple, others: tuple, grids: list, row: tuple, p: int, source,
            _combined_stack):
    """The columns of the child cells one slab of a size-n parent wrote in
    gap p, a block: per value of the newest field whose column over the
    oldest holds a nonzero total or, in a split row, cells, the child line
    `rest` with the new value i to insert at field t, x0, lo, ls, end, es,
    the column's weights and, in a split row, per entry its weights over i
    (`pieces`).  Entry r is the cell of drop value x0+r on the keys with
    lo + r*ls <= i < end + r*es.  The block's combined stack, which only
    `positive_dp._Class.by_dropped` reads, is not needed here."""
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
        values = _combined(terms, [col[lo_a:hi_a] for col in cols])
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


def pull_window_of_two(table, plan):
    """`positive_dp.step_append_aggregated` on windows of length 2: a child
    keeps no value and drops its new entry i next, so its state is
    ((1,), (i,)), and the step walks the parent's cells, one piece over i."""
    from .positive_dp import StateTable

    _d2, _o2, terms, change, *_ = plan[1][0][0]
    n, grids = table.n, table.slabs[0].get((), [[0]])
    weights = pieces(1, n + 2, _combined(terms, [[sum(grids[0])]])[0], change,
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
