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
and `StateTable.groups[o, s][d][x]` holds the weight of the state whose
oldest entry has drop index d (its rank minus one) and value x.

Two step implementations are provided.  `step_append` loops over every child
rank i and is the reference.  `step_append_aggregated` pulls each child from
its one group of parents: every parent adds its factor times its weight, and
the factor changes only with whether the dropped value lies below the new
entry.  Per group and gap, one fixed sum covers the other gaps and a running
sum over the dropped values covers the gap itself.  Each child is written
straight into its own group of the next table, so a level costs one pass
over the groups and one write per child.  The two must agree exactly on
every input.

The steps are generic over the weight ring: integers, or `WeightPoly` for
the tests and the reference runs.  `enumerate_series` runs tracked queries on
plain integers: it packs each factor once (`PackedAssignment`) and decodes
each term at readout.  Every cell weight is a polynomial with nonnegative
coefficients of at most n! (it counts permutations by occurrences), and a
tracked pattern of length m occurs at most n-m+1 times, so B = bitlen(N!)+1
bits per coefficient and stride D = N-m+2 decode every term exactly.
The packed width grows like D^v in the number v of tracked variables, the
sparse polynomial only like D^v/v!, so above `PACKED_VARIABLES_MAX` tracked
variables the table keeps `WeightPoly` weights instead.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from collections.abc import Iterable, Mapping, Sequence
from functools import partial

from .permcore import all_patterns, is_permutation, occurrences, reduction
from .weightring import (
    PatternAssignment,
    WeightPoly,
    as_weight_poly,
    pack,
    packing_layout,
    unpack,
)

State = tuple[tuple[int, ...], tuple[int, ...]]

# Most tracked variables packed into one integer.  A layout for exponents up
# to E spans (E+1)^v digits, while the polynomial has at most C(E+v, v)
# terms, about v! times fewer.  Up to three variables the packed table is
# still the smaller and faster one (a digit costs B bits, a sparse term about
# 200 bytes); from four on it takes several times the memory of the sparse
# table for at most a 2.5x gain in time, and from six on it is slower too.
PACKED_VARIABLES_MAX = 3


def _new_groups() -> defaultdict:
    return defaultdict(partial(defaultdict, dict))


def _suffix(o: tuple, d: int) -> tuple:
    """The suffix order whose oldest entry has rank d+1 and whose rest reduces to o."""
    return (d + 1,) + tuple(r + 1 if r > d else r for r in o)


class StateTable:
    """Weights of all permutations of size n, grouped by suffix state.

    A state (q, j) is stored under what it keeps on the next append:
    `groups[o, s][d][x] = w`, where d = q[0]-1 is the drop index, x = j[d]
    the value dropped next, and o = reduction(q[1:]) and s (j without x) the
    retained order and values.  `cells` is the flat (q, j) -> w view.
    """

    def __init__(self, n: int, k: int, cells):
        groups = _new_groups()
        for (q, j), w in cells.items():
            d = q[0] - 1
            groups[reduction(q[1:]), j[:d] + j[d + 1:]][d][j[d]] = w
        self.n, self.k, self.groups = n, k, groups

    @classmethod
    def _from_groups(cls, n: int, k: int, groups) -> StateTable:
        table = cls.__new__(cls)
        table.n, table.k, table.groups = n, k, groups
        return table

    @property
    def cells(self) -> Mapping[State, object]:
        return _Cells(self.groups)

    def weight_sum(self, assignment):
        """Sum of all cell weights, with any suffix factors applied.

        A suffix factor depends only on q, that is on (o, d), so the weights
        are added up per (o, d) and each sum gets its factor once.
        """
        sums: dict[tuple, list] = {}
        for (o, _s), group in self.groups.items():
            acc = sums.get(o)
            if acc is None:
                acc = sums[o] = [0] * (self.k - 1)
            for d, dropped in group.items():
                acc[d] = acc[d] + sum(dropped.values())
        total = 0
        for o, acc in sums.items():
            for d, t in enumerate(acc):
                f = assignment.suffix_factor(_suffix(o, d))
                if f != 0:
                    total = total + (t if f == 1 else f * t)
        return total

    def total(self, assignment) -> WeightPoly:
        """`weight_sum` as a polynomial."""
        return as_weight_poly(self.weight_sum(assignment), assignment.nvars)


class _Cells(Mapping):
    """The flat (q, j) -> w view of a table's groups."""

    def __init__(self, groups):
        self._groups = groups

    def __len__(self) -> int:
        return sum(len(dropped) for group in self._groups.values() for dropped in group.values())

    def __getitem__(self, state: State):
        q, j = state
        d = q[0] - 1
        group = self._groups.get((reduction(q[1:]), j[:d] + j[d + 1:]))
        dropped = {} if group is None else group.get(d, {})
        return dropped[j[d]]

    def __iter__(self):
        return (state for state, _w in self.items())

    def items(self):
        for (o, s), group in self._groups.items():
            for d, dropped in group.items():
                q = _suffix(o, d)
                for x, w in dropped.items():
                    yield (q, s[:d] + (x,) + s[d:]), w


class PackedAssignment:
    """An assignment's factors packed into plain integers, for sizes up to N.

    Wraps an assignment with tracked patterns.  When every factor is 1 at
    t = 1 (nothing is forbidden), every term must have P_n(1) = n!, which
    catches too few bits per coefficient.
    """

    def __init__(self, assignment, N: int):
        k = assignment.k
        self.nvars = assignment.nvars
        shortest = min(len(p) for p in assignment.tracked)
        self.layout = packing_layout(self.nvars, math.factorial(N),
                                     max(N - shortest + 1, 0))
        factors = {p: assignment.factor(p) for p in all_patterns(k)}
        suffix_factors = {q: assignment.suffix_factor(q) for q in all_patterns(k - 1)}
        self.factors = {p: pack(f, self.layout) for p, f in factors.items()}
        self.suffix_factors = {q: pack(f, self.layout) for q, f in suffix_factors.items()}
        ones = [1] * self.nvars
        self.conserves_mass = all(
            as_weight_poly(f, self.nvars).evaluate(ones) == 1
            for f in itertools.chain(factors.values(), suffix_factors.values()))

    def factor(self, pattern: tuple) -> int:
        return self.factors[pattern]

    def suffix_factor(self, suffix: tuple) -> int:
        return self.suffix_factors[suffix]

    def total(self, table: StateTable) -> WeightPoly:
        """The polynomial packed in a table's weight sum."""
        mass = math.factorial(table.n) if self.conserves_mass else None
        return unpack(table.weight_sum(self), self.layout, mass)


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


def _pull_plan(k: int, factor) -> dict:
    """Per retained order o and gap p: the child's group and window factors.

    A parent dropping its oldest entry, of rank d+1, keeps the order o.  A
    child whose new entry lands in gap p of the retained values has suffix
    q2 = o with rank p+1 appended, so it drops index d2 = q2[0]-1 next and
    keeps the order o2 = reduction(q2[1:]).  Its window factor is fixed by
    d, except that for d = p it moves by `change` once the new entry passes
    the dropped value.  Drop indices whose fixed factor is 0 are left out.
    """
    m = k - 1
    plan = {}
    for o in all_patterns(m - 1):
        parents = [_suffix(o, d) for d in range(m)]
        plan[o] = []
        for p in range(m):
            # the dropped value is below the new entry exactly when d < p
            fixed = [(d, factor(_with_rank(parents[d], p + (d < p)))) for d in range(m)]
            below = factor(_with_rank(parents[p], p + 1))
            q2 = _with_rank(o, p)
            plan[o].append((q2[0] - 1, reduction(q2[1:]), [(d, f) for d, f in fixed if f],
                            below - fixed[p][1]))
    return plan


def step_append_aggregated(table: StateTable, assignment) -> StateTable:
    """Same contract as `step_append`, pulled from retained-value groups.

    A child of the group (o, s) comes from no other group, so it is written
    once, straight into its own group: the fixed factors times the group's
    totals per drop index, plus a running sum over the parents whose dropped
    value lies in its own gap.  In gap p the child's values are
    s[:p] + (i,) + (s[p:] shifted up), so all but the new entry's i are
    fixed per gap: the value x2 it drops next, and the retained values
    around i.
    """
    n, k = table.n, table.k
    plan = _pull_plan(k, assignment.factor)
    groups = _new_groups()
    for (o, s), group in table.groups.items():
        totals = {d: sum(dropped.values()) for d, dropped in group.items()}
        up = tuple([v + 1 for v in s])
        bounds = s + (n + 1,)
        lo = 1
        for p, (d2, o2, fixed, change) in enumerate(plan[o]):
            hi = bounds[p]
            value = 0
            for d, f in fixed:
                t = totals.get(d)
                if t is not None:
                    value = value + (t if f == 1 else f * t)
            if d2 < p:
                x2 = s[d2]
                head, tail = s[:d2] + s[d2 + 1:p], up[p:]
            elif d2 > p:
                x2 = s[d2 - 1] + 1
                head, tail = s[:p], up[p:d2 - 1] + up[d2:]
            else:  # k = 2: the new entry is the whole suffix, dropped next
                x2 = None
                head = tail = ()
            # split the gap at its dropped values, where the window factor moves
            dropped = group.get(p) if change else None
            cuts = sorted(dropped) if dropped else []
            cuts.append(hi)
            for x in cuts:
                if value:
                    if x2 is None:
                        into = groups[o2, ()][d2]
                        for i in range(lo, x + 1):
                            into[i] = value
                    else:
                        for i in range(lo, x + 1):
                            groups[o2, head + (i,) + tail][d2][x2] = value
                if x < hi:
                    value = value + (dropped[x] if change == 1 else change * dropped[x])
                lo = x + 1
    return StateTable._from_groups(n + 1, k, groups)


def enumerate_series(k: int, assignment, N: int) -> list[WeightPoly]:
    """Weighted counts of S_0..S_N, one window factor per length-k window.

    Sizes below k-1 carry no window at all, so their term is n!.  From size
    k-1 on, the table evolves one append at a time and each term is the sum
    of the live cells.  With tracked variables the table holds packed
    integers, and each term is decoded from its sum, unless more than
    `PACKED_VARIABLES_MAX` variables would make them outgrow the polynomials.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    out = []
    fact = 1
    for n in range(min(N, k - 2) + 1):
        out.append(as_weight_poly(fact, assignment.nvars))
        fact *= n + 1
    if N >= k - 1:
        if 0 < assignment.nvars <= PACKED_VARIABLES_MAX:
            assignment = PackedAssignment(assignment, N)
            readout = assignment.total
        else:
            readout = lambda table: table.total(assignment)
        table = init_table(k)
        out.append(readout(table))
        while table.n < N:
            table = step_append_aggregated(table, assignment)
            out.append(readout(table))
    return out


# -- mixed-length pattern families --------------------------------------------

class LiftedAssignment:
    """Window factors for patterns of mixed lengths, lifted to the longest.

    A shorter pattern occurs at a window start s either with s+k-1 <= n, in
    which case it is the prefix of exactly one full-length window and its
    factor is folded into that window's pattern, or inside the last k-1
    entries, which `suffix_factor` charges at readout time.  Either way each
    occurrence is counted exactly once at every size.
    """

    def __init__(self, avoid: Iterable = (), tracked: Sequence = ()):
        self.avoid = tuple(tuple(p) for p in avoid)
        self.tracked = tuple(tuple(p) for p in tracked)
        pats = self.avoid + self.tracked
        if not pats:
            raise ValueError("no patterns to lift")
        for p in pats:
            if len(p) < 2 or not is_permutation(p):
                raise ValueError(f"invalid pattern {p}")
        if len(set(self.tracked)) != len(self.tracked):
            raise ValueError("duplicate tracked pattern")
        if set(self.avoid) & set(self.tracked):
            raise ValueError("a pattern cannot be both forbidden and tracked")
        self.k = max(len(p) for p in pats)
        self.nvars = len(self.tracked)
        self._vars = {p: WeightPoly.variable(i, self.nvars)
                      for i, p in enumerate(self.tracked)}
        self._factors: dict[tuple, object] = {}
        self._suffix: dict[tuple, object] = {}

    def factor(self, pattern: tuple):
        f = self._factors.get(pattern)
        if f is None:
            f = 1
            for p in self.avoid:
                if reduction(pattern[:len(p)]) == p:
                    f = 0
                    break
            else:
                for p in self.tracked:
                    if reduction(pattern[:len(p)]) == p:
                        f = f * self._vars[p]
            self._factors[pattern] = f
        return f

    def suffix_factor(self, suffix: tuple):
        """Factor from shorter-pattern windows inside the retained suffix."""
        f = self._suffix.get(suffix)
        if f is None:
            f = 1
            for p in itertools.chain(self.avoid, self.tracked):
                if len(p) >= self.k:
                    continue
                hits = len(occurrences(suffix, p))
                if hits:
                    if p in self._vars:
                        f = f * self._vars[p] ** hits
                    else:
                        f = 0
                        break
            self._suffix[suffix] = f
        return f


def build_assignment(avoid: Iterable = (), track: Sequence = ()):
    """Plain assignment when all patterns share one length, lifted otherwise."""
    avoid = [tuple(p) for p in avoid]
    track = [tuple(p) for p in track]
    pats = avoid + track
    if not pats:
        raise ValueError("no patterns given")
    lengths = {len(p) for p in pats}
    if len(lengths) == 1:
        return PatternAssignment(lengths.pop(), zero=avoid, tracked=track)
    return LiftedAssignment(avoid, track)


def _direct_mixed_enum(avoid, track, n: int, nvars: int) -> WeightPoly:
    # tiny sizes only (n below k-1); the table has no cells there
    total = WeightPoly.zero(nvars)
    for pi in itertools.permutations(range(1, n + 1)):
        term: object = 1
        dead = False
        for p in avoid:
            if occurrences(pi, p):
                dead = True
                break
        if dead:
            continue
        for idx, p in enumerate(track):
            hits = len(occurrences(pi, p))
            if hits:
                term = term * WeightPoly.variable(idx, nvars) ** hits
        total = total + term
    return total


def enumerate_for_patterns(avoid: Iterable = (), track: Sequence = (),
                           N: int = 0) -> list[WeightPoly]:
    """Series for an arbitrary pattern family, avoided and tracked mixed.

    Same-length families go straight to `enumerate_series`.  Mixed-length
    families use the lifted assignment; sizes below k-1, where windows of
    the shorter patterns already exist but the table does not, fall back to
    direct enumeration (at most (k-2)! permutations).
    """
    assignment = build_assignment(avoid, track)
    series = enumerate_series(assignment.k, assignment, N)
    if isinstance(assignment, LiftedAssignment):
        avoid_t = assignment.avoid
        track_t = assignment.tracked
        for n in range(min(N, assignment.k - 2) + 1):
            series[n] = _direct_mixed_enum(avoid_t, track_t, n, assignment.nvars)
    return series
