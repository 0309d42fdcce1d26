"""Cluster-weighted counting: the inclusion-exclusion route to avoidance.

Expanding t^(number of occurrences) via t = (t-1)+1 turns the occurrence
enumerator P_n(t) into a sum over permutations with a marked subset of
occurrences, weighted (t-1) per mark.  Chopping the maximal overlapping
suffix chain of marks (the ending cluster) gives the recurrence

    P_n(t) = n*P_{n-1}(t) + sum_r C(n, r) * P_{n-r}(t) * C_r(t),

so everything reduces to C_n(t), the weight enumerator of clusters: chains
of pairwise-overlapping occurrences covering 1..n.

Clusters grow Markovianly.  A new atom shares m of its entries with the
last one, m in the pattern's overlap set, so with M the largest overlap
everything later depends only on the values of the last atom's last M
entries (the ranks p[k-M:]).  The table DP keys clusters by those M values,
each atom contributing one factor u = t - 1.  An extension marginalizes the
source table onto the m shared values and places the new key values; the
new atom's other values are not tracked but counted: between consecutive
specified (rank, value) points (r, v) and (r', v'), with sentinels (0, 0)
and (k+1, n+1), the unspecified ranks fit in C(v'-v-1, r'-r-1) ways; summed
over the previous value v, they make a fresh v' an (r'-r)-fold running sum,
in the umbral view a product with 1/(1-x)^(r'-r).  For patterns whose only
overlap is 1 the key is one value, at most n states.

An extension is thus a linear operator on columns indexed by a value, and
`_spread` applies it so: past the first new key value, the partial
placements are lists indexed by that value, one per group of the other
values, so a running sum adds whole columns, a shared value multiplies a
column by a binomial column, and the interpreter works once per group
rather than once per placement.  To n=100, the last steps of 2413's
spreads write 308,219 placements in 9,012 columns.

The tables and the recurrence run on plain integers at one value of t.
Deep avoidance series use t = 0.  Polynomials come from a value that packs
them (see `weightring.Packing`) at t = 2^B.  P_n(t) has nonnegative
coefficients of at most n!, so B = bitlen(N!)+1.  C_n(t) has signed ones,
read as balanced digits: with A = N-k+1, the a_j <= n!*C(A, j) clusters of
j atoms (a permutation and j window starts) give |c_i| <= sum_j a_j*C(j, i)
<= n!*C(A, i)*2^(A-i) <= n!*3^A, so B = bitlen(N!*3^A)+1.  The table
functions still accept `WeightPoly` weights, on which the tests compare them
with the explicit extension.  Only the functions that build polynomials
import the weight ring, so an avoidance series never loads it.

Every member of a pattern's symmetry class has the same cluster numbers,
but not the same tables: to n=200, 1423's tables hold 323,494 states and
take 134 times the `_spread` work of 3241's 19,495.  `rank_orientations`
probes each member at a shallow depth and orders them by the work their
tables took.

The explicit one-atom extension, the ending-cluster chop, the cluster
oracle and the identity checks that test these tables live with the tests
(`tests/reference.py`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import add, itemgetter, mul, or_, sub

from .patterns import _check_pattern, reduction, symmetry_class


def _check_depth(N: int) -> None:
    if N < 0:
        raise ValueError("N must be nonnegative")


@lru_cache(maxsize=None)
def _overlap_set(p: tuple[int, ...]) -> tuple[int, ...]:
    k = len(p)
    return tuple(
        m for m in range(1, k)
        if reduction(p[k - m:]) == reduction(p[:m])
    )


def overlap_set(p: Sequence[int]) -> tuple[int, ...]:
    """Overlap amounts m where the length-m suffix and prefix of p agree.

    Two consecutive atoms of a cluster can share exactly m entries only for
    m in this set.  m = 1 always qualifies.
    """
    return _overlap_set(_check_pattern(p))


@lru_cache(maxsize=None)
def _extension_slots(p: tuple[int, ...], m: int):
    """How a new atom's sorted values relate to the previous atom's.

    Returns (fixed, free): fixed lists (slot, source, bump) meaning the new
    atom's slot-th smallest value equals the old atom's source-th smallest
    plus bump, where bump counts the new values inserted below it.  free
    lists the slots filled by brand-new values.
    """
    k = len(p)
    shared = [p[l] for l in range(m)]
    free = tuple(sorted(set(range(1, k + 1)) - set(shared)))
    fixed = []
    for l in range(m):
        slot = p[l]
        source = p[k - m + l]
        bump = sum(1 for b in free if b < slot)
        fixed.append((slot, source, bump))
    return tuple(fixed), free


@lru_cache(maxsize=None)
def _key_plan(p: tuple[int, ...], m: int):
    """How an overlap-m extension places the new atom's key.

    The specified ranks of the new atom are its m shared ranks, the key
    ranks p[k-M:] and the sentinel k+1, which is shared with value n+1.
    They are walked upwards or, mirrored (rank r read as k+1-r, value v as
    n+1-v), downwards: whichever meets fewer fresh key values before the
    first shared one, as those multiply the partial placements without
    merging any.  Returns (shared, steps, order, mirrored): shared lists
    (i, bump) per shared rank in walking order, its value being the old
    key's i-th entry plus the count of fresh values below it; steps holds
    (gap, is_shared, in_key, dist) per specified rank, gap unspecified
    ranks lying between it and the previous one and a fresh value staying
    dist short of the next shared one; order[i] is the i-th key entry's
    place in walking order.
    """
    k, M = len(p), max(overlap_set(p))
    fixed, _free = _extension_slots(p, m)
    bumps = {slot: (M - m + l, b) for l, (slot, _s, b) in enumerate(fixed)}
    key_ranks = p[k - M:]
    plans = []
    for mirrored in (False, True):
        walked = sorted((k + 1 - r if mirrored else r, r) for r in {*bumps, *key_ranks})
        walked.append((k + 1, None))
        stops = [w for w, r in walked if r is None or r in bumps]
        steps = tuple((w - v - 1, r is None or r in bumps, r in key_ranks,
                       next((s for s in stops if s > w), w) - w)
                      for (v, _), (w, r) in zip([(0, None)] + walked, walked))
        keys = [r for _w, r in walked if r in key_ranks]
        plans.append((sum(w < stops[0] for w, _r in walked),
                       (tuple(bumps[r] for _w, r in walked if r in bumps), steps,
                        tuple(keys.index(r) for r in key_ranks), mirrored)))
    return min(plans, key=lambda plan: plan[0])[1]


def _spread(src: dict, plan, n: int, work: list | None = None) -> dict:
    """Key weights at length n reached from table `src` through one
    overlap (`_key_plan`), before the new atom's factor u.

    Each placement counts the ways to fit the unspecified ranks: the
    product of C(v' - v - 1, r' - r - 1) over consecutive specified (rank,
    value) points, from the sentinel (0, 0) up.  The walk keeps partial
    placements (key values so far, last value, shared values ahead); the
    first ones merge src onto the shared values.  Until the first key value
    is placed, they are held as one {last value: weight} column per shared
    values ahead.  From then on they are held as value-indexed columns
    (lo, weights, present) over the first key value x = lo, lo+1, ...: one
    per (other key values, last value, shared values ahead), or per (other
    key values, shared values ahead) while the last value is x itself.
    `present` marks the placements the walk reaches, zero weight or not,
    apart from the zeros that only pad a column to a common range.

    At a fresh key value v, summing E(w) C(v - w - 1, gap) over the last
    value w < v is a (gap+1)-fold running sum: gap+1 `accumulate` passes
    over a {last value: weight} column, or gap+1 running sums of whole
    columns over the groups that differ only in w.  Where w is x itself
    the sum has one term, and v takes the column below v - gap times the
    binomial column C(v - x - 1, gap).  A shared value multiplies a column
    by that binomial column, or by one binomial when w is not x.  With
    `work`, work[0] grows by the partial placements of each step plus
    gap+1 per value a running sum passes, each placement counted on its
    own, whatever column holds it; that is what `rank_orientations`
    compares.
    """
    shared, steps, order, mirrored = plan
    origin, sign = (n + 1, -1) if mirrored else (0, 1)
    aheads = zip(*[map(sub, repeat(n + 1 - b), map(itemgetter(i), src)) if mirrored
                   else map(add, map(itemgetter(i), src), repeat(b)) for i, b in shared],
                 repeat(n + 1))
    if len(shared) == len(order):  # every key value is shared: nothing merges
        merged = dict(zip(aheads, src.values()))
    else:
        merged = {}
        for ahead, w in zip(aheads, src.values()):
            prev = merged.get(ahead)
            merged[ahead] = w if prev is None else prev + w
    loose, flat = merged, True  # {ahead: weight} while every last value is 0
    steps = iter(steps)
    for gap, is_shared, in_key, dist in steps:
        size, passes = len(loose) if flat else sum(map(len, loose.values())), 0
        if is_shared:
            placed: dict = {}
            if flat:
                for ahead, w in loose.items():
                    v = ahead[0]
                    placed.setdefault(ahead[1:], {})[v] = w * math.comb(v - 1, gap) if gap else w
            else:
                for ahead, column in loose.items():
                    v = ahead[0]
                    placed.setdefault(ahead[1:], {})[v] = (
                        sum(w * math.comb(v - last - 1, gap) for last, w in column.items())
                        if gap else sum(column.values()))
            if in_key:
                columns = {((), ahead): _dense(column) for ahead, column in placed.items()}
        else:
            columns = {}
            for ahead, column in loose.items():
                if flat:
                    column = {0: column}
                start, stop = min(column), ahead[0] - dist + 1
                if stop > start:
                    passes += stop - start
                sums = map(column.get, range(start, stop - gap - 1), repeat(0))
                for _ in range(gap + 1):
                    sums = accumulate(sums)
                sums = list(sums)
                if sums:
                    columns[((), ahead)] = (start + gap + 1, sums, [True] * len(sums))
        if work is not None:
            work[0] += size + passes * (gap + 1)
        if in_key:
            break
        loose, flat = placed, False
    tied = True  # the last value is x itself
    for gap, is_shared, in_key, dist in steps:
        nxt: dict = {}
        passes = 0
        down = [math.comb(d, gap) for d in range(n, -1, -1)] if gap else ()  # C(n - i, gap) at i
        if is_shared:
            for group, (lo, ws, present) in columns.items():
                head, last, ahead = (group[0], None, group[1]) if tied else group
                v = ahead[0]
                if gap:
                    ws = list(map(mul, ws, down[n - v + lo + 1:] if tied
                                  else repeat(down[n - v + last + 1])))
                state = (head + (v,) if in_key else head, v, ahead[1:])
                prev = nxt.get(state)
                nxt[state] = (lo, ws, present) if prev is None else _add(prev, (lo, ws, present))
        elif tied:
            for (head, ahead), (lo, ws, present) in columns.items():
                stop = ahead[0] - dist + 1
                if work is not None:
                    passes += sum(compress(range(stop - lo, 0, -1), present))  # stop - x
                for v in range(lo + gap + 1, stop):
                    cut = v - gap - lo
                    part = list(map(mul, ws[:cut], down[n - v + lo + 1:])) if gap else ws[:cut]
                    nxt[(head + (v,), v, ahead)] = (lo, part, present[:cut])
        else:
            groups: dict = {}
            for (head, last, ahead), column in columns.items():
                groups.setdefault((head, ahead), []).append((last, column))
            for (head, ahead), members in groups.items():
                stop = ahead[0] - dist + 1
                if len(members) == 1:  # one last value w: its column times C(v - w - 1, gap)
                    (last, column), = members
                    lo, ws, present = column
                    if work is not None and stop > last:
                        passes += (stop - last) * sum(present)
                    for v in range(last + gap + 1, stop):
                        nxt[(head + (v,), v, ahead)] = (lo, list(map(
                            mul, ws, repeat(down[n - v + last + 1]))), present) if gap else column
                    continue
                members.sort(key=itemgetter(0))
                lo = min(column[0] for _, column in members)
                hi = max(column[0] + len(column[1]) for _, column in members)
                if work is not None:  # a value x passes from its least last value on
                    seen, before = [False] * (hi - lo), 0
                    for last, column in members:
                        if last >= stop:
                            break
                        seen = list(map(or_, seen, _padded(column, lo, hi)[1]))
                        now = sum(seen)
                        passes += (now - before) * (stop - last)
                        before = now
                sums = [[0] * (hi - lo) for _ in range(gap + 1)]
                seen = [False] * (hi - lo)
                pending = iter(members)
                last, column = next(pending)
                low, high = hi, lo  # the values some summed column holds
                for w in range(last, stop - gap - 1):
                    if w == last:
                        clo, ws, present = column
                        a, b = clo - lo, clo - lo + len(ws)
                        sums[0][a:b] = map(add, sums[0][a:b], ws)
                        seen[a:b] = map(or_, seen[a:b], present)
                        low, high = min(low, clo), max(high, clo + len(ws))
                        last, column = next(pending, (None, None))
                        summed = None
                    for i in range(1, gap + 1):
                        sums[i] = list(map(add, sums[i], sums[i - 1]))
                    if summed is None or gap:
                        summed = (low, sums[gap][low - lo:high - lo], seen[low - lo:high - lo])
                    v = w + gap + 1
                    nxt[(head + (v,), v, ahead)] = summed
        if work is not None:
            work[0] += sum(sum(present) for _, _, present in columns.values()) + passes * (gap + 1)
        columns, tied = nxt, False
    out: dict = {}
    for (head, _, _), (lo, ws, present) in columns.items():
        first = range(origin + sign * lo, origin + sign * (lo + len(ws)), sign)
        keys = zip(*[first if i == 0 else repeat(origin + sign * head[i - 1]) for i in order])
        out.update(zip(compress(keys, present), compress(ws, present)))
    return out


def _dense(column: dict) -> tuple:
    """A {value: weight} column as (lo, weights, present) over min..max."""
    lo, hi = min(column), max(column) + 1
    return lo, [column.get(x, 0) for x in range(lo, hi)], [x in column for x in range(lo, hi)]


def _padded(column: tuple, lo: int, hi: int) -> tuple[list, list]:
    """A column's weights and presence marks over lo..hi-1, zeros outside."""
    clo, ws, present = column
    before, after = [0] * (clo - lo), [0] * (hi - clo - len(ws))
    return before + ws + after, before + present + after


def _add(a: tuple, b: tuple) -> tuple:
    """Two columns of the same placements summed over the union of their values."""
    lo, hi = min(a[0], b[0]), max(a[0] + len(a[1]), b[0] + len(b[1]))
    (wa, pa), (wb, pb) = _padded(a, lo, hi), _padded(b, lo, hi)
    return lo, list(map(add, wa, wb)), list(map(or_, pa, pb))


def cluster_tables(p: Sequence[int], N: int, u,
                   work: list | None = None) -> Iterator[tuple[int, dict]]:
    """Yield (n, table) for n = k..N; tables map key values to weights.

    The key is the values of the last atom's last M = max(overlap_set(p))
    entries, in position order (ranks p[k-M:]): every later overlap shares
    only those entries.  Each table entry sums u^atoms over the clusters of
    length n with that key.  Pull-style: each length collects from its
    up-to-(k-1) predecessor lengths, one per admissible overlap m, and
    older tables are discarded.  A source table is first marginalized onto
    its last m key entries, which the new atom shares; these then spread
    over the new key's fresh values, weighted by the binomial count of the
    ranks left unspecified (`_spread`, which adds its work to `work`).
    """
    p = _check_pattern(p)
    k = len(p)
    overlaps = overlap_set(p)
    M = overlaps[-1]
    # at a packed t = 2^B, a product with u = 2^B - 1 is a shift and a subtraction: linear time
    shift = u.bit_length() if isinstance(u, int) and u > 0 and not u & (u + 1) else 0
    recent: dict[int, dict] = {}
    for n in range(k, N + 1):
        if n == k:
            table: dict = {p[k - M:]: u}
        else:
            table = {}
            for m in overlaps:
                src = recent.get(n - (k - m))
                if not src:
                    continue
                spread = _spread(src, _key_plan(p, m), n, work)
                if not table:
                    table = spread
                    continue
                for key, w in spread.items():
                    prev = table.get(key)
                    table[key] = w if prev is None else prev + w
            table = dict(zip(table, [(w << shift) - w for w in table.values()] if shift
                             else map(mul, table.values(), repeat(u))))
        recent[n] = table
        recent.pop(n - k + 1, None)
        yield n, table


def cluster_polys(p: Sequence[int], N: int) -> list[WeightPoly]:
    """C_0(t)..C_N(t) from their values at t = 2^B (`cluster_values`): with
    half = 2^(B-1) added to each digit C_n can fill, `unpack` reads them, and
    they must sum to half per digit, as C_n(1) = 0: every cluster has an atom."""
    from .weightring import PackingOverflow, WeightPoly, packing_layout, unpack

    _check_depth(N)
    atoms = max(N - len(p) + 1, 0)
    layout = packing_layout(1, math.factorial(N) * 3 ** atoms, atoms)
    t = layout.variable(0)
    half = t >> 1
    offset = half * (t ** (atoms + 1) - 1) // (t - 1)  # half in each of A+1 digits
    polys = []
    for n, c in enumerate(cluster_values(p, N, t)):
        top = max(n - len(p) + 1, 0)  # C_n has at most n-k+1 atoms, so top+1 digits
        digits = unpack(c + (offset >> layout.bits * (atoms - top)), layout)
        ones = sum(d for _, d in digits.items()) - (top + 1) * half
        if ones:
            raise PackingOverflow(f"C_{n}(1) = {ones}, expected 0: "
                                  f"{layout.bits} bits per coefficient overflowed")
        polys.append(WeightPoly(1, {e: d - half for e, d in digits.items()}))
    return polys


def cluster_values(p: Sequence[int], N: int, t_value) -> list:
    """C_0(t0)..C_N(t0) at a fixed exact t0, computed without polynomials."""
    _check_depth(N)
    u = t_value - 1
    out = [0] * (N + 1)
    if u == 0:
        return out
    for n, table in cluster_tables(p, N, u):
        out[n] = sum(table.values())
    return out


def assemble_counts(p: Sequence[int], N: int, t_value=None) -> list:
    """P_0..P_N from the cluster enumerators via the chopping recurrence.

    t is specialized first and everything stays in exact integers (or
    Fractions), which is how long avoidance series are computed.  With
    t_value=None the full polynomials are produced: the recurrence runs at
    t = 2^B and each term is decoded, with P_n(1) = n! checked.
    """
    p = _check_pattern(p)
    _check_depth(N)
    if t_value is not None:
        return _chop(cluster_values(p, N, t_value), len(p))
    from .weightring import packing_layout, unpack

    layout = packing_layout(1, math.factorial(N), max(N - len(p) + 1, 0))
    terms = _chop(cluster_values(p, N, layout.variable(0)), len(p))
    return [unpack(v, layout, math.factorial(n)) for n, v in enumerate(terms)]


def _chop(C: Sequence, k: int) -> list:
    """P_0..P_N at one value of t from C_0..C_N there: the chopping
    recurrence, on one Pascal row rolled forward per size, nothing cached."""
    terms, row = [1], [1]
    for n in range(1, len(C)):
        val = n * terms[n - 1]
        row = [1, *map(add, row, row[1:]), 1]
        for r in range(k, n + 1):
            c = C[r]
            if c:
                val = val + row[r] * (terms[n - r] * c)
        terms.append(val)
    return terms


# -- orientation --------------------------------------------------------------

def rank_orientations(p: Sequence[int], N: int) -> list[tuple]:
    """Every member q of p's symmetry class as (work, q, counts), cheapest
    to run first.

    Each member's tables are built to d = min(N, 2k+3) at t = 0; work
    counts what `_spread` did for them, layer entries and running-sum
    passes alike, and counts holds the avoidance counts a_0..a_d they give.
    Table sizes alone would tie 2314 with 3241, which takes 21 times less
    work to n=200.  Deeper probes rank the classes of length 4-6 little
    better, and at length 6 they cost more than the better order saves.

    Ties in work go to the lexicographically smaller member, so the order
    is the same on every run.  All members must give the same counts;
    callers compare them.
    """
    p = _check_pattern(p)
    _check_depth(N)
    k = len(p)
    depth = min(N, 2 * k + 3)
    ranked = []
    for q in symmetry_class(p):
        work = [0]
        clusters = [0] * (depth + 1)
        for n, table in cluster_tables(q, depth, -1, work):
            clusters[n] = sum(table.values())
        ranked.append((work[0], q, _chop(clusters, k)))
    return sorted(ranked)
