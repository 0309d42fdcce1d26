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

The tables and the recurrence run on plain integers at one value of t.
Deep avoidance series use t = 0.  Polynomials come from a value that packs
them (see `weightring.Packing`): P_n(t) has nonnegative coefficients of at
most n!, so it is decoded from t = 2^B with B = bitlen(N!)+1; C_n(u) has
nonnegative coefficients of at most n!*2^(n-k+1) (a permutation with its
marked subset of at most n-k+1 occurrences), so it is decoded from u = 2^B
with B = bitlen(N!)+N-k+2.  The table functions still accept `WeightPoly`
weights, on which the tests compare them with the explicit extension.  Only
the functions that build polynomials import the weight ring, so an
avoidance series never loads it.

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
from itertools import accumulate, repeat
from operator import add

from .patterns import is_permutation, reduction, symmetry_class

def _check_pattern(p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(p)
    if len(p) < 2 or not is_permutation(p):
        raise ValueError(f"invalid pattern {p}")
    return p


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
    first ones merge src onto the shared values.  At a fresh key value v,
    summing E(w) C(v - w - 1, gap) over the last value w < v is a
    (gap+1)-fold running sum: gap+1 `accumulate` passes, the positive
    engine's idiom, over one {last value: weight} column per (key values,
    shared values ahead) group.  With `work`, work[0] grows by the partial
    placements of each step plus gap+1 per value a running sum passes,
    which is what `rank_orientations` compares.
    """
    shared, steps, order, mirrored = plan
    origin, sign = (n + 1, -1) if mirrored else (0, 1)
    layer: dict = {}
    for key, w in src.items():
        state = ((), 0, tuple([origin + sign * (key[i] + b) for i, b in shared] + [n + 1]))
        prev = layer.get(state)
        layer[state] = w if prev is None else prev + w
    for gap, is_shared, in_key, dist in steps:
        nxt: dict = {}
        passes = 0
        if is_shared:
            # always room below a shared value: fresh values stay dist short
            # of it, and bumps count the fresh ranks between shared ones
            for (vals, last, ahead), w in layer.items():
                v = ahead[0]
                state = (vals + (v,) if in_key else vals, v, ahead[1:])
                placed = w * math.comb(v - last - 1, gap) if gap else w
                prev = nxt.get(state)
                nxt[state] = placed if prev is None else prev + placed
        else:
            groups: dict = {}
            for (vals, last, ahead), w in layer.items():
                groups.setdefault((vals, ahead), {})[last] = w
            for (vals, ahead), column in groups.items():
                start, stop = min(column), ahead[0] - dist + 1
                if stop > start:
                    passes += stop - start
                sums = map(column.get, range(start, stop - gap - 1), repeat(0))
                for _ in range(gap + 1):
                    sums = accumulate(sums)
                for v, w in zip(range(start + gap + 1, stop), sums):
                    nxt[(vals + (v,), v, ahead)] = w
        if work is not None:
            work[0] += len(layer) + passes * (gap + 1)
        layer = nxt
    if not mirrored and order == tuple(range(len(order))):
        return {vals: w for (vals, _, _), w in layer.items()}
    return {tuple([origin + sign * vals[i] for i in order]): w for (vals, _, _), w in layer.items()}


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
    recent: dict[int, dict] = {}
    for n in range(k, N + 1):
        if n == k:
            table: dict = {p[k - M:]: u}
        else:
            merged: dict = {}
            for m in overlaps:
                src = recent.get(n - (k - m))
                if not src:
                    continue
                for key, w in _spread(src, _key_plan(p, m), n, work).items():
                    prev = merged.get(key)
                    merged[key] = w if prev is None else prev + w
            table = {key: w * u for key, w in merged.items()}
        recent[n] = table
        recent.pop(n - k + 1, None)
        yield n, table


def cluster_polys_shifted(p: Sequence[int], N: int) -> list[WeightPoly]:
    """C_0..C_N as polynomials in the shifted variable u = t - 1, decoded
    from their values at u = 2^B (`cluster_values`)."""
    from .weightring import packing_layout, unpack

    _check_depth(N)
    atoms = max(N - len(p) + 1, 0)
    layout = packing_layout(1, math.factorial(N) << atoms, atoms)
    return [unpack(c, layout) for c in cluster_values(p, N, layout.variable(0) + 1)]


def cluster_polys(p: Sequence[int], N: int) -> list[WeightPoly]:
    """C_0(t)..C_N(t): cluster weight enumerators in the plain t basis."""
    from .weightring import compose_shift

    return [compose_shift(c, -1) for c in cluster_polys_shifted(p, N)]


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
