"""The reference side of the tests: the naive forms of each engine.

Nothing in the package imports this module.  It holds the code that exists
only to validate the engines, so it stays independent of them:

- `weight_monomial`, the window-pattern counts of one permutation;
- the cluster oracle (`brute_cluster_enum`), which grows every cluster as
  an explicit permutation and refuses sizes above its own cap;
- the per-rank positive step (`step_append`, `append_transition`,
  `state_of`) that `positive_dp.step_append_aggregated` must agree with;
- the explicit cluster extension (`extend_cluster`) and ending-cluster
  chop (`split_ending_cluster`) behind `cluster_dp`'s tables and recurrence;
- the cluster tables built one partial placement at a time
  (`cluster_tables_by_entry` on `_spread`), against which the
  value-indexed columns of `cluster_dp._spread` are checked;
- the identity F = 1/(1 - z - G) on computed series, and the cluster
  recurrence of the monotone patterns (`monotone_cluster_series`);
- the window-pair counts behind the second moments and the two-atom check
  (`window_pairs`), as linear extensions by a subset DP;
- `pack`, a polynomial's value at a packing layout's point;
- the cluster enumerators in the shifted variable u = t - 1
  (`cluster_polys_shifted`, decoded at a packed u) and Horner's rule
  in the polynomial ring (`compose_shift`), which moves them to t:
  `cwilf.cluster_dp.cluster_polys` decodes C_n(t) directly.

The brute-force enumerators that a command runs (`brute_weight_enum`,
`brute_avoider_count`) stay in `cwilf.permcore`.  An engine's internals are
imported only where a function here builds that engine's objects.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import accumulate, repeat

from cwilf.patterns import (
    _check_pattern,
    _refuse_above_cap,
    format_pattern,
    is_permutation,
    occurrences,
    reduction,
)
from cwilf.weightring import Packing, WeightPoly

DEFAULT_CLUSTER_CAP = 9


def weight_monomial(pi: Sequence[int], k: int) -> dict[tuple[int, ...], int]:
    """Occurrence counts of every length-k pattern among adjacent windows.

    The multiset of window reductions of pi; counts sum to max(n-k+1, 0).
    """
    if k < 2:
        raise ValueError("window length must be at least 2")
    pi = tuple(pi)
    counts: dict[tuple[int, ...], int] = {}
    for i in range(len(pi) - k + 1):
        pat = reduction(pi[i:i + k])
        counts[pat] = counts.get(pat, 0) + 1
    return counts


# -- clusters -----------------------------------------------------------------

class ClusterWitness(namedtuple("ClusterWitness", "perm atoms pattern")):
    """A permutation with a covering chain of overlapping pattern windows.

    Atoms are window start positions, strictly increasing, each an
    occurrence of the pattern; consecutive windows overlap and together
    they cover every position.  Immutable and hashable; the constructor
    validates.
    """
    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], atoms: tuple[int, ...],
                pattern: tuple[int, ...]):
        n = len(perm)
        k = len(pattern)
        if not is_permutation(perm):
            raise ValueError("perm is not a permutation")
        if not atoms:
            raise ValueError("a cluster needs at least one atom")
        occ = set(occurrences(perm, pattern))
        prev = None
        for s in atoms:
            if s not in occ:
                raise ValueError(f"start {s} is not an occurrence")
            if prev is not None:
                if s <= prev:
                    raise ValueError("atoms must be strictly increasing")
                if s > prev + k - 1:
                    raise ValueError("consecutive atoms must overlap")
            prev = s
        if atoms[0] != 1 or atoms[-1] + k - 1 != n:
            raise ValueError("atom windows must cover positions 1..n")
        return super().__new__(cls, perm, atoms, pattern)


def iter_cluster_witnesses(n: int, p: Sequence[int]) -> Iterator[ClusterWitness]:
    """Grow every cluster of length n by repeatedly attaching one atom.

    Extension search over explicit permutations: each step picks an overlap
    amount m, a set of new values, and an arrangement of them, keeping only
    candidates whose final window reduces to the pattern.  Each cluster is
    produced exactly once since chopping its last atom is deterministic.
    """
    p = _check_pattern(p)
    k = len(p)
    if n < k:
        return
    stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [(p, (1,))]
    while stack:
        perm, atoms = stack.pop()
        length = len(perm)
        if length == n:
            yield ClusterWitness(perm, atoms, p)
            continue
        for m in range(1, k):
            new_len = length + k - m
            if new_len > n:
                continue
            for new_vals in itertools.combinations(range(1, new_len + 1), k - m):
                taken = set(new_vals)
                old_ranks = [x for x in range(1, new_len + 1) if x not in taken]
                shifted = tuple(old_ranks[v - 1] for v in perm)
                for arr in itertools.permutations(new_vals):
                    cand = shifted + arr
                    if reduction(cand[new_len - k:]) == p:
                        stack.append((cand, atoms + (new_len - k + 1,)))


def brute_cluster_enum(n: int, p: Sequence[int], cap: int | None = None) -> WeightPoly:
    """Weight enumerator of length-n clusters, (t-1) per atom, in the t basis."""
    _refuse_above_cap(n, DEFAULT_CLUSTER_CAP if cap is None else cap)
    by_atoms: dict[int, int] = {}
    for w in iter_cluster_witnesses(n, p):
        r = len(w.atoms)
        by_atoms[r] = by_atoms.get(r, 0) + 1
    t_minus_1 = WeightPoly(1, {(1,): 1, (0,): -1})
    total = WeightPoly.zero(1)
    for r, count in by_atoms.items():
        total = total + count * t_minus_1 ** r
    return total


def monotone_cluster_series(k: int, N: int) -> list[WeightPoly]:
    """C_0(u)..C_N(u) of the monotone pattern 12...k (and k...1), u = t - 1.

    Every cluster of a monotone pattern is the identity, and consecutive
    atoms may overlap by any m in 1..k-1 (Elizalde-Noy), so chopping the
    last atom gives C_k = u and C_n = u * sum_{m=1..k-1} C_{n-k+m}.
    """
    u = WeightPoly.variable(0, 1)
    zero = WeightPoly.zero(1)
    C = [zero] * (N + 1)
    for n in range(k, N + 1):
        C[n] = u if n == k else u * sum(C[n - k + 1:n], zero)
    return C


# -- the positive engine, one rank at a time ------------------------------------

def state_of(pi: Sequence[int], k: int):
    """The suffix state of an explicit permutation."""
    pi = tuple(pi)
    if len(pi) < k - 1:
        raise ValueError("permutation shorter than k-1")
    tail = pi[len(pi) - (k - 1):]
    return reduction(tail), tuple(sorted(tail))


def append_transition(state, n: int, i: int, assignment):
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


def step_append(table, assignment):
    """Reference step: every cell spawns one child per rank i in 1..n+1."""
    from cwilf.positive_dp import StateTable

    n = table.n
    cells: dict = {}
    for state, w in table.cells.items():
        for i in range(1, n + 2):
            new_state, f = append_transition(state, n, i, assignment)
            if f == 0:
                continue
            contrib = w if f == 1 else w * f
            prev = cells.get(new_state)
            cells[new_state] = contrib if prev is None else prev + contrib
    return StateTable(n + 1, table.k, {s: w for s, w in cells.items() if w})


# -- the cluster engine, one explicit extension at a time ------------------------

def _completions(fixed_vals: dict[int, int], k: int, max_val: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing k-tuples in [1, max_val] extending fixed_vals."""
    next_fixed = [None] * (k + 2)
    upcoming = None
    for pos in range(k, 0, -1):
        next_fixed[pos] = upcoming
        if pos in fixed_vals:
            upcoming = pos
    acc: list[int] = []

    def rec(pos: int, prev: int):
        if pos > k:
            yield tuple(acc)
            return
        fixed = fixed_vals.get(pos)
        if fixed is not None:
            if fixed <= prev or fixed > max_val:
                return
            acc.append(fixed)
            yield from rec(pos + 1, fixed)
            acc.pop()
            return
        hi = max_val - (k - pos)
        nf = next_fixed[pos]
        if nf is not None:
            hi = min(hi, fixed_vals[nf] - (nf - pos))
        for v in range(prev + 1, hi + 1):
            acc.append(v)
            yield from rec(pos + 1, v)
            acc.pop()

    yield from rec(1, 0)


def extend_cluster(state: Sequence[int], n: int, m: int,
                   p: Sequence[int]) -> list[tuple[int, ...]]:
    """All last-atom value tuples reachable by attaching one atom.

    The new atom shares its first m positions with the old atom's last m;
    its remaining values may sit anywhere that keeps the new window an
    occurrence.  Each returned tuple is one cluster extension; on the full
    sorted state, this is the reference for `cluster_dp.cluster_tables`.
    """
    from cwilf.cluster_dp import _extension_slots, overlap_set

    p = _check_pattern(p)
    k = len(p)
    if m not in overlap_set(p):
        raise ValueError(f"overlap {m} is not admissible for {format_pattern(p)}")
    state = tuple(state)
    if len(state) != k or any(state[i] >= state[i + 1] for i in range(k - 1)) \
            or state[0] < 1 or state[-1] > n:
        raise ValueError(f"invalid cluster state {state} at length {n}")
    target_n = n + k - m
    fixed, _free = _extension_slots(p, m)
    fixed_vals = {slot: state[src - 1] + bump for slot, src, bump in fixed}
    return list(_completions(fixed_vals, k, target_n))


def split_ending_cluster(pi: Sequence[int], starts: Sequence[int],
                         p: Sequence[int]):
    """Chop the maximal overlapping suffix chain of marked occurrences.

    Given a permutation and marked occurrence starts of p whose last window
    ends at the last position, returns (remainder values, remainder starts,
    ending-cluster starts).  The remainder keeps its original values; the
    ending cluster's windows occupy a contiguous final block.
    """
    pi = tuple(pi)
    p = _check_pattern(p)
    k = len(p)
    starts = tuple(starts)
    if not starts:
        raise ValueError("no marked occurrences")
    occ = set(occurrences(pi, p))
    for s in starts:
        if s not in occ:
            raise ValueError(f"start {s} is not an occurrence")
    if any(a >= b for a, b in zip(starts, starts[1:])):
        raise ValueError("starts must be strictly increasing")
    if starts[-1] + k - 1 != len(pi):
        raise ValueError("last marked window must end at the last position")
    i = len(starts) - 1
    while i > 0 and starts[i] - starts[i - 1] <= k - 1:
        i -= 1
    ending = starts[i:]
    remainder = pi[:ending[0] - 1]
    return remainder, starts[:i], ending


# -- cluster tables, one entry per partial placement --------------------------

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


def cluster_tables_by_entry(p: Sequence[int], N: int, u,
                            work: list | None = None) -> Iterator[tuple[int, dict]]:
    """`cwilf.cluster_dp.cluster_tables` on the entry-by-entry `_spread`
    above: the same pull over the admissible overlaps, each source table
    spread one partial placement at a time."""
    from cwilf.cluster_dp import _key_plan, overlap_set

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


# -- identity checks -----------------------------------------------------------

def _t_coeffs(w) -> dict[int, int]:
    if isinstance(w, WeightPoly):
        if w.nvars == 0:
            v = w.constant_value()
            return {0: v} if v else {}
        if w.nvars != 1:
            raise ValueError("expected a univariate term")
        return {e[0]: c for e, c in w.items()}
    return {0: w} if w else {}


class EgfReport(namedtuple("EgfReport", "order residuals")):
    """Per-order residuals of F * (1 - z - G) - 1, exact rationals."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(not r for r in self.residuals)


def egf_identity_check(P: Sequence, C: Sequence, N: int) -> EgfReport:
    """Check that the count and cluster series satisfy F = 1/(1 - z - G).

    F and G are the exponential generating functions of P_n(t) and C_n(t);
    the product F*(1 - z - G) must be exactly 1 through order N.
    """
    if len(P) < N + 1 or len(C) < N + 1:
        raise ValueError("series too short for requested order")
    from fractions import Fraction

    f = []
    h = []
    for n in range(N + 1):
        inv = Fraction(1, math.factorial(n))
        f.append({e: c * inv for e, c in _t_coeffs(P[n]).items()})
        hn = {e: -c * inv for e, c in _t_coeffs(C[n]).items()}
        if n == 0:
            hn[0] = hn.get(0, Fraction(0)) + 1
        elif n == 1:
            hn[0] = hn.get(0, Fraction(0)) - 1
        h.append({e: c for e, c in hn.items() if c})
    residuals = []
    for n in range(N + 1):
        acc: dict[int, Fraction] = {}
        for i in range(n + 1):
            fi, hj = f[i], h[n - i]
            if not fi or not hj:
                continue
            for e1, c1 in fi.items():
                for e2, c2 in hj.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        if n == 0:
            acc[0] = acc.get(0, Fraction(0)) - 1
        residuals.append({e: c for e, c in acc.items() if c})
    return EgfReport(N, residuals)


# -- window pairs -----------------------------------------------------------------

def window_pairs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(L, e) per offset d = -(k_b-1)..k_a-1 of a b-window from an a-window
    that meets it: L entries spanned, and e orders of the span in which
    both windows reduce to their patterns (`cwilf.weightring._window_pairs`).

    e counts the linear extensions of the two windows' orders by a DP over
    the sets of positions that hold the smallest values, at most 2^L of
    them for L <= k_a+k_b-1; neither engine is involved.
    """
    ka, kb = len(a), len(b)
    out = []
    for d in range(1 - kb, ka):
        lo = min(0, d)
        L = max(ka, d + kb) - lo
        below = [0] * L  # below[x]: the positions whose values must be smaller than x's
        for p, start in ((a, -lo), (b, d - lo)):
            for i, v in enumerate(p):
                for j, w in enumerate(p):
                    if w < v:
                        below[start + i] |= 1 << (start + j)
        ways = {0: 1}
        for _ in range(L):
            nxt: dict = {}
            for done, w in ways.items():
                for x in range(L):
                    if not done >> x & 1 and below[x] & done == below[x]:
                        nxt[done | 1 << x] = nxt.get(done | 1 << x, 0) + w
            ways = nxt
        out.append((L, ways.get((1 << L) - 1, 0)))
    return tuple(out)


# -- weight ring ------------------------------------------------------------------

def pack(weight, layout: Packing) -> int:
    """A weight's value at the layout's point; plain integers pass through."""
    if not isinstance(weight, WeightPoly):
        return weight
    return weight.evaluate([layout.variable(i) for i in range(layout.nvars)])


# -- cluster enumerators in u = t - 1 -------------------------------------------

def compose_shift(poly: WeightPoly, offset: int) -> WeightPoly:
    """For a univariate polynomial p(x), return p(x + offset), exactly.

    Horner evaluation in the polynomial ring; used to move between the
    natural cluster basis u = t - 1 and the plain t basis.
    """
    if poly.nvars != 1:
        raise ValueError("compose_shift needs a univariate polynomial")
    coeffs = {e[0]: c for e, c in poly.items()}
    if not coeffs:
        return poly
    x_plus = WeightPoly(1, {(1,): 1, (0,): offset})
    result = WeightPoly.zero(1)
    for d in range(max(coeffs), -1, -1):
        result = result * x_plus + coeffs.get(d, 0)
    return result


def cluster_polys_shifted(p: Sequence[int], N: int) -> list[WeightPoly]:
    """C_0..C_N as polynomials in the shifted variable u = t - 1, decoded
    from their values at u = 2^B (`cluster_values`)."""
    from cwilf.cluster_dp import _check_depth, cluster_values
    from cwilf.weightring import packing_layout, unpack

    _check_depth(N)
    atoms = max(N - len(p) + 1, 0)
    layout = packing_layout(1, math.factorial(N) << atoms, atoms)
    return [unpack(c, layout) for c in cluster_values(p, N, layout.variable(0) + 1)]
