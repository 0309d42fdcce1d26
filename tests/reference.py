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
- the identity F = 1/(1 - z - G) on computed series, and the cluster
  recurrence of the monotone patterns (`monotone_cluster_series`);
- `pack`, a polynomial's value at a packing layout's point.

The brute-force enumerators that a command runs (`brute_weight_enum`,
`brute_avoider_count`) stay in `cwilf.permcore`.  An engine's internals are
imported only where a function here builds that engine's objects.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence

from cwilf.patterns import (
    OracleLimitError,
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
    p = tuple(p)
    k = len(p)
    if k < 2 or not is_permutation(p):
        raise ValueError(f"invalid pattern {p}")
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
    cap = DEFAULT_CLUSTER_CAP if cap is None else cap
    if n > cap:
        raise OracleLimitError(f"oracle limit: n={n} exceeds cap {cap}")
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
    from cwilf.cluster_dp import _check_pattern, _extension_slots, overlap_set

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
    from cwilf.cluster_dp import _check_pattern

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


# -- weight ring ------------------------------------------------------------------

def pack(weight, layout: Packing) -> int:
    """A weight's value at the layout's point; plain integers pass through."""
    if not isinstance(weight, WeightPoly):
        return weight
    return weight.evaluate([layout.variable(i) for i in range(layout.nvars)])
