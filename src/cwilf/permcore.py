"""The reference side: brute-force oracles and the naive forms of each engine.

Nothing on a counting route imports this module.  It holds the code that
exists to validate the engines, so it must stay independent of them:

- the brute-force enumerators (`brute_weight_enum`, `brute_avoider_count`,
  `brute_cluster_enum`), which the `brute` engine and `crosscheck` run.
  Both refuse sizes above a cap rather than silently running for hours.
  They stay in this module, under these names, because the benchmark's
  tracer counts oracle calls as `permcore.brute_*`;
- the per-rank positive step (`step_append`, `append_transition`,
  `state_of`) that `positive_dp.step_append_aggregated` must agree with;
- the explicit cluster extension (`extend_cluster`) and ending-cluster
  chop (`split_ending_cluster`) behind `cluster_dp`'s tables and recurrence;
- the identity checks on computed series: F = 1/(1 - z - G) and the
  algebraic equation of the 321 cluster series;
- `pack`, a polynomial's value at a packing layout's point.

The primitives (`reduction`, `symmetry_class`, the parsers, the exceptions,
the caps) live in `patterns` and are re-exported here.  The engines,
and the weight ring, are imported where a function here runs them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

from .patterns import (  # re-exported: the primitives' old home
    DEFAULT_CLUSTER_CAP,
    DEFAULT_PERM_CAP,
    InconsistentResult,
    OracleLimitError,
    all_patterns,
    complement,
    format_pattern,
    is_permutation,
    occurrences,
    parse_pattern,
    parse_pattern_set,
    reduction,
    reverse,
    symmetry_class,
)


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


# -- brute-force weighted enumeration ----------------------------------------

@lru_cache(maxsize=None)
def _occurrence_profile(n: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Aggregate of S_n by window-pattern count vectors.

    Each entry pairs a vector of per-pattern occurrence counts (indexed by
    lexicographic pattern order) with the number of permutations realizing
    it.  Shared by every specialization at the same (n, k).
    """
    patterns = all_patterns(k)
    index = {p: i for i, p in enumerate(patterns)}
    profile: dict[tuple[int, ...], int] = {}
    for pi in itertools.permutations(range(1, n + 1)):
        counts = [0] * len(patterns)
        for i in range(n - k + 1):
            counts[index[reduction(pi[i:i + k])]] += 1
        key = tuple(counts)
        profile[key] = profile.get(key, 0) + 1
    return tuple(profile.items())


def brute_weight_enum(n: int, k: int, assignment: PatternAssignment,
                      cap: int | None = None) -> WeightPoly:
    """Sum of specialized window weights over all n! permutations.

    The oracle for the incremental engines: every window of every
    permutation contributes its pattern's factor.
    """
    from .weightring import as_weight_poly

    if k < 2:
        raise ValueError("window length must be at least 2")
    if assignment.k != k:
        raise ValueError("assignment window length mismatch")
    if any(len(p) < k for p in itertools.chain(assignment.zero, assignment.tracked)):
        raise ValueError("brute_weight_enum weighs windows of length k only, "
                         "not the shorter patterns of an assignment")
    if n < 0:
        raise ValueError("n must be nonnegative")
    cap = DEFAULT_PERM_CAP if cap is None else cap
    if n > cap:
        raise OracleLimitError(f"oracle limit: n={n} exceeds cap {cap}")
    patterns = all_patterns(k)
    total = 0
    for counts, mult in _occurrence_profile(n, k):
        term = mult
        for p, c in zip(patterns, counts):
            if not c:
                continue
            f = assignment.factor(p)
            if f == 0:
                term = 0
                break
            if f != 1:
                term = term * f ** c
        if term:
            total = total + term
    return as_weight_poly(total, assignment.nvars)


def brute_avoider_count(patterns: Iterable[Sequence[int]], n: int,
                        cap: int | None = None) -> int:
    """Direct scan: permutations of length n avoiding every listed pattern.

    Unlike `brute_weight_enum` this takes patterns of mixed lengths, each
    checked with windows of its own length.
    """
    pats = [tuple(p) for p in patterns]
    for p in pats:
        if len(p) < 2 or not is_permutation(p):
            raise ValueError(f"invalid pattern {p}")
    cap = DEFAULT_PERM_CAP if cap is None else cap
    if n > cap:
        raise OracleLimitError(f"oracle limit: n={n} exceeds cap {cap}")
    count = 0
    for pi in itertools.permutations(range(1, n + 1)):
        if all(not occurrences(pi, p) for p in pats):
            count += 1
    return count


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
    from .weightring import WeightPoly

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


# -- the positive engine, one rank at a time ------------------------------------

def state_of(pi: Sequence[int], k: int) -> State:
    """The suffix state of an explicit permutation."""
    pi = tuple(pi)
    if len(pi) < k - 1:
        raise ValueError("permutation shorter than k-1")
    tail = pi[len(pi) - (k - 1):]
    return reduction(tail), tuple(sorted(tail))


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
    from .positive_dp import StateTable

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
    from .cluster_dp import _check_pattern, _extension_slots, overlap_set

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
    from .cluster_dp import _check_pattern

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
    from .weightring import WeightPoly

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


def _negate_var(poly: WeightPoly) -> WeightPoly:
    from .weightring import WeightPoly

    return WeightPoly(1, {e: (-c if e[0] % 2 else c) for e, c in poly.items()})


class Normalization(namedtuple("Normalization",
                               "sign shift negate_u verified_to residual_orders")):
    """A candidate alignment g = sign * z^shift * c, with u negated if negate_u.

    residual_orders lists the orders up to verified_to where it fails.
    """
    __slots__ = ()

    @property
    def exact(self) -> bool:
        return not self.residual_orders


class Report321:
    """Outcome of matching the decreasing-triple cluster series against
    the closed algebraic equation g = -(t-1)z^2 - (t-1)(z+z^2)g."""

    def __init__(self, order: int, candidates: list[Normalization] | None = None):
        self.order = order
        self.candidates = [] if candidates is None else candidates

    @property
    def matches(self) -> list[Normalization]:
        return [c for c in self.candidates if c.exact]

    @property
    def ok(self) -> bool:
        return len(self.matches) == 1


def verify_321_equation(N: int) -> Report321:
    """Match the computed 321 cluster series against the algebraic equation.

    The equation is solved as a power series g_n = -u*[n=2] - u*(g_{n-1} +
    g_{n-2}) in u = t - 1.  The series are then aligned by searching a
    normalization g = sign * z^shift * c, optionally with u negated; every
    candidate that matches the lowest nonzero coefficient is verified to
    order N and reported with its residual orders.
    """
    if N < 5:
        raise ValueError("N must be at least 5")
    from .cluster_dp import cluster_polys_shifted
    from .weightring import WeightPoly

    u = WeightPoly.variable(0, 1)
    zero = WeightPoly.zero(1)
    g = [zero, zero]
    for n in range(2, N + 1):
        gn = -(u * (g[n - 1] + g[n - 2]))
        if n == 2:
            gn = gn - u
        g.append(gn)
    # extra orders of c so every shift in the grid is verifiable through N
    c = cluster_polys_shifted((3, 2, 1), N + 2)
    g0 = next(n for n in range(N + 1) if g[n])
    c0 = next(n for n in range(N + 3) if c[n])
    report = Report321(N)
    for sign in (1, -1):
        for shift in range(-2, 3):
            if c0 + shift != g0:
                continue
            for negate in (False, True):
                def mapped(n):
                    i = n - shift
                    if not 0 <= i < len(c):
                        return zero
                    poly = _negate_var(c[i]) if negate else c[i]
                    return poly if sign == 1 else -poly

                if g[g0] != mapped(g0):
                    continue
                bad = tuple(n for n in range(N + 1) if g[n] != mapped(n))
                report.candidates.append(
                    Normalization(sign, shift, negate, N, bad)
                )
    return report


# -- weight ring ------------------------------------------------------------------

def pack(weight, layout: Packing) -> int:
    """A weight's value at the layout's point; plain integers pass through."""
    from .weightring import WeightPoly

    if not isinstance(weight, WeightPoly):
        return weight
    return weight.evaluate([layout.variable(i) for i in range(layout.nvars)])
