"""Permutation primitives and brute-force oracles.

Permutations are tuples of the values 1..n in one-line notation; positions
and values are both 1-based throughout, which keeps every windowing formula
aligned with the usual combinatorial conventions.

The two enumerators at the bottom (`brute_weight_enum`, `brute_cluster_enum`)
are deliberately naive: they exist to validate the polynomial-time engines,
so they must stay independent of them.  Both refuse sizes above a cap rather
than silently running for hours, and both import the weight ring where they
run: the exceptions the command line maps to exit codes live here, so a
route that counts on plain integers never loads it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

DEFAULT_PERM_CAP = 10
DEFAULT_CLUSTER_CAP = 9


class OracleLimitError(RuntimeError):
    """Raised when a brute-force size exceeds the configured cap."""


class InconsistentResult(ArithmeticError):
    """A computed result failed an exact check it must satisfy."""


def reduction(values: Sequence) -> tuple[int, ...]:
    """Relabel distinct totally-ordered values to a permutation of 1..n.

    >>> reduction([4, 2, 7, 5])
    (2, 1, 4, 3)
    >>> reduction([])
    ()
    """
    vals = list(values)
    if len(set(vals)) != len(vals):
        raise ValueError("not reducible: duplicate values")
    rank = {v: r for r, v in enumerate(sorted(vals), start=1)}
    return tuple(rank[v] for v in vals)


def is_permutation(word: Sequence[int]) -> bool:
    return sorted(word) == list(range(1, len(word) + 1))


def all_patterns(k: int) -> list[tuple[int, ...]]:
    """All length-k patterns in lexicographic order."""
    return list(itertools.permutations(range(1, k + 1)))


def occurrences(pi: Sequence[int], p: Sequence[int]) -> tuple[int, ...]:
    """Start positions (1-based) of windows of pi that reduce to p.

    >>> occurrences((1, 7, 9, 2, 3, 4, 5, 6, 8), (1, 2, 3))
    (1, 4, 5, 6, 7)
    """
    pi = tuple(pi)
    p = tuple(p)
    k = len(p)
    if k < 1:
        raise ValueError("pattern must be nonempty")
    return tuple(
        i + 1
        for i in range(len(pi) - k + 1)
        if reduction(pi[i:i + k]) == p
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


# -- symmetries --------------------------------------------------------------

def reverse(p: Sequence[int]) -> tuple[int, ...]:
    return tuple(reversed(p))


def complement(p: Sequence[int]) -> tuple[int, ...]:
    k = len(p)
    return tuple(k + 1 - v for v in p)


def symmetry_class(p: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The distinct images of p under reverse and complement, sorted.

    Avoidance counts are identical across a class, so any member can stand
    in for the others.
    """
    p = tuple(p)
    return tuple(sorted({p, reverse(p), complement(p), reverse(complement(p))}))


# -- text format --------------------------------------------------------------

def parse_pattern(text: str) -> tuple[int, ...]:
    """Parse a pattern: digits ("1324") or comma-separated ints ("1,3,2,4")."""
    text = text.strip()
    if not text:
        raise ValueError("empty pattern")
    if "," in text:
        try:
            p = tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"not a valid pattern: {text!r}") from None
    else:
        if not text.isdigit():
            raise ValueError(f"not a valid pattern: {text!r}")
        p = tuple(int(ch) for ch in text)
    if not is_permutation(p):
        raise ValueError(f"not a bijective word: {text!r}")
    if len(p) < 2:
        raise ValueError(f"pattern {text!r} is too short; length must be at least 2")
    return p


def parse_pattern_set(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse a semicolon-separated pattern set; empty text is the empty set."""
    text = text.strip()
    if not text:
        return ()
    patterns = tuple(parse_pattern(part) for part in text.split(";"))
    if len(set(patterns)) != len(patterns):
        raise ValueError("duplicate pattern in set")
    return patterns


def format_pattern(p: Sequence[int]) -> str:
    if all(1 <= v <= 9 for v in p):
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


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
