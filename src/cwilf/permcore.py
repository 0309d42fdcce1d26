"""The brute-force oracles that `--engine brute` and `crosscheck` run.

`brute_weight_enum` weighs every window of every permutation of S_n, and
`brute_avoider_count` scans S_n for a family of mixed lengths.  Both refuse
sizes above a cap rather than silently running for hours.  No other route
imports this module, and it stays independent of both engines.  The names
stay as they are because the benchmark's tracer counts oracle calls as
`permcore.brute_*`.

The naive forms of the engines, the cluster oracle and the identity checks
on computed series only validate the engines, so they live with the tests
(`tests/reference.py`).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import lru_cache

from .patterns import _check_pattern, _refuse_above_cap, all_patterns, occurrences, reduction


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
    _refuse_above_cap(n, cap)
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
    pats = [_check_pattern(p) for p in patterns]
    _refuse_above_cap(n, cap)
    count = 0
    for pi in itertools.permutations(range(1, n + 1)):
        if all(not occurrences(pi, p) for p in pats):
            count += 1
    return count
