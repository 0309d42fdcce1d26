"""Permutation primitives: the pattern arithmetic every route runs.

Permutations are tuples of the values 1..n in one-line notation; positions
and values are both 1-based throughout, which keeps every windowing formula
aligned with the usual combinatorial conventions.

The exceptions the command line maps to exit codes live here too, so a
process that only counts imports this module and never the brute-force
oracles (`permcore`).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

DEFAULT_PERM_CAP = 10


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
