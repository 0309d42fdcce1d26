"""The factor table of a pattern family, for the engines and the oracles.

A :class:`PatternAssignment` is the one table of window factors that every
engine and oracle that weighs windows reads.  Its patterns are forbidden
or tracked and may be shorter than the window.  An avoidance table holds
the integers 0 and 1 only, so the positive engine's avoidance route runs
on plain integers and never loads the weight ring (`weightring`).  A
tracked table holds `WeightPoly` variables, or their packed values when it
is built with a layout (`weightring.PackedAssignment`); only a tracked
table without a layout imports the ring.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .patterns import all_patterns, is_permutation, reduction


class PatternAssignment:
    """The window factors of a pattern family, for windows of length k.

    Each pattern is forbidden (`zero`) or tracked by one variable (`tracked`,
    indexed in the order listed): a `WeightPoly` variable or, given a
    `layout` (`weightring.Packing`), its packed value.  Patterns may be
    shorter than k; the longest must have length k.  One rule weighs a
    word (`weight`): each occurrence of a tracked pattern multiplies in its
    variable, and one of a forbidden pattern makes the weight 0.  It is
    tabulated once, at construction: `factors[w]` per window w of length k,
    for the occurrences that start at w's first entry, and
    `suffix_factors[q]` per suffix q of length k-1, for every occurrence
    inside q.  A permutation of size n >= k-1 weighs its windows' factors
    times the suffix factor of its last k-1 entries: an occurrence starts
    where a window starts or lies inside that suffix, so each one counts
    exactly once.
    """

    def __init__(self, k: int, zero: Iterable = (), tracked: Sequence = (),
                 layout: Packing | None = None):
        if k < 2:
            raise ValueError("window length must be at least 2")
        self.k = k
        self.zero = frozenset(tuple(p) for p in zero)
        self.tracked = tuple(tuple(p) for p in tracked)
        patterns = [*self.zero, *self.tracked]
        for p in patterns:
            if not 2 <= len(p) <= k or not is_permutation(p):
                raise ValueError(f"{p} is not a pattern of length 2 to {k}")
        if patterns and max(map(len, patterns)) != k:
            raise ValueError(f"the longest pattern must have length {k}")
        if len(set(self.tracked)) != len(self.tracked):
            raise ValueError("duplicate tracked pattern")
        if self.zero & set(self.tracked):
            raise ValueError("a pattern cannot be both forbidden and tracked")
        self.nvars = len(self.tracked)
        self.layout = layout
        if layout is not None or not self.tracked:
            self._vars = {p: layout.variable(i) for i, p in enumerate(self.tracked)}
        else:
            from .weightring import WeightPoly

            self._vars = {p: WeightPoly.variable(i, self.nvars)
                          for i, p in enumerate(self.tracked)}
        self.factors = {w: self._at_start(w) for w in all_patterns(k)}
        self.suffix_factors = {q: self.weight(q) for q in all_patterns(k - 1)}

    @classmethod
    def all_one(cls, k: int) -> PatternAssignment:
        return cls(k)

    @classmethod
    def avoiding(cls, patterns: Iterable) -> PatternAssignment:
        patterns = [tuple(p) for p in patterns]
        if not patterns:
            raise ValueError("avoiding() needs at least one pattern")
        return cls(max(map(len, patterns)), zero=patterns)

    @classmethod
    def tracking(cls, patterns: Sequence, zero: Iterable = ()) -> PatternAssignment:
        patterns = [tuple(p) for p in patterns]
        zero = [tuple(p) for p in zero]
        if not patterns:
            raise ValueError("tracking() needs at least one pattern")
        return cls(max(map(len, patterns + zero)), zero=zero, tracked=patterns)

    def _at_start(self, word: tuple):
        """The factor of the occurrences that start at a word's first entry."""
        for p in self.zero:
            if reduction(word[:len(p)]) == p:
                return 0
        f = 1
        for p, var in self._vars.items():
            if reduction(word[:len(p)]) == p:
                f = f * var
        return f

    def weight(self, word: tuple):
        """The product of the factors of every occurrence in a word."""
        w = 1
        for start in range(len(word)):
            f = self._at_start(word[start:])
            if not f:
                return 0
            w = w * f
        return w

    def factor(self, pattern: tuple):
        """The weight factor gained when a window forms this pattern."""
        return self.factors[pattern]

    def suffix_factor(self, suffix: tuple):
        """The weight factor of the occurrences inside a retained suffix."""
        return self.suffix_factors[suffix]
