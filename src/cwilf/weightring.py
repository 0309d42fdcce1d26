"""Exact coefficient arithmetic for weighted permutation counting.

Weights are sparse polynomials over arbitrary-precision integers, one formal
variable per tracked pattern.  Counting runs for long series produce
coefficients far beyond 64 bits, so everything here stays in exact integer
(or `fractions.Fraction`) arithmetic; no floats.

The engines run on plain integers: each tracked variable is evaluated at a
power of two (Kronecker packing, :class:`Packing`), and `unpack` reads each
result back as a polynomial.  Evaluation is a ring homomorphism, so
negative intermediate values are harmless; only the decoded result needs
its coefficients in [0, 2^B) and its exponents below the stride D.  The
engines size B from n! (positive engine, and P_n(t) in the cluster engine)
or n!*3^(N-k+1) (cluster enumerators C_n(t), whose coefficients are signed:
the caller adds 2^(B-1) to every digit before `unpack` and takes it off
after), and D from the most occurrences that fit.  :class:`WeightPoly` is
the type at the edges (decoded results, display, the brute-force oracles),
and the one the positive engine computes with past three tracked
variables, where the dense layout would outgrow the sparse polynomials.

A :class:`PatternAssignment` is the one factor table of a pattern family,
for every engine and oracle that weighs windows: its patterns are forbidden
or tracked, may be shorter than the window, and give `WeightPoly` factors,
or packed ones when it is built with a layout.

The runtime checks of tracked series live here too, as every route that
tracks a pattern loads this module and no avoidance route does:
`_check_moments` holds each term's mass and its first and second moments
to their closed forms.  The second moments count pairs of windows, and two
windows that overlap match in a product of binomials, one per gap of their
shared values (`_window_pairs`, which `clusters` also reads for its
two-atom check).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

from .patterns import InconsistentResult, all_patterns, format_pattern, is_permutation, reduction


class WeightPoly:
    """Immutable sparse polynomial with integer coefficients.

    Terms map exponent tuples (length ``nvars``) to nonzero coefficients.
    Arithmetic mixes freely with plain integers, which act as scalars;
    combining two polynomials with different ``nvars`` is an error.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, int] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length, expected {nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WeightPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "WeightPoly":
        return cls(nvars, {})

    @classmethod
    def const(cls, value: int, nvars: int = 0) -> "WeightPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "WeightPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    # -- inspection --------------------------------------------------------

    def items(self):
        return self._terms.items()

    def sorted_terms(self):
        """Terms in canonical order: graded lexicographic, largest first."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def coefficient(self, exps: Sequence[int]) -> int:
        return self._terms.get(tuple(exps), 0)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._terms)

    def constant_value(self) -> int:
        """The value of a constant polynomial (degree 0 in every variable)."""
        if not self._terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self._terms.values()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, WeightPoly):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, int):
            if not self._terms:
                return other == 0
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "WeightPoly":
        if isinstance(other, WeightPoly):
            if other.nvars != self.nvars:
                raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, int):
            return WeightPoly.const(other, self.nvars)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int) and not other:
            return self  # immutable: adding 0 (running sums start there) shares it
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self  # the zero polynomial too: a grid's runs end on it
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return WeightPoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return WeightPoly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int) and not other:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return WeightPoly.zero(self.nvars)
            return WeightPoly(self.nvars, {e: c * other for e, c in self._terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    del terms[exps]
        return WeightPoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = WeightPoly.const(1, self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- evaluation and display --------------------------------------------

    def evaluate(self, point: Sequence):
        """Exact evaluation at a point of integers or Fractions."""
        if len(point) != self.nvars:
            raise ValueError(f"point has length {len(point)}, expected {self.nvars}")
        total = 0
        for exps, coeff in self._terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    def canonical_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, e.g. ``t^2 - 2*t + 1``.

        Terms are sorted in graded lexicographic order, highest first.  With
        one variable the default name is ``t``, otherwise ``t0, t1, ...``.
        """
        if not self._terms:
            return "0"
        if names is None:
            names = ["t"] if self.nvars == 1 else [f"t{i}" for i in range(self.nvars)]
        pieces = []
        for exps, coeff in self.sorted_terms():
            var_part = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            )
            mag = abs(coeff)
            if not var_part:
                body = str(mag)
            elif mag == 1:
                body = var_part
            else:
                body = f"{mag}*{var_part}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, first = pieces[0]
        parts = [first if sign == "+" else "-" + first]
        for sign, body in pieces[1:]:
            parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"WeightPoly({self.nvars}, {self.canonical_text()!r})"


def as_weight_poly(value, nvars: int) -> WeightPoly:
    """Wrap a plain integer as a constant polynomial; pass polynomials through."""
    if isinstance(value, WeightPoly):
        if value.nvars != nvars:
            raise ValueError(f"variable count mismatch: {value.nvars} vs {nvars}")
        return value
    return WeightPoly.const(value, nvars)


class PackingOverflow(InconsistentResult):
    """A packed value does not decode: its layout was too small for it."""


class Packing(namedtuple("Packing", "nvars bits stride")):
    """Kronecker layout: variable i is evaluated at 2^(bits * stride^i).

    A polynomial whose coefficients lie in [0, 2^bits) and whose exponents
    are all below `stride` becomes one integer at that point, and the
    base-2^bits digits of that integer are its coefficients.
    """
    __slots__ = ()

    def variable(self, index: int) -> int:
        """The packed value of one variable."""
        return 1 << (self.bits * self.stride ** index)


def packing_layout(nvars: int, coeff_bound: int, degree_bound: int) -> Packing:
    """The layout for coefficients in [0, coeff_bound], exponents <= degree_bound."""
    return Packing(nvars, coeff_bound.bit_length() + 1, degree_bound + 1)


def unpack(value: int, layout: Packing, mass: int | None = None) -> WeightPoly:
    """The polynomial whose packed value is `value`, read off digit by digit.

    Two faults of the layout are caught and raise :class:`PackingOverflow`.
    With `mass`, the coefficients must sum to it: a coefficient of 2^bits or
    more carries into the next digit and lowers the digit sum by 2^bits - 1,
    so too few bits cannot decode silently.  An exponent of the last
    variable at or past the stride leaves the digit range.  A stride too
    small for any other variable is not detectable here: its excess spills
    into the next variable's exponent and keeps the digit sum.
    """
    terms = _digits(value, layout)
    if mass is not None and sum(terms.values()) != mass:
        raise PackingOverflow(
            f"packed coefficients sum to {sum(terms.values())}, expected {mass}: "
            f"{layout.bits} bits per coefficient overflowed")
    return WeightPoly(layout.nvars, terms)


def _digits(value: int, layout: Packing) -> dict[tuple, int]:
    """exponents -> digit for the nonzero digits of a packed value (`unpack`)."""
    if value < 0:
        raise PackingOverflow(f"negative packed value at {layout.bits} bits per coefficient")
    # slicing the binary text is linear in the width; shifting `value` one
    # digit at a time would copy the whole integer per digit
    text = format(value, "b")
    bits, stride = layout.bits, layout.stride
    limit = stride ** layout.nvars
    terms = {}
    digit = 0
    for end in range(len(text) if value else 0, 0, -bits):
        coeff = int(text[max(end - bits, 0):end], 2)
        if coeff:
            if digit >= limit:
                raise PackingOverflow(f"exponent beyond the stride {stride}")
            terms[tuple(digit // stride ** i % stride for i in range(layout.nvars))] = coeff
        digit += 1
    return terms


class PatternAssignment:
    """The window factors of a pattern family, for windows of length k.

    Each pattern is forbidden (`zero`) or tracked by one variable (`tracked`,
    indexed in the order listed): a `WeightPoly` variable or, given a
    `layout`, its packed value.  Patterns may be shorter than k; the longest
    must have length k.  One rule weighs a word (`weight`): each occurrence
    of a tracked pattern multiplies in its variable, and one of a forbidden
    pattern makes the weight 0.  It is tabulated once, at construction:
    `factors[w]` per window w of length k, for the occurrences that start at
    w's first entry, and `suffix_factors[q]` per suffix q of length k-1, for
    every occurrence inside q.  A permutation of size n >= k-1 weighs its
    windows' factors times the suffix factor of its last k-1 entries: an
    occurrence starts where a window starts or lies inside that suffix, so
    each one counts exactly once.
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
        self._vars = {p: WeightPoly.variable(i, self.nvars) if layout is None
                      else layout.variable(i) for i, p in enumerate(self.tracked)}
        self.factors = {w: self._at_start(w) for w in all_patterns(k)}
        self.suffix_factors = {q: self.weight(q) for q in all_patterns(k - 1)}

    @classmethod
    def all_one(cls, k: int) -> "PatternAssignment":
        return cls(k)

    @classmethod
    def avoiding(cls, patterns: Iterable) -> "PatternAssignment":
        patterns = [tuple(p) for p in patterns]
        if not patterns:
            raise ValueError("avoiding() needs at least one pattern")
        return cls(max(map(len, patterns)), zero=patterns)

    @classmethod
    def tracking(cls, patterns: Sequence, zero: Iterable = ()) -> "PatternAssignment":
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


# -- moment checks ----------------------------------------------------------------

def _check_moments(track: Sequence[tuple[int, ...]], terms: Sequence[WeightPoly]) -> None:
    """Term by term: P_n(1) = n!, then dP_n/dt_i(1) = (n-m+1) n!/m! for each
    tracked pattern i of length m, then the sum of c e_i e_j over the terms
    c t^e of P_n against n! E[X_i X_j] for tracked patterns i <= j, X_i
    counting occurrences (`_second_moment`).

    A uniform permutation of size n has n-m+1 windows of length m, each of
    which reduces to a given pattern with probability 1/m!.
    """
    fact = 1
    for n, poly in enumerate(terms):
        fact *= n or 1
        items = poly.items()
        mass = sum(c for _exps, c in items)
        if mass != fact:
            raise InconsistentResult(f"P_{n}(1) = {mass}, expected {fact}")
        for i, p in enumerate(track):
            m = len(p)
            got = sum(c * exps[i] for exps, c in items)
            expected = (n - m + 1) * (fact // math.factorial(m)) if n >= m else 0
            if got != expected:
                raise InconsistentResult(
                    f"first moment of {format_pattern(p)} in P_{n}: {got}, "
                    f"expected {expected}")
        for i, a in enumerate(track):
            for j, b in enumerate(track[i:], start=i):
                got = sum(c * exps[i] * exps[j] for exps, c in items)
                expected = _second_moment(a, b, n, fact)
                if got != expected:
                    names = " and ".join(dict.fromkeys(map(format_pattern, (a, b))))
                    raise InconsistentResult(
                        f"second moment of {names} in P_{n}: {got}, expected {expected}")


def _second_moment(a: tuple[int, ...], b: tuple[int, ...], n: int, fact: int) -> int:
    """n! E[X_a X_b] over S_n, from the pairs of an a-window and a b-window.

    Disjoint windows take C(n-k_a-k_b+2, 2) placements in each order, each
    pair reducing to a and b in n!/(k_a! k_b!) permutations.  Windows that
    meet span L entries and take n-L+1 placements, each in e n!/L!
    permutations, e counting the orders of the span that reduce to a and to
    b at their windows (`_window_pairs`).
    """
    ka, kb = len(a), len(b)
    total = sum((n - L + 1) * e * (fact // math.factorial(L))
                for L, e in _window_pairs(a, b) if e and n >= L)
    return total + (2 * math.comb(max(n - ka - kb + 2, 0), 2)
                    * (fact // (math.factorial(ka) * math.factorial(kb))))


@lru_cache(maxsize=None)
def _window_pairs(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(L, e) per offset d = -(k_b-1)..k_a-1 of a b-window from an a-window
    that meets it: L entries spanned, and e orders of the span in which
    both windows reduce to their patterns.

    e is 0 unless the shared entries reduce alike in a and in b.  Then they
    cut each window's values into the same gaps, and in gap i the x_i
    values only a holds and the y_i only b holds are two chains that
    interleave freely: e = prod C(x_i + y_i, x_i).  Neither engine is
    involved.
    """
    ka, kb = len(a), len(b)
    out = []
    for d in range(1 - kb, ka):
        shared_a, shared_b = a[max(d, 0):min(ka, d + kb)], b[max(-d, 0):min(kb, ka - d)]
        e = 0
        if reduction(shared_a) == reduction(shared_b):
            ga, gb = (0, *sorted(shared_a), ka + 1), (0, *sorted(shared_b), kb + 1)
            e = math.prod(math.comb(a1 - a0 + b1 - b0 - 2, a1 - a0 - 1)
                          for a0, a1, b0, b1 in zip(ga, ga[1:], gb, gb[1:]))
        out.append((max(ka, d + kb) - min(0, d), e))
    return tuple(out)
