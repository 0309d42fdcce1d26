import itertools
import math
import random
from fractions import Fraction

import pytest

from cwilf.weightring import (
    Packing,
    PackingOverflow,
    PatternAssignment,
    WeightPoly,
    as_weight_poly,
    packing_layout,
    unpack,
)
from cwilf.patterns import occurrences, reduction
from helpers import random_poly
from reference import compose_shift, pack

T = WeightPoly.variable(0, 1)
ONE = WeightPoly.const(1, 1)


def test_zero_coefficients_are_dropped():
    p = WeightPoly(1, {(1,): 0, (0,): 3})
    assert dict(p.items()) == {(0,): 3}
    assert not WeightPoly(1, {(2,): 0})


def test_construction_rejects_bad_terms():
    with pytest.raises(ValueError):
        WeightPoly(2, {(1,): 1})
    with pytest.raises(ValueError):
        WeightPoly(1, {(-1,): 1})


def test_add_examples():
    assert T + ONE == WeightPoly(1, {(1,): 1, (0,): 1})
    p = random_poly(random.Random(1), 1)
    assert p + WeightPoly.zero(1) == p
    assert (T - 1) + 1 == T


def test_mul_examples():
    t_minus_1 = T - 1
    assert t_minus_1 * t_minus_1 == WeightPoly(1, {(2,): 1, (1,): -2, (0,): 1})
    p = random_poly(random.Random(2), 2)
    assert p * WeightPoly.const(1, 2) == p


def test_mismatched_variable_counts_error():
    with pytest.raises(ValueError):
        WeightPoly.variable(0, 1) + WeightPoly.variable(0, 2)
    with pytest.raises(ValueError):
        WeightPoly.variable(0, 1) * WeightPoly.variable(1, 2)


def test_evaluate_examples():
    p = T + 5
    assert p.evaluate([0]) == 5
    assert p.evaluate([1]) == 6
    assert WeightPoly.zero(3).evaluate([7, 8, 9]) == 0
    assert (T * T).evaluate([Fraction(1, 2)]) == Fraction(1, 4)


def test_ring_axioms_random():
    rng = random.Random(20110120)
    for _ in range(1000):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        c = random_poly(rng, nvars)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + WeightPoly.zero(nvars) == a
        assert a * WeightPoly.const(1, nvars) == a
        assert a * WeightPoly.zero(nvars) == WeightPoly.zero(nvars)
        assert a - a == WeightPoly.zero(nvars)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        a = random_poly(rng, nvars)
        b = random_poly(rng, nvars)
        c = random_poly(rng, nvars)
        point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
        lhs = (a * b + c).evaluate(point)
        rhs = a.evaluate(point) * b.evaluate(point) + c.evaluate(point)
        assert lhs == rhs


def test_all_arithmetic_is_exact_integer():
    p = (T + 5) ** 7 * (T - 3)
    assert all(isinstance(c, int) for _, c in p.items())
    big = WeightPoly.const(10 ** 400, 1) * WeightPoly.const(10 ** 400, 1)
    assert big.constant_value() == 10 ** 800


def test_canonical_text():
    assert ((T - 1) * (T - 1)).canonical_text() == "t^2 - 2*t + 1"
    assert (T + 5).canonical_text() == "t + 5"
    assert (1 - T).canonical_text() == "-t + 1"
    assert WeightPoly.zero(2).canonical_text() == "0"
    x, y = WeightPoly.variable(0, 2), WeightPoly.variable(1, 2)
    assert (y * y + x * y + x * x + x + 2).canonical_text() == "t0^2 + t0*t1 + t1^2 + t0 + 2"


def test_str_is_the_reported_term_text():
    # reports print every term, int or polynomial, with str; a constant
    # polynomial prints as its integer
    x, y = WeightPoly.variable(0, 2), WeightPoly.variable(1, 2)
    cases = [
        (0, "0"), (-7, "-7"), (10 ** 30, "1" + "0" * 30),
        (WeightPoly.zero(0), "0"), (WeightPoly.zero(2), "0"), (WeightPoly.const(5), "5"),
        (WeightPoly.const(12, 1), "12"), (WeightPoly.const(-3, 2), "-3"),
        (-T, "-t"), (3 - 2 * T, "-2*t + 3"), (T * T - 1, "t^2 - 1"),
        (3 * y * y - x - 4, "3*t1^2 - t0 - 4"),
        (WeightPoly(3, {(0, 0, 1): 1, (1, 1, 0): -2}), "-2*t0*t1 + t2"),
    ]
    for w, text in cases:
        assert str(w) == f"{w}" == text


def _read_text(text, nvars):
    """The polynomial a term text names, read without the printer."""
    names = ["t"] if nvars == 1 else [f"t{i}" for i in range(nvars)]
    terms = {}
    for piece in text.replace(" - ", " + -").split(" + "):
        coeff, exps = -1 if piece.startswith("-") else 1, [0] * nvars
        for factor in piece.lstrip("-").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, e = factor.partition("^")
                exps[names.index(name)] = int(e or 1)
        assert tuple(exps) not in terms
        terms[tuple(exps)] = coeff
    return WeightPoly(nvars, terms)


def test_str_of_random_polys_reads_back():
    rng = random.Random(11)
    for _ in range(2000):
        nvars = rng.randint(0, 3)
        w = random_poly(rng, nvars, max_exp=rng.choice((0, 1, 4)))
        text = str(w)
        assert _read_text(text, nvars) == w, text
        if w.is_constant():
            assert text == str(w.constant_value())


def test_pow_and_neg():
    assert T ** 0 == ONE
    assert T ** 3 == WeightPoly(1, {(3,): 1})
    assert -(T - 1) == 1 - T
    with pytest.raises(ValueError):
        T ** -1


def test_compose_shift():
    # p(u) = u^2 becomes t^2 - 2t + 1 under u = t - 1
    u_sq = WeightPoly(1, {(2,): 1})
    assert compose_shift(u_sq, -1) == WeightPoly(1, {(2,): 1, (1,): -2, (0,): 1})
    rng = random.Random(11)
    for _ in range(200):
        p = random_poly(rng, 1)
        off = rng.randint(-3, 3)
        x = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert compose_shift(p, off).evaluate([x]) == p.evaluate([x + off])


def test_pack_unpack_round_trip():
    rng = random.Random(1101)
    for _ in range(300):
        nvars = rng.randint(1, 3)
        bound = rng.randint(1, 10 ** rng.randint(1, 30))
        degree = rng.randint(0, 6)
        layout = packing_layout(nvars, bound, degree)
        terms = {tuple(rng.randint(0, degree) for _ in range(nvars)): rng.randint(0, bound)
                 for _ in range(rng.randint(0, 8))}
        poly = WeightPoly(nvars, terms)
        mass = sum(c for _, c in poly.items())
        packed = pack(poly, layout)
        assert packed == poly.evaluate([layout.variable(i) for i in range(nvars)])
        assert unpack(packed, layout, mass) == poly
    assert pack(7, packing_layout(2, 7, 1)) == 7


def test_unpack_detects_an_undersized_layout():
    poly = (T + 1) ** 10  # largest coefficient 252, coefficients sum to 1024
    ok = packing_layout(1, 252, 10)
    assert unpack(pack(poly, ok), ok, 1024) == poly
    small = Packing(1, 7, 11)  # 252 needs 8 bits
    with pytest.raises(PackingOverflow):
        unpack(pack(poly, small), small, 1024)
    with pytest.raises(PackingOverflow):  # exponent 10 aliases past stride 10
        unpack(pack(poly, ok), Packing(1, ok.bits, 10))
    with pytest.raises(PackingOverflow):
        unpack(-1, ok)


def test_as_weight_poly():
    assert as_weight_poly(7, 1) == WeightPoly.const(7, 1)
    assert as_weight_poly(T, 1) is T
    with pytest.raises(ValueError):
        as_weight_poly(WeightPoly.zero(2), 1)


def test_assignment_factors():
    a = PatternAssignment(3, zero=[(1, 2, 3)], tracked=[(2, 3, 1)])
    assert a.factor((1, 2, 3)) == 0
    assert a.factor((2, 3, 1)) == WeightPoly.variable(0, 1)
    assert a.factor((3, 2, 1)) == 1
    assert a.suffix_factor((1, 2)) == 1


def test_assignment_validation():
    with pytest.raises(ValueError):
        PatternAssignment(1)
    with pytest.raises(ValueError):
        PatternAssignment(3, zero=[(1, 2)])
    with pytest.raises(ValueError):
        PatternAssignment(3, tracked=[(1, 2, 3), (1, 2, 3)])
    with pytest.raises(ValueError):
        PatternAssignment(3, zero=[(1, 2, 3)], tracked=[(1, 2, 3)])
    with pytest.raises(ValueError):
        PatternAssignment(3, zero=[(1, 1, 3)])


def test_tracked_variable_indices_are_contiguous():
    a = PatternAssignment.tracking([(1, 2, 3), (3, 2, 1)])
    assert a.nvars == 2
    assert a.factor((1, 2, 3)) == WeightPoly.variable(0, 2)
    assert a.factor((3, 2, 1)) == WeightPoly.variable(1, 2)


def test_each_occurrence_counts_once():
    # a permutation of size n >= k-1 weighs its windows' factors times the
    # suffix factor of its last k-1 entries, a smaller one its own `weight`;
    # both must give t_i per occurrence of tracked pattern i, or 0 once an
    # avoided pattern occurs, on polynomials and packed alike
    families = [([(1, 2)], [(1, 2, 3)]), ([(2, 1, 3)], [(1, 2), (3, 2, 1)]),
                ([], [(2, 1), (1, 3, 2), (1, 2, 3, 4)]), ([(1, 2, 3)], [(2, 1), (1, 2, 4, 3)]),
                ([(1, 3, 2)], [(1, 2, 3), (3, 2, 1)]), ([], [(2, 1, 4, 3), (1, 2, 3, 4)])]
    N = 7
    for avoid, track in families:
        poly = PatternAssignment.tracking(track, zero=avoid)
        k, nvars = poly.k, poly.nvars
        layout = packing_layout(nvars, math.factorial(N), N - min(map(len, track)) + 1)
        packed = PatternAssignment(k, zero=avoid, tracked=track, layout=layout)
        for n in range(N + 1):
            for pi in itertools.permutations(range(1, n + 1)):
                expected = 0 if any(occurrences(pi, p) for p in avoid) else WeightPoly(
                    nvars, {tuple(len(occurrences(pi, p)) for p in track): 1})
                for a in (poly, packed):
                    if n < k - 1:
                        got = a.weight(pi)
                    else:
                        got = a.suffix_factor(reduction(pi[n - k + 1:]))
                        for start in range(n - k + 1):
                            got = got * a.factor(reduction(pi[start:start + k]))
                    if a is packed:
                        got = unpack(got, layout)
                    assert got == expected, (avoid, track, pi)


def test_adding_int_zero_returns_the_polynomial():
    # running sums start at 0: p + 0, 0 + p and p - 0 share p, 0 - p is -p
    p = WeightPoly(2, {(1, 0): 3, (0, 2): -1, (0, 0): 5})
    assert p + 0 is p and 0 + p is p and p - 0 is p
    assert p + 0 == p and 0 + p == p and p - 0 == p
    assert 0 - p == -p and (0 - p) + p == 0
    zero = WeightPoly.zero(1)
    assert zero + 0 is zero and 0 - zero == zero
