"""Exactness and ring-law tests for the Laurent-polynomial kernel."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgspairs.series import FormulaIntegrityError, LaurentPoly, exact_divide, render

# Derandomized and without an example database, so the suite is repeatable
# and writes nothing.
RING = settings(max_examples=200, derandomize=True, database=None)

polys = st.builds(
    LaurentPoly,
    st.lists(st.integers(-20, 20), max_size=8),
    st.integers(-6, 6),
)

ONE_MINUS_T2 = LaurentPoly([1, 0, -1])
BIG = 2**100


def negated(a: LaurentPoly) -> LaurentPoly:
    return LaurentPoly([-c for c in a.coeffs], a.low)


# -- construction and validation --------------------------------------


def test_constructor_trims_zeros_at_both_ends():
    a = LaurentPoly([0, 0, 3, 0, 5, 0], low=-1)
    assert (a.low, a.coeffs) == (1, (3, 0, 5))
    zero = LaurentPoly([0, 0], low=4)
    assert (zero.low, zero.coeffs) == (0, ())
    assert zero == LaurentPoly()


def test_constructor_rejects_float_and_bool_coefficients():
    for bad in (0.5, True, Fraction(1, 2), Fraction(4, 2), "1"):
        with pytest.raises(TypeError):
            LaurentPoly([1, bad])


def test_from_terms_sums_repeated_exponents():
    a = LaurentPoly.from_terms([(2, 3), (-1, 1), (2, -3), (0, 4)])
    assert a.terms() == [(-1, 1), (0, 4)]
    assert LaurentPoly.from_terms([]) == LaurentPoly()
    assert LaurentPoly.from_terms([(3, 1), (3, -1)]) == LaurentPoly()
    with pytest.raises(TypeError):
        LaurentPoly.from_terms([(0, Fraction(1, 2))])


def test_coefficient_accessors():
    a = LaurentPoly.from_terms([(-3, 2), (1, 7)])
    assert a.coeff(-3) == 2 and a.coeff(1) == 7
    assert a.coeff(0) == 0 and a.coeff(-4) == 0 and a.coeff(2) == 0
    assert LaurentPoly().coeff(0) == 0
    assert LaurentPoly([7]).terms() == [(0, 7)]


def test_laurent_window_admits_negative_t():
    a = LaurentPoly([2], low=-3)
    assert a.terms() == [(-3, 2)]
    assert a.shift(3) == LaurentPoly([2])


# -- ring laws ---------------------------------------------------------


@RING
@given(polys, polys, polys)
def test_addition_associates_and_commutes(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@RING
@given(polys, polys)
def test_addition_and_subtraction_roundtrip(a, b):
    assert (a + b) + negated(b) == a
    assert a + LaurentPoly() == a
    assert a + negated(a) == LaurentPoly()


@RING
@given(polys, polys, polys)
def test_multiplication_associates_inside_window(a, b, c):
    assert (a * b) * c == a * (b * c)


@RING
@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@RING
@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@RING
@given(polys, polys)
def test_product_coefficients_stay_exact(a, b):
    for _, c in (a * b).terms():
        assert type(c) is int


@RING
@given(polys, st.integers(-10, 10))
def test_shift_is_multiplication_by_a_power_of_t(a, e):
    assert a.shift(e) == a * LaurentPoly([1], low=e)


def naive_product(a: LaurentPoly, b: LaurentPoly) -> list[tuple[int, int]]:
    """Nonzero (exponent, coefficient) pairs of a*b by the schoolbook double loop."""
    out: dict[int, int] = {}
    for e, x in a.terms():
        for f, y in b.terms():
            out[e + f] = out.get(e + f, 0) + x * y
    return sorted((e, c) for e, c in out.items() if c)


def extreme_factors() -> list[LaurentPoly]:
    """Factors at the edge of the product's digit width and its borrows."""
    rng = random.Random(2024)
    full = [BIG] * 200
    return [
        LaurentPoly(),
        LaurentPoly([BIG]),
        LaurentPoly([-1], low=-7),
        LaurentPoly(full, low=-100),
        LaurentPoly([-c for c in full], low=3),
        LaurentPoly([(-1) ** i * BIG for i in range(200)], low=-1),
        LaurentPoly([BIG] + [0] * 198 + [-1], low=-40),
        LaurentPoly([-1, BIG, -1, 0, 0, -BIG, 1]),
        # bit lengths 95 and 7, one short of a digit width: the top bit of
        # a digit then holds the sign alone
        LaurentPoly([2**95 - 1, -(2**94), 127, -127, 0, 2**94 + 1]),
        LaurentPoly([rng.randint(-BIG, BIG) if rng.random() < 0.1 else 0 for _ in range(200)], -9),
        LaurentPoly([rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, 101)) for _ in range(173)]),
    ]


def test_extreme_products_match_schoolbook_and_divide_back():
    factors = extreme_factors()
    for a in factors:
        for b in factors:
            ab = a * b
            assert ab.terms() == naive_product(a, b)
            assert exact_divide(ab * ONE_MINUS_T2) == ab


def wide_factor(rng: random.Random) -> LaurentPoly:
    """Up to 200 terms with coefficients up to 2^100 in size, zeros common:
    products then carry digits far wider than a machine word."""

    def coeff() -> int:
        u = rng.random()
        if u < 0.3:
            return 0
        if u < 0.4:
            return rng.choice([1, -1, BIG, -BIG])
        return rng.randint(-BIG, BIG) >> rng.randrange(101)

    return LaurentPoly([coeff() for _ in range(rng.randint(0, 200))], rng.randint(-60, 60))


def test_wide_products_match_schoolbook_and_divide_back():
    # Seeded draws rather than hypothesis: shrinking 200-term failures
    # against the quadratic oracle takes minutes.
    rng = random.Random(7)
    for _ in range(40):
        a, b = wide_factor(rng), wide_factor(rng)
        ab = a * b
        assert ab.terms() == naive_product(a, b)
        assert exact_divide(a * ONE_MINUS_T2) == a
        assert exact_divide(ab * ONE_MINUS_T2) == ab


def test_scalar_scale():
    a = LaurentPoly.from_terms([(0, 1), (1, 3)])
    assert (a * LaurentPoly([3])).terms() == [(0, 3), (1, 9)]
    assert a * LaurentPoly([0]) == LaurentPoly()


def test_pow_binomial_matches_repeated_multiplication():
    base = LaurentPoly([1, 2])
    acc = LaurentPoly([1])
    for n in range(6):
        assert acc == LaurentPoly([math.comb(n, j) * 2**j for j in range(n + 1)])
        acc = acc * base


def test_pow_binomial_coefficients_are_binomials():
    one_plus_t = LaurentPoly([1, 1])
    acc = LaurentPoly([1])
    for _ in range(9):
        acc = acc * one_plus_t
    assert acc.terms() == [(j, math.comb(9, j)) for j in range(10)]
    # no power of t is ever truncated
    t = LaurentPoly([1], low=1)
    assert t * t * t * t == LaurentPoly([1], low=4)


# -- exact division by 1 - t^2 -----------------------------------------


@RING
@given(polys)
def test_exact_divide_recovers_quotient(a):
    assert exact_divide(a * ONE_MINUS_T2) == a


def test_exact_divide_nonzero_remainder_raises():
    for a in (
        LaurentPoly([1, 1]),
        LaurentPoly([1]),
        LaurentPoly([1], low=-2),
        LaurentPoly([1, 0, -1, 1]),
    ):
        with pytest.raises(FormulaIntegrityError):
            exact_divide(a)


def test_exact_divide_t_free_dividend():
    assert exact_divide(LaurentPoly()) == LaurentPoly()
    with pytest.raises(FormulaIntegrityError):
        exact_divide(LaurentPoly([3]))


def test_expand_geometric_inverts_one_minus_monomial():
    # 1 - t^(2n) = (1 - t^2)(1 + t^2 + ... + t^(2n-2))
    for n in range(1, 6):
        quotient = exact_divide(LaurentPoly.from_terms([(0, 1), (2 * n, -1)]))
        assert quotient.terms() == [(2 * i, 1) for i in range(n)]


# -- rendering ---------------------------------------------------------


def test_render_is_deterministic_and_readable():
    a = LaurentPoly.from_terms([(0, 1), (1, -1), (2, 2), (-1, 3)])
    b = LaurentPoly.from_terms([(-1, 3), (2, 2), (1, -1), (0, 1)])
    assert render(a) == render(b) == "3*t^-1 + 1 - t + 2*t^2"
    assert render(LaurentPoly()) == "0"
    assert render(LaurentPoly([-1], low=1)) == "-t"
    assert render(LaurentPoly([-2])) == "-2"
    assert str(a) == render(a)
