"""Betti-number generating functions: oracles, goldens and dual routes."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest

from higgspairs.betti import (
    AS_PRINTED,
    CORRECTED,
    ModuliParams,
    PoincarePolynomial,
    _macdonald,
    betti_report,
    pairs_poincare_n0,
    stratum_poincare,
    sym_poincare,
)
from higgspairs.series import FormulaIntegrityError, LaurentPoly
from higgspairs.stability import InvalidParamsError
from higgspairs.strata import d_range, stratum_descriptor


def macdonald_oracle(n: int, g: int) -> list[tuple[int, int]]:
    """Coefficient of x^n in (1+tx)^(2g)/((1-x)(1-t^2 x)) by direct convolution.

    Written independently of the series module: expand the binomial factor as
    sum_j C(2g, j) t^j x^j and the two geometric factors as sums over a and b
    of x^a and t^(2b) x^b, then collect j + a + b = n.
    """
    coeffs: dict[int, int] = {}
    for j in range(0, min(2 * g, n) + 1):
        c = math.comb(2 * g, j)
        for b in range(0, n - j + 1):
            e = j + 2 * b
            coeffs[e] = coeffs.get(e, 0) + c
    return sorted((e, c) for e, c in coeffs.items() if c)


def mid_tau(k: int) -> Fraction:
    return Fraction(k, 2) + Fraction(1, 4)


# The acceptance theorem grid plus the smallest valid degree k = 4g - 3 for
# g = 4..8.
ORACLE_GRID = [
    ModuliParams(g=g, k=k, tau_bar=mid_tau(k))
    for g, k in [(2, 5), (2, 7), (2, 9), (2, 11), (3, 9), (3, 11), (3, 13), (3, 15)]
    + [(g, 4 * g - 3) for g in range(4, 9)]
]


def euler_characteristic(poly: PoincarePolynomial) -> int:
    """P(-1), summed from the coefficient pairs."""
    return sum(c * (-1) ** e for e, c in poly.as_pairs())


# -- symmetric-product polynomials -------------------------------------


def test_sym_poincare_matches_convolution_oracle():
    # n <= 70 covers every P_n a benchmark-ladder report takes: g = 2..8
    # at k = 4g - 3 and (8, 61) reach n = 62.
    for g in range(0, 9):
        for n in range(0, 71):
            assert sym_poincare(n, g).as_pairs() == macdonald_oracle(n, g)
        for n in (-1, -2, -7):
            assert _macdonald(n, g) == LaurentPoly()


def test_sym_poincare_base_cases():
    for g in range(0, 6):
        assert sym_poincare(0, g).as_pairs() == [(0, 1)]
        want = [(e, c) for e, c in ((0, 1), (1, 2 * g), (2, 1)) if c]
        assert sym_poincare(1, g).as_pairs() == want
    assert sym_poincare(2, 2).as_pairs() == [(0, 1), (1, 4), (2, 7), (3, 4), (4, 1)]
    assert sym_poincare(3, 2).as_pairs() == [
        (0, 1), (1, 4), (2, 7), (3, 8), (4, 7), (5, 4), (6, 1),
    ]


def test_sym_poincare_palindromic_of_degree_2n():
    for g in range(1, 4):
        for n in range(1, 8):
            poly = sym_poincare(n, g)
            assert poly.degree() == 2 * n
            assert poly.coeff(0) == 1
            for e, c in poly.as_pairs():
                assert poly.coeff(2 * n - e) == c


def test_sym_poincare_euler_characteristic():
    # Macdonald: sum_n chi(Sym^n) x^n = (1 - x)^(2g - 2)
    for g in range(1, 6):
        for n in range(0, 13):
            want = (-1) ** n * math.comb(2 * g - 2, n)
            assert euler_characteristic(sym_poincare(n, g)) == want, (g, n)


def test_sym_poincare_validates_arguments():
    for bad in (-1, 1.5, True, "2"):
        with pytest.raises(ValueError):
            sym_poincare(bad, 2)
        with pytest.raises(ValueError):
            sym_poincare(2, bad)


# -- PoincarePolynomial container --------------------------------------


def test_polynomial_pairs_roundtrip_and_accessors():
    poly = PoincarePolynomial.from_pairs([(0, 1), (3, 5), (2, 0)])
    assert poly.as_pairs() == [(0, 1), (3, 5)]
    assert poly.coeff(3) == 5 and poly.coeff(1) == 0
    assert poly.degree() == 3 and poly.min_degree() == 0
    assert poly.coefficient_sum() == 6
    assert str(poly) == "1 + 5*t^3"


def test_polynomial_addition_and_multiplication():
    a = PoincarePolynomial.from_pairs([(0, 1), (1, 1)])
    b = PoincarePolynomial.from_pairs([(0, 1), (1, -1)])
    assert (a * b).as_pairs() == [(0, 1), (2, -1)]
    assert (a + b).as_pairs() == [(0, 2)]


def test_polynomial_rejects_negative_exponents_and_fractions():
    with pytest.raises(FormulaIntegrityError):
        PoincarePolynomial(LaurentPoly([1], low=-1))
    with pytest.raises(FormulaIntegrityError):
        PoincarePolynomial.from_pairs([(-1, 1), (0, 1)])
    # non-integer coefficients are refused by the kernel itself
    with pytest.raises(TypeError):
        PoincarePolynomial.from_pairs([(1, Fraction(1, 2))])


# -- minimum stratum (holomorphic pairs) --------------------------------


def test_pairs_polynomial_golden_g2_k5():
    p = ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4))
    assert pairs_poincare_n0(p).as_pairs() == [
        (0, 1), (1, 4), (2, 8), (3, 16), (4, 32), (5, 48), (6, 55), (7, 56),
        (8, 55), (9, 48), (10, 32), (11, 16), (12, 8), (13, 4), (14, 1),
    ]


def test_pairs_polynomial_has_unit_constant_term_and_no_negatives():
    for g, k in ((2, 5), (2, 7), (3, 9), (3, 11)):
        poly = pairs_poincare_n0(ModuliParams(g=g, k=k, tau_bar=mid_tau(k)))
        assert poly.coeff(0) == 1
        assert all(c > 0 for _, c in poly.as_pairs())


def test_pairs_polynomial_palindromic_with_vanishing_euler_characteristic():
    for p in ORACLE_GRID:
        poly = pairs_poincare_n0(p)
        top = 2 * (p.k + 2 * p.g - 2)
        assert poly.coeff(0) == 1, (p.g, p.k)
        assert poly.degree() == top, (p.g, p.k)
        for e, c in poly.as_pairs():
            assert poly.coeff(top - e) == c, (p.g, p.k, e)
        assert euler_characteristic(poly) == 0, (p.g, p.k)


def dict_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, x in a.items():
        for f, y in b.items():
            out[e + f] = out.get(e + f, 0) + x * y
    return out


def dict_add(a: dict[int, int], b: dict[int, int], sign: int = 1) -> dict[int, int]:
    out = dict(a)
    for e, y in b.items():
        out[e] = out.get(e, 0) + sign * y
    return out


def projective_space(n: int) -> dict[int, int]:
    """P(P^n) = 1 + t^2 + ... + t^(2n)."""
    return {2 * j: 1 for j in range(n + 1)}


def thaddeus_n0(g: int, k: int) -> list[tuple[int, int]]:
    """n0 from Thaddeus's flips (Invent. Math. 117, 1994), sharing no code with betti.

    The rank-2 stable pairs of fixed odd determinant of degree k start at
    M_1 = P^(k+g-2); the flip at i replaces a P^(i-1)-bundle over Sym^i C by
    a P^(k+g-2-2i)-bundle, so P(M_(i+1)) = P(M_i) + P(Sym^i C) (P(P^(k+g-2-2i))
    - P(P^(i-1))), and n0 = (1+t)^(2g) P(M_((k+1)/2)).
    """
    moduli = projective_space(k + g - 2)
    for i in range(1, (k - 1) // 2 + 1):
        flip = dict_add(projective_space(k + g - 2 - 2 * i), projective_space(i - 1), -1)
        moduli = dict_add(moduli, dict_mul(dict(macdonald_oracle(i, g)), flip))
    one_plus_t = {j: math.comb(2 * g, j) for j in range(2 * g + 1)}
    return sorted((e, c) for e, c in dict_mul(one_plus_t, moduli).items() if c)


def test_pairs_polynomial_matches_thaddeus_flips():
    cases = [(g, k) for g in range(2, 9) for k in range(4 * g - 3, 4 * g + 12, 2)] + [(8, 61)]
    assert len(cases) == 57
    for g, k in cases:
        p = ModuliParams(g=g, k=k, tau_bar=mid_tau(k))
        assert pairs_poincare_n0(p).as_pairs() == thaddeus_n0(g, k), (g, k)


def test_pairs_polynomial_rejects_invalid_params():
    with pytest.raises(InvalidParamsError):
        pairs_poincare_n0(ModuliParams(g=2, k=6, tau_bar=Fraction(13, 4)))
    with pytest.raises(InvalidParamsError):
        pairs_poincare_n0(ModuliParams(g=1, k=5, tau_bar=Fraction(11, 4)))
    with pytest.raises(InvalidParamsError):
        pairs_poincare_n0(ModuliParams(g=2, k=5, tau_bar=Fraction(3)))


# -- higher strata -------------------------------------------------------


def test_stratum_polynomial_golden_g2_k5():
    p = ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4))
    assert d_range(p) == [3]
    assert stratum_poincare(p, 3).as_pairs() == [
        (4, 1), (5, 8), (6, 24), (7, 36), (8, 24), (9, 8), (10, 1),
    ]


def test_stratum_degree_bookkeeping():
    # lowest term sits at the Morse index, top at index + 2 dim
    for g, k in ((2, 5), (2, 7), (3, 9), (3, 11), (4, 13)):
        p = ModuliParams(g=g, k=k, tau_bar=mid_tau(k))
        for d in d_range(p):
            desc = stratum_descriptor(p, d)
            poly = stratum_poincare(p, d)
            assert poly.min_degree() == desc.index == 2 * (2 * d + g - k - 1)
            assert poly.degree() == desc.index + 2 * desc.dim
            assert poly.coeff(desc.index) == 1
            assert poly.coeff(poly.degree()) == 1
            assert all(c > 0 for _, c in poly.as_pairs())


def test_stratum_rejects_out_of_range_degree():
    p = ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4))
    for d in (2, 4):
        with pytest.raises(ValueError):
            stratum_poincare(p, d)


# -- total and the generating-function route ----------------------------


def test_total_golden_g2_k5():
    p = ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4))
    assert betti_report(p).total.as_pairs() == [
        (0, 1), (1, 4), (2, 8), (3, 16), (4, 33), (5, 56), (6, 79), (7, 92),
        (8, 79), (9, 56), (10, 33), (11, 16), (12, 8), (13, 4), (14, 1),
    ]


def test_extraction_corrected_matches_total():
    for g, k in ((2, 5), (3, 9)):
        report = betti_report(ModuliParams(g=g, k=k, tau_bar=mid_tau(k)))
        assert report.extractions[CORRECTED] == report.total


def test_extraction_as_printed_differs():
    report = betti_report(ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4)))
    assert report.extractions[AS_PRINTED] != report.total


def test_total_independent_of_tau_bar_within_floor_window():
    # any tau_bar with the same floor selects the same strata
    a = ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4))
    b = ModuliParams(g=2, k=5, tau_bar=Fraction(14, 5))
    assert betti_report(a).total == betti_report(b).total
    assert pairs_poincare_n0(a) == pairs_poincare_n0(b)


def test_total_euler_characteristic_is_sum_over_strata():
    # chi(Sym^n1 x Sym^n2) from the binomial formula; the minimum stratum
    # contributes 0 and every Morse index is even.
    for p in ORACLE_GRID:
        want = 0
        for d in d_range(p):
            n1, n2 = p.k + 2 * p.g - 2 - 2 * d, p.k - d
            want += (-1) ** (n1 + n2) * math.comb(2 * p.g - 2, n1) * math.comb(
                2 * p.g - 2, n2
            )
        assert euler_characteristic(betti_report(p).total) == want, (p.g, p.k)


def test_total_coefficients_positive():
    for g, k in ((2, 5), (2, 7), (3, 9)):
        poly = betti_report(ModuliParams(g=g, k=k, tau_bar=mid_tau(k))).total
        assert poly.coeff(0) == 1
        assert all(c > 0 for _, c in poly.as_pairs())


# -- the Higgs-bundle fibration ------------------------------------------
#
# For k > 6g - 6 every Higgs-stable rank-2 bundle of degree k has H^1(E) = 0,
# so its sections form a P^(k+1-2g)-bundle over the Higgs moduli space.  The
# Poincare polynomial H of that space is the Morse sum for GL(2), odd-degree
# Higgs bundles (Hitchin, Proc. LMS 1987).  The pair total misses the fixed
# components with the section in L, one of index 2d per stratum, so
#
#     total + sum_d t^(2d) P(Sym^n1) P(Sym^d) = H P(P^(k+1-2g)).
#
# The polynomials below are dicts {exponent: coefficient}, built without
# the betti or series modules.


def poly_add(*polys: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for poly in polys:
        for e, c in poly.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def poly_pow(a: dict[int, int], n: int) -> dict[int, int]:
    out = {0: 1}
    for _ in range(n):
        out = poly_mul(out, a)
    return out


def poly_shift(a: dict[int, int], s: int) -> dict[int, int]:
    return {e + s: c for e, c in a.items()}


def divide_one_minus(a: dict[int, int], step: int) -> dict[int, int]:
    """a / (1 - t^step), which must be exact."""
    q: dict[int, int] = {}
    for e in range(min(a), max(a) - step + 1):
        c = a.get(e, 0) + q.get(e - step, 0)
        if c:
            q[e] = c
    assert poly_mul(q, {0: 1, step: -1}) == a
    return q


def higgs_poincare(g: int, k: int) -> dict[int, int]:
    """H: (1+t)^(2g) P(N0) plus t^(2(g+2d-k-1)) (1+t)^(2g) P(Sym^m) for
    each d > k/2 with m = 2g - 2 + k - 2d >= 0, where P(N0) =
    [(1+t^3)^(2g) - t^(2g) (1+t)^(2g)] / ((1-t^2)(1-t^4))."""
    jacobian = poly_pow({0: 1, 1: 1}, 2 * g)
    minus_jacobian = {e: -c for e, c in jacobian.items()}
    n0 = poly_add(poly_pow({0: 1, 3: 1}, 2 * g), poly_shift(minus_jacobian, 2 * g))
    h = poly_mul(jacobian, divide_one_minus(divide_one_minus(n0, 2), 4))
    for d in range((k + 1) // 2, (2 * g - 2 + k) // 2 + 1):
        m = 2 * g - 2 + k - 2 * d
        term = poly_mul(jacobian, dict(macdonald_oracle(m, g)))
        h = poly_add(h, poly_shift(term, 2 * (g + 2 * d - k - 1)))
    return h


def test_total_fibres_over_higgs_moduli_exactly_above_6g_minus_6():
    holds = fails = 0
    for g in range(2, 7):
        for k in range(4 * g - 3, 6 * g + 12, 2):
            p = ModuliParams(g=g, k=k, tau_bar=Fraction(2 * k + 1, 4))
            lhs = dict(betti_report(p).total.as_pairs())
            for d in d_range(p):
                n1 = stratum_descriptor(p, d).n1
                sections_in_l = poly_mul(
                    dict(macdonald_oracle(n1, g)), dict(macdonald_oracle(d, g))
                )
                lhs = poly_add(lhs, poly_shift(sections_in_l, 2 * d))
            fibre = {2 * i: 1 for i in range(k + 2 - 2 * g)}
            identity = lhs == poly_mul(higgs_poincare(g, k), fibre)
            assert identity == (k > 6 * g - 6), (g, k)
            holds += identity
            fails += not identity
    assert (holds, fails) == (45, 15)


# -- the one-pass report builder ----------------------------------------


def test_report_agrees_with_the_public_functions():
    for p in ORACLE_GRID + [ModuliParams(g=8, k=61, tau_bar=mid_tau(61))]:
        built = betti_report(p)
        assert built.n0 == pairs_poincare_n0(p), (p.g, p.k)
        assert [desc for desc, _ in built.strata] == [
            stratum_descriptor(p, d) for d in d_range(p)
        ], (p.g, p.k)
        assert [poly for _, poly in built.strata] == [
            stratum_poincare(p, d) for d in d_range(p)
        ], (p.g, p.k)
        assert built.total == sum(
            (stratum_poincare(p, d) for d in d_range(p)), pairs_poincare_n0(p)
        ), (p.g, p.k)
        assert list(built.extractions) == [CORRECTED, AS_PRINTED]
        assert built.extractions[CORRECTED] == built.total, (p.g, p.k)


@pytest.mark.parametrize(
    "call",
    [
        betti_report,
        lambda p: betti_report(p).total,
        lambda p: stratum_poincare(p, 3),
        lambda p: betti_report(p).extractions[CORRECTED],
        lambda p: betti_report(p).extractions[AS_PRINTED],
    ],
    ids=["betti_report", "total", "stratum", "extraction_corrected", "extraction_as_printed"],
)
def test_public_entry_points_reject_invalid_params(call):
    # An invalid set cannot reach an entry point: building it, directly or by
    # replacing fields of a valid set, raises before the call is made.
    valid = ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4))
    for bad in (
        dict(g=2, k=6, tau_bar=Fraction(13, 4)),
        dict(g=1, k=5, tau_bar=Fraction(11, 4)),
        dict(g=2, k=5, tau_bar=Fraction(3)),
        dict(g=2, k=5, tau_bar=2.75),
    ):
        with pytest.raises(InvalidParamsError):
            call(ModuliParams(**bad))
        with pytest.raises(InvalidParamsError):
            call(dataclasses.replace(valid, **bad))


def test_moduli_params_reject_invalid_params():
    # Parameters are validated once, when built, so no entry point ever sees
    # an invalid set.
    for kwargs, message in (
        (dict(g=2, k=6, tau_bar=Fraction(13, 4)), "k must be odd, got gcd(k, 2) = 2"),
        (dict(g=1, k=5, tau_bar=Fraction(11, 4)), "g >= 2 required, got g = 1"),
        (
            dict(g=2, k=5, tau_bar=Fraction(3)),
            "tau_bar must lie strictly between k/2 = 5/2 and (k+1)/2 = 3, got 3; "
            "tau_bar must not be an integer, got 3",
        ),
        (dict(g=2, k=5, tau_bar=2.75), "tau_bar must be an exact rational, got float"),
    ):
        with pytest.raises(InvalidParamsError) as err:
            ModuliParams(**kwargs)
        assert str(err.value) == message
    # The rank is the constant RANK, not a field a caller could set.
    with pytest.raises(TypeError):
        ModuliParams(g=2, k=5, tau_bar=Fraction(11, 4), r=3)
