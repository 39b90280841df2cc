"""Poincare polynomials of rank-2 Higgs-pair moduli spaces.

Two independent routes to the same polynomial, both built by
``betti_report``:

* the direct Morse sum, its ``total`` = minimum-stratum contribution
  (``pairs_poincare_n0``, the tau-stable holomorphic-pairs moduli) plus
  index-shifted symmetric-product polynomials over the higher strata
  (``stratum_poincare``);
* the single generating-function extraction, its ``extractions``, which
  read the same answer off as the coefficient of x^{k+2g} y^{k+2g} in a
  two-part series.

The extraction's strata prefactor carries a y-exponent convention switch:
``as_printed`` uses y^(d-2g) and ``corrected`` uses y^(d+2g).  Only the
corrected convention is consistent with the symmetric-product degrees of
the strata; the as-printed one is still computed so the discrepancy can be
reported rather than silently repaired.  Both floor occurrences in the
generating function are taken of the normalized parameter tau_bar.

``ModuliParams`` validates its values when it is built, so every function
here trusts the parameters it is given.  ``betti_report`` builds everything
one report shows in a single pass: it computes n0 once and each stratum
once, and runs both extraction conventions from that same n0.

All arithmetic is exact integer arithmetic on polynomials in t, and every
x- or y-coefficient is taken from a closed form rather than by expanding a
series:

* Macdonald: the coefficient of x^n in (1+tx)^(2g) / ((1-x)(1-t^2 x)) is
  P_n(t) = sum_j C(2g, j) t^j sum_{i <= n-j} t^(2i), and P_n = 0 for n < 0;
* pairs: with m = k-1-f and f = floor(tau_bar), the coefficient of x^m in
  the minimum-stratum series, before division by 1 - t^2, is
  (1+t)^(2g) sum_{i=0}^{m} P_(m-i) (t^(2m-2i) - t^(2(g+1-k+2f)+4i)).

The extraction keeps only t-degrees up to 2(k+2g).  The as-printed strata
terms reach past that cap and are reported capped; the corrected terms never
reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, sub

from .series import FormulaIntegrityError, LaurentPoly, _trimmed, exact_divide, render
from .stability import require_valid
from .strata import StratumDescriptor, d_range, stratum_descriptor

RANK = 2
AS_PRINTED = "as_printed"
CORRECTED = "corrected"


@dataclass(frozen=True)
class ModuliParams:
    """Parameters of the moduli problem, validated when built.

    tau_bar is the stability parameter rescaled to slope units; it must be
    an exact rational (validation rejects floats).  The rank is RANK.
    Invalid values raise InvalidParamsError listing every violation.
    """

    g: int
    k: int
    tau_bar: Fraction

    def __post_init__(self) -> None:
        require_valid(self)


@dataclass(frozen=True)
class PoincarePolynomial:
    """A polynomial in t with integer coefficients and exponents >= 0."""

    poly: LaurentPoly

    def __post_init__(self) -> None:
        if self.poly.low < 0:
            raise FormulaIntegrityError(
                f"negative t-exponent {self.poly.low} survives in {render(self.poly)}"
            )

    @classmethod
    def from_pairs(cls, pairs) -> "PoincarePolynomial":
        """Build from (exponent, coefficient) pairs."""
        return cls(LaurentPoly.from_terms(pairs))

    def coeff(self, exponent: int) -> int:
        return self.poly.coeff(exponent)

    def as_pairs(self) -> list[tuple[int, int]]:
        """Ordered (exponent, coefficient) pairs."""
        return self.poly.terms()

    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return self.poly.low + len(self.poly.coeffs) - 1 if self.poly.coeffs else -1

    def min_degree(self) -> int:
        return self.poly.low if self.poly.coeffs else -1

    def coefficient_sum(self) -> int:
        return sum(self.poly.coeffs)

    def __add__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        return PoincarePolynomial(self.poly + other.poly)

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        return PoincarePolynomial(self.poly * other.poly)

    def __str__(self) -> str:
        return render(self.poly)


def _macdonald(n: int, g: int) -> LaurentPoly:
    """P_n(t), the coefficient of x^n in (1+tx)^(2g) / ((1-x)(1-t^2 x)).

    Each j <= min(2g, n) adds C(2g, j) along the stride-2 run of exponents
    j, j+2, ..., 2n-j.  The runs are marked in a difference array, +C(2g, j)
    at j and -C(2g, j) at 2n+2-j, and summed with stride 2: O(n + g).
    """
    if n < 0:
        return LaurentPoly()
    cs = [0] * (2 * n + 3)
    for j in range(min(2 * g, n) + 1):
        binom = math.comb(2 * g, j)
        cs[j] += binom
        cs[2 * n + 2 - j] -= binom
    cs[0::2] = accumulate(cs[0::2])
    cs[1::2] = accumulate(cs[1::2])
    return _trimmed(cs)


def sym_poincare(n: int, g: int) -> PoincarePolynomial:
    """Poincare polynomial of the n-th symmetric product of a genus-g surface.

    Coefficient of x^n in (1+tx)^(2g) / ((1-x)(1-t^2 x)); degree 2n.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    if not isinstance(g, int) or isinstance(g, bool) or g < 0:
        raise ValueError(f"g must be a nonnegative integer, got {g!r}")
    return PoincarePolynomial(_macdonald(n, g))


def _pairs_bracket_coeff(p) -> LaurentPoly:
    """Coefficient of x^(k-1-floor(tau_bar)) of the minimum-stratum series.

    The series is (1+t)^(2g) (1+tx)^(2g) / ((1-x)(1-t^2 x)) times the
    bracket t^(2(k-1-f)) / (1 - t^-2 x) - t^(2(g+1-k+2f)) / (1 - t^4 x)
    with f = floor(tau_bar); the global 1/(1-t^2) is divided off by the
    caller.  Returned before division, as a Laurent polynomial in t.
    """
    g, k = p.g, p.k
    f = math.floor(Fraction(p.tau_bar))
    m = k - 1 - f
    c = g + 1 - k + 2 * f
    # P_(m-i) has degree 2(m-i): its +copy at t^(2m-2i) ends at t^(4m-4i),
    # its -copy at t^(2c+4i) ends at t^(2c+2m+2i).
    low = min(0, 2 * c)
    cs = [0] * (max(4 * m, 2 * c + 4 * m) + 1 - low)
    for i in range(m + 1):
        p_mi = _macdonald(m - i, g).coeffs
        for start, op in ((2 * m - 2 * i - low, add), (2 * c + 4 * i - low, sub)):
            stop = start + len(p_mi)
            cs[start:stop] = map(op, cs[start:stop], p_mi)
    one_plus_t = _trimmed([math.comb(2 * g, j) for j in range(2 * g + 1)])
    return one_plus_t * _trimmed(cs, low)


def pairs_poincare_n0(p) -> PoincarePolynomial:
    """Poincare polynomial of the tau-stable holomorphic-pairs moduli (minimum stratum).

    Negative t-exponents must cancel between the two bracket terms and the
    division by (1 - t^2) must be exact; either failure raises
    FormulaIntegrityError.
    """
    numerator = _pairs_bracket_coeff(p)
    if numerator.low < 0:
        negatives = [e for e, _ in numerator.terms() if e < 0]
        raise FormulaIntegrityError(
            f"negative t-exponents {negatives} survive the bracket difference"
        )
    return PoincarePolynomial(exact_divide(numerator))


def stratum_poincare(p, d: int) -> PoincarePolynomial:
    """t^index times the two symmetric-product polynomials of the stratum."""
    desc = stratum_descriptor(p, d)
    product = _macdonald(desc.n1, p.g) * _macdonald(desc.n2, p.g)
    return PoincarePolynomial(product.shift(desc.index))


def _extraction(p, n0: PoincarePolynomial, y_exponent_convention: str) -> PoincarePolynomial:
    """Coefficient of x^(k+2g) y^(k+2g) in the displayed two-part series,
    given the minimum stratum n0.

    The minimum-stratum part carries prefactor x^(2g+1+floor(tau_bar))
    y^(k+2g), so its y-extraction is trivial and its x-extraction reduces
    to the pairs formula: it is n0.  The strata part is, for each d in the
    range,

        t^(2(2d+g-k-1)) x^(2d+2) y^(Y) (1+tx)^(2g) (1+ty)^(2g)
            / ((1-x)(1-y)(1-t^2 x)(1-t^2 y))

    with Y = d - 2g under AS_PRINTED and Y = d + 2g under CORRECTED.  Only
    CORRECTED is expected to match the direct Morse sum.  The strata terms
    are read off the series here, never taken from the direct route's
    stratum polynomials, so the two routes stay independent.
    """
    g, k = p.g, p.k
    target = k + 2 * g
    # The extraction is read in t-degrees up to 2(k+2g) only: the as-printed
    # mismatch recorded in tests/golden/ (betti_g2_k5.json and
    # extraction_as_printed_mismatch.json) is that of the capped sum, since
    # the as-printed y-exponent pushes strata terms past the cap.  Corrected
    # terms end below it, so the cap leaves that convention untouched.
    cap = 2 * target

    result = n0.poly
    for d in d_range(p):
        index = 2 * (2 * d + g - k - 1)
        x_target = target - (2 * d + 2)
        if y_exponent_convention == CORRECTED:
            y_target = target - (d + 2 * g)
        else:
            y_target = target - (d - 2 * g)
        # The product's terms above t^top fall past the cap, and its term at
        # t^e reads each factor only up to t^(e - low of the other factor).
        top = cap - index
        x_poly, y_poly = _macdonald(x_target, g), _macdonald(y_target, g)
        term = _up_to(x_poly, top - y_poly.low) * _up_to(y_poly, top - x_poly.low)
        result = result + _up_to(term, top).shift(index)
    return PoincarePolynomial(result)


def _up_to(poly: LaurentPoly, top: int) -> LaurentPoly:
    """poly without its terms above t^top."""
    return _trimmed(poly.coeffs[: max(top - poly.low + 1, 0)], poly.low)


@dataclass(frozen=True)
class BettiReport:
    """What one ``higgspairs betti`` report shows, each piece computed once.

    ``strata`` pairs each stratum's descriptor with its polynomial, in
    d order; ``extractions`` maps each y-exponent convention, corrected
    first, to its theorem extraction.
    """

    n0: PoincarePolynomial
    strata: tuple[tuple[StratumDescriptor, PoincarePolynomial], ...]
    total: PoincarePolynomial
    extractions: dict[str, PoincarePolynomial]


def betti_report(p) -> BettiReport:
    """n0, the strata, their total and both extractions in one pass.

    n0 is computed once; both extractions start from that same n0 but read
    their strata terms off the generating function, independently of the
    direct route.
    """
    n0 = pairs_poincare_n0(p)
    strata = tuple((stratum_descriptor(p, d), stratum_poincare(p, d)) for d in d_range(p))
    total = sum((poly for _, poly in strata), n0)
    extractions = {c: _extraction(p, n0, c) for c in (CORRECTED, AS_PRINTED)}
    return BettiReport(n0=n0, strata=strata, total=total, extractions=extractions)
