"""Fixed-point strata of the circle action on the Higgs-pair moduli space.

Each stratum is labeled by the degree d of a line subbundle L of the rank-2
bundle E (deg E = k, genus g).  Its fixed-point locus is parameterized by a
pair of effective divisors: the vanishing divisor D of the off-diagonal
Higgs component (degree n1 = -2d + k + 2g - 2) and the vanishing divisor D'
of the section (degree n2 = k - d).  The Morse index of the stratum is
2(2d + g - k - 1).

Every term of the Poincare polynomial reads only the degrees (n1, n2) and
the index, so no divisor or point of the curve is ever represented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .stability import SplitHiggsPairModel


@dataclass(frozen=True)
class StratumDescriptor:
    """Derived integer data of the stratum with subbundle degree d."""

    d: int
    n1: int
    n2: int
    index: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError(
                f"symmetric-product exponents must be nonnegative, "
                f"got n1 = {self.n1}, n2 = {self.n2}"
            )

    @property
    def dim(self) -> int:
        """Dimension of the fixed-point locus Sym^n1 x Sym^n2, n1 + n2."""
        return self.n1 + self.n2


def _m_bound(p) -> Fraction:
    return min(Fraction(p.k), Fraction(p.g - 1) + Fraction(p.k, 2))


def d_range(p) -> list[int]:
    """All subbundle degrees d with floor(tau_bar) + 1 <= d <= floor(m).

    m = min{k, g - 1 + k/2}.  Parameters must be valid.
    """
    lo = math.floor(Fraction(p.tau_bar)) + 1
    hi = math.floor(_m_bound(p))
    return list(range(lo, hi + 1))


def _exponents(p, d: int) -> tuple[int, int]:
    return -2 * d + p.k + 2 * p.g - 2, p.k - d


def stratum_descriptor(p, d: int) -> StratumDescriptor:
    """Descriptor of the stratum at degree d; d must lie in d_range(p)."""
    rng = d_range(p)
    if d not in rng:
        raise ValueError(f"d = {d} outside the stratum range {rng}")
    n1, n2 = _exponents(p, d)
    return StratumDescriptor(d=d, n1=n1, n2=n2, index=2 * (2 * d + p.g - p.k - 1))


def fixed_point_model(p, d: int) -> SplitHiggsPairModel:
    """Split model of the fixed points of the stratum at degree d.

    The off-diagonal Higgs component vanishes on a divisor of degree n1 and
    the section on one of degree n2; the section lives in the complementary
    summand Lc = L^-1 (x) det E.  Constructibility needs only n1, n2 >= 0,
    so models below the stratum range can be built (they fail the stability
    check, which is the point of testing them).
    """
    n1, n2 = _exponents(p, d)
    if n1 < 0 or n2 < 0:
        raise ValueError(
            f"no model at d = {d}: section degrees (n1, n2) = ({n1}, {n2}) "
            "must be nonnegative"
        )
    return SplitHiggsPairModel(
        g=p.g,
        k=p.k,
        dL=d,
        psi_nonzero=True,
        theta_zero=False,
        s_placement="in_Lc",
    )
