"""Fixed-point strata of the circle action on the Higgs-pair moduli space.

Each stratum is labeled by the degree d of a line subbundle L of the rank-2
bundle E (deg E = k, genus g).  Its fixed-point locus is parameterized by a
pair of effective divisors: the vanishing divisor D of the off-diagonal
Higgs component (degree n1 = -2d + k + 2g - 2) and the vanishing divisor D'
of the section (degree n2 = k - d).  The Morse index of the stratum is
2(2d + g - k - 1).

Points of the curve are abstract labels: divisor combinatorics and degree
arithmetic never need coordinates, and section values are never stored (the
pair of sections is unique up to a constant scale once its divisors are
fixed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

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


def _as_multiset(points: Mapping[str, int] | Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    items = points.items() if isinstance(points, Mapping) else points
    out: dict[str, int] = {}
    for label, mult in items:
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise ValueError(f"multiplicity of {label!r} must be a positive integer")
        out[str(label)] = out.get(str(label), 0) + mult
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class DivisorPair:
    """Effective divisors (D, Dp) as multisets of abstract point labels."""

    D: tuple[tuple[str, int], ...]
    Dp: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", _as_multiset(self.D))
        object.__setattr__(self, "Dp", _as_multiset(self.Dp))

    @property
    def deg_D(self) -> int:
        return sum(m for _, m in self.D)

    @property
    def deg_Dp(self) -> int:
        return sum(m for _, m in self.Dp)


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


def _match_stratum(pair: DivisorPair, p) -> int:
    """Degree of the subbundle whose stratum the pair lives on."""
    d = p.k - pair.deg_Dp
    n1, n2 = _exponents(p, d)
    if pair.deg_D != n1 or d not in d_range(p):
        raise ValueError(
            f"divisor degrees (deg D, deg Dp) = ({pair.deg_D}, {pair.deg_Dp}) "
            f"match no stratum of (g, k) = ({p.g}, {p.k})"
        )
    return d


def divisor_bundle_map(pair: DivisorPair, p) -> int:
    """Degree of O(Dp)^2 (x) O(D)^-1 (x) K on a matched pair; always k."""
    _match_stratum(pair, p)
    return 2 * pair.deg_Dp - pair.deg_D + (2 * p.g - 2)


def fixed_point_model(pair: DivisorPair, p, d: int) -> SplitHiggsPairModel:
    """Split model of the fixed point determined by the pair at degree d.

    The off-diagonal Higgs component vanishes on D and the section vanishes
    on Dp; the section lives in the complementary summand Lc = L^-1 (x) det E.
    Constructibility needs only n1, n2 >= 0 and matching divisor degrees, so
    models below the stratum range can be built (they fail the stability
    check, which is the point of testing them).
    """
    n1, n2 = _exponents(p, d)
    if n1 < 0 or n2 < 0:
        raise ValueError(
            f"no model at d = {d}: section degrees (n1, n2) = ({n1}, {n2}) "
            "must be nonnegative"
        )
    if pair.deg_D != n1 or pair.deg_Dp != n2:
        raise ValueError(
            f"divisor degrees (deg D, deg Dp) = ({pair.deg_D}, {pair.deg_Dp}) "
            f"do not match (n1, n2) = ({n1}, {n2}) at d = {d}"
        )
    return SplitHiggsPairModel(
        g=p.g,
        k=p.k,
        dL=d,
        psi_nonzero=True,
        theta_zero=False,
        s_placement="in_Lc",
    )
