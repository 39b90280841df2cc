"""Parameter validation and slope stability for split rank-2 Higgs-pair models.

A split model is a rank-2 bundle E = L + Lc (Lc the complementary line
bundle, so deg Lc = k - dL with k = deg E) carrying a Higgs field whose
shape is recorded by two flags and a section-placement tag.  Stability of a
pair against the parameter ``tau_bar`` (the stability parameter rescaled to
slope units) is decided by strict slope inequalities over the invariant
summand subbundles:

1. every invariant subbundle F (E itself included) satisfies
   ``slope(F) < tau_bar``;
2. every proper invariant F whose summand contains the section s satisfies
   ``slope(E/F) > tau_bar``; a model with no section (s_placement "zero")
   quantifies condition (2) over every proper invariant F.

Scope limitation: only the two summand line subbundles (and E) are tested.
Sub-line-bundles of a nontrivial extension are not enumerable from the
discrete data carried here; the split fixed-point models never need them.

The analytic fact that a stable pair forces s != 0 is *not* folded into the
verdict: it is a consequence of the existence theory, not of the slope
inequalities, so it surfaces only as an advisory note on the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

S_PLACEMENTS = ("in_L", "in_Lc", "zero")


class InvalidParamsError(ValueError):
    """Moduli parameters violate a validity constraint."""


def require_valid(p) -> None:
    """Raise InvalidParamsError listing every violation of ``p``."""
    violations = validate_params(p)
    if violations:
        raise InvalidParamsError("; ".join(violations))


@dataclass(frozen=True)
class SplitHiggsPairModel:
    """Discrete data of a split rank-2 Higgs-pair model.

    Fields
    ------
    g, k, dL:
        Genus, degree of det E, degree of the summand L.
    psi_nonzero:
        Whether the off-diagonal Higgs component (a section of
        L^-2 (x) det E (x) K, degree k - 2 dL + 2g - 2) is nonzero.
    theta_zero:
        Whether the Higgs field vanishes identically.
    s_placement:
        Which summand carries the section: "in_L", "in_Lc", or "zero".
    """

    g: int
    k: int
    dL: int
    psi_nonzero: bool
    theta_zero: bool
    s_placement: str

    def __post_init__(self) -> None:
        # bool is an int subclass and a JSON string is truthy: check types
        # before any value is read as a number or a flag.
        for name in ("g", "k", "dL"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("psi_nonzero", "theta_zero"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be a boolean, got {value!r}")
        if self.g < 0:
            raise ValueError(f"genus must be nonnegative, got {self.g}")
        if self.s_placement not in S_PLACEMENTS:
            raise ValueError(
                f"s_placement must be one of {S_PLACEMENTS}, got {self.s_placement!r}"
            )
        if self.psi_nonzero and self.theta_zero:
            raise ValueError("psi_nonzero contradicts theta_zero")
        if self.psi_nonzero:
            deg_psi = self.k - 2 * self.dL + 2 * self.g - 2
            if deg_psi < 0:
                raise ValueError(
                    f"nonzero off-diagonal Higgs component needs nonnegative degree, "
                    f"got k - 2*dL + 2g - 2 = {deg_psi}"
                )
        if self.s_placement == "in_L" and self.dL < 0:
            raise ValueError(f"section in L needs dL >= 0, got dL = {self.dL}")
        if self.s_placement == "in_Lc" and self.k - self.dL < 0:
            raise ValueError(
                f"section in Lc needs k - dL >= 0, got {self.k - self.dL}"
            )
        if self.psi_nonzero and self.s_placement == "in_L":
            raise ValueError(
                "a nonzero section placed in L trivialises L away from its zeros, "
                "forcing the off-diagonal Higgs component to vanish; "
                "psi_nonzero with s_placement='in_L' is contradictory"
            )


@dataclass(frozen=True)
class Witness:
    """A violated stability inequality: which F, which condition, both sides."""

    subbundle: str
    condition: int
    slope: Fraction
    bound: Fraction

    def describe(self) -> str:
        if self.condition == 1:
            return (
                f"condition (1) fails for F = {self.subbundle}: "
                f"slope(F) = {self.slope} is not < {self.bound}"
            )
        return (
            f"condition (2) fails for F = {self.subbundle}: "
            f"slope(E/F) = {self.slope} is not > {self.bound}"
        )


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    witness: Optional[Witness] = None
    advisories: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.stable and self.witness is None:
            raise ValueError("unstable verdict requires a witness")


def validate_params(p) -> list[str]:
    """Report every violated moduli-parameter constraint (empty list = ok).

    Constraints: g >= 2; k odd; k/2 < tau_bar < (k+1)/2; tau_bar not an
    integer and not k/2; k > 4g - 4.  ``p`` needs attributes g, k, tau_bar
    with tau_bar an exact rational.
    """
    violations: list[str] = []
    g, k = p.g, p.k
    if not isinstance(g, int) or isinstance(g, bool):
        violations.append(f"g must be an integer, got {g!r}")
        return violations
    if not isinstance(k, int) or isinstance(k, bool):
        violations.append(f"k must be an integer, got {k!r}")
        return violations
    tau = p.tau_bar
    if isinstance(tau, float) or not isinstance(tau, (int, Fraction)):
        violations.append(
            f"tau_bar must be an exact rational, got {type(tau).__name__}"
        )
        return violations
    tau = Fraction(tau)
    if g < 2:
        violations.append(f"g >= 2 required, got g = {g}")
    if math.gcd(k, 2) != 1:
        violations.append(f"k must be odd, got gcd(k, 2) = {math.gcd(k, 2)}")
    lo, hi = Fraction(k, 2), Fraction(k + 1, 2)
    if not (lo < tau < hi):
        violations.append(
            f"tau_bar must lie strictly between k/2 = {lo} and (k+1)/2 = {hi}, "
            f"got {tau}"
        )
    if tau.denominator == 1:
        violations.append(f"tau_bar must not be an integer, got {tau}")
    if tau == lo:
        violations.append(f"tau_bar must differ from k/2 = {lo}")
    if k <= 4 * g - 4:
        violations.append(f"k > 4g - 4 = {4 * g - 4} required, got k = {k}")
    return violations


def invariant_subbundles(m: SplitHiggsPairModel) -> list[tuple[str, Fraction]]:
    """The Higgs-invariant summand line subbundles with their slopes.

    The off-diagonal Higgs component maps L into the twist of Lc, so L is
    invariant exactly when that component vanishes; Lc is mapped to zero and
    is always invariant.
    """
    out: list[tuple[str, Fraction]] = []
    if not m.psi_nonzero:
        out.append(("L", Fraction(m.dL)))
    out.append(("Lc", Fraction(m.k - m.dL)))
    return out


def _contains_section(m: SplitHiggsPairModel, name: str) -> bool:
    if m.s_placement == "zero":
        return True  # vacuous containment: condition (2) ranges over all F
    return (m.s_placement == "in_L") == (name == "L")


def is_tau_stable_split(m: SplitHiggsPairModel, tau_bar: Fraction) -> StabilityVerdict:
    """Decide stability of a split model against ``tau_bar``.

    The quotient-slope condition (2) is evaluated before the subbundle
    condition (1), so when several inequalities fail the reported witness is
    the first failing quotient inequality.
    """
    tau = Fraction(tau_bar)
    invariants = invariant_subbundles(m)
    advisories: list[str] = []
    if m.s_placement == "zero":
        advisories.append(
            "model has no section; a solvable pair forces s != 0, but that is "
            "an analytic fact and is not part of this slope verdict"
        )
    for name, slope in invariants:
        if _contains_section(m, name):
            q_slope = Fraction(m.k) - slope  # slope(E/F) for a line subbundle
            if not (q_slope > tau):
                return StabilityVerdict(
                    False,
                    Witness(name, 2, q_slope, tau),
                    tuple(advisories),
                )
    for name, slope in invariants + [("E", Fraction(m.k, 2))]:
        if not (slope < tau):
            return StabilityVerdict(
                False,
                Witness(name, 1, slope, tau),
                tuple(advisories),
            )
    return StabilityVerdict(True, None, tuple(advisories))


def check_higgs_stability(m: SplitHiggsPairModel) -> bool:
    """True iff every proper invariant summand has slope below k/2."""
    bound = Fraction(m.k, 2)
    return all(slope < bound for _, slope in invariant_subbundles(m))
