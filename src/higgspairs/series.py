"""Exact Laurent polynomials in t with integer coefficients.

A :class:`LaurentPoly` is the finite sum of ``c_i t^(low + i)``, held as a
tuple of ``int`` coefficients (no zeros at either end) plus the lowest
exponent ``low``.  Arithmetic is exact and untruncated: the Poincare
polynomials built from it are finite, so no window is ever needed.

The only division is by ``1 - t^2`` (:func:`exact_divide`), and it must
leave no remainder.
"""

from __future__ import annotations

from typing import Iterable


class FormulaIntegrityError(ArithmeticError):
    """An exactness check failed (nonzero remainder, surviving Laurent tail).

    Raised when a computation that must close exactly does not; this always
    signals a transcription or bookkeeping bug, never bad user input.
    """


class LaurentPoly:
    """Immutable ``sum(c_i t^(low + i))`` with ``int`` coefficients."""

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs: Iterable[int] = (), low: int = 0) -> None:
        cs = list(coeffs)
        for c in cs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"int coefficient required, got {type(c).__name__}")
        start, stop = 0, len(cs)
        while start < stop and cs[start] == 0:
            start += 1
        while stop > start and cs[stop - 1] == 0:
            stop -= 1
        self.coeffs = tuple(cs[start:stop])
        self.low = low + start if self.coeffs else 0

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]]) -> LaurentPoly:
        """Sum of ``c t^e`` over (e, c) pairs; repeated exponents add up."""
        terms = list(terms)
        if not terms:
            return cls()
        low = min(e for e, _ in terms)
        cs = [0] * (max(e for e, _ in terms) - low + 1)
        for e, c in terms:
            cs[e - low] += c
        return cls(cs, low)

    def terms(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in increasing exponent."""
        return [(self.low + i, c) for i, c in enumerate(self.coeffs) if c]

    def coeff(self, exponent: int) -> int:
        i = exponent - self.low
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def shift(self, e: int) -> LaurentPoly:
        """Multiply by t^e."""
        return LaurentPoly(self.coeffs, self.low + e)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        low = min(self.low, other.low)
        top = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        cs = [0] * (top - low)
        for p in (self, other):
            for i, c in enumerate(p.coeffs, p.low - low):
                cs[i] += c
        return LaurentPoly(cs, low)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        cs = [0] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    cs[j] += a * b
        return LaurentPoly(cs, self.low + other.low)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.low, self.coeffs) == (other.low, other.coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        return render(self)


def exact_divide(a: LaurentPoly) -> LaurentPoly:
    """Divide by ``1 - t^2``; a nonzero remainder raises FormulaIntegrityError.

    Callers divide only quantities that are exactly divisible when
    transcribed correctly, so a remainder always means a bookkeeping bug.
    """
    q = list(a.coeffs)
    for j in range(2, len(q)):
        q[j] += q[j - 2]
    if any(q[-2:]):
        raise FormulaIntegrityError(
            f"division of {render(a)} by 1 - t^2 leaves remainder "
            f"{render(LaurentPoly(q[-2:], a.low + max(len(q) - 2, 0)))}"
        )
    return LaurentPoly(q[:-2], a.low)


def render(a: LaurentPoly) -> str:
    """Deterministic text form, terms in increasing exponent."""
    pieces: list[str] = []
    for e, c in a.terms():
        mag = abs(c)
        factor = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        if not factor:
            body = str(mag)
        elif mag == 1:
            body = factor
        else:
            body = f"{mag}*{factor}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(pieces) or "0"
