"""Exact Laurent polynomials in t with integer coefficients.

A :class:`LaurentPoly` is the finite sum of ``c_i t^(low + i)``, held as a
tuple of ``int`` coefficients (no zeros at either end) plus the lowest
exponent ``low``.  Arithmetic is exact and untruncated: the Poincare
polynomials built from it are finite, so no window is ever needed.

The only division is by ``1 - t^2`` (:func:`exact_divide`), and it must
leave no remainder.

Only the public constructor checks that coefficients are ints.  Sums,
products and quotients are ints by construction, so they are built by
``_trimmed``, which trims zeros and checks nothing.  Products go by
Kronecker substitution: one multiplication of two Python ints.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Iterable, Sequence


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
        self._hold(cs, low)

    def _hold(self, cs: Sequence[int], low: int) -> None:
        """Hold the ints cs from t^low up, trimmed of zeros at both ends."""
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
        return _trimmed(self.coeffs, self.low + e)

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        low = min(self.low, other.low)
        top = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        cs = [0] * (top - low)
        for p in (self, other):
            i = p.low - low
            j = i + len(p.coeffs)
            cs[i:j] = map(add, cs[i:j], p.coeffs)
        return _trimmed(cs, low)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        """Product by Kronecker substitution.

        Both factors are evaluated at t = 2^w as Python ints and multiplied
        once; the product's coefficients are the signed w-bit digits of the
        result.  No product coefficient exceeds bound = max|a| max|b|
        min(len a, len b) in size, and w is the first multiple of 8 with
        bound < 2^(w-1), so no digit reaches into its neighbour.
        """
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LaurentPoly()
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        nb = bound.bit_length() // 8 + 1
        n = len(a) + len(b) - 1
        # 2^(w-1) in every digit: adding it leaves each digit c + 2^(w-1) in
        # [0, 2^w) with no carry, and the xor then turns that digit into the
        # w-bit two's complement of c.
        half = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
        raw = ((_pack(a, nb) * _pack(b, nb) + half) ^ half).to_bytes(nb * n, "little")
        from_bytes = int.from_bytes
        cs = [from_bytes(raw[i : i + nb], "little", signed=True) for i in range(0, nb * n, nb)]
        return _trimmed(cs, self.low + other.low)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.low, self.coeffs) == (other.low, other.coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        return render(self)


def _trimmed(cs: Sequence[int], low: int = 0) -> LaurentPoly:
    """LaurentPoly of the ints cs from t^low up, with no per-coefficient check.

    For results the exact layer builds from ints itself; anything else goes
    through the public constructor, which checks every coefficient.
    """
    p = LaurentPoly.__new__(LaurentPoly)
    p._hold(cs, low)
    return p


def _pack(cs: Sequence[int], nb: int) -> int:
    """sum(c_i 2^(w i)) with w = 8 nb, for ints |c_i| < 2^(w-1)."""
    w = 8 * nb
    # The joined two's complements read as sum((c_i mod 2^w) 2^(w i)): each
    # negative c_i carries an extra 2^w, marked by the sign bit of its digit.
    u = int.from_bytes(b"".join([c.to_bytes(nb, "little", signed=True) for c in cs]), "little")
    ones = int.from_bytes((b"\x01" + bytes(nb - 1)) * len(cs), "little")
    return u - (((u >> (w - 1)) & ones) << w)


def exact_divide(a: LaurentPoly) -> LaurentPoly:
    """Divide by ``1 - t^2``; a nonzero remainder raises FormulaIntegrityError.

    Callers divide only quantities that are exactly divisible when
    transcribed correctly, so a remainder always means a bookkeeping bug.
    The quotient is the running sum of the dividend with stride 2; its last
    two entries are the remainder.
    """
    q = list(a.coeffs)
    q[0::2] = accumulate(q[0::2])
    q[1::2] = accumulate(q[1::2])
    if any(q[-2:]):
        raise FormulaIntegrityError(
            f"division of {render(a)} by 1 - t^2 leaves remainder "
            f"{render(_trimmed(q[-2:], a.low + max(len(q) - 2, 0)))}"
        )
    return _trimmed(q[:-2], a.low)


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
