"""Exact arithmetic for spectral parameters of the form zeta24^a * q^(e/6).

Every scalar that appears in the R-matrix combinatorics of the fourteen
affine families lives in the abelian group generated by a fixed primitive
24th root of unity ``z24`` and ``q^(1/6)``, that is Z/24 x Z.  A scalar is
stored as the int pair (phase, e) with phase in [0, 24) and e = 6 * qexp,
so multiplying, dividing and raising to a power are int additions and
multiplications.  q is treated as transcendental: two scalars are equal iff
both components agree, and nothing is ever evaluated numerically.

The native tuple order (phase, e) is numeric in the exponent.  The order
shown to users is that of (phase, num, den) with q^(e/6) = q^(num/den) in
lowest terms; `order_key` gives it, and it is the only place that reduces
the exponent.  Printing and every user-visible sort go through it.
"""

from __future__ import annotations

import re
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction


class QAffineError(ValueError):
    """Base of the package's domain errors: the input is bad, not the code."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: the code is wrong, not the input."""


class Frozen:
    """Base of the immutable value classes: `__init__` sets each slot through
    `object.__setattr__`.  Repr, copy and pickle read the public slots, which
    must be the constructor's arguments in order."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), tuple(getattr(self, k) for k in self.__slots__ if k[0] != "_")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__ if k[0] != "_")
        return f"{type(self).__name__}({fields})"


class RootOutsideDomain(QAffineError):
    """An n-th root would leave the zeta24 * q^(Z/6) domain."""


class ParseError(QAffineError):
    """Scalar literal rejected; `offset` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SpectralScalar(NamedTuple):
    """zeta24^phase * q^(e/6), with phase in [0, 24)."""

    phase: int
    e: int

    @property
    def qexp(self) -> Fraction:
        from fractions import Fraction  # not at module level: it costs every cold start
        return Fraction(self.e, 6)

    def __mul__(self, other: "SpectralScalar") -> "SpectralScalar":  # type: ignore[override]
        return SpectralScalar((self.phase + other.phase) % 24, self.e + other.e)

    def __truediv__(self, other: "SpectralScalar") -> "SpectralScalar":
        return self * other.inv()

    def inv(self) -> "SpectralScalar":
        return SpectralScalar(-self.phase % 24, -self.e)

    def __pow__(self, n: int) -> "SpectralScalar":  # type: ignore[override]
        return SpectralScalar((self.phase * n) % 24, self.e * n)

    @property
    def is_one(self) -> bool:
        return self.phase == 0 and self.e == 0

    def __str__(self) -> str:
        return print_scalar(self)


def order_key(x: SpectralScalar) -> tuple[int, int, int]:
    """(phase, num, den) with q^(e/6) = q^(num/den) in lowest terms: the printed order."""
    g = gcd(x.e, 6)
    return x.phase, x.e // g, 6 // g


def scalar(phase: int = 0, qexp: Fraction | int = 0) -> SpectralScalar:
    """Build a SpectralScalar from an int or Fraction q-exponent; rejects those outside (1/6)Z."""
    num, den = qexp.numerator, qexp.denominator
    if 6 % den:
        raise RootOutsideDomain(f"q-exponent {qexp} has denominator outside {{1,2,3,6}}")
    return SpectralScalar(phase % 24, 6 // den * num)


ONE = scalar(0, 0)
MINUS_ONE = scalar(12, 0)
I_UNIT = scalar(6, 0)
OMEGA = scalar(8, 0)
Q = scalar(0, 1)
QS = SpectralScalar(0, 3)
QT = SpectralScalar(0, 2)
MINUS_Q = scalar(12, 1)
MINUS_QS = SpectralScalar(12, 3)
MINUS_QT = SpectralScalar(12, 2)


def nth_roots(a: SpectralScalar, n: int) -> list[SpectralScalar]:
    """The n distinct scalars r with r^n = a, for n in {2, 3}.

    Raises RootOutsideDomain when the roots would need a finer root of
    unity than zeta24 or a q-denominator beyond 6.
    """
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    if a.phase % n != 0:
        raise RootOutsideDomain(f"phase {a.phase} not divisible by {n}")
    if a.e % n:
        raise RootOutsideDomain(f"q-exponent {a.qexp}/{n} leaves the domain")
    step = 24 // n
    return [SpectralScalar((a.phase // n + step * k) % 24, a.e // n) for k in range(n)]


def print_scalar(a: SpectralScalar) -> str:
    """Canonical form `z24^A*q^(P/Q)`, omitting trivial parts."""
    phase, num, den = order_key(a)
    parts: list[str] = []
    if phase:
        parts.append(f"z24^{phase}")
    if num:
        if den == 1:
            parts.append("q" if num == 1 else f"q^{num}")
        else:
            parts.append(f"q^({num}/{den})")
    return "*".join(parts) if parts else "1"


_ATOMS = {
    "1": ONE,
    "-1": MINUS_ONE,
    "i": I_UNIT,
    "-i": scalar(18, 0),
    "w": OMEGA,
    "w2": scalar(16, 0),
}

_BASES = {
    "q": Q,
    "qs": QS,
    "qt": QT,
    "(-q)": MINUS_Q,
    "(-qs)": MINUS_QS,
    "(-qt)": MINUS_QT,
}


# ASCII digits only: `str.isdigit` and `int` also take other Unicode digits
_INT = re.compile(r"-?[0-9]+")
# one factor's head; "w2" before "w", and "qs"/"qt" before "q" by greed
_FACTOR = re.compile(r"z24\^|\(-q[st]?\)|-[1i]|1|i|w2?|q[st]?")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def take(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def int_(self) -> int:
        m = _INT.match(self.text, self.pos)
        if m is None:
            raise self.fail("expected integer")
        self.pos = m.end()
        return int(m.group())

    def exponent(self) -> tuple[int, int]:
        """The exponent as (num, den) in lowest terms with den > 0."""
        if self.take("("):
            num = self.int_()
            if not self.take("/"):
                raise self.fail("expected '/' in fractional exponent")
            den = self.int_()
            if not self.take(")"):
                raise self.fail("expected ')' closing fractional exponent")
            if den == 0:
                raise self.fail("zero denominator")
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            return num // g, den // g
        return self.int_(), 1

    def factor(self) -> SpectralScalar:
        m = _FACTOR.match(self.text, self.pos)
        if m is None:
            raise self.fail("expected scalar factor")
        self.pos = m.end()
        token = m.group()
        if token == "z24^":
            return SpectralScalar(self.int_() % 24, 0)
        return _ATOMS[token] if token in _ATOMS else self._powered(_BASES[token])

    def _powered(self, base: SpectralScalar) -> SpectralScalar:
        if self.take("^"):
            num, den = self.exponent()
            if den == 1:
                return base ** num
            if base.phase:
                raise self.fail("fractional power of a signed base is ambiguous")
            if base.e * num % den:
                raise self.fail("q-exponent leaves the z24*q^(Z/6) domain")
            return SpectralScalar(0, base.e * num // den)
        return base


def parse_scalar(text: str) -> SpectralScalar:
    """Parse an ASCII scalar literal; inverse of print_scalar on canonical forms."""
    sc = _Scanner(text)
    out = sc.factor()
    while not sc.eof():
        if not sc.take("*"):
            raise sc.fail("expected '*' between factors")
        out = out * sc.factor()
    return out
