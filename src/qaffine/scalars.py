"""Exact arithmetic for spectral parameters of the form zeta24^a * q^(p/6).

Every scalar that appears in the R-matrix combinatorics of the fourteen
affine families lives in the abelian group generated by a fixed primitive
24th root of unity ``z24`` and the fractional powers ``q^(1/6)``.  A scalar
is stored as the pair (phase, qexp) with phase in Z/24 and qexp a rational
with denominator dividing 6.  q is treated as transcendental: two scalars
are equal iff both components agree, and nothing is ever evaluated
numerically.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

_ALLOWED_DENS = (1, 2, 3, 6)


class QAffineError(ValueError):
    """Base of the package's domain errors: the input is bad, not the code."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed: the code is wrong, not the input."""


class RootOutsideDomain(QAffineError):
    """An n-th root would leave the zeta24 * q^(Z/6) domain."""


class ParseError(QAffineError):
    """Scalar literal rejected; `offset` is the byte position of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class SpectralScalar(NamedTuple):
    """zeta24^phase * q^(num/den), always kept in reduced form."""

    phase: int
    num: int
    den: int

    @property
    def qexp(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other: "SpectralScalar") -> "SpectralScalar":  # type: ignore[override]
        num = self.num * other.den + other.num * self.den
        den = self.den * other.den
        g = gcd(num, den)
        return SpectralScalar((self.phase + other.phase) % 24, num // g, den // g)

    def __truediv__(self, other: "SpectralScalar") -> "SpectralScalar":
        return self * other.inv()

    def inv(self) -> "SpectralScalar":
        return SpectralScalar(-self.phase % 24, -self.num, self.den)

    def __pow__(self, n: int) -> "SpectralScalar":  # type: ignore[override]
        num = self.num * n
        g = gcd(num, self.den)
        return SpectralScalar((self.phase * n) % 24, num // g, self.den // g)

    @property
    def is_one(self) -> bool:
        return self.phase == 0 and self.num == 0

    def __str__(self) -> str:
        return print_scalar(self)


def e6(x: SpectralScalar) -> int:
    """6 * qexp(x), an exact int because the q-denominator divides 6."""
    return x.num * (6 // x.den)


def from_e6(phase: int, e: int) -> SpectralScalar:
    """The reduced scalar zeta24^phase * q^(e/6), for phase already in [0, 24)."""
    g = gcd(e, 6)
    return SpectralScalar(phase, e // g, 6 // g)


def scalar(phase: int = 0, qexp: Fraction | int = 0) -> SpectralScalar:
    """Build a reduced SpectralScalar; rejects q-exponents outside (1/6)Z."""
    f = Fraction(qexp)
    if f.denominator not in _ALLOWED_DENS:
        raise RootOutsideDomain(f"q-exponent {f} has denominator outside {{1,2,3,6}}")
    return SpectralScalar(phase % 24, f.numerator, f.denominator)


ONE = scalar(0, 0)
MINUS_ONE = scalar(12, 0)
I_UNIT = scalar(6, 0)
OMEGA = scalar(8, 0)
Q = scalar(0, 1)
QS = scalar(0, Fraction(1, 2))
QT = scalar(0, Fraction(1, 3))
MINUS_Q = scalar(12, 1)
MINUS_QS = scalar(12, Fraction(1, 2))
MINUS_QT = scalar(12, Fraction(1, 3))


def nth_roots(a: SpectralScalar, n: int) -> list[SpectralScalar]:
    """The n distinct scalars r with r^n = a, for n in {2, 3}.

    Raises RootOutsideDomain when the roots would need a finer root of
    unity than zeta24 or a q-denominator beyond 6.
    """
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    if a.phase % n != 0:
        raise RootOutsideDomain(f"phase {a.phase} not divisible by {n}")
    num, den = a.num, a.den * n
    g = gcd(num, den)
    num, den = num // g, den // g
    if den not in _ALLOWED_DENS:
        raise RootOutsideDomain(f"q-exponent {Fraction(a.num, a.den)}/{n} leaves the domain")
    step = 24 // n
    return [SpectralScalar((a.phase // n + step * k) % 24, num, den) for k in range(n)]


def print_scalar(a: SpectralScalar) -> str:
    """Canonical form `z24^A*q^(P/Q)`, omitting trivial parts."""
    parts: list[str] = []
    if a.phase:
        parts.append(f"z24^{a.phase}")
    if a.num:
        if a.den == 1:
            parts.append("q" if a.num == 1 else f"q^{a.num}")
        else:
            parts.append(f"q^({a.num}/{a.den})")
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
        start = self.pos
        if self.take("-"):
            pass
        while not self.eof() and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.pos = start
            raise self.fail("expected integer")
        return int(self.text[start:self.pos])

    def exponent(self) -> Fraction:
        if self.take("("):
            num = self.int_()
            if not self.take("/"):
                raise self.fail("expected '/' in fractional exponent")
            den = self.int_()
            if not self.take(")"):
                raise self.fail("expected ')' closing fractional exponent")
            if den == 0:
                raise self.fail("zero denominator")
            return Fraction(num, den)
        return Fraction(self.int_())

    def factor(self) -> SpectralScalar:
        if self.take("z24^"):
            return scalar(self.int_(), 0)
        for name in ("(-qs)", "(-qt)", "(-q)"):
            if self.take(name):
                return self._powered(_BASES[name])
        for name in ("-1", "-i", "1", "i", "w2", "w"):
            # atoms; "w2" before "w", "-1"/"-i" before bare digits
            if self.take(name):
                return _ATOMS[name]
        for name in ("qs", "qt", "q"):
            if self.take(name):
                return self._powered(_BASES[name])
        raise self.fail("expected scalar factor")

    def _powered(self, base: SpectralScalar) -> SpectralScalar:
        if self.take("^"):
            e = self.exponent()
            if e.denominator == 1:
                return base ** e.numerator
            if base.phase:
                raise self.fail("fractional power of a signed base is ambiguous")
            try:
                return scalar(0, base.qexp * e)
            except RootOutsideDomain:
                raise self.fail("q-exponent leaves the z24*q^(Z/6) domain")
        return base


def parse_scalar(text: str) -> SpectralScalar:
    """Parse an ASCII scalar literal; inverse of print_scalar on canonical forms."""
    sc = _Scanner(text)
    try:
        out = sc.factor()
        while not sc.eof():
            if not sc.take("*"):
                raise sc.fail("expected '*' between factors")
            out = out * sc.factor()
    except RootOutsideDomain as exc:
        raise ParseError(str(exc), sc.pos) from exc
    return out
