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

`parse_scalar` reads every form `print_scalar` gives ("1", "z24^A" with A in
1..23, "q", "q^N", "q^(P/Q)" with Q in 2, 3 or 6, and "z24^A*" before any
of the q forms) by one match, when each of its ints has at most 9 digits.
Every other text -- other spellings such as "(-q)^3", "qs^4", "z24^25*q" or
"q^(2/4)", longer ints, and every error -- goes through the factor loop,
which reports each error with its offset.  Which path a text takes depends
on the text alone.
"""

from __future__ import annotations

import re
import sys
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

    def __str__(self) -> str:
        return print_scalar(self)


def order_key(x: SpectralScalar) -> tuple[int, int, int]:
    """(phase, num, den) with q^(e/6) = q^(num/den) in lowest terms: the printed order."""
    g = gcd(x.e, 6)
    return x.phase, x.e // g, 6 // g


def scalar(phase: int = 0, qexp: Fraction | int = 0) -> SpectralScalar:
    """Build a SpectralScalar from an int or Fraction q-exponent; rejects those outside (1/6)Z."""
    if not isinstance(phase, int):
        raise TypeError(f"phase must be an int, not {type(phase).__name__}")
    try:
        num, den = qexp.numerator, qexp.denominator
    except AttributeError:
        raise TypeError(f"q-exponent must be an int or a Fraction, not {type(qexp).__name__}") from None
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
        raise RootOutsideDomain(f"n must be 2 or 3, got {n}")
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


# One factor, ASCII digits only (`str.isdigit` and `int` also take other
# Unicode digits).  Each part after the head is an optional group nested in
# the one before, so a match stops where the factor goes wrong, and every
# error but "expected scalar factor" is reported at the match's end.  Every
# such offset depends on this nesting order: moving a group out of the one
# before it moves where its error is reported.
_FACTOR = re.compile(
    r"(?P<z>z24\^)(?P<phase>-?[0-9]+)?"
    r"|(?P<atom>-[1i]|1|i|w2?)"
    r"|(?P<base>\(-q[st]?\)|q[st]?)(?P<hat>\^(?:(?P<power>-?[0-9]+)"
    r"|\((?:(?P<num>-?[0-9]+)(?P<slash>/(?:(?P<den>-?[0-9]+)(?P<close>\))?)?)?)?)?)?"
)


def _int(digits: str, offset: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-string limit (4,300 digits by default)
        raise ParseError("integer literal too long", offset) from None


def _factor(m: re.Match[str]) -> SpectralScalar:
    """The value of one factor matched by _FACTOR."""
    z, phase, atom, base, hat, power, num, slash, den, close = m.groups()
    if z:
        if phase is None:
            raise ParseError("expected integer", m.end())
        return SpectralScalar(_int(phase, m.end()) % 24, 0)
    if atom:
        return _ATOMS[atom]
    base = _BASES[base]
    if not hat:
        return base
    if power is not None:
        return base ** _int(power, m.end())
    for part, message in ((num, "expected integer"), (slash, "expected '/' in fractional exponent"),
                          (den, "expected integer"), (close, "expected ')' closing fractional exponent")):
        if part is None:
            raise ParseError(message, m.end())
    num, den = _int(num, m.end()), _int(den, m.end())
    if den == 0:
        raise ParseError("zero denominator", m.end())
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    if den == 1:
        return base ** num
    if base.phase:
        raise ParseError("fractional power of a signed base is ambiguous", m.end())
    if base.e * num % den:
        raise ParseError("q-exponent leaves the z24*q^(Z/6) domain", m.end())
    return SpectralScalar(0, base.e * num // den)


# the forms `print_scalar` gives, each int of at most 9 digits (see the module docstring)
_PRINTED = re.compile(
    r"1|(?=.)(?:z24\^(?P<phase>1[0-9]?|2[0-3]?|[3-9])(?:\*(?=q)|\Z))?"
    r"(?P<q>q(?:\^(?P<power>-?[1-9][0-9]{0,8})|\^\((?P<num>-?[1-9][0-9]{0,8})/(?P<den>[236])\))?)?"
)

_int_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit


def parse_scalar(text: str) -> SpectralScalar:
    """Parse an ASCII scalar literal; inverse of print_scalar on canonical forms.

    One match of `_PRINTED` reads a printed form; `_parse_factors` reads every other text."""
    m = _PRINTED.fullmatch(text)
    if m is None:
        return _parse_factors(text)
    phase, q, power, num, den = m.groups()
    e = 0 if not q else 6 * int(power) if power else 6 // int(den) * int(num) if den else 6
    return SpectralScalar(int(phase) if phase else 0, e)


def _parse_factors(text: str) -> SpectralScalar:
    """Parse a product of factors (`_FACTOR`), one at a time.

    A product of literals within the int-string limit may not print; such a
    result is rejected, screened by bit length (|num| <= |e|, and a number
    past `limit` digits has more than 3 * limit bits)."""
    pos, out = 0, None
    while True:
        m = _FACTOR.match(text, pos)
        if m is None:
            raise ParseError("expected scalar factor", pos)
        pos = m.end()
        out = _factor(m) if out is None else out * _factor(m)
        if pos == len(text):
            limit = _int_limit()
            if limit and out.e.bit_length() > 3 * limit and abs(order_key(out)[1]) >= 10 ** limit:
                raise ParseError("q-exponent too long to print", pos)
            return out
        if text[pos] != "*":
            raise ParseError("expected '*' between factors", pos)
        pos += 1
