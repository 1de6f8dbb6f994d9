import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qaffine.scalars import (
    MINUS_Q,
    MINUS_QS,
    MINUS_QT,
    ONE,
    I_UNIT,
    OMEGA,
    Q,
    QS,
    QT,
    ParseError,
    RootOutsideDomain,
    SpectralScalar,
    nth_roots,
    order_key,
    parse_scalar,
    print_scalar,
    scalar,
)

# q-exponents in [-20, 20] with denominator in {1, 2, 3, 6}, drawn directly
# (rejection-filtering st.fractions is slow)
qexps = st.sampled_from((1, 2, 3, 6)).flatmap(
    lambda den: st.integers(min_value=-20 * den, max_value=20 * den).map(lambda num: Fraction(num, den))
)
scalars = st.builds(scalar, st.integers(min_value=-30, max_value=30), qexps)


def test_minus_q_squared_is_q_squared():
    assert MINUS_Q * MINUS_Q == scalar(0, 2)


def test_qs_squared_is_q():
    assert QS * QS == Q


def test_omega_squared():
    assert OMEGA * OMEGA == scalar(16, 0)
    assert OMEGA * OMEGA * OMEGA == ONE


def test_pow_examples():
    assert MINUS_Q ** 3 == scalar(12, 3)
    assert (I_UNIT * scalar(0, 2)) ** 2 == scalar(12, 4)


@given(scalars)
def test_pow_minus_one_is_inverse(x):
    assert (x ** -1) * x == ONE


@given(scalars, scalars, scalars)
def test_group_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a
    assert a * a.inv() == ONE


@given(scalars, st.integers(min_value=-6, max_value=6))
def test_pow_is_iterated_product(a, n):
    acc = ONE
    for _ in range(abs(n)):
        acc = acc * (a if n >= 0 else a.inv())
    assert a ** n == acc


def test_nth_roots_examples():
    minus_q8 = scalar(12, 8)
    rts = nth_roots(minus_q8, 2)
    assert set(rts) == {scalar(6, 4), scalar(18, 4)}
    minus_q9 = scalar(12, 9)
    rts3 = set(nth_roots(minus_q9, 3))
    assert rts3 == {scalar(4, 3), scalar(12, 3), scalar(20, 3)}
    assert set(nth_roots(Q, 2)) == {QS, scalar(12, Fraction(1, 2))}


@given(scalars, st.sampled_from([2, 3]))
def test_nth_roots_are_roots(a, n):
    try:
        rts = nth_roots(a, n)
    except RootOutsideDomain:
        return
    assert len(set(rts)) == n
    for r in rts:
        assert r ** n == a


def test_nth_roots_domain_errors():
    with pytest.raises(RootOutsideDomain):
        nth_roots(scalar(1, 0), 2)
    with pytest.raises(RootOutsideDomain):
        nth_roots(QS, 2)  # would need q^(1/4)


def test_parse_examples():
    assert parse_scalar("(-q)^3") == scalar(12, 3)
    assert parse_scalar("i*q^2") == scalar(6, 2)
    assert parse_scalar("w*q^(4/3)") == scalar(8, Fraction(4, 3))
    assert parse_scalar("-1") == scalar(12, 0)
    assert parse_scalar("z24^30*qs") == scalar(6, Fraction(1, 2))
    assert parse_scalar("q^-2") == scalar(0, -2)
    assert parse_scalar("(-qt)^5") == scalar(12, Fraction(5, 3))
    assert parse_scalar("1") == ONE


def test_parse_error_has_offset():
    with pytest.raises(ParseError) as err:
        parse_scalar("q^2*!")
    assert err.value.offset == 4
    with pytest.raises(ParseError):
        parse_scalar("q^(1/")
    with pytest.raises(ParseError):
        parse_scalar("qs^(1/2)")  # q^(1/4) is outside the domain


@pytest.mark.parametrize("text, message, offset", [
    ("q^\u00b2", "expected integer", 2),                    # superscript two
    ("z24^\u00b3", "expected integer", 4),                  # superscript three
    ("q^(\u0661/2)", "expected integer", 3),                # Arabic-Indic one
    ("q^(1/\u0662)", "expected integer", 5),
    ("z24^1\u00b2", "expected '*' between factors", 5),
])
def test_parse_takes_ascii_digits_only(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


@given(scalars)
def test_print_parse_round_trip(a):
    assert parse_scalar(print_scalar(a)) == a


def test_print_canonical_forms():
    assert print_scalar(ONE) == "1"
    assert print_scalar(scalar(12, 3)) == "z24^12*q^3"
    assert print_scalar(scalar(0, Fraction(-5, 2))) == "q^(-5/2)"
    assert print_scalar(scalar(7, 0)) == "z24^7"
    assert print_scalar(Q) == "q"


def test_scalar_is_reduced():
    s = scalar(25, Fraction(4, 6))
    assert s == SpectralScalar(1, 4)
    with pytest.raises(RootOutsideDomain):
        scalar(0, Fraction(1, 4))


def _fraction_scalar(phase, qexp):
    """The `scalar` that went through Fraction(qexp), kept as the oracle of the int pair."""
    f = Fraction(qexp)
    if 6 % f.denominator:
        raise RootOutsideDomain(f"q-exponent {f} has denominator outside {{1,2,3,6}}")
    return SpectralScalar(phase % 24, int(6 * f))


def _outcome(make, *args):
    try:
        return make(*args)
    except RootOutsideDomain as exc:
        return str(exc)


def test_scalar_reads_int_and_fraction_exponents_as_before():
    for num in range(-13, 14):
        for den in range(1, 13):
            for qexp in [Fraction(num, den), *([num] if den == 1 else [])]:
                got = _outcome(scalar, 29, qexp)
                assert got == _outcome(_fraction_scalar, 29, qexp), qexp
    assert _outcome(scalar, 0, Fraction(-3, 12)) == "q-exponent -1/4 has denominator outside {1,2,3,6}"
    assert (QS, QT) == (scalar(0, Fraction(1, 2)), scalar(0, Fraction(1, 3)))
    assert (MINUS_QS, MINUS_QT) == (scalar(12, Fraction(1, 2)), scalar(12, Fraction(1, 3)))


@pytest.mark.parametrize("qexp", [2.0, "1", None, 0.5])
def test_scalar_rejects_other_exponent_types(qexp):
    want = f"q-exponent must be an int or a Fraction, not {type(qexp).__name__}$"
    with pytest.raises(TypeError, match=want):
        scalar(0, qexp)


@pytest.mark.parametrize("phase", [1.5, 2.0, "1", None, Fraction(2)])
def test_scalar_rejects_other_phase_types(phase):
    with pytest.raises(TypeError, match=f"phase must be an int, not {type(phase).__name__}$"):
        scalar(phase, 0)


# Differential tests against the encoding SpectralScalar replaced: the pair
# (phase, qexp) with qexp a Fraction, reduced by a gcd on every product.
# The model is kept here, in the tests, as the oracle of the int pair.

class OldScalar(NamedTuple):
    phase: int
    qexp: Fraction


def old_mul(a, b):
    return OldScalar((a.phase + b.phase) % 24, a.qexp + b.qexp)


def old_inv(a):
    return OldScalar(-a.phase % 24, -a.qexp)


def old_pow(a, n):
    return OldScalar(a.phase * n % 24, a.qexp * n)


def old_scalar(phase, qexp):
    f = Fraction(qexp)
    if f.denominator not in (1, 2, 3, 6):
        raise RootOutsideDomain(f"q-exponent {f} has denominator outside {{1,2,3,6}}")
    return OldScalar(phase % 24, f)


def old_nth_roots(a, n):
    if a.phase % n != 0:
        raise RootOutsideDomain(f"phase {a.phase} not divisible by {n}")
    if (a.qexp / n).denominator not in (1, 2, 3, 6):
        raise RootOutsideDomain(f"q-exponent {a.qexp}/{n} leaves the domain")
    return [OldScalar((a.phase // n + 24 // n * k) % 24, a.qexp / n) for k in range(n)]


def old_order(a):
    return a.phase, a.qexp.numerator, a.qexp.denominator


def old_print(a):
    phase, num, den = old_order(a)
    parts = [f"z24^{phase}"] if phase else []
    if num:
        parts.append(("q" if num == 1 else f"q^{num}") if den == 1 else f"q^({num}/{den})")
    return "*".join(parts) or "1"


def new(a):
    return SpectralScalar(a.phase, int(6 * a.qexp))


old_scalars = st.builds(OldScalar, st.integers(min_value=0, max_value=23), qexps)


@given(old_scalars, old_scalars, st.integers(min_value=-7, max_value=7))
def test_arithmetic_matches_fraction_model(a, b, n):
    assert new(a) * new(b) == new(old_mul(a, b))
    assert new(a) / new(b) == new(old_mul(a, old_inv(b)))
    assert new(a).inv() == new(old_inv(a))
    assert new(a) ** n == new(old_pow(a, n))
    assert new(a).qexp == a.qexp


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RootOutsideDomain as exc:
        return str(exc)


@given(old_scalars, st.sampled_from([2, 3]))
def test_nth_roots_match_fraction_model(a, n):
    want = _outcome(old_nth_roots, a, n)
    got = _outcome(nth_roots, new(a), n)
    assert got == (want if isinstance(want, str) else [new(r) for r in want])


@given(st.integers(min_value=-30, max_value=30), st.fractions(max_denominator=12))
def test_scalar_constructor_matches_fraction_model(phase, qexp):
    want = _outcome(old_scalar, phase, qexp)
    got = _outcome(scalar, phase, qexp)
    assert got == (want if isinstance(want, str) else new(want))


@given(old_scalars)
def test_print_and_parse_match_fraction_model(a):
    assert print_scalar(new(a)) == old_print(a)
    assert parse_scalar(old_print(a)) == new(a)


@given(st.lists(old_scalars, max_size=12))
def test_order_key_sorts_in_fraction_model_order(xs):
    assert sorted(map(new, xs), key=order_key) == [new(a) for a in sorted(xs, key=old_order)]


# The scanner that int exponents replaced: it read an exponent as a Fraction
# and built a fractional power through scalar().  Kept as the oracle of
# parse_scalar on values, error texts and offsets.

class OldScanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def fail(self, message):
        return ParseError(message, self.pos)

    def eof(self):
        return self.pos >= len(self.text)

    def take(self, token):
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def int_(self):
        start = self.pos
        if self.take("-"):
            pass
        while not self.eof() and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.pos = start
            raise self.fail("expected integer")
        return int(self.text[start:self.pos])

    def exponent(self):
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

    def factor(self):
        if self.take("z24^"):
            return scalar(self.int_(), 0)
        for name in ("(-qs)", "(-qt)", "(-q)"):
            if self.take(name):
                return self.powered(OLD_BASES[name])
        for name in ("-1", "-i", "1", "i", "w2", "w"):
            if self.take(name):
                return OLD_ATOMS[name]
        for name in ("qs", "qt", "q"):
            if self.take(name):
                return self.powered(OLD_BASES[name])
        raise self.fail("expected scalar factor")

    def powered(self, base):
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


OLD_ATOMS = {"1": ONE, "-1": scalar(12, 0), "i": I_UNIT, "-i": scalar(18, 0), "w": OMEGA, "w2": scalar(16, 0)}
OLD_BASES = {
    "q": Q, "qs": QS, "qt": scalar(0, Fraction(1, 3)),
    "(-q)": MINUS_Q, "(-qs)": scalar(12, Fraction(1, 2)), "(-qt)": scalar(12, Fraction(1, 3)),
}


def old_parse_scalar(text):
    sc = OldScanner(text)
    try:
        out = sc.factor()
        while not sc.eof():
            if not sc.take("*"):
                raise sc.fail("expected '*' between factors")
            out = out * sc.factor()
    except RootOutsideDomain as exc:
        raise ParseError(str(exc), sc.pos) from exc
    return out


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset


def _literal(rng):
    """A literal of the scalar grammar, with exponents that may leave the domain."""
    def exponent():
        if rng.random() < 0.4:
            return str(rng.randint(-12, 12))
        return f"({rng.randint(-13, 13)}/{rng.choice((1, 2, 3, 4, 5, 6, 12, -2, -3, -6))})"

    def factor():
        kind = rng.randrange(4)
        if kind == 0:
            return f"z24^{rng.randint(-50, 50)}"
        if kind == 1:
            return rng.choice(("1", "-1", "i", "-i", "w", "w2"))
        base = rng.choice(("q", "qs", "qt", "(-q)", "(-qs)", "(-qt)"))
        return base + (f"^{exponent()}" if rng.random() < 0.8 else "")

    return "*".join(factor() for _ in range(rng.randint(1, 4)))


def _malformed(rng, text):
    """`text` truncated, or with a character inserted, deleted or replaced."""
    junk = "*^()/-0123456789qstwiz!"
    at = rng.randrange(len(text) + 1)
    edit = rng.randrange(4)
    if edit == 0:
        return text[:at]
    if edit == 1:
        return text[:at] + rng.choice(junk) + text[at:]
    if edit == 2:
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(junk) + text[at + 1:]


def test_parse_matches_the_fraction_scanner():
    named = ["qs^(1/3)", "q^(1/4)", "(-qs)^(1/2)", "z24^", "q^(1/0)", "1*", "(-q)^(4/2)", "q^(0/5)",
             "q^(3/-6)", "qt^(-3/-2)", "q^(7/6)*qs^(2/4)", ""]
    rng = random.Random(20261018)
    valid = [_literal(rng) for _ in range(3000)]
    malformed = [_malformed(rng, t) for t in valid]
    outcomes = {"value": 0, "error": 0}
    for text in named + valid + malformed:
        want = _parsed(old_parse_scalar, text)
        assert _parsed(parse_scalar, text) == want, text
        outcomes["value" if isinstance(want, SpectralScalar) else "error"] += 1
    assert parse_scalar("(-q)^(4/2)") == scalar(0, 2)
    assert min(outcomes.values()) > 1000, outcomes
