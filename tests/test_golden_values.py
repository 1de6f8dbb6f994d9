"""Frozen case-computation values for each family (the per-type tables that
feed the main-theorem matrices)."""

from fractions import Fraction

from qaffine.affine import Family, build, build_type, parse_type_string
from qaffine.invariants import lambda_inf, sigma_point
from qaffine.qcartan import default_qdatum
from qaffine.qdata import phi_q
from qaffine.scalars import (
    I_UNIT,
    MINUS_ONE,
    MINUS_Q,
    MINUS_QS,
    MINUS_QT,
    OMEGA,
    ONE,
    Q,
    scalar,
)


def li(d, i, j, x):
    return lambda_inf(d, sigma_point(d, i, ONE), sigma_point(d, j, x))


def qs_pow(k):
    return scalar(0, Fraction(k, 2))


def test_a_type():
    for n in (2, 3, 4, 5):
        d = build_type(Family.A1, n)
        for k in range(1, n):
            assert li(d, 1, 1, MINUS_Q ** (2 * k)) == int(k == 1)


def test_b_type():
    for n in (2, 3, 4):
        d = build_type(Family.B1, n)
        for k in range(1, 2 * n - 3):  # stated for k up to 2n-4; empty at n=2
            assert li(d, 1, 1, Q ** k) == int(k == 2), (n, k)
        sign = MINUS_ONE ** (n + 1)
        for t in range(2 * n - 1, 6 * n - 6, 2):
            assert li(d, n, 1, sign * qs_pow(t)) == int(t == 2 * n + 1), (n, t)
        assert li(d, n, n, Q) == 1


def test_c_type():
    for n in (3, 4, 5):
        d = build_type(Family.C1, n)
        for k in range(2, 2 * n - 1, 2):
            assert li(d, 1, 1, MINUS_QS ** k) == int(k == 2)
        for t in range(n + 1, 3 * n, 2):
            assert li(d, n, 1, MINUS_QS ** t) == int(t == n + 3)


def test_d_type():
    for n in (4, 5, 6):
        d = build_type(Family.D1, n)
        h = 2 * n - 2
        for k in range(2, h - 3):
            assert li(d, 1, 1, MINUS_Q ** k) == int(k == 2)
        for k in range(n, 3 * n - 5):
            assert li(d, n, 1, MINUS_Q ** k) == int(k == n)
        assert li(d, n, n - 1, ONE) == 0


def test_a_even_twisted():
    for n in (1, 2, 3):
        d = build_type(Family.A2_EVEN, n)
        for k in range(2, 4 * n, 2):
            assert li(d, 1, 1, MINUS_Q ** k) == int(k == 2)


def test_a_odd_twisted():
    for n in (2, 3, 4):
        d = build_type(Family.A2_ODD, n)
        for k in range(2, 4 * n - 2, 2):
            assert li(d, 1, 1, MINUS_Q ** k) == int(k == 2)


def test_d_twisted():
    for n in (3, 4, 5):
        d = build_type(Family.D2, n)
        for k in range(2, 2 * n - 3, 2):
            assert li(d, 1, 1, MINUS_Q ** k) == int(k == 2)
        for sign in (ONE, MINUS_ONE):
            for k in range(n + 1, 3 * n - 1, 2):
                x = sign * I_UNIT ** n * MINUS_Q ** k
                assert li(d, n, 1, x) == int(k == n + 1), (n, k)
        assert li(d, n, n, MINUS_ONE) == 0


def test_e6_untwisted():
    d = build_type(Family.E6_1)
    for k in (2, 4, 8, 10, 12, 14):
        assert li(d, 1, 1, MINUS_Q ** k) == int(k in (2, 8))
    for k in (-1, 1, 9, 11, 13):
        assert li(d, 1, 2, MINUS_Q ** k) == int(k == 9)


def test_e7():
    d = build_type(Family.E7_1)
    assert li(d, 1, 1, MINUS_Q ** 2) == 1
    assert li(d, 1, 2, MINUS_Q) == 0
    assert li(d, 2, 1, MINUS_Q) == 0
    for k in (13, 15, 17, 19, 21):
        assert li(d, 7, 1, MINUS_Q ** k) == int(k == 13)
    for k in (14, 16, 18, 20):
        assert li(d, 7, 2, MINUS_Q ** k) == int(k == 14)
    for k in (2, 4, 6):
        assert li(d, 7, 7, MINUS_Q ** k) == int(k == 2)


def test_e8():
    d = build_type(Family.E8_1)
    assert li(d, 1, 1, MINUS_Q ** 2) == 1
    assert li(d, 1, 2, MINUS_Q) == 0
    for k in (24, 26, 28, 30, 32, 34):
        assert li(d, 8, 1, MINUS_Q ** k) == int(k == 24)
    for k in (25, 27, 29, 31, 33):
        assert li(d, 8, 2, MINUS_Q ** k) == int(k == 25)
    for k in (2, 4, 6, 8):
        assert li(d, 8, 8, MINUS_Q ** k) == int(k == 2)


def test_f4():
    d = build_type(Family.F4_1)
    for k in (2, 4):
        assert li(d, 1, 1, qs_pow(k)) == int(k == 4)
    for k in (15, 17, 19):
        assert li(d, 3, 1, qs_pow(k)) == int(k == 15)
    for k in (-2, 0, 2, 12, 14, 16):
        assert li(d, 4, 1, MINUS_ONE * qs_pow(k)) == int(k == 14)
    for k in (3, 17):
        assert li(d, 3, 4, MINUS_ONE * qs_pow(k)) == 1
    assert li(d, 4, 4, qs_pow(14)) == 0


def test_g2():
    d = build_type(Family.G2_1)
    for k in (3, 9, 11):
        assert li(d, 1, 2, MINUS_QT ** k) == int(k == 11)
    for k in (2, 6, 8):
        assert li(d, 2, 2, MINUS_QT ** k) == int(k in (2, 8))


def test_e6_twisted():
    d = build(parse_type_string("E6-2"))
    for k in (2, 4, 8, 10, 12, 14):
        assert li(d, 1, 1, Q ** k) == int(k in (2, 8))
    for k in (-1, 0, 1, 9, 11, 13):
        assert li(d, 1, 4, I_UNIT * Q ** k) == int(k == 9)


def test_d4_triality():
    d = build(parse_type_string("D4-3"))
    ones = {(0, 2), (1, 4), (2, 4)}
    zeros = {(1, 0), (2, 0), (1, 6), (2, 6)}
    for t, k in ones | zeros:
        got = li(d, 1, 1, OMEGA ** t * Q ** k)
        assert got == int((t, k) in ones), (t, k)


def test_phi_golden_d_untwisted():
    for n in (4, 5, 6):
        d = build_type(Family.D1, n)
        q = default_qdatum(d)
        fin = d.gfin
        for i in range(1, n - 1):
            assert phi_q(q, d, fin.simple_root(i)) == sigma_point(d, 1, MINUS_Q ** (-2 * (i - 1)))
        # alpha_{n-1} sits at node n-1 for even n and node n for odd n;
        # alpha_n the other way around
        node_nm1 = n - 1 if n % 2 == 0 else n
        node_n = n if n % 2 == 0 else n - 1
        assert phi_q(q, d, fin.simple_root(n - 1)) == sigma_point(
            d, node_nm1, MINUS_Q ** (-3 * n + 6)
        )
        assert phi_q(q, d, fin.simple_root(n)) == sigma_point(
            d, node_n, MINUS_Q ** (-3 * n + 6)
        )


def test_phi_golden_d_twisted():
    for n in (3, 4, 5):
        d = build_type(Family.D2, n)
        q = default_qdatum(d)
        fin = d.gfin
        for i in range(1, n):
            want = sigma_point(d, 1, I_UNIT ** n * MINUS_Q ** (-2 * (i - 1)))
            assert phi_q(q, d, fin.simple_root(i)) == want
        got = {phi_q(q, d, fin.simple_root(i)) for i in (n, n + 1)}
        want = {
            sigma_point(d, n, MINUS_ONE ** i * MINUS_Q ** (-3 * n + 3)) for i in (n, n + 1)
        }
        assert got == want


def test_phi_golden_a_twisted():
    for s in ("A4-2", "A5-2"):
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        for i in range(1, d.gfin.rank + 1):
            assert phi_q(q, d, d.gfin.simple_root(i)) == sigma_point(d, 1, MINUS_Q ** (2 - 2 * i))
