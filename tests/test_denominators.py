from fractions import Fraction

import pytest

from denominator_oracle import oracle_factors
from qaffine.affine import Family, build, build_type, parse_type_string
from qaffine.denominators import denominator, denominator_factors, expand_factors, zero_order
from qaffine.qcartan import ctilde_formula, default_qdatum
from qaffine.scalars import MINUS_ONE, OMEGA, ONE, Q, QS, QT, scalar

ALL_SMALL = [
    "A1-1", "A4-1", "B2-1", "B3-1", "C3-1", "C4-1", "D4-1", "D5-1",
    "E6-1", "E7-1", "E8-1", "F4-1", "G2-1",
    "A2-2", "A4-2", "A5-2", "D4-2", "D5-2", "E6-2", "D4-3",
]


def roots_set(d, i, j):
    return {r: m for r, m in denominator(d, i, j)}


def test_b3_spin_denominator():
    d = build_type(Family.B1, 3)
    assert roots_set(d, 3, 3) == {QS ** 2: 1, QS ** 6: 1, QS ** 10: 1}
    assert zero_order(denominator(d, 3, 3), QS ** 2) == 1


def test_g2_12_denominator():
    d = build_type(Family.G2_1)
    assert roots_set(d, 1, 2) == {MINUS_ONE * QT ** 7: 1, MINUS_ONE * QT ** 11: 1}


def zeta_reduce(coeffs):
    """Reduce {scalar: int} to exact Z[zeta_24] coefficients per q-exponent.

    zeta_24 satisfies x^8 = x^4 - 1 (its cyclotomic polynomial); after
    reduction each q-exponent carries a length-8 integer vector.
    """
    per_q = {}
    for s, c in coeffs.items():
        vec = per_q.setdefault(s.qexp, [0] * 24)
        vec[s.phase] += c
    out = {}
    for qe, vec in per_q.items():
        for k in range(23, 7, -1):
            if vec[k]:
                vec[k - 4] += vec[k]
                vec[k - 8] -= vec[k]
                vec[k] = 0
        if any(vec):
            out[qe] = tuple(vec[:8])
    return out


def expand_poly(factors):
    """Oracle: expand prod (z^deg - v)^mult, coefficients in Z[zeta_24][q^(1/6)]."""
    poly = {0: {ONE: 1}}  # degree -> {scalar: integer coefficient}

    def mul(p, deg, value):
        out = {}
        for dg, coeffs in p.items():
            for s, c in coeffs.items():
                out.setdefault(dg + deg, {}).setdefault(s, 0)
                out[dg + deg][s] += c
                out.setdefault(dg, {}).setdefault(s * value, 0)
                out[dg][s * value] -= c
        return {dg: {s: c for s, c in cs.items() if c} for dg, cs in out.items()}

    for deg, value, mult in factors:
        for _ in range(mult):
            poly = mul(poly, deg, value)
    return {dg: zeta_reduce(cs) for dg, cs in poly.items() if zeta_reduce(cs)}


def test_d43_12_expansion_matches_symbolic_product():
    d = build(parse_type_string("D4-3"))
    factors = denominator_factors(d, 1, 2)
    rm = expand_factors(factors)
    expected = {
        MINUS_ONE * Q ** 3: 1,
        MINUS_ONE * OMEGA * Q ** 3: 1,
        MINUS_ONE * OMEGA * OMEGA * Q ** 3: 1,
        MINUS_ONE * Q ** 5: 1,
        MINUS_ONE * OMEGA * Q ** 5: 1,
        MINUS_ONE * OMEGA * OMEGA * Q ** 5: 1,
    }
    assert {r: m for r, m in rm} == expected
    # the product of the six linear factors reproduces z^6 + (q^9+q^15) z^3 + q^24
    linear = [(1, r, m) for r, m in rm]
    assert expand_poly(linear) == expand_poly(factors)
    unit = (1, 0, 0, 0, 0, 0, 0, 0)
    assert expand_poly(factors) == {
        6: {Fraction(0): unit},
        3: {Fraction(9): unit, Fraction(15): unit},
        0: {Fraction(24): unit},
    }


def test_d43_22_zero_orders():
    d = build(parse_type_string("D4-3"))
    p = denominator(d, 2, 2)
    assert zero_order(p, Q ** 4) == 2  # q^4 is a cube root of q^12, multiplicity 2
    assert zero_order(p, Q ** 2) == 1
    assert zero_order(p, OMEGA * Q ** 4) == 2
    assert zero_order(p, Q ** 6) == 1
    assert p.degree == 12


def test_zero_order_at_one_is_zero():
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        for i in d.i0:
            for j in d.i0:
                assert zero_order(denominator(d, i, j), ONE) == 0


def test_symmetry_and_positive_exponents():
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        for i in d.i0:
            for j in d.i0:
                p, q = denominator(d, i, j), denominator(d, j, i)
                assert p == q
                for r, _ in p:
                    assert 0 < r.qexp <= 2 * d.hvee, (s, i, j, r)


def test_ade_exponent_multiset_matches_ctilde():
    for s in ("A4-1", "D5-1", "E6-1"):
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        for i in d.i0:
            for j in d.i0:
                got = {}
                for r, m in denominator(d, i, j):
                    assert r.phase == (12 * r.qexp) % 24  # phase of (-q)^{k+1}
                    got[int(r.qexp)] = m
                expected = {
                    k + 1: ctilde_formula(q, i, j, k)
                    for k in range(1, d.hvee)
                    if ctilde_formula(q, i, j, k)
                }
                assert got == expected


def test_a2_classical_formula_cross_check():
    # type A denominators from ctilde agree with the classical closed form
    # d_{k,l}(z) = prod_{s=1}^{min(k,l,n+1-k,n+1-l)} (z - (-q)^{|k-l|+2s})
    for n in (2, 3, 4):
        d = build_type(Family.A1, n)
        for k in d.i0:
            for l in d.i0:
                classical = {}
                for s in range(1, min(k, l, n + 1 - k, n + 1 - l) + 1):
                    r = scalar(12 * (abs(k - l) + 2 * s), abs(k - l) + 2 * s)
                    classical[r] = classical.get(r, 0) + 1
                assert roots_set(d, k, l) == classical


def test_d2_roots_come_in_sigma_orbits():
    # for D_{n+1}^{(2)} with i,j < n the z^2 factors force +- closed root sets
    d = build(parse_type_string("D5-2"))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            rm = roots_set(d, i, j)
            for r, m in rm.items():
                assert rm[MINUS_ONE * r] == m


def test_e62_11_matches_paper_list():
    d = build(parse_type_string("E6-2"))
    assert roots_set(d, 1, 1) == {
        Q ** 2: 1,
        MINUS_ONE * Q ** 6: 1,
        Q ** 8: 1,
        MINUS_ONE * Q ** 12: 1,
    }


def test_b2_denominators():
    d = build_type(Family.B1, 2)
    assert roots_set(d, 1, 1) == {Q ** 2: 1, Q ** 3: 1}
    assert roots_set(d, 1, 2) == {MINUS_ONE * QS ** 5: 1}
    assert roots_set(d, 2, 2) == {QS ** 2: 1, QS ** 6: 1}


def test_degrees_against_known_counts():
    d = build_type(Family.C1, 4)
    # C_n: deg d_{k,l} = min(k,l,n-k,n-l) + min(k,l)
    for k in d.i0:
        for l in d.i0:
            assert denominator(d, k, l).degree == min(k, l, 4 - k, 4 - l) + min(k, l)
    a = build(parse_type_string("A4-2"))
    for k in a.i0:
        for l in a.i0:
            assert denominator(a, k, l).degree == 2 * min(k, l)


# The closed formulas and tables that the fold replaced, kept in
# tests/denominator_oracle.py: every twisted A/D/E-partnered family at a
# ladder of ranks, and the untwisted A/D/E SWEEP types, whose factor lists
# (and so their printed `d_i,j(z) = ...` lines) must not move.
FOLDED = (
    [f"A{n}-2" for n in (2, 4, 6, 8, 10, 20)]
    + [f"A{n}-2" for n in (3, 5, 7, 9, 21, 31)]
    + [f"D{n}-2" for n in (4, 5, 6, 9, 12, 20, 30)]
    + ["D4-3", "E6-2"]
    + [f"A{n}-1" for n in range(1, 7)] + ["D4-1", "D5-1", "D6-1", "E6-1", "E7-1", "E8-1"]
)


@pytest.mark.parametrize("s", FOLDED)
def test_folded_denominators_match_the_formulas_they_replaced(s):
    d = build(parse_type_string(s))
    for i in d.i0:
        for j in d.i0[i - 1:]:
            want, got = oracle_factors(d, i, j), denominator_factors(d, i, j)
            assert denominator(d, i, j) == expand_factors(want), (s, i, j)
            if d.simply_laced:
                assert got == want, (s, i, j)
            # one factor per distinct value, each of degree max(m_i, m_j)
            assert len({value for _, value, _ in got}) == len(got), (s, i, j)
            assert {deg for deg, _, _ in got} <= {max(d.m[i], d.m[j])}, (s, i, j)


def test_e62_34_is_the_fold_of_e6_24():
    # E6 nodes 2 and 4 fold onto E6-2 nodes 4 and 3 with the same factor i,
    # so d_{3,4}(z) = d^{E6}_{2,4}(z) d^{E6}_{2,4}(-z): q^9 is a simple root
    e6 = build(parse_type_string("E6-1"))
    roots = {}
    for r, m in denominator(e6, 2, 4):
        for x in (r, MINUS_ONE * r):
            roots[x] = roots.get(x, 0) + m
    d = build(parse_type_string("E6-2"))
    assert roots_set(d, 3, 4) == roots
    assert roots_set(d, 3, 4)[Q ** 9] == 1
