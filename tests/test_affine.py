import random

import pytest

from qaffine import (
    DecompositionUnavailable,
    InvalidQDatum,
    InvariantViolation,
    NotInHatIQ,
    NotInW0,
    ParseError,
    QAffineError,
    RootOutsideDomain,
    cli,
)
from qaffine.acceptance import SWEEP
from qaffine.affine import (
    MAX_GFIN_RANK,
    AffineType,
    Family,
    NodeOutOfRange,
    RankOutOfRange,
    build,
    canonical_param,
    component_class,
    format_type_string,
    parse_type_string,
    untwisted_partner,
)
from qaffine.invariants import sigma_point
from qaffine.scalars import MINUS_Q, OMEGA, ONE, Q, QS, SpectralScalar, scalar, parse_scalar

ALL_SMALL = [
    "A1-1", "A4-1", "B2-1", "B3-1", "C3-1", "C4-1", "D4-1", "D5-1",
    "E6-1", "E7-1", "E8-1", "F4-1", "G2-1",
    "A2-2", "A4-2", "A3-2", "A5-2", "D4-2", "D5-2", "E6-2", "D4-3",
]


def test_type_string_round_trip():
    for s in ALL_SMALL:
        t = parse_type_string(s)
        assert format_type_string(t) == s


def test_type_string_families():
    assert parse_type_string("A4-2").family == Family.A2_EVEN
    assert parse_type_string("A4-2").n == 2
    assert parse_type_string("A5-2").family == Family.A2_ODD
    assert parse_type_string("A5-2").n == 3
    assert parse_type_string("D5-2").n == 4
    assert parse_type_string("E6-2").family == Family.E6_2
    assert parse_type_string("D4-3").family == Family.D4_3


def test_rank_ranges():
    with pytest.raises(RankOutOfRange):
        parse_type_string("B1-1")
    with pytest.raises(RankOutOfRange):
        parse_type_string("C2-1")
    with pytest.raises(RankOutOfRange):
        parse_type_string("D3-1")
    with pytest.raises(RankOutOfRange):
        parse_type_string("D3-2")
    with pytest.raises(RankOutOfRange):
        parse_type_string("E5-1")
    with pytest.raises(RankOutOfRange):
        AffineType(Family.A1, 0)
    with pytest.raises(RankOutOfRange):
        parse_type_string("A1-2")
    parse_type_string("A2-2")  # A_2^{(2)} is legal (n = 1)


def test_pstar_table():
    assert build(AffineType(Family.B1, 3)).pstar == scalar(0, 5)
    assert build(AffineType(Family.A1, 4)).pstar == MINUS_Q ** 5
    assert build(AffineType(Family.C1, 4)).pstar == scalar(0, 5)
    assert build(AffineType(Family.D1, 5)).pstar == scalar(0, 8)
    assert build(AffineType(Family.A2_EVEN, 2)).pstar == scalar(12, 5)
    assert build(AffineType(Family.A2_ODD, 3)).pstar == scalar(12, 6)
    assert build(AffineType(Family.D2, 4)).pstar == scalar(12 * 5, 8)  # (-1)^{n+1} q^{2n}, n=4
    assert build(parse_type_string("G2-1")).pstar == scalar(0, 4)
    assert build(parse_type_string("E6-2")).pstar == scalar(12, 12)
    assert build(parse_type_string("D4-3")).pstar == scalar(0, 6)


def test_ptilde_is_pstar_squared():
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        assert d.ptilde == d.pstar * d.pstar
        assert 6 * d.hvee == d.pstar.e


def test_istar():
    d = build(AffineType(Family.A1, 4))
    assert d.istar[1] == 4 and d.istar[2] == 3
    d5 = build(AffineType(Family.D1, 5))
    assert d5.istar[4] == 5 and d5.istar[5] == 4 and d5.istar[1] == 1
    d6 = build(AffineType(Family.D1, 6))
    assert all(d6.istar[i] == i for i in d6.i0)
    e6 = build(parse_type_string("E6-1"))
    assert e6.istar[1] == 6 and e6.istar[3] == 5 and e6.istar[2] == 2
    for s in ("B3-1", "C3-1", "F4-1", "G2-1", "A4-2", "A5-2", "D5-2", "E6-2", "D4-3"):
        d = build(parse_type_string(s))
        assert all(d.istar[i] == i for i in d.i0)
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        assert all(d.istar[d.istar[i]] == i for i in d.i0)


def test_gfin_table():
    expect = {
        "A4-1": "A4", "B3-1": "A5", "C3-1": "D4", "D5-1": "D5",
        "A4-2": "A4", "A5-2": "A5", "D5-2": "D5",
        "E6-1": "E6", "E7-1": "E7", "E8-1": "E8",
        "F4-1": "E6", "G2-1": "D4", "E6-2": "E6", "D4-3": "D4",
    }
    for s, g in expect.items():
        assert build(parse_type_string(s)).gfin.type_name == g


def test_m_tables():
    assert build(parse_type_string("A5-2")).m == {1: 1, 2: 1, 3: 2}
    assert build(parse_type_string("D5-2")).m == {1: 2, 2: 2, 3: 2, 4: 1}
    assert build(parse_type_string("E6-2")).m == {1: 1, 2: 1, 3: 2, 4: 2}
    assert build(parse_type_string("D4-3")).m == {1: 1, 2: 3}
    assert build(parse_type_string("A4-2")).m == {1: 1, 2: 1}
    assert build(parse_type_string("B4-1")).m == {i: 1 for i in range(1, 5)}


def _sigma_eq(d, p1, p2):
    """The definition, as an oracle: (i,x) ~ (j,y) iff i = j and x^{m_i} = y^{m_i}."""
    (i, x), (j, y) = p1, p2
    d.check_node(i)
    d.check_node(j)
    if i != j or x.e != y.e:
        return False
    return (d.m[i] * (x.phase - y.phase)) % 24 == 0


def _identified(d, p1, p2):
    """Whether `sigma_point` stores the two points as one, checked against the oracle."""
    same = sigma_point(d, *p1) == sigma_point(d, *p2)
    assert same == _sigma_eq(d, p1, p2), (d, p1, p2)
    return same


def test_sigma_eq_examples():
    d52 = build(parse_type_string("D5-2"))
    assert _identified(d52, (1, Q), (1, MINUS_Q))
    assert not _identified(d52, (4, Q), (4, MINUS_Q))
    d43 = build(parse_type_string("D4-3"))
    assert _identified(d43, (2, MINUS_Q), (2, OMEGA * MINUS_Q))
    assert not _identified(d43, (1, Q), (1, OMEGA * Q))
    a52 = build(parse_type_string("A5-2"))
    assert not _identified(a52, (1, Q), (1, MINUS_Q))
    assert _identified(a52, (3, Q), (3, MINUS_Q))


def test_sigma_eq_untwisted_is_equality():
    d = build(AffineType(Family.B1, 3))
    assert _identified(d, (2, QS), (2, QS))
    assert not _identified(d, (2, QS), (2, QS * scalar(12, 0)))


def test_sigma_eq_is_equivalence():
    # over all pairs, sigma_point identifies exactly the pairs the definition
    # does; point equality is an equivalence, so the definition is one too
    rng = random.Random(1)
    d = build(parse_type_string("D5-2"))
    pts = [
        (rng.choice(d.i0), scalar(rng.randrange(24), rng.randrange(-6, 7)))
        for _ in range(60)
    ]
    for p in pts:
        for q in pts:
            _identified(d, p, q)


def test_canonical_param_respects_equivalence():
    d = build(parse_type_string("D4-3"))
    x = OMEGA * MINUS_Q
    assert canonical_param(d, 2, x) == canonical_param(d, 2, MINUS_Q)
    assert canonical_param(d, 1, x) != canonical_param(d, 1, MINUS_Q)


def test_untwisted_partner():
    assert str(untwisted_partner(build(parse_type_string("A4-2")))) == "A4-1"
    assert str(untwisted_partner(build(parse_type_string("A5-2")))) == "A5-1"
    assert str(untwisted_partner(build(parse_type_string("D5-2")))) == "D5-1"
    assert str(untwisted_partner(build(parse_type_string("E6-2")))) == "E6-1"
    assert str(untwisted_partner(build(parse_type_string("D4-3")))) == "D4-1"
    assert untwisted_partner(build(parse_type_string("B3-1"))).type.family == Family.B1


def test_dd_on_g0():
    d = build(AffineType(Family.D1, 5))
    assert d.dd(1, 5) == 3  # node 5 hangs off node 3 in the D_5 diagram
    assert d.dd(4, 5) == 2
    f4 = build(parse_type_string("F4-1"))
    assert f4.dd(1, 3) == 2
    e7 = build(parse_type_string("E7-1"))
    assert e7.dd(2, 7) == 4


def test_component_classes():
    # same component: sigma_0 members of B_3^{(1)}
    d = build(AffineType(Family.B1, 3))
    assert component_class(d, 3, Q ** 5) == ONE
    assert component_class(d, 1, QS) == ONE  # (-1)^{3+1} q_s q^m branch
    assert component_class(d, 1, Q) != ONE
    assert component_class(d, 1, QS * Q) == component_class(d, 2, scalar(12, 0) * QS)
    # offset by q^(1/6) always leaves the component
    shift = parse_scalar("q^(1/6)")
    for s in ALL_SMALL:
        dd = build(parse_type_string(s))
        x = dd.sigma0_base[1]
        assert component_class(dd, 1, x) != component_class(dd, 1, x * shift)


def test_component_class_respects_sigma_eq():
    d43 = build(parse_type_string("D4-3"))
    assert component_class(d43, 2, MINUS_Q) == component_class(d43, 2, OMEGA * MINUS_Q)
    assert component_class(d43, 2, OMEGA * OMEGA * MINUS_Q) == ONE
    assert component_class(d43, 1, OMEGA * Q ** 2) == ONE
    d52 = build(parse_type_string("D5-2"))
    assert component_class(d52, 1, Q) == component_class(d52, 1, MINUS_Q)


def test_class_translate_lands_in_sigma_z():
    # block_label pulls each point back by its class with no re-check: the
    # pure-phase generator's modulus divides 24, so x / class(x) has class 1
    rng = random.Random(24)
    for s in SWEEP:
        d = build(parse_type_string(s))
        assert d.k0[2] in (0, 8, 12), s
        for _ in range(2000):
            i = rng.choice(d.i0)
            x = SpectralScalar(rng.randrange(24), rng.randint(-1000, 1000))
            assert component_class(d, i, x / component_class(d, i, x)) == ONE, (s, i, x)


def test_sigma0_membership_lists():
    # spot-check the sigma_0 lists for a twisted and an untwisted family
    a52 = build(parse_type_string("A5-2"))  # sigma_0: (i, +-(-q)^p) p = i+1 mod 2, (3, (-q)^r) r even
    assert component_class(a52, 1, Q ** 2) == ONE
    assert component_class(a52, 1, (MINUS_Q ** 2) * scalar(12, 0)) == ONE  # the minus branch
    assert component_class(a52, 1, MINUS_Q) != ONE  # odd power at node 1
    assert component_class(a52, 2, MINUS_Q) == ONE
    assert component_class(a52, 3, Q ** 2) == ONE
    g2 = build(parse_type_string("G2-1"))
    assert component_class(g2, 2, ONE) == ONE
    assert component_class(g2, 1, parse_scalar("(-qt)^3")) == ONE
    assert component_class(g2, 1, ONE) != ONE



def test_simply_laced_families():
    laced = {parse_type_string(s).family for s in ALL_SMALL if build(parse_type_string(s)).simply_laced}
    assert laced == {Family.A1, Family.D1, Family.E6_1, Family.E7_1, Family.E8_1}


def test_twisted_gfin_is_the_partners():
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        assert d.twisted == (s[-1] != "1")
        assert untwisted_partner(d).gfin is d.gfin


def test_rank_cap_bounds_the_finite_type():
    for family, n_max in ((Family.A1, MAX_GFIN_RANK), (Family.B1, 32), (Family.A2_EVEN, 32), (Family.D2, 63)):
        AffineType(family, n_max)
        with pytest.raises(RankOutOfRange, match="above the cap"):
            AffineType(family, n_max + 1)
    with pytest.raises(RankOutOfRange, match="A66-2"):
        parse_type_string("A66-2")


def test_domain_errors_share_a_base():
    for exc in (ParseError, RootOutsideDomain, RankOutOfRange, NodeOutOfRange, NotInW0,
                InvalidQDatum, NotInHatIQ, DecompositionUnavailable):
        assert issubclass(exc, QAffineError)
    assert not issubclass(InvariantViolation, cli.DOMAIN_ERRORS)
    with pytest.raises(NodeOutOfRange):
        build(parse_type_string("A3-1")).check_node(4)
