from fractions import Fraction

import pytest

from qaffine.acceptance import SWEEP, sigma_q_window
from qaffine.affine import (
    MAX_GFIN_RANK,
    AffineType,
    Family,
    RankOutOfRange,
    build,
    component_class,
    parse_type_string,
    untwisted_partner,
)
from qaffine.invariants import sigma_point
from qaffine.qcartan import (
    InvalidQDatum,
    NotInHatIQ,
    QDatum,
    custom_qdatum,
    default_qdatum,
    gamma_q,
    i_q,
    phi_inverse_zero,
    psi_q,
    tau_q,
    validate_qdatum,
)
from qaffine.qdata import esig, phi_q, phi_q_map, sigma_q_points, translate_star, twist
from qaffine.roots import identity_perm, perm_from_map
from qaffine.scalars import I_UNIT, MINUS_ONE, MINUS_Q, MINUS_QS, MINUS_QT, OMEGA, ONE, Q, QS, scalar

ALL_CRIT1 = (
    [f"A{n}-1" for n in range(1, 7)]
    + [f"B{n}-1" for n in range(2, 6)]
    + [f"C{n}-1" for n in range(3, 6)]
    + [f"D{n}-1" for n in range(4, 7)]
    + [f"A{2 * n}-2" for n in range(1, 5)]
    + [f"A{2 * n - 1}-2" for n in range(2, 5)]
    + [f"D{n + 1}-2" for n in range(3, 6)]
    + ["E6-1", "E7-1", "E8-1", "F4-1", "G2-1", "E6-2", "D4-3"]
)


def test_default_qdatum_g2():
    q = default_qdatum(build(parse_type_string("G2-1")))
    assert q.ord_rho == 3
    assert q.xi == {1: -1, 2: 0, 3: -3, 4: -5}
    assert q.rs.type_name == "D4"
    assert tau_q(q)[:2] == (2, 1)


def test_default_qdatum_cn():
    d = build(AffineType(Family.C1, 4))
    q = default_qdatum(d)
    assert q.xi[1] == 0 and q.xi[4] == -3 and q.xi[5] == -5
    assert tau_q(q)[:4] == (1, 2, 3, 4)
    assert q.ord_rho == 2


def test_default_qdatum_an():
    q = default_qdatum(build(AffineType(Family.A1, 5)))
    assert all(q.xi[i] == 1 - i for i in range(1, 6))
    assert tau_q(q) == (1, 2, 3, 4, 5)


def test_default_qdatum_f4():
    q = default_qdatum(build(parse_type_string("F4-1")))
    assert tau_q(q)[:4] == (1, 2, 3, 4)
    assert q.pi == {1: 1, 6: 1, 3: 2, 5: 2, 4: 3, 2: 4}


def test_all_defaults_validate():
    for s in ALL_CRIT1:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        assert validate_qdatum(q) == [], s


def test_bn_perturbation_violates_condition_2():
    d = build(AffineType(Family.B1, 3))
    q = default_qdatum(d)
    xi = dict(q.xi)
    xi[d.n + 1] += 1
    bad = QDatum(rs=q.rs, rho=q.rho, xi=xi, base=q.base)
    violations = validate_qdatum(bad)
    assert violations and any("condition (2)" in v for v in violations)


def test_simply_laced_bad_edge_violates_condition_1():
    d = build(AffineType(Family.A1, 3))
    bad = QDatum(rs=d.gfin, rho=(0, 1, 2, 3), xi={1: 0, 2: -2, 3: -3}, base=d)
    violations = validate_qdatum(bad)
    assert violations and any("condition (1)" in v for v in violations)


def test_custom_qdatum():
    d = build(AffineType(Family.A1, 3))
    custom_qdatum(d, {1: 0, 2: 1, 3: 0})
    with pytest.raises(InvalidQDatum):
        custom_qdatum(d, {1: 0, 2: 2, 3: 0})
    with pytest.raises(InvalidQDatum):
        custom_qdatum(build(AffineType(Family.B1, 2)), {1: 0, 2: 1, 3: 0})


@pytest.mark.parametrize("xi, bad", [
    ({1: 0.0, 2: 1.0, 3: 0.0}, "xi_1 = 0.0"),
    ({1: 0, 2: 1, 3: "0"}, "xi_3 = '0'"),
])
def test_custom_qdatum_rejects_heights_that_are_not_ints(xi, bad):
    # float heights used to pass and break `block_label`; a str one broke `validate_qdatum`
    with pytest.raises(InvalidQDatum, match=f"height {bad} is not an int"):
        custom_qdatum(build(AffineType(Family.A1, 3)), xi)


@pytest.mark.parametrize("xi, nodes", [
    ({1: 0, "2": 1, 3: 0}, "[1, 3, '2']"),
    ({1: 0, 2: 1}, "[1, 2]"),
    ({1: 0, 2: 1, 3: 0, 10: 1}, "[1, 2, 3, 10]"),
], ids=["mixed-key-types", "missing-node", "extra-node"])
def test_custom_qdatum_rejects_a_wrong_node_set(xi, nodes):
    # a str key beside int ones used to escape as a bare TypeError from sorting the keys
    with pytest.raises(InvalidQDatum) as exc:
        custom_qdatum(build(AffineType(Family.A1, 3)), xi)
    assert str(exc.value) == f"height function defined on {nodes} instead of the node set"


def test_gamma_is_positive_root():
    for s in ALL_CRIT1:
        q = default_qdatum(build(parse_type_string(s)))
        for i in range(1, q.rs.rank + 1):
            gamma_q(q, i)  # asserts positivity internally


def test_psi_base_case_and_errors():
    q = default_qdatum(build(AffineType(Family.A1, 4)))
    for i in range(1, 5):
        assert psi_q(q, i, q.xi[i]) == (gamma_q(q, i), 0)
    with pytest.raises(NotInHatIQ):
        psi_q(q, 1, q.xi[1] + 1)


def test_psi_a4_figure_cell():
    # the (1100) cell of the A_4 grid sits at (i, k) = (2, -1)
    q = default_qdatum(build(AffineType(Family.A1, 4)))
    assert psi_q(q, 2, -1) == ((1, 1, 0, 0), 0)
    inv = phi_inverse_zero(q)
    assert inv[(1, 1, 0, 0)] == (2, -1)


def test_iq_counts():
    assert len(i_q(default_qdatum(build(AffineType(Family.B1, 3))))) == 15
    assert i_q(default_qdatum(build(AffineType(Family.A1, 1)))) == [(1, 0)]
    for s in ALL_CRIT1:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        assert len(i_q(q)) == len(q.rs.positive_roots), s


def test_esig_bn():
    d = build(AffineType(Family.B1, 3))
    q = default_qdatum(d)
    node, val = esig(q, 1, 3)
    assert (node, val) == (1, scalar(0, Fraction(3, 2)))  # (-1)^{1+3} qs^3
    node, val = esig(q, 2, -7)
    assert (node, val) == (2, MINUS_ONE * scalar(0, Fraction(-7, 2)))
    node, val = esig(q, 5, 1)
    assert node == 1  # orbit {1, 5} projects to 1
    node, val = esig(q, 3, -4)
    assert (node, val) == (3, scalar(0, -2))


def test_twists():
    d52 = build(parse_type_string("D5-2"))  # n = 4, partner D_5^{(1)}
    assert twist(d52, 2, Q) == (2, I_UNIT ** 3 * Q)
    assert twist(d52, 4, Q) == (4, Q)
    assert twist(d52, 5, Q) == (4, MINUS_ONE * Q)
    d43 = build(parse_type_string("D4-3"))  # the dagger map
    assert twist(d43, 3, Q) == (1, OMEGA * Q)
    assert twist(d43, 2, Q) == (2, Q)
    assert twist(d43, 4, Q) == (1, OMEGA * OMEGA * Q)
    e62 = build(parse_type_string("E6-2"))
    assert twist(e62, 2, Q) == (4, I_UNIT * Q)
    assert twist(e62, 6, Q) == (1, MINUS_ONE * Q)


def _largest_rank(family: Family) -> int:
    ranks = []
    for n in range(1, 2 * MAX_GFIN_RANK):
        try:
            ranks.append(AffineType(family, n).n)
        except RankOutOfRange:
            pass
    return ranks[-1]


@pytest.mark.parametrize("s", sorted(set(SWEEP) | {str(AffineType(f, _largest_rank(f))) for f in Family}))
def test_fold_and_k0_tables_match_the_spec(s):
    d = build(parse_type_string(s))
    spec, partner = d.type.spec, range(1, d.gfin.rank + 1)
    assert d.k0 == spec.k0
    assert d.fold == {a: spec.fold(d.n, a) for a in partner}
    # preimages inverts the fold exactly, each list in order of a
    pairs = [(a, node, f) for node, pre in d.preimages.items() for a, f in pre]
    assert sorted(pairs) == [(a, *d.fold[a]) for a in partner]
    assert all(pre == sorted(pre) for pre in d.preimages.values())
    # twist as it was before the table: the spec's fold, called on each use
    a = scalar(5, Fraction(7, 6))
    for node in partner:
        target, factor = spec.fold(d.n, node)
        assert twist(d, node, a) == (target, factor * a), node


# The per-family chains that `affine._SPECS` replaced, kept as the oracle
# of the spec table: the default rho and xi, the labelling epsilon and the
# star/dagger folding maps.

_ORACLE_RHO = {
    Family.B1: lambda d: perm_from_map(d.gfin.rank, {k: 2 * d.n - k for k in range(1, 2 * d.n)}),
    Family.C1: lambda d: perm_from_map(d.gfin.rank, {d.n: d.n + 1, d.n + 1: d.n}),
    Family.F4_1: lambda d: perm_from_map(6, {1: 6, 6: 1, 3: 5, 5: 3}),
    Family.G2_1: lambda d: perm_from_map(4, {1: 3, 3: 4, 4: 1}),
}


def _oracle_xi(d):
    f, n = d.family, d.n
    if d.simply_laced:
        rank = d.gfin.rank
        if d.gfin.letter == "A":
            return {i: 1 - i for i in range(1, rank + 1)}
        if d.gfin.letter == "D":
            xi = {i: 1 - i for i in range(1, rank - 1)}
            xi[rank - 1] = xi[rank] = 2 - rank
            return xi
        xi = {1: 0, 2: -1}
        xi.update({k: 2 - k for k in range(3, rank + 1)})
        return xi
    if f == Family.B1:
        xi = {i: 2 * n - 2 * i - 1 for i in range(1, n)}
        xi[n], xi[n + 1] = 0, -1
        xi.update({i: 2 * i - 2 * n - 3 for i in range(n + 2, 2 * n)})
        return xi
    if f == Family.C1:
        xi = {i: 1 - i for i in range(1, n + 1)}
        xi[n + 1] = -n - 1
        return xi
    if f == Family.F4_1:
        return {1: 0, 2: -2, 3: -2, 4: -3, 5: -4, 6: -2}
    return {1: -1, 2: 0, 3: -3, 4: -5}  # G2


def _oracle_pi(base, q):
    if base.family == Family.F4_1:
        rep = {1: 1, 3: 2, 4: 3, 2: 4}
        return {i: rep[min(o)] for i, o in q.orbits.items()}
    return {i: min(o) for i, o in q.orbits.items()}


def _oracle_esig(base, pi, i, p):
    fam = base.family
    if base.simply_laced:
        return i, MINUS_Q ** p
    if fam == Family.B1:
        return pi[i], MINUS_ONE ** (i + base.n) * QS ** p
    if fam == Family.C1:
        return pi[i], MINUS_QS ** p
    if fam == Family.F4_1:
        return pi[i], MINUS_ONE ** pi[i] * QS ** p
    return pi[i], MINUS_QT ** p  # G2


def _oracle_twist(d, node, a):
    f, n = d.family, d.n
    if not d.twisted:  # phi_Q applied no twist
        return node, a
    if f in (Family.A2_EVEN, Family.A2_ODD):
        big = d.gfin.rank
        if node <= (big + 1) // 2:
            return node, a
        return big + 1 - node, MINUS_ONE ** big * a
    if f == Family.D2:
        if node <= n - 1:
            return node, I_UNIT ** (n + 1 - node) * a
        return n, MINUS_ONE ** node * a
    if f == Family.E6_2:
        tgt, mul = {1: (1, ONE), 3: (2, ONE), 5: (2, MINUS_ONE), 6: (1, MINUS_ONE),
                    4: (3, I_UNIT), 2: (4, I_UNIT)}[node]
        return tgt, mul * a
    if node == 2:  # D4-3, the dagger map
        return 2, a
    return 1, {1: ONE, 3: OMEGA, 4: OMEGA * OMEGA}[node] * a


@pytest.mark.parametrize("s", sorted(set(SWEEP) | {"B10-1", "C12-1", "A9-2", "A10-2", "D9-2"}))
def test_family_spec_matches_the_chains_it_replaced(s):
    d = build(parse_type_string(s))
    base = untwisted_partner(d)
    q = default_qdatum(d)
    assert q.rho == _ORACLE_RHO.get(base.family, lambda b: identity_perm(b.gfin.rank))(base)
    assert q.xi == _oracle_xi(base)
    pi = _oracle_pi(base, q)
    assert q.pi == pi
    for i in range(1, q.rs.rank + 1):
        for p in range(-40, 41):
            assert esig(q, i, p) == _oracle_esig(base, pi, i, p), (i, p)
    a = scalar(5, Fraction(7, 6))
    for node in range(1, q.rs.rank + 1):
        assert twist(d, node, a) == _oracle_twist(d, node, a), node


def test_phi_golden_a():
    for n in (1, 2, 4):
        d = build(AffineType(Family.A1, n))
        q = default_qdatum(d)
        for i in range(1, n + 1):
            assert phi_q(q, d, d.gfin.simple_root(i)) == sigma_point(d, 1, MINUS_Q ** (2 - 2 * i))


def test_phi_golden_b():
    for n in (2, 3, 4):
        d = build(AffineType(Family.B1, n))
        q = default_qdatum(d)
        fin = q.rs
        sign = MINUS_ONE ** (n + 1)
        for i in range(1, 2 * n):
            got = phi_q(q, d, fin.simple_root(i))
            if i <= n - 1:
                want = sigma_point(d, 1, sign * scalar(0, Fraction(2 * n + 1 - 4 * i, 2)))
            elif i == n:
                want = sigma_point(d, n, scalar(0, -2 * n + 2))
            elif i == n + 1:
                want = sigma_point(d, n, scalar(0, -2 * n + 3))
            else:
                want = sigma_point(d, 1, sign * scalar(0, Fraction(-6 * n + 4 * i - 1, 2)))
            assert got == want, (n, i)


def test_phi_golden_c():
    for n in (3, 4, 5):
        d = build(AffineType(Family.C1, n))
        q = default_qdatum(d)
        fin = q.rs
        for i in range(1, n + 1):
            assert phi_q(q, d, fin.simple_root(i)) == sigma_point(d, 1, MINUS_QS ** (2 - 2 * i))
        assert phi_q(q, d, fin.simple_root(n + 1)) == sigma_point(d, n, MINUS_QS ** (-3 * n + 1))


def test_phi_golden_d43():
    d = build(parse_type_string("D4-3"))
    q = default_qdatum(d)
    assert phi_q(q, d, (1, 0, 0, 0)) == sigma_point(d, 1, ONE)
    assert phi_q(q, d, (0, 1, 0, 0)) == sigma_point(d, 1, scalar(0, -2))
    assert phi_q(q, d, (0, 0, 1, 0)) == sigma_point(d, 1, OMEGA * scalar(0, -6))
    assert phi_q(q, d, (0, 0, 0, 1)) == sigma_point(d, 1, OMEGA * OMEGA * scalar(0, -6))


def test_phi_injective_and_in_sigma0():
    for s in ("A3-1", "B3-1", "C3-1", "D4-1", "G2-1", "A4-2", "A5-2", "D4-2", "E6-2", "D4-3"):
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        mp = phi_q_map(q, d)
        assert len(set(mp.values())) == len(q.rs.positive_roots)
        for p in mp.values():
            assert component_class(d, p.node, p.param) == ONE, (s, p)


def test_sigma_q_window_equals_phi_image():
    for s in ("A4-1", "B3-1", "C3-1", "D5-1", "F4-1", "G2-1", "A4-2", "D5-2", "E6-2", "D4-3"):
        d = build(parse_type_string(s))
        assert sigma_q_window(d) == sigma_q_points(d), s


def test_sigma_q_translates_disjoint():
    for s in ("A3-1", "B2-1", "G2-1", "D4-3"):
        d = build(parse_type_string(s))
        sq = sigma_q_points(d)
        seen = set()
        for k in range(-2, 3):
            t = translate_star(d, sq, k)
            assert not (t & seen)
            seen |= t
        for p in seen:
            assert component_class(d, p.node, p.param) == ONE


def test_sigma_z_is_union_of_translates_a2():
    # A_2^{(1)}: five consecutive translates tile the (-q)-power grid
    # p in [-4, 8] at node 1 and [-5, 9] at node 2, one point each
    d = build(AffineType(Family.A1, 2))
    union = set()
    for k in range(-1, 4):
        union |= translate_star(d, sigma_q_points(d), k)
    expected = {sigma_point(d, 1, MINUS_Q ** p) for p in range(-4, 10, 2)}
    expected |= {sigma_point(d, 2, MINUS_Q ** p) for p in range(-5, 10, 2)}
    assert len(union) == 15
    assert union == expected


def test_tau_tie_break_invariance():
    # nodes 2 and 3 of E6 share a height and commute; both legal orderings
    # must give the same bijection
    d = build(parse_type_string("E6-1"))
    q1 = default_qdatum(d)
    q2 = QDatum(rs=q1.rs, rho=q1.rho, xi=q1.xi, base=q1.base)
    assert validate_qdatum(q2) == []
    q2._tau = alt = (1, 3, 2, 4, 5, 6)
    assert tau_q(q1) == (1, 2, 3, 4, 5, 6)
    assert [q1.xi[t] for t in alt] == sorted(q1.xi.values(), reverse=True)  # still weakly decreasing
    assert phi_q_map(q1, d) == phi_q_map(q2, d)


def test_psi_window_bijectivity_spot():
    # walked upward, each (beta, m) with m in [0, 2] appears exactly once
    for s in ("A3-1", "B3-1", "G2-1"):
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        cells = {}
        for i, p in i_q(q):
            steps = 0
            pp = p
            while True:
                beta, m = psi_q(q, i, pp)
                if m > 2:
                    break
                if m >= 0:
                    key = (beta, m)
                    assert key not in cells or cells[key] == (i, pp)
                    cells.setdefault(key, (i, pp))
                pp += 2 * q.d[i]
                steps += 1
                assert steps < 500
        assert len(cells) == 3 * len(q.rs.positive_roots), s
