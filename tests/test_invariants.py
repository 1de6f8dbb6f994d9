import functools
import pickle
import random
import sys
from itertools import groupby

import pytest

from qaffine import invariants
from qaffine.acceptance import SWEEP
from qaffine.affine import (
    MAX_GFIN_RANK,
    AffineType,
    Family,
    NodeOutOfRange,
    RankOutOfRange,
    build,
    parse_type_string,
    untwisted_partner,
)
from qaffine.blocks import NotInW0, delta0, psi_lattice
from qaffine.denominators import denominator
from qaffine.invariants import (
    DecompositionUnavailable,
    SigmaFunction,
    SigmaPoint,
    de,
    dual_shift,
    e_of,
    lambda_,
    lambda_inf,
    pairing,
    parse_sigma_point,
    s_func,
    sigma_point,
)
from qaffine.qcartan import ctilde_formula, default_qdatum
from qaffine.qdata import phi_q, sigma_q_points, simple_root_points, translate_star
from qaffine.scalars import MINUS_Q, MINUS_QT, ONE, Q, QS, InvariantViolation, SpectralScalar, scalar
from test_blocks import LADDER
from weyl_oracle import NotInRootLattice, weight_to_root

ALL_SMALL = [
    "A1-1", "A4-1", "B2-1", "B3-1", "C3-1", "D4-1", "D5-1",
    "E6-1", "F4-1", "G2-1",
    "A2-2", "A4-2", "A3-2", "A5-2", "D4-2", "D5-2", "E6-2", "D4-3",
]


def pt(d, i, x):
    return sigma_point(d, i, x)


def _reduced(d, j, x):
    """(j, x) as a stored point: the phase by sigma_point, the exponent into
    [0, ptilde) by whole ptilde powers (no `_key`)."""
    return sigma_point(d, j, x * (d.pstar * d.pstar) ** -(x.e // (12 * d.hvee)))


def random_point(rng, d):
    i = rng.choice(d.i0)
    x = scalar(rng.randrange(24), rng.randrange(-8, 9))
    return pt(d, i, x)


def test_de_examples():
    f4 = build(parse_type_string("F4-1"))
    assert de(f4, pt(f4, 1, ONE), pt(f4, 1, QS ** 4)) == 1
    g2 = build(parse_type_string("G2-1"))
    assert de(g2, pt(g2, 2, ONE), pt(g2, 2, MINUS_QT ** 8)) == 1
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        for i in d.i0:
            p = pt(d, i, Q)
            assert de(d, p, p) == 0


def test_de_symmetry_random():
    rng = random.Random(2)
    for s in ("B3-1", "D5-2", "E6-2", "D4-3"):
        d = build(parse_type_string(s))
        for _ in range(40):
            p1, p2 = random_point(rng, d), random_point(rng, d)
            assert de(d, p1, p2) == de(d, p2, p1)


def test_de_respects_sigma_eq():
    d = build(parse_type_string("D4-3"))
    a = pt(d, 1, Q ** 2)
    b1 = sigma_point(d, 2, MINUS_Q ** 5)
    b2 = sigma_point(d, 2, scalar(8, 0) * MINUS_Q ** 5)  # omega * same param
    assert b1 == b2
    assert de(d, a, b1) == de(d, a, b2)


def test_dual_shift():
    a4 = build(AffineType(Family.A1, 4))
    p = pt(a4, 1, ONE)
    assert dual_shift(a4, p, 0) == p
    assert dual_shift(a4, p, 1) == pt(a4, 4, MINUS_Q ** 5)
    twice = dual_shift(a4, dual_shift(a4, p, 1), 1)
    assert twice == pt(a4, 1, a4.pstar * a4.pstar)
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        q = pt(d, d.i0[-1], scalar(3, 2))
        assert dual_shift(d, dual_shift(d, q, 1), -1) == q


def test_fundamental_dual_orbit():
    # de(p, D^k p) = delta(k = +-1); swept over all 14 families in acceptance
    for s in ("A4-1", "B3-1", "G2-1", "D5-2", "D4-3"):
        d = build(parse_type_string(s))
        for i in d.i0:
            p = pt(d, i, ONE if not d.twisted else Q)
            for k in range(-4, 5):
                assert de(d, p, dual_shift(d, p, k)) == int(k in (-1, 1)), (s, i, k)


def test_lambda_inf_self_is_minus_two():
    for s in ALL_SMALL:
        d = build(parse_type_string(s))
        for i in d.i0:
            p = pt(d, i, scalar(5, 1))
            assert lambda_inf(d, p, p) == -2


def test_lambda_inf_rejects_nodes_outside_i0():
    d = build(AffineType(Family.A1, 3))
    for p1, p2 in ((SigmaPoint(1, ONE), SigmaPoint(4, ONE)), (SigmaPoint(4, ONE), SigmaPoint(1, ONE))):
        for fn in (lambda_inf, lambda_):
            with pytest.raises(NodeOutOfRange):
                fn(d, p1, p2)


def test_lambda_inf_a4_example():
    d = build(AffineType(Family.A1, 4))
    assert lambda_inf(d, pt(d, 1, ONE), pt(d, 1, MINUS_Q ** 2)) == 1


def test_lambda_inf_ade_ctilde_identity_spot():
    d = build(AffineType(Family.D1, 4))
    q = default_qdatum(d)
    for i in d.i0:
        for j in d.i0:
            for t in range(1, 2 * d.hvee):
                got = lambda_inf(d, pt(d, i, ONE), pt(d, j, MINUS_Q ** t))
                want = ctilde_formula(q, i, j, t - 1) - ctilde_formula(q, i, j, t + 1)
                assert got == want, (i, j, t)


def test_lambda_parity_and_de_identity():
    rng = random.Random(3)
    for s in ("A4-1", "C3-1", "A5-2", "E6-2"):
        d = build(parse_type_string(s))
        for _ in range(25):
            p1, p2 = random_point(rng, d), random_point(rng, d)
            li = lambda_inf(d, p1, p2)
            la = lambda_(d, p1, p2)
            assert (la - li) % 2 == 0
            assert 2 * de(d, p1, p2) == lambda_(d, p1, p2) + lambda_(d, p2, p1)


def test_lambda_real_self_is_zero():
    for s in ("A4-1", "B3-1", "D4-3"):
        d = build(parse_type_string(s))
        for i in d.i0:
            p = pt(d, i, Q)
            assert lambda_(d, p, p) == 0


def test_s_func_self_value():
    for s in ("A4-1", "G2-1", "D5-2"):
        d = build(parse_type_string(s))
        p = pt(d, 1, ONE)
        f = s_func(d, p)
        assert f.value_at(d, p.node, p.param) == -2


def test_s_func_duality():
    for s in ("A4-1", "B2-1", "F4-1", "D4-3", "A4-2"):
        d = build(parse_type_string(s))
        p = pt(d, 1, scalar(2, -1))
        f = s_func(d, p)
        g = s_func(d, dual_shift(d, p, 1))
        assert e_of(d, []).is_zero
        total = {}
        for q, v in f.values + g.values:
            total[q] = total.get(q, 0) + v
        assert all(v == 0 for v in total.values())


def test_s_func_matches_brute_force_grid():
    # A_2^{(1)}: on the full grid |k| <= 4h the stored (ptilde-periodic)
    # representation reproduces every directly computed lambda_inf value,
    # and the representatives stay inside one period
    d = build(AffineType(Family.A1, 2))
    p = pt(d, 1, ONE)
    f = s_func(d, p)
    h = 3
    for j in d.i0:
        for k in range(-4 * h, 4 * h + 1):
            for sign in (0, 12):
                q = pt(d, j, scalar(sign, 0) * MINUS_Q ** k)
                assert f.value_at(d, q.node, q.param) == lambda_inf(d, p, q)
    for q, _ in f.values:
        assert q == _reduced(d, q.node, q.param)
        assert 0 <= q.param.qexp < 2 * d.hvee


def test_e_of_singleton_and_kernel():
    d = build(AffineType(Family.A1, 3))
    p = pt(d, 1, scalar(1, 2))
    assert e_of(d, [p]) == s_func(d, p)
    for t in (ONE, scalar(7, -3)):
        kernel = [pt(d, 1, t * Q ** (2 * k)) for k in range(0, 4)]
        assert e_of(d, kernel).is_zero


def test_pairing():
    d = build(parse_type_string("G2-1"))
    p = pt(d, 2, ONE)
    assert pairing(d, p, p) == 2
    f = s_func(d, p)
    assert pairing(d, f, f) == 2
    zero = e_of(d, [])
    assert pairing(d, f, zero) == 0
    with pytest.raises(DecompositionUnavailable):
        pairing(d, SigmaFunction(f.keys, f.vals, None), f)


def test_shift_equivariance():
    rng = random.Random(9)
    for s in ("A4-1", "B3-1", "G2-1", "D5-2"):
        d = build(parse_type_string(s))
        for _ in range(10):
            i = rng.choice(d.i0)
            j = rng.choice(d.i0)
            a = scalar(rng.randrange(24), rng.randrange(-4, 5))
            b = scalar(rng.randrange(24), rng.randrange(-4, 5))
            t = scalar(rng.randrange(24), rng.randrange(-3, 4))
            lhs = s_func(d, pt(d, i, t * a)).value_at(d, j, t * b)
            rhs = s_func(d, pt(d, i, a)).value_at(d, j, b)
            assert lhs == rhs


def test_parse_sigma_point():
    d = build(AffineType(Family.B1, 3))
    p = parse_sigma_point(d, "3@(-q)^5")
    assert p == pt(d, 3, MINUS_Q ** 5)
    with pytest.raises(Exception):
        parse_sigma_point(d, "x@q")


# the window sum of the oracles below is centered on the only region that
# can carry nonzero terms; nonzero de in the guard ring |off| >= GUARD_LOW
# means the window arithmetic broke
GUARD_LOW = 5
GUARD_HIGH = 8


class SumNotStabilized(InvariantViolation):
    """A dual-orbit sum had support outside its stabilization window."""


def _orbit_values(d, p1, p2):
    """All nonzero de(p1, D^k p2), keyed by k.

    Nonzero terms force |qexp(ratio) + k hvee| <= 2 hvee, so the window is
    centered there; anything in the guard ring would mean that bound (and
    hence the sum) is wrong, so it raises instead of truncating silently.
    """
    center = round(-(p2.param / p1.param).e / (6 * d.hvee))
    values = {}
    for off in range(-GUARD_HIGH, GUARD_HIGH + 1):
        k = center + off
        v = de(d, p1, dual_shift(d, p2, k))
        if v:
            if abs(off) >= GUARD_LOW:
                raise SumNotStabilized(f"de({p1}, D^{k} {p2}) = {v} at the window boundary for {d}")
            values[k] = v
    return values


def lambda_inf_oracle(d, p1, p2):
    """Oracle: the alternating dual-orbit sum sum_k (-1)^k de(M, D^k N), term by term."""
    return sum(v if k % 2 == 0 else -v for k, v in _orbit_values(d, p1, p2).items())


def lambda_oracle(d, p1, p2):
    """Oracle: sum_k (-1)^{k + delta(k<0)} de(M, D^k N), term by term."""
    return sum(v if (k % 2 == 0) == (k >= 0) else -v for k, v in _orbit_values(d, p1, p2).items())


def support_candidates(d, p):
    """Oracle: ptilde-orbit representatives of every (j, b) that can pair nonzero with p.

    A nonzero dual-orbit term needs b (p*)^k / a to be a denominator root
    for some k; modulo ptilde only the parity of k matters, which leaves
    the roots of d_{i,j} and of d_{i,j*} shifted by (p*)^{-1}.
    """
    i, a = p
    cands = set()
    pinv = d.pstar.inv()
    for j in d.i0:
        for jj, shift in ((j, ONE), (d.istar[j], pinv)):
            for r, _ in denominator(d, i, jj):
                for val in (a * r, a * r.inv()):
                    cands.add(_reduced(d, j, val * shift))
    return cands


def _near_pair(rng, d):
    """A random pair whose q-exponents differ by at most 2 hvee, or, one time
    in five, a candidate partner of p1 moved several ptilde periods away."""
    p1 = sigma_point(d, rng.choice(d.i0), SpectralScalar(rng.randrange(24), rng.randrange(-60, 61)))
    if rng.random() < 0.2:
        j, b = rng.choice(sorted(support_candidates(d, p1)))
        periods = rng.choice((-1, 1)) * rng.randrange(2, 6)
        return p1, sigma_point(d, j, b * (d.pstar * d.pstar) ** periods)
    off = SpectralScalar(rng.randrange(24), rng.randrange(-12 * d.hvee, 12 * d.hvee + 1))
    return p1, sigma_point(d, rng.choice(d.i0), p1.param * off)


def test_lambda_inf_matches_oracle():
    # the template lookup against the explicit dual-orbit sum it replaces
    rng = random.Random(20261018)
    nonzero = 0
    for s in SWEEP:
        d = build(parse_type_string(s))
        for _ in range(310):
            p1, p2 = _near_pair(rng, d)
            want = lambda_inf_oracle(d, p1, p2)
            assert lambda_inf(d, p1, p2) == want, (s, str(p1), str(p2))
            nonzero += want != 0
    assert nonzero > 310 * len(SWEEP) // 10


def test_lambda_matches_oracle():
    # the scatter of `lambda_` against the explicit window sum it replaces
    rng = random.Random(20261020)
    nonzero = 0
    for s in SWEEP:
        d = build(parse_type_string(s))
        for _ in range(150):
            p1, p2 = _near_pair(rng, d)
            for a, b in ((p1, p2), (p2, p1)):
                got, want = lambda_(d, a, b), lambda_oracle(d, a, b)
                assert type(got) is int and got == want, (s, str(a), str(b))
                nonzero += want != 0
    assert nonzero > 300 * len(SWEEP) // 10


def test_lambda_is_an_int_where_k_reaches_minus_two():
    # terms with k <= -2 once made (-1) ** (k + 1) a float
    d = build(parse_type_string("A5-2"))
    p1, p2 = parse_sigma_point(d, "3@z24^3*q^-9"), parse_sigma_point(d, "3@z24^3*q^9")
    assert min(_orbit_values(d, p1, p2)) <= -2
    got = lambda_(d, p1, p2)
    assert type(got) is int and got == lambda_oracle(d, p1, p2) == -2


def _s_func_oracle(d, p):
    """s_func by the per-point candidate search and the explicit sum."""
    reps = {_reduced(d, c.node, c.param) for c in support_candidates(d, p)}
    values = ((c, lambda_inf_oracle(d, p, c)) for c in sorted(reps))
    return tuple((c, v) for c, v in values if v)


def test_s_func_matches_candidate_search():
    rng = random.Random(20261019)
    for s in SWEEP:
        d = build(parse_type_string(s))
        for _ in range(4):
            p = sigma_point(d, rng.choice(d.i0), SpectralScalar(rng.randrange(24), rng.randrange(-90, 91)))
            assert s_func(d, p).values == _s_func_oracle(d, p), (s, str(p))


def _fields(key):
    """The (node, phase, e) fields of an int key, read back through `_point`."""
    p = invariants._point(key)
    return p.node, p.param.phase, p.param.e


@functools.cache
def _twin(t):
    """A fresh, unshared instance of type t; its cache only ever holds points i@1."""
    return build.__wrapped__(t)


def _template(d, i):
    """Node i's template as {key: value}: s_{i@1}, whose rotation is by zero.

    It is asked of a twin of d, which caches no dual neighbour of i@1, so no
    partner serves it, even where a test has just emptied d's cache.
    """
    f = s_func(_twin(d.type), SigmaPoint(i, ONE))
    return dict(zip(f.keys, f.vals))


def _template_fields(d, i):
    """Node i's template with each int key replaced by its fields."""
    return {_fields(k): v for k, v in _template(d, i).items()}


# The path that runs replaced: s_func reduced every template entry by
# `_key` and sorted the translates.

def _sorted_s_func(d, p):
    phase, e = p.param
    return tuple(sorted(
        (invariants._key(d, j, ph + phase, f + e), v)
        for (j, ph, f), v in _template_fields(d, p.node).items()
    ))


# The tuple-key path that int keys replaced: a key was the tuple
# (node, phase mod 24/m_j, e mod 12 hvee), and a SigmaFunction stored its
# (key, value) pairs sorted by key.

def _tuple_key(d, j, phase, e):
    return j, phase % (24 // d.m[j]), e % (12 * d.hvee)


def _tuple_s_func(d, p):
    phase, e = p.param
    return tuple(sorted(
        (_tuple_key(d, j, ph + phase, f + e), v)
        for (j, ph, f), v in _template_fields(d, p.node).items()
    ))


def _rotation_points(rng, d):
    """sigma_Q and its first dual translate, then raw points at every phase.

    Raw points, so every one of the 24 phases reaches the rotation (s_func
    reads the phase modulo 24/m_j); the exponents span +-3 ptilde periods
    and include ones that put a template entry exactly on the 12 hvee wrap.
    """
    period = 12 * d.hvee
    sq = sigma_q_points(d, default_qdatum(d))
    points = sorted(sq | translate_star(d, sq, 1))
    for i in d.i0:
        fs = [f for _, _, f in _template_fields(d, i)]
        for phase in range(24):
            exps = rng.sample(range(-3 * period, 3 * period + 1), 2)
            exps.append(period - rng.choice(fs) + period * rng.randrange(-3, 3))
            points += [SigmaPoint(i, SpectralScalar(phase, e)) for e in exps]
    return points


def _rotated(d, p):
    """s_p on the rotation path: with no s-function cached, no dual partner can serve it."""
    d._sfunc_cache.clear()
    return s_func(d, p)


def test_s_func_rotation_matches_the_sorted_path():
    rng = random.Random(20261018)
    for s in SWEEP:
        d = build.__wrapped__(parse_type_string(s))  # unshared: `_rotated` empties its cache
        for p in _rotation_points(rng, d):
            f = _rotated(d, p)
            assert tuple(zip(f.keys, f.vals)) == _sorted_s_func(d, p), (s, p)


def test_int_keys_match_the_tuple_path():
    rng = random.Random(20261021)
    for s in SWEEP:
        d = build.__wrapped__(parse_type_string(s))
        for p in _rotation_points(rng, d):
            f = _rotated(d, p)
            assert tuple((_fields(k), v) for k, v in zip(f.keys, f.vals)) == _tuple_s_func(d, p), (s, p)
            assert all(a < b for a, b in zip(f.keys, f.keys[1:])), (s, p)


# s_func serves a miss on p from a cached dual neighbour D^{+-1} p by
# negation; the rotation path it skips is the oracle.  SWEEP holds E8-1; the
# other types are rungs of `test_blocks.test_rank_ladder_contract`.
DUAL_TYPES = [*SWEEP, "A12-1", "B8-1", "D12-1", "A13-2", "D12-2"]


def _dual_seeds(rng, d):
    """sigma_Q and its first dual translate, then points of other components
    and ptilde periods at every node."""
    sq = sigma_q_points(d, default_qdatum(d))
    points = sorted(sq | translate_star(d, sq, 1))
    period = 12 * d.hvee
    for i in d.i0:
        for _ in range(3):
            points.append(pt(d, i, SpectralScalar(rng.randrange(24), rng.randrange(-3 * period, 3 * period))))
    return points


@pytest.mark.parametrize("s", DUAL_TYPES)
def test_dual_served_s_func_matches_the_rotation_path(s):
    t = parse_type_string(s)
    d, cold = build.__wrapped__(t), build.__wrapped__(t)
    for p in _dual_seeds(random.Random(s), d):
        d._sfunc_cache.clear()
        f = s_func(d, p)
        for step in (1, -1):
            # D^{step k} p is served from the D^{step (k - 1)} p cached just before it
            for k in (1, 2, 3):
                x = dual_shift(d, p, step * k)
                g, want = s_func(d, x), _rotated(cold, x)
                assert g.keys is f.keys, (s, str(p), step * k)
                assert (g.keys, g.vals, g.gens) == (want.keys, want.vals, want.gens), (s, str(p), step * k)


@pytest.mark.parametrize("s", DUAL_TYPES)
def test_delta0_matches_the_two_sided_rotation_oracle(s):
    t = parse_type_string(s)
    d, cold = build.__wrapped__(t), build.__wrapped__(t)
    roots = delta0(d)
    sq = sigma_q_points(cold, default_qdatum(cold))
    want = list(dict.fromkeys(_rotated(cold, p) for p in sorted(sq | translate_star(cold, sq, 1))))
    assert roots == want
    assert [f.gens for f in roots] == [f.gens for f in want]
    # p and D p are the only dual neighbours in sigma_Q and its translate: one key tuple per pair
    assert len({id(f.keys) for f in roots}) == len(roots) // 2 == len(d.gfin.positive_roots)


@pytest.mark.parametrize("s", ["A4-1", "D5-2", "E6-1", "D4-3"])
def test_equal_s_functions_hash_alike_rotated_or_dual_served(s):
    # a dual-served function shares its partner's keys, a rotated one has
    # its own, and both hash as their tuples
    t = parse_type_string(s)
    served, cold = build.__wrapped__(t), build.__wrapped__(t)
    for p in sorted(sigma_q_points(served, default_qdatum(served))):
        partner = s_func(served, dual_shift(served, p))
        f, g = s_func(served, p), _rotated(cold, p)
        assert f.keys is partner.keys and f.keys is not g.keys and f == g, (s, str(p))
        assert hash(f) == hash(g) == hash((g.keys, g.vals)), (s, str(p))
        assert hash(-f) == hash(partner) and hash(SigmaFunction(f.keys, f.vals)) == hash(f)
    clone = pickle.loads(pickle.dumps(f))
    assert "_hash" not in repr(f)
    assert hash(clone) == hash(f) and clone == f


def test_s_func_rejects_nodes_outside_i0_with_a_warm_cache():
    d = build.__wrapped__(AffineType(Family.A1, 3))
    for i in d.i0:
        s_func(d, SigmaPoint(i, ONE))
    for node in (0, 4):
        with pytest.raises(NodeOutOfRange):
            s_func(d, SigmaPoint(node, ONE))


def test_key_fields_fit_their_widths_at_the_rank_cap():
    # hvee grows with the rank, so the largest rank the cap admits bounds every field
    for family in Family:
        ranks = []
        for n in range(1, 2 * MAX_GFIN_RANK):
            try:
                ranks.append(AffineType(family, n).n)
            except RankOutOfRange:
                pass
        d = build(AffineType(family, ranks[-1]))
        assert d.period == 12 * d.hvee and d.phase_mod == {j: 24 // d.m[j] for j in d.i0}, family
        period = 12 * d.hvee
        assert period < 1 << 16, family
        keys = []
        for j in d.m:
            mod = 24 // d.m[j]
            assert mod <= 32, family
            for phase in range(mod):
                for e in (0, 1, period - 1):
                    key = invariants._key(d, j, phase, e)
                    assert invariants._key(d, j, phase - 3 * mod, e + 2 * period) == key
                    assert invariants._point(key) == SigmaPoint(j, SpectralScalar(phase, e)), family
                    keys.append(key)
        assert all(a < b for a, b in zip(keys, keys[1:])), family  # int order is (node, phase, e)


def test_value_at_bisects_the_sorted_keys():
    d = build(parse_type_string("D4-3"))
    f = s_func(d, pt(d, 1, Q))
    (first, v_first), (last, v_last) = f.values[0], f.values[-1]
    assert f.value_at(d, first.node, first.param) == v_first
    assert f.value_at(d, last.node, last.param) == v_last
    stored, absent = dict(zip(f.keys, f.vals)), []
    for j in d.i0:
        for phase in range(24):
            for e in range(12 * d.hvee):
                key = invariants._key(d, j, phase, e)
                assert f.value_at(d, j, SpectralScalar(phase, e)) == stored.get(key, 0)
                if key not in stored:
                    absent.append(key)
    # absent keys below the first stored key, between stored keys and above the last
    assert min(absent) < f.keys[0] < max(absent) and max(absent) > f.keys[-1]
    assert e_of(d, []).value_at(d, 1, ONE) == 0


# The point-valued path that int keys replaced: s_func stored one reduced
# SigmaPoint per template entry, and e_of and the psi_lattice re-expansion
# summed on SigmaPoint dict keys.

@functools.cache
def _point_s_func(d, p):
    return tuple(sorted(
        (_reduced(d, j, p.param * SpectralScalar(ph, e)), v)
        for (j, ph, e), v in _template_fields(d, p.node).items()
    ))


def _point_sum(d, terms):
    """sum c * s_p over (p, c), summed on SigmaPoint keys, zeros dropped, sorted."""
    total = {}
    for p, c in terms:
        for q, v in _point_s_func(d, p):
            total[q] = total.get(q, 0) + c * v
    return tuple(sorted((q, v) for q, v in total.items() if v))


def _point_psi_lattice(d, q, weights):
    """Coordinates of E(weights) with the re-expansion compared on points, or NotInW0."""
    pts = simple_root_points(q, d)
    pairings = tuple(sum(pairing(d, p, w) for w in weights) for p in pts)
    try:
        coords = weight_to_root(d.gfin.cartan, pairings)
    except NotInRootLattice:
        return NotInW0
    if _point_sum(d, zip(pts, coords)) != _point_sum(d, ((w, 1) for w in weights)):
        return NotInW0
    return coords


def _psi_outcome(d, q, f):
    try:
        return psi_lattice(d, q, f)
    except NotInW0:
        return NotInW0


def _seeded_weights(rng, d, census):
    """0-6 points: census points moved by whole ptilde powers, or random points."""
    out = []
    for _ in range(rng.randrange(7)):
        if rng.random() < 0.7:
            p = rng.choice(census)
            out.append(sigma_point(d, p.node, p.param * (d.pstar * d.pstar) ** rng.randrange(-2, 3)))
        else:
            x = SpectralScalar(rng.randrange(24), rng.randrange(-40, 41))
            out.append(sigma_point(d, rng.choice(d.i0), x))
    return out


def test_keyed_s_functions_match_the_point_valued_path():
    # the seeded sums include random points, so both the coordinates and the
    # NotInW0 branch of the check are covered (every census point solves)
    rng = random.Random(20261020)
    outcomes = {"coords": 0, "NotInW0": 0}
    for s in SWEEP:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        sq = sigma_q_points(d, q)
        census = sorted(sq | translate_star(d, sq, 1))
        funcs = []
        for p in census:
            f = s_func(d, p)
            assert f.values == _point_s_func(d, p), (s, str(p))
            assert _psi_outcome(d, q, f) == _point_psi_lattice(d, q, [p]), (s, str(p))
            probes = [rng.choice(f.values)[0] for _ in range(2)]
            probes.append((rng.choice(d.i0), SpectralScalar(rng.randrange(24), rng.randrange(-60, 61))))
            for j, x in probes:
                # move x within its sigma-class and by whole ptilde periods
                ptilde = d.pstar * d.pstar
                x *= SpectralScalar(24 // d.m[j] * rng.randrange(d.m[j]), 0) * ptilde ** rng.randrange(-3, 4)
                assert f.value_at(d, j, x) == dict(f.values).get(_reduced(d, j, x), 0), (s, str(p), j, x)
            funcs += [f, -f, e_of(d, [p])]
        # == and hash group functions exactly as frozenset(values) does
        first_eq, first_values = {}, {}
        for n, f in enumerate(funcs):
            assert first_eq.setdefault(f, n) == first_values.setdefault(frozenset(f.values), n), s
        for _ in range(12):
            weights = _seeded_weights(rng, d, census)
            f = e_of(d, weights)
            assert f.values == _point_sum(d, ((w, 1) for w in weights)), (s, list(map(str, weights)))
            want = _point_psi_lattice(d, q, weights)
            assert _psi_outcome(d, q, f) == want, (s, list(map(str, weights)))
            outcomes["NotInW0" if want is NotInW0 else "coords"] += 1
    assert min(outcomes.values()) > 12 * len(SWEEP) // 10, outcomes


def _oracle_template(d, i):
    """Node i's template by the candidate search and the explicit orbit sum."""
    p = SigmaPoint(i, ONE)
    values = ((c, lambda_inf_oracle(d, p, c)) for c in support_candidates(d, p))
    return {invariants._key(d, c.node, c.param.phase, c.param.e): v for c, v in values if v}


def test_template_scatter_matches_oracle_on_every_sweep_node():
    for s in SWEEP:
        d = build(parse_type_string(s))
        for i in d.i0:
            assert _template(d, i) == _oracle_template(d, i), (s, i)


# The scatter that the inlined keys replaced: one `_key` call per root, with
# 24/m_j and 12 hvee recomputed on every call.

def _old_key(d, j, phase, e):
    return ((j << 5 | phase % (24 // d.m[j])) << 16) + e % (12 * d.hvee)


def _old_scatter(d, i):
    ps, pe = d.pstar
    period = 12 * d.hvee
    acc = {}
    for j in d.i0:
        for jj, sign, ph, e in ((j, 1, 0, 0), (d.istar[j], -1, ps, pe)):
            canon = 24 // d.m[jj]
            for r, m in denominator(d, i, jj):
                for x in (r, r.inv()):
                    if x.phase < canon:
                        key = _old_key(d, j, x.phase - ph, x.e - e)
                        acc[key] = acc.get(key, 0) + sign * m
    table = {k: v for k, v in acc.items() if v}
    runs = []
    for j, entries in groupby(sorted(table.items()), key=lambda kv: kv[0] >> 21):
        groups = []
        for ph, group in groupby(entries, key=lambda kv: kv[0] >> 16 & 31):
            fs, vs = zip(*((k & 0xFFFF, v) for k, v in group))
            groups.append((ph, len(fs), tuple(f - period for f in fs) + fs, vs * 2))
        runs.append((j, 24 // d.m[j], [g[0] for g in groups], groups * 2))
    return table, runs


def _check_scatter(s, template=True):
    # a fresh instance, so `_scatter` itself runs, not a cached template
    d = build.__wrapped__(parse_type_string(s))
    for i in d.i0:
        runs = invariants._scatter(d, i)
        want_table, want_runs = _old_scatter(d, i)
        assert d._template_cache[i] is runs and runs == want_runs, (s, i)
        assert not template or _template(d, i) == want_table, (s, i)


def test_scatter_matches_the_per_root_key_path():
    for s in SWEEP:
        _check_scatter(s)


FOLD_TYPES = [s for s in SWEEP if parse_type_string(s).spec.twist > 1] + ["A9-2", "A10-2", "D9-2"]
# the rungs other than B and C, and the FOLD_TYPES past SWEEP
ROW_TYPES = [s for s in LADDER if parse_type_string(s).family not in (Family.B1, Family.C1)] + ["A10-2", "D9-2"]


@pytest.mark.parametrize("s", [*ROW_TYPES, "A63-2", "A64-1", "A64-2", "D64-1", "D64-2"])
def test_row_runs_match_the_per_root_key_path_at_the_ladder_and_the_cap(s):
    # every template comes off the psi_Q rows, folded when twisted; the scatter
    # over denominators is the oracle (at the cap only the runs are compared:
    # the template dict would keep a twin of each for the rest of the run)
    _check_scatter(s, template=s in ROW_TYPES)


@pytest.mark.parametrize("s", [s for s in LADDER if parse_type_string(s).family in (Family.B1, Family.C1)]
                         + ["B32-1", "C32-1"])
def test_scattered_runs_match_the_per_root_key_path_at_the_ladder_and_the_cap(s):
    # B and C read the rows of a whole rho-orbit, two rows for each long node
    _check_scatter(s, template=s in LADDER)


class DenominatorCalled(Exception):
    pass


def test_no_template_builds_a_denominator(monkeypatch):
    def no_denominator(*args):
        raise DenominatorCalled(args)

    want = {}
    for s in SWEEP:
        d = build(parse_type_string(s))
        want[s] = [_old_scatter(d, i)[1] for i in d.i0]
    assert {parse_type_string(s).family for s in want} == set(Family)
    monkeypatch.setattr(invariants, "denominator", no_denominator)
    for s, runs in want.items():
        fresh = build.__wrapped__(parse_type_string(s))
        assert [invariants._scatter(fresh, i) for i in fresh.i0] == runs, s


@pytest.mark.parametrize("s", FOLD_TYPES)
def test_every_preimage_gives_the_same_template(s):
    # `_scatter` folds the rows of i's first preimage; put each preimage first in turn
    d = build(parse_type_string(s))
    want = [_old_scatter(d, i)[1] for i in d.i0]
    turns = max(map(len, d.preimages.values()))
    assert turns > 1, s
    for r in range(turns):
        fresh = build.__wrapped__(parse_type_string(s))
        fresh.preimages = {i: pre[r % len(pre):] + pre[:r % len(pre)] for i, pre in d.preimages.items()}
        assert [invariants._scatter(fresh, i) for i in fresh.i0] == want, (s, r)


def test_a_fold_that_is_not_one_to_one_or_moves_i_at_1_is_refused():
    # A5-2 folds partner node 4 onto node 2 with the factor -1; with the factor 1
    # its group would land on the phase of partner node 2's
    d = build.__wrapped__(parse_type_string("A5-2"))
    d.fold = {**d.fold, 4: (2, ONE)}
    with pytest.raises(InvariantViolation, match="not one-to-one on node 1's template"):
        invariants._scatter(d, 1)
    # a factor -1 on i0 = 1 moves its group onto the phase of partner node 5's, (1, -1)
    d = build.__wrapped__(parse_type_string("A5-2"))
    d.fold = {**d.fold, 1: (1, scalar(12, 0))}
    with pytest.raises(InvariantViolation, match="not one-to-one on node 1's template"):
        invariants._scatter(d, 1)
    # the -2 check reads node i's phase-0 group: a factor z24^6 on i0 = 1 moves (1, 1) to a free phase
    d = build.__wrapped__(parse_type_string("A5-2"))
    d.fold = {**d.fold, 1: (1, scalar(6, 0))}
    with pytest.raises(InvariantViolation, match="is not -2"):
        invariants._scatter(d, 1)


@functools.cache
def _old_table(t, i):
    """Node i's template as the dict that lambda_inf once read, built by the per-root-key scatter."""
    return _old_scatter(build(t), i)[0]


def _old_lambda_inf(d, p1, p2):
    """lambda_inf as a lookup of the translated key of p2 in p1's template dict (the translation law)."""
    a, b = p1.param, p2.param
    return _old_table(d.type, p1.node).get(invariants._key(d, p2.node, b.phase - a.phase, b.e - a.e), 0)


def _raw_point(rng, d, i, periods):
    """A SigmaPoint at node i, stored as given: any of the 24 phases, e within +-periods ptilde periods."""
    span = periods * 12 * d.hvee
    return SigmaPoint(i, SpectralScalar(rng.randrange(24), rng.randrange(-span, span + 1)))


@pytest.mark.parametrize("s", ["SWEEP", *LADDER])
def test_lambda_inf_is_the_value_of_its_s_function(s):
    # lambda_inf(p1, p2) = s_{p1}(p2) against the template-dict lookup it
    # replaced; p1 and p2 take non-canonical phases and exponents up to 5
    # ptilde periods out, and p2 is a template entry of p1 one time in two
    rng = random.Random(s)
    nonzero = total = 0
    for t in SWEEP if s == "SWEEP" else [s]:
        d = build(parse_type_string(t))
        for i in d.i0:
            for _ in range(6):
                p1 = _raw_point(rng, d, i, 5)
                if rng.random() < 0.5:
                    j, x = invariants._point(rng.choice(list(_old_table(d.type, i))))
                    off = SpectralScalar(24 // d.m[j] * rng.randrange(d.m[j]), 12 * d.hvee * rng.randrange(-5, 6))
                    p2 = SigmaPoint(j, p1.param * x * off)
                else:
                    p2 = _raw_point(rng, d, rng.choice(d.i0), 5)
                want = _old_lambda_inf(d, p1, p2)
                assert lambda_inf(d, p1, p2) == want, (t, p1, p2)
                assert s_func(d, p1).value_at(d, p2.node, p2.param) == want, (t, p1, p2)
                nonzero += want != 0
                total += 1
    assert nonzero > total // 3, (nonzero, total)


def test_lambda_inf_caches_one_function_per_node():
    # by the translation law lambda_inf reads s_{i,1}, so fresh first arguments add no cache entry
    d = build.__wrapped__(parse_type_string("E6-2"))
    rng = random.Random(5)
    for _ in range(200):
        lambda_inf(d, _raw_point(rng, d, rng.choice(d.i0), 5), _raw_point(rng, d, rng.choice(d.i0), 5))
    assert set(d._sfunc_cache) <= {SigmaPoint(i, ONE) for i in d.i0}


def test_template_counts_only_canonical_denominator_roots():
    # D4-3: the roots of d_{1,2} and d_{1,1} come in omega-triples that are
    # one sigma-class at node 2 (m_2 = 3); de sees only the canonical member,
    # so each class counts once, not three times
    d = build(parse_type_string("D4-3"))
    p = pt(d, 1, ONE)
    for e, want in ((30, 1), (42, 1), (6, -1), (66, -1)):
        c = pt(d, 2, SpectralScalar(4, e))
        assert lambda_inf(d, p, c) == lambda_inf_oracle(d, p, c) == want, e


def test_window_guard_still_fires_from_lambda_and_oracle(monkeypatch):
    # the guard of the oracles' window sum; the library sums no window
    d = build(parse_type_string("A4-1"))
    p = pt(d, 2, ONE)
    monkeypatch.setattr(sys.modules[__name__], "GUARD_LOW", 1)
    with pytest.raises(SumNotStabilized):
        lambda_oracle(d, p, p)
    with pytest.raises(SumNotStabilized):
        lambda_inf_oracle(d, p, p)
    assert lambda_(d, p, p) == 0
    assert lambda_inf(d, p, p) == -2


def test_template_build_makes_no_de_call(monkeypatch):
    def no_de(*args):
        raise AssertionError("template build called de")

    for s in ("A4-1", "G2-1", "D5-2", "E6-2", "D4-3"):
        d = build(parse_type_string(s))
        fresh = build.__wrapped__(parse_type_string(s))
        want = {i: _template(d, i) for i in d.i0}
        monkeypatch.setattr(invariants, "de", no_de)
        for i in fresh.i0:
            f = s_func(fresh, SigmaPoint(i, ONE))
            assert dict(zip(f.keys, f.vals)) == want[i], (s, i)
        p = pt(fresh, fresh.i0[-1], Q)
        assert lambda_inf(fresh, p, p) == -2
        assert s_func(fresh, p).values == s_func(d, p).values
        monkeypatch.undo()


@pytest.mark.parametrize("s", FOLD_TYPES)
def test_lambda_inf_is_transported_by_the_fold(s):
    # the fold carries phi_Q of the untwisted partner to phi_Q of the twisted
    # family, and lambda_inf between phi_Q(b1) and D^k phi_Q(b2) with it
    d = build(parse_type_string(s))
    p = untwisted_partner(d)
    qd, qp = default_qdatum(d), default_qdatum(p)
    roots = d.gfin.positive_roots
    for b1 in roots:
        x, y = phi_q(qd, d, b1), phi_q(qp, p, b1)
        for b2 in roots:
            u, v = phi_q(qd, d, b2), phi_q(qp, p, b2)
            for k in range(-2, 3):
                assert lambda_inf(d, x, dual_shift(d, u, k)) == lambda_inf(p, y, dual_shift(p, v, k)), (b1, b2, k)
