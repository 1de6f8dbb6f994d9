from fractions import Fraction

import pytest

from qaffine import blocks
from qaffine.affine import Family, build, build_type, parse_type_string
from qaffine.blocks import (
    NotInW0,
    block_label,
    delta0,
    gram,
    partition_blocks,
    psi_lattice,
)
from qaffine.invariants import SigmaFunction, dual_shift, e_of, pairing, s_func, sigma_point
from qaffine.qdata import default_qdatum, phi_q, simple_root_points
from qaffine.scalars import MINUS_Q, ONE, Q, QS, scalar


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for c in range(n):
        minor = [[row[cc] for cc in range(n) if cc != c] for row in mat[1:]]
        total += (-1) ** c * mat[0][c] * det(minor)
    return total


def test_gram_a4():
    res = gram(build_type(Family.A1, 4))
    assert res.equal
    assert res.matrix == res.expected
    assert all(res.matrix[i][i] == 2 for i in range(4))


def test_gram_c4_is_cartan_d5():
    d = build_type(Family.C1, 4)
    res = gram(d)
    assert res.equal
    assert res.matrix[4][2] == -1  # the (n+1, n-1) off-diagonal entry
    assert res.matrix[4][3] == 0


def test_gram_g2_is_cartan_d4():
    res = gram(build_type(Family.G2_1))
    assert res.equal
    assert len(res.matrix) == 4


def test_gram_e62_is_cartan_e6():
    res = gram(build(parse_type_string("E6-2")))
    assert res.equal


def test_gram_positive_definite():
    for s in ("A3-1", "B3-1", "D5-2", "D4-3"):
        d = build(parse_type_string(s))
        res = gram(d)
        n = len(res.matrix)
        for k in range(1, n + 1):
            minor = [row[:k] for row in res.matrix[:k]]
            assert det(minor) > 0


def test_psi_lattice_unit_vectors():
    d = build_type(Family.A1, 4)
    q = default_qdatum(d)
    pts = simple_root_points(q, d)
    for i, p in enumerate(pts):
        coords = psi_lattice(d, q, s_func(d, p))
        assert coords == tuple(int(k == i) for k in range(len(pts)))


def test_psi_lattice_a4_figure_cell():
    # the sigma-point of the (1100) cell carries coordinates (1,1,0,0)
    d = build_type(Family.A1, 4)
    q = default_qdatum(d)
    p = phi_q(q, d, (1, 1, 0, 0))
    assert p == sigma_point(d, 2, MINUS_Q ** -1)
    assert psi_lattice(d, q, e_of(d, [p])) == (1, 1, 0, 0)


def test_psi_lattice_dual_pair_is_zero():
    d = build_type(Family.B1, 3)
    q = default_qdatum(d)
    p = sigma_point(d, 1, QS)
    f = e_of(d, [p, dual_shift(d, p, 1)])
    assert f.is_zero
    assert psi_lattice(d, q, f) == (0, 0, 0, 0, 0)


def test_psi_lattice_rejects_non_lattice_function():
    d = build_type(Family.A1, 2)
    q = default_qdatum(d)
    f = s_func(d, sigma_point(d, 1, ONE))
    halved = SigmaFunction(keyed=tuple((k, 2 * v) for k, v in f.keyed), gens=f.gens)
    # doubled values but unchanged generators: the re-expansion must catch it
    with pytest.raises(NotInW0):
        psi_lattice(d, q, SigmaFunction(keyed=halved.keyed, gens=((sigma_point(d, 1, ONE), 1),)))


def test_psi_lattice_rejects_non_integral_solve(monkeypatch):
    d = build_type(Family.A1, 2)
    q = default_qdatum(d)
    p1 = simple_root_points(q, d)[0]
    # pairings (1, 0) ask for the weight Lambda_1, outside the A2 root lattice
    monkeypatch.setattr(blocks, "pairing", lambda d, p, f: int(p == p1))
    with pytest.raises(NotInW0, match="non-integral"):
        psi_lattice(d, q, s_func(d, p1))


def test_block_label_single_fundamental():
    d = build_type(Family.A1, 3)
    q = default_qdatum(d)
    p = phi_q(q, d, (0, 1, 0))
    label = block_label(d, q, [p])
    assert label.components == (("1", (0, 1, 0)),)


def test_block_label_kernel_is_trivial():
    d = build_type(Family.A1, 3)
    q = default_qdatum(d)
    for t in (ONE, scalar(5, 2)):
        pts = [sigma_point(d, 1, t * Q ** (2 * k)) for k in range(4)]
        assert block_label(d, q, pts).is_trivial


def test_block_label_kernel_augmented_equal():
    d = build_type(Family.B1, 3)
    q = default_qdatum(d)
    base = [sigma_point(d, 1, QS), sigma_point(d, 2, QS ** 3)]
    kernel = [sigma_point(d, 3, Q ** 2), sigma_point(d, 3, Q ** 7)]  # (n,t), (n,tq^{2n-1})
    assert block_label(d, q, base) == block_label(d, q, base + kernel)


def test_block_label_translates_differ():
    d = build_type(Family.A1, 2)
    q = default_qdatum(d)
    p = sigma_point(d, 1, ONE)
    shifted = sigma_point(d, 1, scalar(1, Fraction(1, 6)))
    l1 = block_label(d, q, [p])
    l2 = block_label(d, q, [shifted])
    assert l1 != l2
    assert len(block_label(d, q, [p, shifted]).components) == 2


def test_partition_blocks():
    d = build_type(Family.A1, 2)
    q = default_qdatum(d)
    t = scalar(3, 1)
    a = [sigma_point(d, 1, ONE)]
    b = [sigma_point(d, 1, t)]
    kernel_aug = a + [sigma_point(d, 1, Q ** (2 * k)) for k in range(3)]
    groups = partition_blocks(d, q, [a, b, kernel_aug, []])
    by_members = {tuple(map(tuple, members)) for _, members in groups}
    assert len(groups) == 3
    assert (tuple(a), tuple(kernel_aug)) in {
        tuple(sorted(map(tuple, members), key=len)) for _, members in groups
    }
    assert partition_blocks(d, q, []) == []


def test_isometry_on_sampled_root_pairs():
    import random

    rng = random.Random(17)
    for s in ("A4-1", "C3-1", "G2-1", "A5-2", "E6-2", "D4-3"):
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        roots = d.gfin.positive_roots
        for _ in range(15):
            b1, b2 = rng.choice(roots), rng.choice(roots)
            got = pairing(d, phi_q(q, d, b1), phi_q(q, d, b2))
            assert got == d.gfin.root_inner(b1, b2), (s, b1, b2)


def test_psi_lattice_round_trip_random_vectors():
    import random

    rng = random.Random(23)
    for s in ("A3-1", "B2-1", "D4-3"):
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        pts = simple_root_points(q, d)
        for _ in range(10):
            coords = tuple(rng.randint(-2, 2) for _ in pts)
            values = {}
            for p, c in zip(pts, coords):
                for k, v in s_func(d, p).keyed:
                    values[k] = values.get(k, 0) + c * v
            f = SigmaFunction(
                keyed=tuple(sorted((k, v) for k, v in values.items() if v)),
                gens=tuple((p, c) for p, c in zip(pts, coords) if c),
            )
            assert psi_lattice(d, q, f) == coords


def test_delta0_counts():
    cases = {"A3-1": 12, "G2-1": 24, "D4-3": 24, "B2-1": 12, "A2-2": 6}
    for s, count in cases.items():
        d = build(parse_type_string(s))
        roots = delta0(d)
        assert len(roots) == count, s
        for f in roots:
            assert pairing(d, f, f) == 2


def test_delta0_closed_under_negation():
    d = build_type(Family.A1, 3)
    roots = delta0(d)
    rset = set(roots)
    for f in roots:
        assert -f in rset
