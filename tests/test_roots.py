import random

import pytest

from qaffine.roots import (
    apply_word_root,
    graph_distance,
    perm_from_map,
    perm_order,
    perm_root,
    root_system,
)
from weyl_oracle import (
    NotInRootLattice,
    bfs_positive_roots,
    mat_vec,
    reflection_matrix,
    root_inner,
    root_to_weight,
    weight_to_root,
    word_matrix,
)


def test_positive_root_counts():
    assert len(root_system("A", 2).positive_roots) == 3
    assert len(root_system("A", 5).positive_roots) == 15
    assert len(root_system("D", 4).positive_roots) == 12
    assert len(root_system("D", 6).positive_roots) == 30
    assert len(root_system("E", 6).positive_roots) == 36
    assert len(root_system("E", 7).positive_roots) == 63
    assert len(root_system("E", 8).positive_roots) == 120


def test_a2_positive_roots():
    rs = root_system("A", 2)
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.positive_roots[0] == (1, 0)  # simple roots first


def test_reflect_examples():
    rs = root_system("A", 2)
    assert rs.reflect_root(1, (1, 0)) == (-1, 0)
    assert rs.reflect_root(1, (0, 1)) == (1, 1)


def test_reflect_is_involution():
    rs = root_system("D", 5)
    rng = random.Random(7)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(5))
        i = rng.randint(1, 5)
        assert rs.reflect_root(i, rs.reflect_root(i, v)) == v


def test_a3_coxeter_on_alpha1():
    # oracle: multiply the three reflection matrices explicitly
    rs = root_system("A", 3)
    mats = [reflection_matrix(rs.cartan, i) for i in (1, 2, 3)]
    expected = mat_vec(mats[0], mat_vec(mats[1], mat_vec(mats[2], (1, 0, 0))))  # s3, s2, s1
    assert apply_word_root(rs, (1, 2, 3), (1, 0, 0)) == expected
    assert expected == (0, 1, 0)  # frozen: the A_n Coxeter element shifts alpha_1 to alpha_2


def test_d4_triality_on_alpha1():
    rs = root_system("D", 4)
    rho = perm_from_map(4, {1: 3, 3: 4, 4: 1})
    assert perm_order(rho) == 3
    assert perm_root(rho, (1, 0, 0, 0)) == (0, 0, 1, 0)
    assert apply_word_root(rs, (rho,), (1, 0, 0, 0)) == (0, 0, 1, 0)


def test_identity_word():
    rs = root_system("E", 6)
    v = (1, 0, -2, 0, 3, 0)
    assert apply_word_root(rs, (), v) == v


def test_apply_word_concatenation():
    rs = root_system("D", 5)
    rho = perm_from_map(5, {4: 5, 5: 4})
    w1 = (1, 3, rho)
    w2 = (2, rho, 4)
    rng = random.Random(11)
    for _ in range(20):
        v = tuple(rng.randint(-2, 2) for _ in range(5))
        assert apply_word_root(rs, w1 + w2, v) == apply_word_root(rs, w1, apply_word_root(rs, w2, v))


def test_dd():
    d4 = root_system("D", 4)
    assert graph_distance(d4.adj, 1, 4) == 2
    assert graph_distance(d4.adj, 2, 2) == 0
    f4_adj = ((), (2,), (1, 3), (2, 4), (3,))
    assert graph_distance(f4_adj, 1, 3) == 2
    e6 = root_system("E", 6)
    assert graph_distance(e6.adj, 1, 2) == 3
    assert graph_distance(e6.adj, 1, 6) == 4


def test_all_roots_have_norm_two():
    for letter, rank in (("A", 4), ("D", 5), ("E", 6)):
        rs = root_system(letter, rank)
        for beta in rs.positive_roots:
            assert root_inner(rs.cartan, beta, beta) == 2


def test_reflection_preserves_form():
    rs = root_system("E", 7)
    rng = random.Random(3)
    for _ in range(30):
        v = tuple(rng.randint(-2, 2) for _ in range(7))
        w = tuple(rng.randint(-2, 2) for _ in range(7))
        i = rng.randint(1, 7)
        assert root_inner(rs.cartan, rs.reflect_root(i, v), rs.reflect_root(i, w)) == root_inner(rs.cartan, v, w)


def test_weight_root_conversion_roundtrip():
    rs = root_system("E", 6)
    rng = random.Random(5)
    for _ in range(30):
        v = tuple(rng.randint(-3, 3) for _ in range(6))
        assert weight_to_root(rs.cartan, root_to_weight(rs.cartan, v)) == v


def test_istar():
    assert root_system("A", 4).istar(1) == 4
    assert root_system("D", 5).istar(4) == 5
    assert root_system("D", 6).istar(5) == 5
    e6 = root_system("E", 6)
    assert [e6.istar(i) for i in range(1, 7)] == [6, 2, 5, 4, 3, 1]
    assert all(root_system("E", 7).istar(i) == i for i in range(1, 8))


def test_istar_matches_longest_element():
    # -w0(alpha_i) = alpha_{i*}; w0 realized by iterating positive-root reflections
    for letter, rank in (("A", 3), ("D", 5), ("E", 6)):
        rs = root_system(letter, rank)
        # build w0 by the exchange algorithm: repeatedly reflect a dominant
        # vector to the antidominant chamber, recording the word
        v = tuple(map(sum, zip(*rs.positive_roots)))  # 2 rho, regular dominant
        word = []
        while any(c > 0 for c in root_to_weight(rs.cartan, v)):
            i = next(k + 1 for k, c in enumerate(root_to_weight(rs.cartan, v)) if c > 0)
            v = rs.reflect_root(i, v)
            word.append(i)
        w0_word = tuple(reversed(word))  # rightmost entry acts first
        for i in range(1, rank + 1):
            img = apply_word_root(rs, w0_word, rs.simple_root(i))
            assert img == tuple(-c for c in rs.simple_root(rs.istar(i)))


ADE_UP_TO_RANK_8 = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(3, 9)] + [("E", n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize("letter,rank", ADE_UP_TO_RANK_8, ids=[f"{l}{n}" for l, n in ADE_UP_TO_RANK_8])
def test_weight_to_root_matches_gauss_jordan(letter, rank):
    # the Gauss-Jordan solve is the test oracle of lattice coordinates: every
    # root comes back from its weight, and a random weight either solves
    # C x = w exactly or is refused with its Fraction solution in the text
    rs = root_system(letter, rank)
    for v in rs.positive_roots:
        assert weight_to_root(rs.cartan, root_to_weight(rs.cartan, v)) == v
    rng = random.Random(1000 * rank + ord(letter))
    outcomes = set()
    for _ in range(60):
        w = tuple(rng.randint(-4, 4) for _ in range(rank))
        try:
            x = weight_to_root(rs.cartan, w)
        except NotInRootLattice as exc:
            assert str(exc).startswith(f"{w} is not in the root lattice: C x = w gives x = [Fraction(")
            outcomes.add("error")
        else:
            assert root_to_weight(rs.cartan, x) == w
            outcomes.add("root")
    # E8 is unimodular, so every weight is a root-lattice point there
    assert outcomes == ({"root"} if (letter, rank) == ("E", 8) else {"root", "error"})


@pytest.mark.parametrize("letter,rank", [*ADE_UP_TO_RANK_8, ("D", 32)],
                         ids=[f"{l}{n}" for l, n in [*ADE_UP_TO_RANK_8, ("D", 32)]])
def test_reflections_match_cartan_row_matrices(letter, rank):
    # the replaced path: s_i as the matrix read off Cartan row i, and a word as
    # the product of its entries' matrices
    rs = root_system(letter, rank)
    rng = random.Random(1000 * rank + ord(letter))
    star = perm_from_map(rank, {i: rs.istar(i) for i in range(1, rank + 1)})
    for _ in range(10):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        for i in range(1, rank + 1):
            assert rs.reflect_root(i, v) == mat_vec(reflection_matrix(rs.cartan, i), v), (i, v)
        word = [rng.randint(1, rank) for _ in range(rng.randint(1, 2 * rank))]
        word.insert(rng.randrange(len(word) + 1), star)  # a diagram automorphism, maybe trivial
        word = tuple(word)
        assert apply_word_root(rs, word, v) == mat_vec(word_matrix(rs.cartan, word), v), (word, v)


ADE_UP_TO_RANK_12 = (
    [("A", n) for n in range(1, 13)] + [("D", n) for n in range(3, 13)] + [("E", n) for n in (6, 7, 8)]
)


@pytest.mark.parametrize("letter,rank", [*ADE_UP_TO_RANK_12, ("A", 64), ("D", 64)],
                         ids=[f"{l}{n}" for l, n in [*ADE_UP_TO_RANK_12, ("A", 64), ("D", 64)]])
def test_positive_roots_match_the_reflection_search(letter, rank):
    # the search the simply-laced rule replaced, order included
    rs = root_system(letter, rank)
    assert rs.positive_roots == bfs_positive_roots(rs.cartan)
    assert len(rs.positive_roots) == {"A": rank * (rank + 1) // 2, "D": rank * (rank - 1),
                                      "E": {6: 36, 7: 63, 8: 120}.get(rank)}[letter]
