import pytest

from qaffine import qcartan
from qaffine.acceptance import SWEEP
from qaffine.affine import build, parse_type_string
from qaffine.qcartan import (
    BeyondTruncation,
    ctilde_formula,
    ctilde_oracle,
    ctilde_oracle_for,
    default_qdatum,
    psi_q,
    tau_q,
)
from qaffine.scalars import InvariantViolation
from weyl_oracle import apply_word, mat_power, mat_vec, matrix_order, weight_to_root, word_matrix, word_powers


def delta(*ks):
    return lambda k: int(k in ks)


def ade(letter, rank):
    """The default Q-datum of the untwisted ADE type letter+rank."""
    return default_qdatum(build(parse_type_string(f"{letter}{rank}-1")))


def test_coxeter_numbers():
    assert ade("A", 4).base.hvee == 5
    assert ade("D", 5).base.hvee == 8
    assert ade("E", 6).base.hvee == 12
    assert ade("E", 7).base.hvee == 18
    assert ade("E", 8).base.hvee == 30


def test_tau_words():
    assert tau_q(ade("A", 5)) == (1, 2, 3, 4, 5)
    assert tau_q(ade("D", 5)) == (1, 2, 3, 4, 5)
    assert tau_q(ade("E", 6)) == (1, 2, 3, 4, 5, 6)
    q = ade("D", 4)
    assert tau_q(q) is tau_q(q)  # built once per Q-datum


def test_gamma_vectors():
    # gamma_i is the first cell of row i, psi_Q(i, xi_i)
    q = ade("D", 5)
    assert psi_q(q, 3, q.xi[3]) == ((1, 1, 1, 0, 0), 0)
    assert psi_q(q, 5, q.xi[5]) == ((1, 1, 1, 0, 1), 0)
    e = ade("E", 6)
    assert psi_q(e, 2, e.xi[2]) == ((0, 1, 0, 0, 0, 0), 0)
    assert psi_q(e, 3, e.xi[3]) == ((1, 0, 1, 0, 0, 0), 0)
    assert psi_q(e, 6, e.xi[6]) == ((1, 1, 1, 1, 1, 1), 0)


def test_type_a_ctilde():
    # paper-quoted: ctilde_{1,1}(2k+1) = delta_{k,0} for type A
    for n in (2, 3, 5):
        q = ade("A", n)
        assert ctilde_formula(q, 1, 1, 1) == 1
        for k in range(1, q.base.hvee):
            expected = int(k == 1)
            assert ctilde_formula(q, 1, 1, k) == expected


def test_type_d_ctilde_11():
    for n in (4, 5, 6):
        q = ade("D", n)
        for k in range(1, q.base.hvee):
            assert ctilde_formula(q, 1, 1, k) == delta(1, 2 * n - 3)(k)


def test_type_e6_ctilde():
    q = ade("E", 6)
    for k in range(1, 12):
        assert ctilde_formula(q, 1, 1, k) == delta(1, 7)(k)
        assert ctilde_formula(q, 1, 2, k) == delta(4, 8)(k)


def test_type_e7_ctilde():
    q = ade("E", 7)
    for k in range(1, 18):
        assert ctilde_formula(q, 1, 1, k) == delta(1, 7, 11, 17)(k)
        assert ctilde_formula(q, 1, 2, k) == delta(4, 8, 10, 14)(k)
        assert ctilde_formula(q, 7, 1, k) == delta(6, 12)(k)
        assert ctilde_formula(q, 7, 2, k) == delta(5, 9, 13)(k)
        assert ctilde_formula(q, 7, 7, k) == delta(1, 9, 17)(k)


def test_type_e8_ctilde():
    q = ade("E", 8)
    for k in range(1, 30):
        assert ctilde_formula(q, 1, 1, k) == delta(1, 7, 11, 13, 17, 19, 23, 29)(k)
        assert ctilde_formula(q, 1, 2, k) == delta(4, 8, 10, 12, 14, 16, 18, 20, 22, 26)(k)
        assert ctilde_formula(q, 8, 1, k) == delta(7, 13, 17, 23)(k)
        assert ctilde_formula(q, 8, 2, k) == delta(6, 10, 14, 16, 20, 24)(k)
        assert ctilde_formula(q, 8, 8, k) == delta(1, 11, 19, 29)(k)


def test_oracle_a2():
    q = ade("A", 2)
    table = ctilde_oracle(q.rs.cartan, 8)
    assert table.get(1, 2, 2) == 1
    assert table.get(1, 1, 1) == 1
    assert table.get(1, 1, 0) == 0
    assert table.get(2, 1, 0) == 0
    with pytest.raises(ValueError):
        table.get(1, 1, 9)


def test_coefficient_past_the_truncation_order_is_a_domain_error():
    # bad caller input, so a QAffineError (still a ValueError), not a bare ValueError
    table = ctilde_oracle(ade("A", 2).rs.cartan, 8)
    with pytest.raises(BeyondTruncation, match=r"^k=9 beyond truncation order 8$"):
        table.get(1, 1, 9)


def test_oracle_equals_formula_small():
    for letter, rank in (("A", 1), ("A", 3), ("D", 4), ("E", 6)):
        q = ade(letter, rank)
        table = ctilde_oracle_for(letter, rank)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                for k in range(0, 2 * q.base.hvee + 1):
                    assert table.get(i, j, k) == ctilde_formula(q, i, j, k), (letter, rank, i, j, k)


def test_ctilde_symmetry_and_signs():
    for letter, rank in (("A", 4), ("D", 5), ("E", 7)):
        q = ade(letter, rank)
        h = q.base.hvee
        for i in range(1, rank + 1):
            assert ctilde_formula(q, i, i, 1) == 1
            for j in range(1, rank + 1):
                for k in range(1, h):
                    assert ctilde_formula(q, i, j, k) >= 0
                    assert ctilde_formula(q, i, j, k) == ctilde_formula(q, j, i, k)
                    # quasi-periodicity used in the ADE Lambda-infinity identity
                    assert ctilde_formula(q, i, j, h + k) == -ctilde_formula(q, i, j, h - k)
                    assert ctilde_formula(q, i, j, h + k) == -ctilde_formula(q, q.rs.istar(j), i, k)


def walked_gamma(q, i):
    """Oracle: gamma_i = (1 - tau_Q^{d_i}) Lambda_i as the library walked it before its rows did, entry
    by entry off the word, each entry acting through `weyl_oracle.apply_word`.

    tau_Q^{d_i} Lambda_i is kept as Lambda_a - r with r in root coordinates:
    s_j takes it to Lambda_a - (s_j r + [j = a] alpha_j) and rho to
    Lambda_{rho(a)} - rho(r).  The walk must end at a = i, where gamma_i = r.
    """
    a, r = i, (0,) * q.rs.rank
    for entry in reversed(tau_q(q) * q.d[i]):
        r = apply_word(q.rs.cartan, (entry,), r)
        if entry == a:
            r = r[: a - 1] + (r[a - 1] + 1,) + r[a:]
        elif not isinstance(entry, int):
            a = entry[a]
    if a != i:
        raise AssertionError(f"tau_Q^{q.d[i]} Lambda_{i} = Lambda_{a} - {r}: the walk leaves node {i}")
    return r


def _ancestor_gamma(q, i):
    """Oracle: gamma_i as the indicator of the nodes with a path to i, in the
    quiver whose arrows run from each node to its neighbours one step lower."""
    anc, stack = {i}, [i]
    while stack:
        b = stack.pop()
        for a in q.rs.adj[b]:
            if q.xi[a] == q.xi[b] + 1 and a not in anc:
                anc.add(a)
                stack.append(a)
    return tuple(int(j in anc) for j in range(1, q.rs.rank + 1))


ADE_ORACLE_TYPES = (
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)] + [("A", 32), ("D", 24)]
)


@pytest.mark.parametrize("letter,rank", ADE_ORACLE_TYPES, ids=[f"{l}{n}-1" for l, n in ADE_ORACLE_TYPES])
def test_ctilde_psi_row_matches_matrix_power_oracle(letter, rank):
    # the replaced path: ctilde_{i,j}(k) is the j-th coordinate of tau^{e/2} gamma_i,
    # e = k + xi_i - xi_j - 1, with gamma_i the ancestor set of i and tau^{e/2} a
    # matrix power (kept per (i, e), since it does not depend on j)
    q = ade(letter, rank)
    h = q.base.hvee
    spread = max(q.xi.values()) - min(q.xi.values())
    powers = word_powers(q.rs.cartan, tau_q(q), -spread // 2, h + spread // 2)
    images = {}
    for i in range(1, rank + 1):
        gamma = _ancestor_gamma(q, i)
        assert psi_q(q, i, q.xi[i]) == (gamma, 0)
        for j in range(1, rank + 1):
            for k in range(1, 2 * h):
                e = k + q.xi[i] - q.xi[j] - 1
                want = 0
                if e % 2 == 0:
                    if (i, e) not in images:
                        images[i, e] = mat_vec(powers[e // 2], gamma)
                    want = images[i, e][j - 1]
                assert ctilde_formula(q, i, j, k) == want, (i, j, k)


@pytest.mark.parametrize("s", [*SWEEP, "A32-1", "D24-1", "B10-1", "C12-1"])
def test_psi_rows_match_tau_matrix_powers(s):
    # the replaced path: a step down the row of i multiplies by the matrix of
    # tau^{d_i}, a step up by that of tau^{-d_i}; a non-positive image flips its
    # sign and moves m.  Each direction is walked once, over two periods of tau.
    q = default_qdatum(build(parse_type_string(s)))
    down = word_matrix(q.rs.cartan, tau_q(q))
    up = word_matrix(q.rs.cartan, tau_q(q), inverse=True)
    period = matrix_order(down)
    for i in range(1, q.rs.rank + 1):
        reach = -(-2 * period // q.d[i])
        for sign, tau in ((-1, down), (1, up)):
            mat = mat_power(tau, q.d[i])
            beta, m = walked_gamma(q, i), 0
            assert psi_q(q, i, q.xi[i]) == (beta, m), (s, i)
            psi_q(q, i, q.xi[i] + sign * 2 * q.d[i] * reach)
            for k in range(1, reach + 1):
                beta = mat_vec(mat, beta)
                if not any(c > 0 for c in beta):
                    beta = tuple(-c for c in beta)
                    m += sign
                assert q.rs.is_positive_root(beta)
                assert psi_q(q, i, q.xi[i] + sign * 2 * q.d[i] * k) == (beta, m), (s, i, sign, k)


def _weight_walk_gamma(q, i):
    """Oracle: (1 - tau_Q^{d_i}) Lambda_i walked in the fundamental-weight basis,
    then solved back to root coordinates."""
    return weight_to_root(q.rs.cartan, weight_walk(q, i))


def weight_walk(q, i):
    """(1 - tau_Q^{d_i}) Lambda_i in the fundamental-weight basis: a root beta is gamma_i iff C beta is this,
    C being invertible; checking that skips the exact Cartan solve, which takes seconds at the rank cap."""
    rs = q.rs
    lam = tuple(int(k == i) for k in range(1, rs.rank + 1))
    w = lam
    for entry in reversed(tau_q(q) * q.d[i]):
        if isinstance(entry, int):
            c = w[entry - 1]
            w = tuple(w[j] - c * rs.cartan[j][entry - 1] for j in range(rs.rank))
        else:
            out = [0] * rs.rank
            for j, c in enumerate(w, start=1):
                out[entry[j] - 1] = c
            w = tuple(out)
    return tuple(a - b for a, b in zip(lam, w))


@pytest.mark.parametrize("s", [*SWEEP, "D32-1", "B10-1", "C12-1"])
def test_gamma_root_walk_matches_weight_walk_oracle(s):
    q = default_qdatum(build(parse_type_string(s)))
    for i in range(1, q.rs.rank + 1):
        assert psi_q(q, i, q.xi[i]) == (_weight_walk_gamma(q, i), 0), (s, i)


def _fresh_qdatum(s):
    """The default Q-datum of an unshared instance of type s, so that its word and rows can be corrupted."""
    return default_qdatum(build.__wrapped__(parse_type_string(s)))


def test_a_walk_that_leaves_its_node_is_an_invariant_violation():
    # G2-1's rho (a 3-cycle on D4) replaced by a transposition in the word: the
    # walks of nodes 1 and 3 end on each other's weight, node 4's gamma is 0 and
    # node 2's row walks off the positive roots
    q = _fresh_qdatum("G2-1")
    q._tau = tau_q(q)[:-1] + ((0, 3, 2, 1, 4),)
    for i, message in (
        (1, "tau_Q^3 Lambda_1 = Lambda_3 - (1, 1, 1, 0): the walk leaves node 1"),
        (2, "psi_Q(2,-6) = (0, -1, 0, 0) in the window I_Q is not a positive root"),
        (3, "tau_Q^3 Lambda_3 = Lambda_1 - (1, 1, 1, 0): the walk leaves node 3"),
        (4, "psi_Q(4,-5) = (0, 0, 0, 0) in the window I_Q is not a positive root"),
    ):
        with pytest.raises(InvariantViolation) as exc:
            qcartan._row(q, i)
        assert str(exc.value) == message
    assert q._rows == {}


def test_a_gamma_that_is_not_a_positive_root_fails_the_window_check():
    # s_1 twice in A4-1's word cancels, so the rest fixes Lambda_1 and gamma_1 = 0;
    # the other rows do not see s_1 twice at their node
    q = _fresh_qdatum("A4-1")
    q._tau = tau_q(q)[:1] + tau_q(q)
    with pytest.raises(InvariantViolation) as exc:
        qcartan._row(q, 1)
    assert str(exc.value) == "psi_Q(1,0) = (0, 0, 0, 0) in the window I_Q is not a positive root"
    assert [psi_q(q, i, q.xi[i])[0] for i in (2, 3, 4)] == [(0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1)]


@pytest.mark.parametrize("s", ["A4-1", "D5-1", "E6-1", "G2-1", "B3-1"])
def test_a_window_one_cell_short_is_an_invariant_violation(s, monkeypatch):
    # the step past the lowest kept cell reaches the dropped one, a positive root
    shared, q = default_qdatum(build(parse_type_string(s))), _fresh_qdatum(s)
    dropped = {i: psi_q(shared, i, qcartan._window(shared, i)[-1])[0] for i in range(1, q.rs.rank + 1)}
    window = qcartan._window
    monkeypatch.setattr(qcartan, "_window", lambda q, i: window(q, i)[:-1])
    for i, beta in dropped.items():
        with pytest.raises(InvariantViolation) as exc:
            qcartan._row(q, i)
        assert str(exc.value) == f"below its window, row {i} reaches the positive root {beta}"
