"""psi_Q read off the window I_Q against the two-way walk it replaced.

`qcartan` walks each row once, over its window cells, and reads every other
cell off them by the Nakayama shift psi_Q(i*, p - H) = (beta, m - 1) for
(beta, m) = psi_Q(i, p), H = ord(rho) h^vee.  The oracle walks each row one
word at a time in both directions from its seed (`weyl_oracle.two_way_row`).
`qdata.phi_q_map` reads phi_Q off the same window; its oracle is the inverse
of the walked rows on Delta+ x {0} (`weyl_oracle.zero_slice`).

The window rows are walked by tau_Q^{d_i} compiled once per row into int
steps (`roots.compile_word`), and phi_Q is read off them in ints, from one
offset per node.  The bodies these replaced are kept below as oracles: the
word read entry by entry at every cell (`generic_word_root`), and phi_Q as
`sigma_point(twist(esig(i, p)))` per window cell (`scalar_phi_q_map`).  Both
run on every case above and at the rank cap.

Each row's first cell gamma_i is walked on the row's compiled steps too.
Every oracle here is seeded with gamma_i from `test_qcartan.walked_gamma`,
the entry-by-entry walk that this replaced, never from `psi_q`, and that
walk is checked against the weight-basis walk (and for rho = id the
ancestor set) on every case and at the rank cap.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qaffine
from qaffine.acceptance import SWEEP
from qaffine.affine import build, canonical_param, parse_type_string
from qaffine.invariants import SigmaPoint, sigma_point
from qaffine.qcartan import _row, custom_qdatum, default_qdatum, i_q, psi_q, tau_q
from qaffine.qdata import esig, phi_q_map, twist
from qaffine.roots import apply_word_root, identity_perm
from qaffine.scalars import SpectralScalar
from test_blocks import LADDER
from test_qcartan import _ancestor_gamma, walked_gamma, weight_walk
from weyl_oracle import root_to_weight, two_way_row, zero_slice

PERIODS = 5  # each way, in whole periods 2H of p


def _random_heights(d, rng):
    """A height function on the ADE diagram of d: |xi_a - xi_b| = 1 on each edge, signs drawn by rng."""
    xi, todo = {1: rng.randrange(-4, 5)}, [1]
    while todo:
        a = todo.pop()
        for b in d.gfin.adj[a]:
            if b not in xi:
                xi[b] = xi[a] + rng.choice((-1, 1))
                todo.append(b)
    return xi


CUSTOM = [(s, seed) for s in ("A5-1", "D5-1", "D6-1", "E6-1", "E7-1") for seed in range(4)]


def _data(case):
    """(d, q): the type of the case and its default Q-datum, or a seeded custom one."""
    if isinstance(case, str):
        d = build(parse_type_string(case))
        return d, default_qdatum(d)
    s, seed = case
    d = build(parse_type_string(s))
    return d, custom_qdatum(d, _random_heights(d, random.Random(f"{s}/{seed}")))


CASES = [*SWEEP, *LADDER, *CUSTOM]
CAP = ["A64-1", "D64-1", "D64-2", "B32-1"]


def _oracle_rows(q):
    """node -> {p: (beta, m)} over PERIODS periods each way of xi_i, by the two-way walk from the oracle's
    gamma_i."""
    span = 2 * PERIODS * q.ord_rho * q.base.hvee
    return {i: two_way_row(q.rs.cartan, tau_q(q) * q.d[i], walked_gamma(q, i), q.xi[i], 2 * q.d[i],
                           q.xi[i] - span, q.xi[i] + span)
            for i in range(1, q.rs.rank + 1)}


@pytest.mark.parametrize("case", CASES, ids=str)
def test_psi_q_matches_the_two_way_walk(case):
    d, q = _data(case)
    rows = _oracle_rows(q)
    for i, row in rows.items():
        for p, cell in row.items():
            assert psi_q(q, i, p) == cell, (case, i, p)
    # every row was asked for 10 periods of cells, and holds only its window
    assert sum(map(len, q._rows.values())) == len(i_q(q)) == len(q.rs.positive_roots)
    # phi_Q, read off the window, is epsilon of the walk's m = 0 slice, in positive-root order
    inverse = zero_slice(rows)
    assert inverse.keys() == set(q.rs.positive_roots), case
    assert list(phi_q_map(q, d).items()) == [
        (beta, sigma_point(d, *twist(d, *esig(q, *inverse[beta])))) for beta in q.rs.positive_roots]


def _fresh(case):
    """(d, q) as `_data` gives them, but d unshared, so that q's rows (of an untwisted default datum) and
    phi_Q are built here; a twisted d keeps its partner's shared Q-datum."""
    if not isinstance(case, str):
        return _data(case)
    d = build.__wrapped__(parse_type_string(case))
    return d, default_qdatum(d)


def generic_word_root(rs, word, v):
    """The word action that the compiled steps replaced: every entry read off the word at each call."""
    out = list(v)
    for entry in reversed(tuple(word)):
        if isinstance(entry, int):
            out[entry - 1] = sum(out[j - 1] for j in rs.adj[entry]) - out[entry - 1]
        else:  # alpha_j -> alpha_{entry[j]}
            moved = [0] * len(out)
            for j, c in enumerate(out, start=1):
                moved[entry[j] - 1] = c
            out = moved
    return tuple(out)


def scalar_phi_q_map(q, d):
    """phi_Q as it was read before: psi_q at each cell of i_q, then sigma_point of twist of esig."""
    cells = {psi_q(q, i, p)[0]: (i, p) for i, p in i_q(q)}
    return {beta: SigmaPoint(node, canonical_param(d, node, x))
            for beta in q.rs.positive_roots for node, x in (twist(d, *esig(q, *cells[beta])),)}


@pytest.mark.parametrize("case", [*CASES, *CAP], ids=str)
def test_the_compiled_row_walk_matches_the_generic_word_action(case):
    # cell by cell down each window row, and one step past its lowest cell;
    # `apply_word_root` (criterion 6's routine) is compile plus run
    _, q = _fresh(case)
    for i in range(1, q.rs.rank + 1):
        word, beta = tau_q(q) * q.d[i], walked_gamma(q, i)
        for cell in _row(q, i):
            assert cell == (beta, 0), (case, i)
            step = generic_word_root(q.rs, word, beta)
            assert apply_word_root(q.rs, word, beta) == step, (case, i, beta)
            beta = step
        assert not q.rs.is_positive_root(beta), (case, i)


@pytest.mark.parametrize("case", [*CASES, *CAP], ids=str)
def test_each_row_starts_at_gamma_by_the_replaced_walk(case):
    # gamma_i, walked by `_row` on the row's compiled steps, against the entry-by-entry walk it replaced
    # and the walk in the weight basis; for rho = id also against the ancestor set of i
    _, q = _data(case)
    plain = q.rho == identity_perm(q.rs.rank)
    for i in range(1, q.rs.rank + 1):
        gamma = walked_gamma(q, i)
        assert psi_q(q, i, q.xi[i]) == (gamma, 0), (case, i)
        assert root_to_weight(q.rs.cartan, gamma) == weight_walk(q, i), (case, i)
        assert not plain or gamma == _ancestor_gamma(q, i), (case, i)


@pytest.mark.parametrize("case", [*CASES, *CAP], ids=str)
def test_phi_q_in_ints_is_twist_of_esig_on_every_window_cell(case):
    d, q = _fresh(case)
    got = phi_q_map(q, d)
    assert list(got.items()) == list(scalar_phi_q_map(q, d).items()), case
    assert all(type(p.param) is SpectralScalar and 0 <= p.param.phase < d.phase_mod[p.node]
               for p in got.values()), case


@pytest.mark.parametrize("case", CASES, ids=str)
def test_nakayama_shift(case):
    # psi_Q(i*, p - H) = (beta, m - 1), on the oracle's cells and through psi_q
    _, q = _data(case)
    h = q.ord_rho * q.base.hvee
    rows = _oracle_rows(q)
    shifted = 0
    for i, row in rows.items():
        istar = q.rs.istar(i)
        for p, (beta, m) in row.items():
            assert psi_q(q, istar, p - h) == (beta, m - 1), (case, i, p)
            if p - h in rows[istar]:
                assert rows[istar][p - h] == (beta, m - 1), (case, i, p)
                shifted += 1
    assert shifted


FAR_PROBE = """
import json, sys, time
from qaffine import build, parse_type_string
from qaffine.qcartan import ctilde_formula, ctilde_oracle_for, default_qdatum, i_q, psi_q

out = {}
for s in sys.argv[1:]:
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    rank, far = q.rs.rank, 10**9
    t0 = time.perf_counter()
    first = psi_q(q, 1, q.xi[1] - q.d[1] * far)
    signs = [(sign, psi_q(q, i, q.xi[i] + sign * 2 * q.d[i] * (far + k))[1])
             for i in range(1, rank + 1) for sign in (-1, 1) for k in range(3)]
    wrong = []
    if d.simply_laced:  # ctilde(k + 2h) = ctilde(k): compare with the series at k mod 2h
        table = ctilde_oracle_for(q.rs.letter, rank)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                for k in range(far - 2, far + 3):
                    if ctilde_formula(q, i, j, k) != table.get(i, j, (k - 1) % (2 * d.hvee) + 1):
                        wrong.append((i, j, k))
    seconds = time.perf_counter() - t0
    out[s] = {"seconds": seconds, "first": first, "m_signs": all(sign * m > 0 for sign, m in signs),
              "wrong": wrong, "row_cells": sum(map(len, q._rows.values())), "window": len(i_q(q))}
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_far_cells_are_read_off_the_window(flags):
    # 10**9 steps of p away from the seeds, in a fresh interpreter: every answer
    # comes by whole periods and one shift, and no row grows past its window
    src = str(Path(qaffine.__file__).parents[1])
    types = ["A3-1", "E8-1", "D6-1", "G2-1", "A5-2"]
    out = subprocess.run([sys.executable, *flags, "-c", FAR_PROBE, *types], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout)
    assert res["A3-1"]["first"] == [[1, 0, 0], -250000000]
    for s in types:
        r = res[s]
        assert r["seconds"] < 0.5, (s, r["seconds"])
        assert r["m_signs"] and not r["wrong"], (s, r["wrong"][:5])
        assert r["row_cells"] == r["window"], s


GUARD_PROBE = """
from qaffine import build, parse_type_string
from qaffine.qcartan import default_qdatum, psi_q
from qaffine.qdata import lattice_table, phi_q, phi_q_map
from qaffine.scalars import InvariantViolation

d = build(parse_type_string("D5-1"))
q = default_qdatum(d)
for i in (1, 2):
    psi_q(q, i, q.xi[i])  # walk rows 1 and 2
q._rows[1][0] = q._rows[2][-1]  # row 1's top cell repeats a root of row 2, and one root is lost
for name, call in (("phi_q_map", lambda: phi_q_map(q, d)), ("phi_q", lambda: phi_q(q, d, (1, 0, 0, 0, 0)))):
    try:
        call()
        print(name, "returned")
    except InvariantViolation as exc:
        print(name, "raised", exc)
print("table", len(lattice_table(q, d).phi))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_a_window_that_repeats_a_root_is_an_invariant_violation(flags):
    # in a fresh interpreter, so no other test sees the corrupted rows
    src = str(Path(qaffine.__file__).parents[1])
    out = subprocess.run([sys.executable, *flags, "-c", GUARD_PROBE], capture_output=True,
                         text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    refusal = "raised the window I_Q of D5-1 holds 19 distinct roots in 20 cells, not the 20 positive roots"
    assert out.stdout.splitlines() == [f"phi_q_map {refusal}", f"phi_q {refusal}", "table 0"]
