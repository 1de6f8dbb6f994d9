import gc
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path

import pytest

import qaffine
from qaffine import blocks
from qaffine.acceptance import SWEEP
from qaffine.affine import AffineType, Family, build, component_class, parse_type_string, untwisted_partner
from qaffine.blocks import (
    BlockLabel,
    NotInW0,
    block_label,
    delta0,
    gram,
    partition_blocks,
    psi_lattice,
)
from qaffine.invariants import SigmaFunction, _key, dual_shift, e_of, pairing, s_func, sigma_point
from qaffine.qcartan import InvalidQDatum, custom_qdatum, default_qdatum
from qaffine.qdata import (
    lattice_table,
    phi_q,
    phi_q_map,
    root_coords,
    sigma_q_points,
    simple_root_points,
    translate_star,
)
from qaffine.scalars import MINUS_Q, ONE, Q, QS, InvariantViolation, SpectralScalar, order_key, print_scalar, scalar
from weyl_oracle import root_inner


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
    res = gram(build(AffineType(Family.A1, 4)))
    assert res.equal
    assert res.matrix == res.expected
    assert all(res.matrix[i][i] == 2 for i in range(4))


def test_gram_c4_is_cartan_d5():
    d = build(AffineType(Family.C1, 4))
    res = gram(d)
    assert res.equal
    assert res.matrix[4][2] == -1  # the (n+1, n-1) off-diagonal entry
    assert res.matrix[4][3] == 0


def test_gram_g2_is_cartan_d4():
    res = gram(build(parse_type_string("G2-1")))
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
    d = build(AffineType(Family.A1, 4))
    q = default_qdatum(d)
    pts = simple_root_points(q, d)
    for i, p in enumerate(pts):
        coords = psi_lattice(d, q, s_func(d, p))
        assert coords == tuple(int(k == i) for k in range(len(pts)))


def test_psi_lattice_a4_figure_cell():
    # the sigma-point of the (1100) cell carries coordinates (1,1,0,0)
    d = build(AffineType(Family.A1, 4))
    q = default_qdatum(d)
    p = phi_q(q, d, (1, 1, 0, 0))
    assert p == sigma_point(d, 2, MINUS_Q ** -1)
    assert psi_lattice(d, q, e_of(d, [p])) == (1, 1, 0, 0)


def test_psi_lattice_dual_pair_is_zero():
    d = build(AffineType(Family.B1, 3))
    q = default_qdatum(d)
    p = sigma_point(d, 1, QS)
    f = e_of(d, [p, dual_shift(d, p, 1)])
    assert f.is_zero
    assert psi_lattice(d, q, f) == (0, 0, 0, 0, 0)


@pytest.mark.parametrize("s", ["A4-1", "B3-1", "D4-3"])
def test_psi_lattice_without_q_uses_the_default_qdatum(s):
    # as gram, delta0, block_label and partition_blocks do
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    pts = simple_root_points(q, d)
    f = e_of(d, [pts[0], pts[1], dual_shift(d, pts[-1], 1)])
    assert psi_lattice(d, None, f) == psi_lattice(d, q, f) != (0,) * len(pts)


def test_psi_lattice_rejects_non_lattice_function():
    d = build(AffineType(Family.A1, 2))
    q = default_qdatum(d)
    f = s_func(d, sigma_point(d, 1, ONE))
    halved = SigmaFunction(f.keys, tuple(2 * v for v in f.vals), f.gens)
    # doubled values but unchanged generators: the re-expansion must catch it
    with pytest.raises(NotInW0):
        psi_lattice(d, q, SigmaFunction(halved.keys, halved.vals, ((sigma_point(d, 1, ONE), 1),)))


def test_a_corrupted_root_coords_entry_fails_the_re_expansion():
    d = build.__wrapped__(parse_type_string("A3-1"))  # fresh, so no other test sees the corruption
    q = default_qdatum(d)
    p = phi_q(q, d, (1, 0, 0))
    root_coords(q, d)[_key(d, p.node, *p.param)] = (0, 1, 0)
    with pytest.raises(NotInW0, match="re-expansion"):
        psi_lattice(d, q, s_func(d, p))
    with pytest.raises(InvariantViolation, match="not in W0: re-expansion"):
        block_label(d, q, [p])


TABLE_TYPES = [*SWEEP, "A10-1", "D10-1", "B8-1", "C8-1", "A9-2", "A10-2", "D9-2"]


@pytest.mark.parametrize("s", TABLE_TYPES)
def test_root_coords_keys_are_sigma_0_over_one_ptilde_window(s):
    d = build.__wrapped__(parse_type_string(s))  # fresh: a lattice table no other test has filled
    q = default_qdatum(d)
    gram(d, q), delta0(d, q)
    assert not lattice_table(q, d).coords  # neither builds the coordinates
    table = root_coords(q, d)
    sigma_0 = {
        _key(d, j, ph, e)
        for j in d.i0 for ph in range(24 // d.m[j]) for e in range(12 * d.hvee)
        if component_class(d, j, SpectralScalar(ph, e)) == ONE
    }
    assert set(table) == sigma_0 and len(table) == 2 * len(q.rs.positive_roots)


def _unbuilt_beyond_phi(table):
    return not any((table.coords, table.slots, table.memo, table.peaks, table.widths))


@pytest.mark.parametrize("s", ["A4-1", "E8-1", "C4-1", "D5-2", "D4-3"])
def test_gram_builds_only_the_phi_q_map(s):
    t = parse_type_string(s)
    d = build.__wrapped__(t)  # fresh: a lattice table no other test has filled
    q = default_qdatum(d)
    assert gram(d, q).equal
    table = lattice_table(q, d)
    phi = table.phi
    assert phi == {beta: phi_q(q, d, beta) for beta in q.rs.positive_roots}
    assert simple_root_points(q, d) == tuple(phi_q(q, d, q.rs.simple_root(i)) for i in range(1, q.rs.rank + 1))
    assert _unbuilt_beyond_phi(table)
    delta0(d, q)
    assert phi_q_map(q, d) is phi and sigma_q_points(d, q) == frozenset(phi.values())
    assert _unbuilt_beyond_phi(table)
    # and delta0 alone builds phi_Q over the positive roots only
    d = build.__wrapped__(t)
    delta0(d, q)
    table = lattice_table(q, d)
    assert _unbuilt_beyond_phi(table) and len(table.phi) == len(q.rs.positive_roots)


# per variable family, rungs near rank 8, near 12 and at 16-21, far above the
# SWEEP ranks (at most 6); the rungs at the rank cap take 5-32 s each, too
# long for this suite
LADDER = [
    "A8-1", "B8-1", "C8-1", "D8-1", "A8-2", "A9-2", "D8-2",
    "A12-1", "B12-1", "C12-1", "D12-1", "A12-2", "A13-2", "D12-2",
    "A20-1", "B16-1", "C16-1", "D20-1", "A20-2", "A21-2", "D20-2",
]


@pytest.mark.parametrize("s", LADDER)
def test_rank_ladder_contract(s):
    # criteria 1, 9 and 12 at large rank: Gram = Cartan, |Delta_0| = 2|Delta+|
    # with distinct members, and psi_lattice reads beta at phi_Q(beta), -beta
    # at its dual translate
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    assert gram(d).equal
    roots = delta0(d)
    assert len(roots) == 2 * len(d.gfin.positive_roots) == len(set(roots))
    for beta, p in phi_q_map(q, d).items():
        assert psi_lattice(d, q, s_func(d, p)) == beta, (s, str(p))
        assert psi_lattice(d, q, s_func(d, dual_shift(d, p))) == tuple(-c for c in beta), (s, str(p))


def test_block_label_single_fundamental():
    d = build(AffineType(Family.A1, 3))
    q = default_qdatum(d)
    p = phi_q(q, d, (0, 1, 0))
    label = block_label(d, q, [p])
    assert label.components == (("1", (0, 1, 0)),)


def test_block_label_kernel_is_trivial():
    d = build(AffineType(Family.A1, 3))
    q = default_qdatum(d)
    for t in (ONE, scalar(5, 2)):
        pts = [sigma_point(d, 1, t * Q ** (2 * k)) for k in range(4)]
        assert block_label(d, q, pts).components == ()


def test_block_label_kernel_augmented_equal():
    d = build(AffineType(Family.B1, 3))
    q = default_qdatum(d)
    base = [sigma_point(d, 1, QS), sigma_point(d, 2, QS ** 3)]
    kernel = [sigma_point(d, 3, Q ** 2), sigma_point(d, 3, Q ** 7)]  # (n,t), (n,tq^{2n-1})
    assert block_label(d, q, base) == block_label(d, q, base + kernel)


def test_block_label_translates_differ():
    d = build(AffineType(Family.A1, 2))
    q = default_qdatum(d)
    p = sigma_point(d, 1, ONE)
    shifted = sigma_point(d, 1, scalar(1, Fraction(1, 6)))
    l1 = block_label(d, q, [p])
    l2 = block_label(d, q, [shifted])
    assert l1 != l2
    assert len(block_label(d, q, [p, shifted]).components) == 2


def test_partition_blocks():
    d = build(AffineType(Family.A1, 2))
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
            assert got == root_inner(d.gfin.cartan, b1, b2), (s, b1, b2)


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
                g = s_func(d, p)
                for k, v in zip(g.keys, g.vals):
                    values[k] = values.get(k, 0) + c * v
            keys = tuple(sorted(k for k, v in values.items() if v))
            f = SigmaFunction(
                keys,
                tuple(values[k] for k in keys),
                tuple((p, c) for p, c in zip(pts, coords) if c),
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
    d = build(AffineType(Family.A1, 3))
    roots = delta0(d)
    rset = set(roots)
    for f in roots:
        assert -f in rset


# The path the lattice table replaced: one psi_lattice solve of E per
# component group.  Kept as the oracle of block_label.

def _block_label_oracle(d, q, weights):
    groups = {}
    for p in weights:
        groups.setdefault(component_class(d, p.node, p.param), []).append(p)
    components = []
    for cls in sorted(groups, key=order_key):
        translated = [sigma_point(d, p.node, p.param / cls) for p in groups[cls]]
        coords = psi_lattice(d, q, e_of(d, translated))
        if any(coords):
            components.append((print_scalar(cls), coords))
    return BlockLabel(tuple(components))


def _label_outcome(label, d, q, weights):
    try:
        return label(d, q, weights)
    except NotInW0 as exc:
        return str(exc)


def _census(d, q):
    sq = sigma_q_points(d, q)
    return sorted(sq | translate_star(d, sq, 1))


def _seeded_module(rng, d, census, translates):
    """1-5 census points moved by dual shifts and component translates, or random points."""
    out = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.85:
            p = dual_shift(d, rng.choice(census), rng.randrange(-4, 5))
            out.append(sigma_point(d, p.node, p.param * rng.choice(translates)))
        else:
            x = scalar(rng.randrange(24), Fraction(rng.randrange(-40, 41), 6))
            out.append(sigma_point(d, rng.choice(d.i0), x))
    return out


def test_block_label_matches_the_per_module_solve():
    # every label is a sum of table entries, equal to the solve of each
    # group's E, and no census point or seeded module of a SWEEP type
    # leaves the lattice
    rng = random.Random(20261018)
    outcomes = Counter()
    for s in SWEEP:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        census = _census(d, q)
        translates = [ONE] + [scalar(rng.randrange(24), Fraction(e, 6)) for e in rng.sample(range(1, 6), 2)]
        modules = [[p] for p in census] + [_seeded_module(rng, d, census, translates) for _ in range(25)]
        for weights in modules:
            want = _label_outcome(_block_label_oracle, d, q, weights)
            assert _label_outcome(block_label, d, q, weights) == want, (s, list(map(str, weights)))
            if isinstance(want, str):
                outcomes["NotInW0"] += 1
            else:
                outcomes["multi-component"] += len(want.components) > 1
    assert outcomes["NotInW0"] == 0 and outcomes["multi-component"] > 100, outcomes


def test_e62_census_points_solve_and_dual_pairs_stay_trivial():
    # with q^9 a simple root of d_{3,4}, as the fold of d^{E6}_{2,4} gives,
    # every census point of E6-2 solves to +- a positive root of E6
    d = build(parse_type_string("E6-2"))
    q = default_qdatum(d)
    roots = set(d.gfin.positive_roots)
    for p in _census(d, q):
        coords = psi_lattice(d, q, s_func(d, p))
        assert coords in roots or tuple(-c for c in coords) in roots, str(p)
        assert block_label(d, q, [p]) == _block_label_oracle(d, q, [p]), str(p)
        pair = [p, dual_shift(d, p, 1)]
        assert not block_label(d, q, pair).components and not _block_label_oracle(d, q, pair).components


def test_generator_outside_w0_is_an_invariant_violation(monkeypatch):
    # every generator lies in W0, so a failed solve is a library bug
    d = build.__wrapped__(parse_type_string("A3-1"))  # fresh, with an empty lattice memo

    def not_in_w0(d, q, f):
        raise NotInW0("re-expansion of the solved coordinates does not reproduce the function")

    monkeypatch.setattr(blocks, "psi_lattice", not_in_w0)
    with pytest.raises(InvariantViolation, match="not in W0: re-expansion"):
        block_label(d, None, [sigma_point(d, 1, ONE)])


def test_ptilde_translates_share_one_memo_entry():
    d = build.__wrapped__(parse_type_string("D5-2"))  # fresh: a memo no other test has filled
    q = default_qdatum(d)
    p = _census(d, q)[7]
    memo = lattice_table(q, d).memo
    before = len(memo)
    labels = {block_label(d, q, [dual_shift(d, p, 2 * k)]) for k in range(1, 51)}
    assert len(memo) == before + 1
    assert labels == {_block_label_oracle(d, q, [p])}


def test_default_qdatum_is_one_cached_datum():
    d = build(parse_type_string("E7-1"))
    assert default_qdatum(d) is default_qdatum(d)


LEAK_PROBE = """
import gc, resource, sys
from qaffine import AffineData, delta0, parse_type_string
from qaffine.qcartan import QDatum

def live(cls):
    return sum(type(o) is cls for o in gc.get_objects())

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

for s in sys.argv[1:]:
    t = parse_type_string(s)
    rounds = []
    for _ in range(5):
        d = AffineData(t)
        delta0(d)
        del d
        gc.collect()
        rounds.append((live(AffineData), live(QDatum), peak_mb()))
    print(s, *rounds[0][:2], *rounds[-1][:2], rounds[-1][2] - rounds[0][2])
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_affine_data_instances_die_with_their_default_qdatum(flags):
    # each round builds an AffineData, fills its default Q-datum, s-functions
    # and lattice table with delta0, and drops it: no instance or datum is
    # left but a twisted type's shared partner, and peak RSS stays flat (a
    # kept A24-1 round costs about 2 MB)
    src = str(Path(qaffine.__file__).parents[1])
    out = subprocess.run([sys.executable, *flags, "-c", LEAK_PROBE, "A24-1", "A11-2"], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    untwisted, twisted = (line.split() for line in out.stdout.splitlines())
    assert untwisted[1:5] == ["0", "0", "0", "0"] and float(untwisted[5]) < 1.0, untwisted
    assert twisted[1:5] == ["1", "1", "1", "1"] and float(twisted[5]) < 1.0, twisted


def test_default_qdatum_lives_on_its_affine_data():
    t = parse_type_string("A5-2")
    d = build.__wrapped__(t)
    assert d._qdatum is None
    q = default_qdatum(d)
    partner = untwisted_partner(d)
    assert d._qdatum is q is default_qdatum(build(t)) is default_qdatum(partner)
    # each type keeps its own lattice table for the shared datum, weakly keyed by it
    assert lattice_table(q, d) is d._lattice[q]
    assert lattice_table(q, partner) is partner._lattice[q] is not d._lattice[q]


def test_twisted_types_share_their_partners_default_qdatum():
    twisted = [d for d in (build(parse_type_string(s)) for s in SWEEP) if d.twisted]
    assert twisted
    for d in twisted:
        assert default_qdatum(d) is default_qdatum(untwisted_partner(d)), str(d)


CROSS_TYPE_PROBE = """
import gc, weakref
from qaffine import build, gram, parse_type_string
from qaffine.qcartan import custom_qdatum

d, other = (build(parse_type_string(s)) for s in ("A3-1", "A3-2"))
refs, equal = [], True
for _ in range(5):
    q = custom_qdatum(d, {1: 0, 2: 1, 3: 0})
    equal &= gram(other, q).equal
    refs.append(weakref.ref(q))
    del q
gc.collect()
print(equal, sum(ref() is not None for ref in refs), len(other._lattice))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_custom_qdatum_used_with_another_type_dies(flags):
    # A3-2 keeps a lattice table for each A3-1 datum it is paired with, weakly
    # keyed by it: once the data are dropped, none is alive and no table is left
    src = str(Path(qaffine.__file__).parents[1])
    out = subprocess.run([sys.executable, *flags, "-c", CROSS_TYPE_PROBE], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "0", "0"]


@pytest.mark.parametrize("s, foreign", [("D4-1", "A3-1"), ("A5-1", "B3-1")])
def test_a_qdatum_of_another_type_is_refused(s, foreign):
    # a datum made for another type than d's untwisted partner is bad input,
    # refused by every reader of the lattice table before it computes anything
    d = build(parse_type_string(s))
    q = default_qdatum(build(parse_type_string(foreign)))
    f = s_func(d, simple_root_points(default_qdatum(d), d)[0])
    for call in (lambda: gram(d, q), lambda: delta0(d, q), lambda: block_label(d, q, [sigma_point(d, 1, ONE)]),
                 lambda: psi_lattice(d, q, f), lambda: phi_q(q, d, q.rs.simple_root(1))):
        with pytest.raises(InvalidQDatum, match=f"Q-datum of {foreign} does not fit {s}"):
            call()
    assert d._lattice is None or q not in d._lattice


def test_block_label_without_q_reuses_the_default_lattice_table():
    d = build.__wrapped__(parse_type_string("E7-1"))  # fresh, so its default Q-datum is too
    pts = sorted(sigma_q_points(d, default_qdatum(d)))[:5]
    memo = lattice_table(default_qdatum(d), d).memo
    assert not memo
    first = block_label(d, None, pts)
    filled = len(memo)
    assert filled == len(pts)
    assert block_label(d, None, pts) == first
    assert len(memo) == filled


@pytest.mark.parametrize("s", ["B3-1", "E6-1", "D4-3", "A5-2"])
def test_simple_root_points_are_phi_q_on_the_simple_roots(s):
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    pts = simple_root_points(q, d)
    assert isinstance(pts, tuple)
    assert pts == tuple(phi_q(q, d, q.rs.simple_root(i)) for i in range(1, q.rs.rank + 1))


def test_custom_qdatum_leaves_nothing_on_affine_data():
    d = build(parse_type_string("A3-1"))
    weights = [sigma_point(d, 1, ONE), sigma_point(d, 2, MINUS_Q), sigma_point(d, 3, scalar(5, 2))]

    def label_with_a_fresh_datum():
        q = custom_qdatum(d, {1: 0, 2: 1, 3: 0})
        block_label(d, q, weights)
        assert q in d._lattice
        return weakref.ref(q)

    label_with_a_fresh_datum()  # fills d's own s_func and template caches

    def footprint():
        state = {k: getattr(d, k) for k in type(d).__slots__}  # AffineData has no __dict__
        return {k: len(v) if isinstance(v, Mapping) else v for k, v in state.items()}

    before = footprint()
    refs = [label_with_a_fresh_datum() for _ in range(20)]
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert footprint() == before
