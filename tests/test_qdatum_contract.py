"""Q-datum independence as a contract.

The paper defines W0 and Delta0 from the fundamental modules, with no
Q-datum, so every valid Q-datum must give Gram = Cartan, the same Delta0
and the same grouping into blocks.  A height function xi of either parity
is valid, but one whose parity is opposite to the default's puts sigma_Q in
another translate of sigma_Z than the default does: its home, the component
class shared by sigma_Q and its dual translate.  Delta0 agrees after moving
each point back by that home, and `block_label` moves each generator into
q's home before reading its coordinates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine.affine import build, component_class, parse_type_string
from qaffine.blocks import BlockLabel, block_label, delta0, gram, partition_blocks
from qaffine.invariants import dual_shift, s_func, sigma_point
from qaffine.qcartan import custom_qdatum, default_qdatum
from qaffine.qdata import lattice_table, phi_q, phi_q_map, sigma_q_points, translate_star
from qaffine.scalars import ONE, parse_scalar, print_scalar, scalar
from test_blocks import _seeded_module
from test_psi_window import CUSTOM, _data


def _home(d, q):
    """The component classes of sigma_Q and its first dual translate (one class, by the contract)."""
    sq = sigma_q_points(d, q)
    return {component_class(d, p.node, p.param) for p in sq | translate_star(d, sq, 1)}


def test_the_custom_heights_take_both_parities():
    homes = [_home(*_data(case)) for case in CUSTOM]
    assert {ONE} in homes and any(home != {ONE} for home in homes)


@pytest.mark.parametrize("case", CUSTOM, ids=str)
def test_gram_is_cartan(case):
    d, q = _data(case)
    assert gram(d, q).equal


def _delta0_moved_back(d, q):
    """Delta0 under q, each generator moved back by q's home."""
    (home,) = _home(d, q)
    return {s_func(d, sigma_point(d, p.node, p.param / home)) for f in delta0(d, q) for p, _ in f.gens}


@pytest.mark.parametrize("case", CUSTOM, ids=str)
def test_delta0_moved_back_by_home_is_the_defaults(case):
    d, q = _data(case)
    # the sets below would hide a member listed twice; the theorem gives 2 |Delta+| distinct ones
    assert len(delta0(d, q)) == 2 * len(q.rs.positive_roots)
    assert _delta0_moved_back(d, q) == set(delta0(d))


@pytest.mark.parametrize("case", CUSTOM, ids=str)
def test_partition_groups_as_the_default_does(case):
    d, q = _data(case)
    rng = random.Random(str(case))
    sq = sigma_q_points(d, default_qdatum(d))
    census = sorted(sq | translate_star(d, sq, 1))
    translates = [ONE] + [scalar(rng.randrange(24), rng.randrange(1, 6)) for _ in range(2)]
    modules = [_seeded_module(rng, d, census, translates) for _ in range(80)]
    index = {id(m): n for n, m in enumerate(modules)}

    def grouping(datum):
        return {frozenset(index[id(m)] for m in members) for _, members in partition_blocks(d, datum, modules)}

    assert grouping(q) == grouping(default_qdatum(d))


@pytest.mark.parametrize("case", CUSTOM, ids=str)
def test_one_lattice_automorphism_carries_the_default_labels_to_q(case):
    # column i of M is the label under q of the default datum's phi_Q(alpha_i)
    d, q = _data(case)
    default = default_qdatum(d)
    rs, rank = q.rs, q.rs.rank
    columns = []
    for i in range(1, rank + 1):
        ((cls, column),) = block_label(d, q, [phi_q(default, d, rs.simple_root(i))]).components
        assert cls == "1"
        columns.append(column)

    def apply(v):
        return tuple(sum(columns[j][r] * v[j] for j in range(rank)) for r in range(rank))

    cartan = rs.cartan
    for a in range(rank):
        for b in range(rank):
            form = sum(columns[a][r] * cartan[r][s] * columns[b][s] for r in range(rank) for s in range(rank))
            assert form == cartan[a][b], (a, b)
    roots = set(rs.positive_roots)
    for beta in rs.positive_roots:
        image = apply(beta)
        assert image in roots or tuple(-c for c in image) in roots, beta
    rng = random.Random(f"M {case}")
    sq = sigma_q_points(d, default)
    census = sorted(sq | translate_star(d, sq, 1))
    translates = [ONE] + [scalar(rng.randrange(24), rng.randrange(1, 6)) for _ in range(2)]
    for module in (_seeded_module(rng, d, census, translates) for _ in range(80)):
        want = tuple((cls, apply(v)) for cls, v in block_label(d, default, module).components)
        assert block_label(d, q, module).components == want, list(map(str, module))


def test_block_label_on_the_sigma_q_of_an_other_parity_datum():
    # every point of this datum's sigma_Q has class z24^12*q, not 1; each
    # generator was once moved into class 1, where the datum has no coordinates
    d = build(parse_type_string("A3-1"))
    q = custom_qdatum(d, {1: 1, 2: 0, 3: 1})
    home = parse_scalar("z24^12*q")
    assert _home(d, q) == {home}
    assert gram(d, q).equal
    for beta, p in phi_q_map(q, d).items():
        assert block_label(d, q, [p]) == BlockLabel(((print_scalar(home), beta),)), str(p)
        minus = tuple(-c for c in beta)
        assert block_label(d, q, [dual_shift(d, p)]) == BlockLabel(((print_scalar(home), minus),)), str(p)
    assert lattice_table(q, d).home == home


ADE_RANK_8 = [f"A{n}-1" for n in range(1, 9)] + [f"D{n}-1" for n in range(4, 9)] + ["E6-1", "E7-1", "E8-1"]


@st.composite
def _heights(draw):
    """(d, xi): an ADE type of rank <= 8 and a height function on its diagram, of either parity."""
    d = build(parse_type_string(draw(st.sampled_from(ADE_RANK_8))))
    xi, todo = {1: draw(st.integers(-4, 4))}, [1]
    while todo:
        a = todo.pop()
        for b in d.gfin.adj[a]:
            if b not in xi:
                xi[b] = xi[a] + draw(st.sampled_from((-1, 1)))
                todo.append(b)
    return d, xi


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_heights())
def test_any_height_function_gives_cartan_and_the_defaults_delta0(case):
    # a custom datum's Delta0 rotates the templates read off the default datum's rows
    d, xi = case
    q = custom_qdatum(d, xi)
    assert gram(d, q).equal
    assert _delta0_moved_back(d, q) == set(delta0(d))
