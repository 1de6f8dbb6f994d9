"""The value classes: construction, equality, hashing, immutability and repr.

Equal values built separately are equal and hash alike; the immutable ones
refuse assignment and deletion with AttributeError; AffineData and QDatum,
which carry memo caches, compare and hash by identity.  The immutable
slotted classes survive copy, deepcopy and a pickle round-trip.
"""

import copy
import pickle

import pytest

from qaffine.affine import AffineData, AffineType, Family, FamilySpec, build, parse_type_string
from qaffine.blocks import BlockLabel, GramResult
from qaffine.denominators import RootMultiset, denominator
from qaffine.invariants import SigmaFunction, SigmaPoint, e_of, s_func, sigma_point
from qaffine.qcartan import CTildeTable, QDatum, ctilde_oracle_for, default_qdatum
from qaffine.scalars import ONE, Q, SpectralScalar


def _pstar(n):
    return Q


def _base(n, i, dd):
    return ONE


def _gfin(n):
    return ("A", n)


def _pairs():
    """Pairs of separately built equal values, one per immutable class, by both call forms."""
    d = build(parse_type_string("A3-1"))
    f = s_func(d, sigma_point(d, 1, ONE))
    dmn = denominator(d, 1, 2)
    table = ctilde_oracle_for("A", 2)
    matrix = ((2, -1), (-1, 2))
    return [
        (FamilySpec("A", 1, 1, _pstar, (12, 0, 0), _base, gfin=_gfin),
         FamilySpec(letter="A", twist=1, rank=1, pstar=_pstar, k0=(12, 0, 0), sigma0_base=_base,
                    fixed=False, num_scale=1, gfin=_gfin)),
        (AffineType(Family.A1, 3), AffineType(family=Family.A1, n=3)),
        (AffineType(Family.A1, 3), parse_type_string("A3-1")),
        (GramResult("A2-1", matrix, matrix, ()),
         GramResult(type_string="A2-1", matrix=matrix, expected=matrix, mismatches=())),
        (BlockLabel((("1", (1, 0)),)), BlockLabel(components=(("1", (1, 0)),))),
        (RootMultiset(dmn.mults), RootMultiset(mults=tuple(dmn.mults))),
        (RootMultiset(dmn.mults), dmn),
        (SigmaFunction(f.keys, f.vals, f.gens),
         SigmaFunction(keys=tuple(f.keys), vals=tuple(f.vals), gens=tuple(f.gens))),
        (SigmaFunction(f.keys, f.vals), f),  # equality and hash read `keys` and `vals` only
        (CTildeTable(table.rank, table.order, table.values),
         CTildeTable(rank=table.rank, order=table.order, values=table.values)),
        (SigmaPoint(2, SpectralScalar(5, -3)), SigmaPoint(node=2, param=SpectralScalar(phase=5, e=-3))),
    ]


@pytest.mark.parametrize("index", range(11))
def test_separately_built_equal_values_are_equal_and_hash_alike(index):
    a, b = _pairs()[index]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values_differ():
    d = build(parse_type_string("A3-1"))
    assert AffineType(Family.A1, 3) != AffineType(Family.A1, 4)
    assert AffineType(Family.A1, 4) != AffineType(Family.D1, 4)
    assert denominator(d, 1, 2) != denominator(d, 1, 3)
    assert s_func(d, sigma_point(d, 1, ONE)) != s_func(d, sigma_point(d, 2, ONE))
    assert BlockLabel((("1", (1, 0)),)) != BlockLabel((("1", (0, 1)),))


@pytest.mark.parametrize("index", range(11))
def test_immutable_values_refuse_assignment(index):
    value = _pairs()[index][0]
    name = next(n for n in ("letter", "family", "type_string", "components", "mults", "keys", "rank", "node")
                if hasattr(value, n))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


def test_s_functions_store_flat_int_keys():
    # two flat tuples of plain ints: no per-entry (key, value) tuple is stored
    assert SigmaFunction.__slots__ == ("keys", "vals", "gens")
    d = build(parse_type_string("E6-2"))
    p, other = sigma_point(d, 2, Q), sigma_point(d, 3, ONE)
    for f in (s_func(d, p), -s_func(d, p), e_of(d, [p, other])):
        assert type(f.keys) is tuple and type(f.vals) is tuple and len(f.keys) == len(f.vals) > 0
        assert all(type(k) is int for k in f.keys) and all(type(v) is int for v in f.vals)
    # the template is stored only as runs, whose exponents and values are plain ints
    for _, _, _, groups in d._template_cache[2]:
        assert all(type(x) is int for _, _, fs, vs in groups for x in fs + vs)


def test_root_multiset_index_is_not_compared():
    d = build(parse_type_string("A3-1"))
    dmn = denominator(d, 1, 2)
    rebuilt = RootMultiset.from_pairs(reversed(dmn.mults))
    assert rebuilt == dmn and hash(rebuilt) == hash(dmn)
    assert [rebuilt.mult(r) for r, _ in dmn] == [m for _, m in dmn]
    assert rebuilt.mult(SpectralScalar(1, 1)) == 0


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_slotted_values_survive_copy_and_pickle(how):
    d = build(parse_type_string("A3-1"))
    dmn = denominator(d, 1, 2)
    values = [parse_type_string("A3-1"), dmn, s_func(d, sigma_point(d, 1, ONE))]
    clone = {"copy": copy.copy, "deepcopy": copy.deepcopy,
             "pickle": lambda v: pickle.loads(pickle.dumps(v))}[how]
    for value in values:
        other = clone(value)
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == repr(value)
    rebuilt = clone(dmn)
    assert [rebuilt.mult(r) for r, _ in dmn] == [m for _, m in dmn]
    assert build(clone(d.type)) is d


def test_affine_type_repr_and_build_cache():
    assert repr(parse_type_string("A3-1")) == "AffineType(family=<Family.A1: 'A1'>, n=3)"
    assert str(AffineType(Family.A1, 3)) == "A3-1"
    assert build(AffineType(Family.A1, 3)) is build(parse_type_string("A3-1"))


def test_affine_data_and_qdatum_compare_and_hash_by_identity():
    t = parse_type_string("D4-1")
    d = build(t)
    fresh = build.__wrapped__(t)
    assert isinstance(fresh, AffineData)
    assert fresh is not d and fresh != d and d == d
    assert hash(d) == object.__hash__(d) and hash(fresh) == object.__hash__(fresh)
    q = default_qdatum(d)
    other = QDatum(rs=q.rs, rho=q.rho, xi=q.xi, base=q.base)
    assert other != q and q == q
    assert hash(q) == object.__hash__(q) and hash(other) == object.__hash__(other)
    # the lattice tables are keyed by AffineData: a rebuilt one is another key
    assert len({d: 1, fresh: 2}) == 2
