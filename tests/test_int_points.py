"""Points moved in ints against the scalar products they replaced.

`invariants.dual_shift` moves (i, z24^phase q^(e/6)) to (i^{*k}, phase + k
p*_phase mod 24/m, e + k p*_e), and `sigma_point` keeps a scalar whose phase
is already canonical (below 24/m_i) instead of building it again.  The
oracles are the bodies they replaced, which multiplied SpectralScalars and
reduced every phase through `affine.canonical_param`.  A count guard keeps
per-root scalar products out of phi_Q and `delta0`.
"""

import random
from collections import Counter

import pytest

from qaffine import invariants
from qaffine.acceptance import SWEEP
from qaffine.affine import NodeOutOfRange, build, canonical_param, parse_type_string
from qaffine.blocks import delta0
from qaffine.invariants import SigmaPoint, dual_shift, parse_sigma_point, sigma_point
from qaffine.qcartan import default_qdatum
from qaffine.qdata import phi_q_map
from qaffine.scalars import ONE, ParseError, SpectralScalar, _int, parse_scalar, print_scalar
from test_blocks import LADDER
from test_psi_window import CAP, CUSTOM, _data
from test_scalars import PRINTED_EXPONENTS, _malformed, _parse_outcome, _token_string


def scalar_dual_shift(d, p, k):
    """`dual_shift` as it was: p.param * (p*)^k, reduced by `canonical_param` (after the node check)."""
    d.check_node(p.node)
    node = p.node if k % 2 == 0 else d.istar[p.node]
    return SigmaPoint(node, canonical_param(d, node, p.param * d.pstar ** k))


def canonical_sigma_point(d, node, param):
    """`sigma_point` as it was: the phase reduced by `canonical_param` every time."""
    d.check_node(node)
    return SigmaPoint(node, canonical_param(d, node, param))


def scalar_parse_sigma_point(d, text):
    """`parse_sigma_point` on `canonical_sigma_point`."""
    head, sep, tail = text.partition("@")
    head = head.strip()
    if not sep or not (head.isascii() and head.isdigit()):
        raise ParseError("expected point of the form i@<scalar>", 0)
    return canonical_sigma_point(d, _int(head, 0), parse_scalar(tail.strip()))


def _check_shifts(d, p):
    for k in range(-3, 4):
        got = dual_shift(d, p, k)
        assert got == scalar_dual_shift(d, p, k), (str(d), p, k)
        assert type(got.param) is SpectralScalar and 0 <= got.param.phase < d.phase_mod[got.node], (p, k)


@pytest.mark.parametrize("s", [*SWEEP, *LADDER, *CAP])
def test_dual_shift_in_ints_matches_the_scalar_product(s):
    # raw points: any phase in -48..47 (unreduced), e up to 10^6 ptilde periods out
    d = build(parse_type_string(s))
    rng = random.Random(s)
    for i in d.i0:
        for _ in range(6):
            span = 12 * d.hvee * rng.choice((1, 10, 10 ** 6))
            _check_shifts(d, SigmaPoint(i, SpectralScalar(rng.randrange(-48, 48), rng.randint(-span, span))))


@pytest.mark.parametrize("case", CUSTOM, ids=str)
def test_dual_shift_in_ints_on_the_sigma_q_of_custom_data(case):
    d, q = _data(case)
    for p in phi_q_map(q, d).values():
        _check_shifts(d, p)


@pytest.mark.parametrize("s", ["A1-1", "B3-1", "D4-3", "E6-1", "E6-2", "A5-2"])
def test_a_bad_node_raises_the_same_node_out_of_range(s):
    # the scalar body read d.istar before any check, so an odd k raised KeyError there
    d = build(parse_type_string(s))
    for node in (0, -2, len(d.i0) + 1):
        with pytest.raises(NodeOutOfRange) as want:
            d.check_node(node)
        for k in range(-3, 4):
            for shift in (dual_shift, scalar_dual_shift):
                with pytest.raises(NodeOutOfRange) as got:
                    shift(d, SigmaPoint(node, ONE), k)
                assert str(got.value) == str(want.value), (s, node, k)


# node i of each: m_i = 1, 2 (A5-2, D5-2, E6-2) and 3 (D4-3)
POINT_TYPES = ["A5-1", "B3-1", "A5-2", "D5-2", "E6-2", "D4-3"]


def test_sigma_point_keeps_a_canonical_scalar_and_reduces_the_rest():
    for s in POINT_TYPES:
        d = build(parse_type_string(s))
        for i in d.i0:
            for a in range(-24, 48):
                x = SpectralScalar(a, 6 * a - 7)
                got = sigma_point(d, i, x)
                assert got == canonical_sigma_point(d, i, x), (s, i, a)
                assert (got.param is x) == (0 <= a < d.phase_mod[i]), (s, i, a)


def test_every_printed_form_parses_to_the_same_point():
    for s in POINT_TYPES:
        d = build(parse_type_string(s))
        for i in d.i0:
            for a in range(24):
                for e in PRINTED_EXPONENTS:
                    text = f"{i}@{print_scalar(SpectralScalar(a, e))}"
                    assert parse_sigma_point(d, text) == scalar_parse_sigma_point(d, text), (s, text)


def test_the_scalar_fuzz_parses_to_the_same_points():
    # the seeded strings of `test_scalars`' fuzz, each behind a node in 0..n+1 of one of POINT_TYPES
    types = [build(parse_type_string(s)) for s in POINT_TYPES]
    rng = random.Random(20261020)
    counts = Counter()
    for k in range(100_000):
        if k % 2:
            text = _token_string(rng)
        else:
            bound = 10 ** rng.randint(1, 11)
            printed = print_scalar(SpectralScalar(rng.randrange(24), rng.randint(-bound, bound)))
            text = printed if k % 4 else _malformed(rng, printed)
        d = types[k % len(types)]
        text = f"{k % (len(d.i0) + 2)}@{text}"
        want = _parse_outcome(lambda t: scalar_parse_sigma_point(d, t), text)
        assert _parse_outcome(lambda t: parse_sigma_point(d, t), text) == want, (str(d), text)
        counts[type(want).__name__] += 1
    assert min(counts.values()) > 20_000, counts


@pytest.mark.parametrize("s", ["E8-1", "D5-2", "F4-1", "D4-3"])
def test_phi_q_and_delta0_make_a_few_scalar_products_per_node(s, monkeypatch):
    # on an unshared instance, so phi_Q and the translates are built here; the
    # templates are built first, as F4-1's come from denominators, which multiply
    d = build.__wrapped__(parse_type_string(s))
    q = default_qdatum(d)
    for i in d.i0:
        invariants._scatter(d, i)
    calls = Counter()
    for name in ("__mul__", "__pow__"):
        op = getattr(SpectralScalar, name)
        monkeypatch.setattr(SpectralScalar, name, lambda a, b, op=op, name=name: calls.update([name]) or op(a, b))
    phi_q_map(q, d)
    assert len(delta0(d, q)) == 2 * len(q.rs.positive_roots)
    monkeypatch.undo()
    # esig and twist once per node of the finite type: at most two of each there
    assert set(calls) == {"__mul__", "__pow__"}, calls
    assert max(calls.values()) <= 2 * q.rs.rank < len(q.rs.positive_roots), (s, calls)
