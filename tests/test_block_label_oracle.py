"""`block_label` on ints against the body it replaced.

`block_label` reads each weight's (node, phase, e), classes it and moves it
into q's home in int arithmetic, and looks the moved generator's `_key` up in
the lattice memo; it builds a SigmaPoint only on a memo miss.  The oracle
below is the body it replaced: a SpectralScalar class per weight, the shift
home / class, and a moved SigmaPoint per weight.  It keeps a memo of its
own, so a key that the int path computed wrongly cannot hide behind an entry
the oracle wrote.
"""

import random

import pytest

from qaffine.acceptance import SWEEP
from qaffine.affine import NodeOutOfRange, build, component_class, parse_type_string
from qaffine.blocks import BlockLabel, NotInW0, block_label, psi_lattice
from qaffine.invariants import SigmaPoint, _key, dual_shift, s_func, sigma_point
from qaffine.qcartan import default_qdatum
from qaffine.qdata import lattice_table, sigma_q_points, simple_root_points, translate_star
from qaffine.scalars import InvariantViolation, SpectralScalar, order_key, print_scalar
from test_psi_window import CUSTOM, _data


def generator_coords(d, q, memo, p):
    """psi_lattice of s_p, kept in memo under the `_key` of p on first use, as the replaced body did."""
    key = _key(d, p.node, *p.param)
    if key not in memo:
        try:
            memo[key] = psi_lattice(d, q, s_func(d, p))
        except NotInW0 as exc:
            raise InvariantViolation(f"generator {p} of {d} is not in W0: {exc}") from exc
    return memo[key]


def generator_label(d, q, memo, weights):
    """The label as `block_label` computed it with a SigmaPoint per weight, on the memo given."""
    home = component_class(d, *simple_root_points(q, d)[0])
    groups = {}
    for p in weights:
        groups.setdefault(component_class(d, p.node, p.param), []).append(p)
    components = []
    for cls in sorted(groups, key=order_key):
        shift = home / cls
        coords = tuple(map(sum, zip(*[generator_coords(d, q, memo, sigma_point(d, p.node, p.param * shift))
                                      for p in groups[cls]])))
        if any(coords):
            components.append((print_scalar(cls), coords))
    return BlockLabel(tuple(components))


def _outcome(label, *args):
    try:
        return label(*args)
    except Exception as exc:  # the same error, by type and message
        return type(exc), str(exc)


def _modules(rng, d, q, count):
    """Seeded modules of 1-6 weights: census points of q moved by dual shifts, translated by
    arbitrary z24^a q^(e/6), some as raw SigmaPoints with the phase not reduced mod 24/m_i."""
    sq = sigma_q_points(d, q)
    census = sorted(sq | translate_star(d, sq, 1))
    translates = [SpectralScalar(0, 0)] + [SpectralScalar(rng.randrange(24), rng.randint(-60, 60)) for _ in range(3)]
    modules = []
    for _ in range(count):
        module = []
        for _ in range(rng.randint(1, 6)):
            p = dual_shift(d, rng.choice(census), rng.randrange(-4, 5))
            x = p.param * rng.choice(translates)
            mod = d.phase_mod[p.node]
            module.append(SigmaPoint(p.node, SpectralScalar((x.phase + mod * rng.randrange(24 // mod)) % 24, x.e)))
        modules.append(module)
    return modules


def _compare(d, q, modules):
    """Labels of the int path and of the oracle on each module; the two memos end equal."""
    memo = {}
    multi = 0
    for weights in modules:
        want = _outcome(generator_label, d, q, memo, weights)
        assert _outcome(block_label, d, q, weights) == want, (str(d), list(map(str, weights)))
        multi += len(want.components) > 1
    assert lattice_table(q, d).memo == memo
    return multi


@pytest.mark.parametrize("s", SWEEP)
def test_int_labels_match_the_oracle_on_every_sweep_type(s):
    d = build.__wrapped__(parse_type_string(s))  # unshared, so the int path meets every miss first
    q = default_qdatum(d)
    assert _compare(d, q, _modules(random.Random(s), d, q, 60)) > 10


@pytest.mark.parametrize("case", CUSTOM, ids=str)
def test_int_labels_match_the_oracle_on_the_custom_data(case):
    d, q = _data(case)
    d = build.__wrapped__(d.type)
    assert _compare(d, q, _modules(random.Random(str(case)), d, q, 40)) > 5


@pytest.mark.parametrize("s", ["A1-1", "B3-1", "D4-3", "E6-2", "A5-2"])
def test_a_bad_node_raises_the_same_error(s):
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    good = _modules(random.Random(s), d, q, 1)[0]
    for node in (0, -2, len(d.i0) + 1):
        bad = SigmaPoint(node, SpectralScalar(0, 6))
        for at in (0, len(good) // 2, len(good)):
            weights = good[:at] + [bad] + good[at:]
            want = _outcome(generator_label, d, q, {}, weights)
            assert want == (NodeOutOfRange, f"node {node} outside I0 of {d}")
            assert _outcome(block_label, d, q, weights) == want
