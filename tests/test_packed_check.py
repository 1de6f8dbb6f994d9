"""The packed check of `blocks.psi_lattice` against the dict re-expansion it replaced.

`psi_lattice` verifies its coordinates with one integer identity on packed
slots (see the `qaffine.blocks` docstring).  The re-expansion below is the
path it replaced, kept as the oracle: both must return the same coordinates
or both raise NotInW0, on every generator of sigma_0, on seeded sums, and on
hand-built functions at the edges of the slot width.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import qaffine
from qaffine.acceptance import SWEEP
from qaffine.affine import build, component_class, parse_type_string
from qaffine.blocks import NotInW0, psi_lattice
from qaffine.invariants import (
    DecompositionUnavailable,
    SigmaFunction,
    _as_gens,
    _key,
    dual_shift,
    e_of,
    s_func,
)
from qaffine.qcartan import default_qdatum
from qaffine.qdata import lattice_table, phi_q, root_coords, simple_root_points
from qaffine.scalars import ONE, InvariantViolation, SpectralScalar
from test_blocks import LADDER, _census, _seeded_module


def _dict_psi_lattice(d, q, f):
    """The replaced check: re-expand sum c_i s_{phi_Q(alpha_i)} into a dict and compare it with f."""
    pts, table = simple_root_points(q, d), root_coords(q, d)
    coords = [0] * len(pts)
    for p, c in _as_gens(f):
        d.check_node(p.node)
        beta = table.get(_key(d, p.node, *p.param))
        if beta:
            coords = [a + c * b for a, b in zip(coords, beta)]
    check = {}
    for p, c in zip(pts, coords):
        if c:
            g = s_func(d, p)
            for k, v in zip(g.keys, g.vals):
                check[k] = check.get(k, 0) + c * v
    if {k: v for k, v in check.items() if v} != dict(zip(f.keys, f.vals)):
        raise NotInW0("re-expansion of the solved coordinates does not reproduce the function")
    return tuple(coords)


def _outcome(check, d, q, f):
    try:
        return check(d, q, f)
    except NotInW0:
        return NotInW0


def _agree(d, q, f):
    """Both checks' outcome on f, which must be the same."""
    want = _outcome(_dict_psi_lattice, d, q, f)
    assert _outcome(psi_lattice, d, q, f) == want, (str(d), f)
    return want


def _with(f, changes):
    """f with the values at some keys replaced (0 drops the key); gens unchanged."""
    values = {**dict(zip(f.keys, f.vals)), **changes}
    keys = tuple(sorted(k for k, v in values.items() if v))
    return SigmaFunction(keys, tuple(values[k] for k in keys), f.gens)


def _scaled(f, c):
    return SigmaFunction(f.keys, tuple(c * v for v in f.vals), tuple((p, c * m) for p, m in f.gens))


def _off_sigma_0(d):
    """The key of a point outside sigma_0 (another component), so in no slot."""
    for e in range(1, 6):
        x = SpectralScalar(0, e)
        if component_class(d, 1, x) != ONE:
            return _key(d, 1, *x)
    raise AssertionError(f"no point off sigma_0 found at {d}")


@pytest.mark.parametrize("s", [*SWEEP, *LADDER])
def test_packed_check_matches_the_dict_oracle_on_sigma_0(s):
    # every generator of sigma_0, and each with one value moved by +-1 or a
    # key added off sigma_0
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    rng = random.Random(s)
    off = _off_sigma_0(d)
    for p in _census(d, q):
        f = s_func(d, p)
        assert _agree(d, q, f) is not NotInW0, (s, str(p))
        if rng.random() < 0.25:
            k = rng.choice(f.keys)
            value = dict(zip(f.keys, f.vals))[k]
            for step in (1, -1):
                assert _agree(d, q, _with(f, {k: value + step})) is NotInW0, (s, str(p), step)
            assert _agree(d, q, _with(f, {off: 1})) is NotInW0, (s, str(p))


def test_packed_check_matches_the_dict_oracle_on_seeded_sums():
    rng = random.Random(20261026)
    outcomes = {"coords": 0, "NotInW0": 0}
    for s in SWEEP:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        census = _census(d, q)
        translates = [ONE, SpectralScalar(rng.randrange(24), rng.randrange(1, 6))]
        for _ in range(15):
            f = e_of(d, _seeded_module(rng, d, census, translates))
            outcomes["NotInW0" if _agree(d, q, f) is NotInW0 else "coords"] += 1
    assert min(outcomes.values()) > 10, outcomes


def _simple_function(s="D5-1", i=0):
    d = build(parse_type_string(s))
    q = default_qdatum(d)
    return d, q, s_func(d, simple_root_points(q, d)[i])


def _combination(d, gens):
    """sum c * s_p over gens (p, c), built directly from the s-functions, with those gens."""
    values = {}
    for p, c in gens:
        g = s_func(d, p)
        for k, v in zip(g.keys, g.vals):
            values[k] = values.get(k, 0) + c * v
    keys = tuple(sorted(k for k, v in values.items() if v))
    return SigmaFunction(keys, tuple(values[k] for k in keys), tuple(gens))


PEAKS = [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1, 2**63, 10**30 + 1]


@pytest.mark.parametrize("m", PEAKS)
def test_slot_values_at_a_width_boundary(m):
    # a lattice function whose largest |value| is exactly m, at the edge of a
    # 16-, 32- or 64-bit slot or past all three: m/2 s_1, or (m - 1)/2 s_1 - s_2
    d, q, _ = _simple_function()
    p1, p2 = simple_root_points(q, d)[:2]
    f = _combination(d, ((p1, m // 2), (p2, -1)) if m % 2 else ((p1, m // 2),))
    assert max(map(abs, f.vals)) == m
    assert _agree(d, q, f) == (m // 2, -(m % 2), 0, 0, 0)
    k = max(f.keys, key=lambda k: abs(dict(zip(f.keys, f.vals))[k]))
    for step in (1, -1):
        assert _agree(d, q, _with(f, {k: dict(zip(f.keys, f.vals))[k] + step})) is NotInW0
    # and a function outside W0 with the value +-m at one key of sigma_0
    for value in (m, -m):
        assert _agree(d, q, SigmaFunction((k,), (value,), ())) is NotInW0
        assert _agree(d, q, SigmaFunction((k,), (value,), ((p1, m // 2),))) is NotInW0


def test_multiplicities_near_10_to_the_30_force_wider_slots():
    d, q, _ = _simple_function("E6-1")
    pts = simple_root_points(q, d)
    big = _combination(d, ((pts[0], 10**30), (pts[1], -(10**30) + 7), (pts[2], 3)))
    assert max(map(abs, big.vals)) > 2**64
    assert _agree(d, q, big) == (10**30, -(10**30) + 7, 3, 0, 0, 0)
    k, value = big.keys[0], big.vals[0]
    for change in (1, -1, 2**64, -(2**64)):
        assert _agree(d, q, _with(big, {k: value + change})) is NotInW0
    # a width cached by one call serves the next call of that width
    assert _agree(d, q, _combination(d, ((pts[3], 10**30),))) == (0, 0, 0, 10**30, 0, 0)


def _adjacent_slots(d, q, f):
    """A key of f and the key in the next slot."""
    slots = lattice_table(q, d).slots
    by_slot = {n: k for k, n in slots.items()}
    k = next(k for k in f.keys if slots[k] + 1 in by_slot)
    return k, by_slot[slots[k] + 1]


def test_neighbouring_plus_and_minus_one_slots():
    # +1/-1 next to each other, which an unsigned packing would borrow
    # across, and a pair that packs to 0 at 16 bits (+1 above, -2^16 below)
    d, q, f = _simple_function()
    assert _agree(d, q, f) == (1, 0, 0, 0, 0)
    lo, hi = _adjacent_slots(d, q, f)
    value = dict(zip(f.keys, f.vals))
    for a, b in ((1, -1), (-1, 1)):
        assert _agree(d, q, _with(f, {lo: value.get(lo, 0) + a, hi: value.get(hi, 0) + b})) is NotInW0
    assert _agree(d, q, _with(f, {lo: value.get(lo, 0) - 2**16, hi: value.get(hi, 0) + 1})) is NotInW0
    # and a lattice function whose neighbouring slots carry opposite signs
    pts = simple_root_points(q, d)
    assert _agree(d, q, _combination(d, ((pts[0], 1), (pts[1], -1)))) == (1, -1, 0, 0, 0)


def test_large_coordinates_widen_the_slots_of_a_small_function():
    # 2^16 s_1 packs at 16 bits to s_1 moved up one slot, a function with
    # values +-1 and +-2: the width must bound the coordinates' side too
    d, q, f = _simple_function()
    assert _agree(d, q, f) == (1, 0, 0, 0, 0)  # fills the slot map
    slots = lattice_table(q, d).slots
    by_slot = {n: k for k, n in slots.items()}
    moved = dict(sorted((by_slot[slots[k] + 1], v) for k, v in zip(f.keys, f.vals)))
    g = SigmaFunction(tuple(moved), tuple(moved.values()), ((f.gens[0][0], 2**16),))
    assert _agree(d, q, g) is NotInW0


def test_the_zero_function():
    d, q, _ = _simple_function()
    assert _agree(d, q, SigmaFunction((), (), ())) == (0, 0, 0, 0, 0)
    p = simple_root_points(q, d)[0]
    # a pair that cancels, and nonzero coordinates claimed for the zero function
    assert _agree(d, q, e_of(d, [p, dual_shift(d, p)])) == (0, 0, 0, 0, 0)
    assert _agree(d, q, SigmaFunction((), (), ((p, 1),))) is NotInW0


def test_a_function_without_generators_is_refused():
    d, q, f = _simple_function()
    raw = SigmaFunction(f.keys, f.vals)
    for check in (psi_lattice, _dict_psi_lattice):
        with pytest.raises(DecompositionUnavailable):
            check(d, q, raw)


def test_a_simple_root_key_without_a_slot_is_an_invariant_violation():
    d = build.__wrapped__(parse_type_string("A3-1"))  # fresh, so no other test sees the damage
    q = default_qdatum(d)
    p = phi_q(q, d, (1, 0, 0))
    f = s_func(d, p)
    assert psi_lattice(d, q, f) == (1, 0, 0)
    lattice = lattice_table(q, d)
    del lattice.slots[f.keys[0]]
    lattice.widths.clear()  # drop the packed s_i, so the next call packs s_1 again
    with pytest.raises(InvariantViolation, match="simple root 1"):
        psi_lattice(d, q, f)


def _run_child(code, *flags):
    src = str(Path(qaffine.__file__).parents[1])
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


GENERATOR_OUTSIDE_W0 = """
from qaffine.affine import AffineData, parse_type_string
from qaffine.blocks import block_label
from qaffine.invariants import _key
from qaffine.qcartan import default_qdatum
from qaffine.qdata import phi_q, root_coords
from qaffine.scalars import InvariantViolation
d = AffineData(parse_type_string("A3-1"))
q = default_qdatum(d)
p = phi_q(q, d, (1, 0, 0))
root_coords(q, d)[_key(d, p.node, *p.param)] = (0, 1, 0)
try:
    block_label(d, q, [p])
except InvariantViolation as exc:
    print(type(exc.__cause__).__name__, "not in W0" in str(exc))
"""


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_a_generator_outside_w0_is_an_invariant_violation_in_a_child(flags):
    # raised by a check, not an assert, so it survives python -O
    assert _run_child(GENERATOR_OUTSIDE_W0, *flags) == ["NotInW0", "True"]
