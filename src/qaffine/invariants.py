"""The combinatorial R-matrix invariants between fundamental representations.

Everything reduces to zero orders of denominator polynomials: de counts
collisions between two (parameter-shifted) fundamental modules, and the
alternating sums of de over the dual orbit give the block invariants.  The
functions produced by `s_func` are the roots of the hidden simply-laced
root system.

A subtle point governs the whole module: applying the duality identity
s_{i,a} = -s_{i*, a p*} twice shows s_{i, a ptilde} = s_{i,a}, so these
functions are periodic along each component with period ptilde = (p*)^2
and are NOT finitely supported.  They are stored exactly by their values
on representatives modulo the ptilde-shift, which is a faithful finite
encoding for every Z-combination of s-generators.

lambda_inf is read from one table per node, its template.  de((i,a),(j,b))
depends on b/a alone, so the dual-orbit sum obeys the translation law

    lambda_inf((i, a), (j, b)) = lambda_inf((i, 1), (j, b/a)),

and by the periodicity above only b/a modulo ptilde matters (its phase
only modulo 24/m_j, the sigma-equivalence at j).  The template of node i
holds the nonzero lambda_inf((i, 1), c) over ptilde-representatives c,
keyed by the int `_key` of c = z24^phase * q^(e/6) at node j, the bit
fields ((j << 5 | phase) << 16) + e of phase mod 24/m_j and e mod 12*hvee;
`_point` decodes it.  Both moduli are fields of AffineData, computed
once: `phase_mod[j]` = 24/m_j and `period` = 12*hvee.  The phase is below
2^5 and e below 2^16 (12*hvee is at most 1,512 at the rank cap), so int
order is (node, phase, e) order.

The template is a signed count of denominator roots (the scatter law):
summed over all k at once, the even terms D^{2l} put +m at c = x and the
odd terms put -m at c = x/p*, for x in {r, 1/r} and r a root of
multiplicity m of d_{i,j} (even) or d_{i,j*} (odd).  Only canonical x
count (phase below 24/m_jj, jj the node of that denominator): de only
probes canonical parameters, so it never hits the other members of x's
sigma-class, and counting them overcounts twisted nodes with m > 1.
So the build sums no window and calls no de, and it computes the keys
inline: per node j it fixes the node field and the phase modulus once.
`lambda_`, whose signs (-1)^{k + delta(k<0)} need k itself, scatters too:
a root x of d_{i,j} (even k) or d_{i,j*} (odd k) hits D^k (j, b) exactly
when x a is the canonical parameter of D^k (j, b), whose q-power fixes k.
No window sum is left in the library; the explicit orbit sum that both
scatters replaced is the tests' oracle, and the scatter with one `_key`
call per root is the oracle of the inline keys.

A SigmaFunction stores the same int keys: `keys` ascending with no key
twice, and `vals` the value at each.  `s_func` translates the template
into them, and `e_of`,
the re-expansion check of `blocks.psi_lattice` and `value_at` all work on
the keys.  SigmaPoints are built only for output, by `SigmaFunction.values`,
through a bounded cache on `_point` so that equal keys share one point.  The
key order (node, phase, e) is the library order, numeric in the q-exponent,
so `values` is in that order too.  Users see the printed order of
`scalars.order_key`: the CLI sorts by it before printing.

`s_func` sorts nothing and builds no tuple per entry.  Next to its dict,
each template is kept as runs: per node j, its entries grouped by phase,
each group holding its exponents in ascending order with their values.
Translating by z24^phase * q^(e/6) adds a constant modulo 24/m_j to every
phase and a constant modulo 12 hvee to every exponent, so each sorted list
is only rotated: the members that pass the modulus move to the front, in
the same order.  Each group lists its exponents twice, first as f - 12 hvee
and then as f, and its values twice, so the rotated group is one slice
found by one bisect, and its keys are that slice plus one constant (the
node and phase fields and e).  The result is the sorted keys of the
translation law exactly (the sort it replaced is the tests' oracle).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import groupby
from typing import Iterable, NamedTuple, Union

from .affine import AffineData, canonical_param
from .denominators import denominator
from .scalars import (
    Frozen,
    ParseError,
    QAffineError,
    SpectralScalar,
    _int,
    parse_scalar,
    print_scalar,
)


class DecompositionUnavailable(QAffineError):
    """Pairing needs functions that carry their s-generator decomposition."""


class SigmaPoint(NamedTuple):
    """An equivalence class (i, a) in sigma(g), stored by canonical representative."""

    node: int
    param: SpectralScalar

    def __str__(self) -> str:
        return f"{self.node}@{print_scalar(self.param)}"


def sigma_point(d: AffineData, node: int, param: SpectralScalar) -> SigmaPoint:
    d.check_node(node)
    return SigmaPoint(node, canonical_param(d, node, param))


def parse_sigma_point(d: AffineData, text: str) -> SigmaPoint:
    """Parse `i@<scalar>` (e.g. `3@(-q)^5`)."""
    head, sep, tail = text.partition("@")
    head = head.strip()
    if not sep or not (head.isascii() and head.isdigit()):
        raise ParseError("expected point of the form i@<scalar>", 0)
    return sigma_point(d, _int(head, 0), parse_scalar(tail.strip()))


def dual_shift(d: AffineData, p: SigmaPoint, k: int = 1) -> SigmaPoint:
    """The k-fold dual: (i, a) -> (i^{*k}, a * (p*)^k)."""
    node = p.node if k % 2 == 0 else d.istar[p.node]
    return sigma_point(d, node, p.param * d.pstar ** k)


def de(d: AffineData, p1: SigmaPoint, p2: SigmaPoint) -> int:
    """Total zero order at z = 1 of d_{M,N}(z) d_{N,M}(1/z)."""
    ratio = p2.param / p1.param
    dmn = denominator(d, p1.node, p2.node)
    return dmn.mult(ratio) + dmn.mult(ratio.inv())


def _key(d: AffineData, j: int, phase: int, e: int) -> int:
    """Template key of (j, z24^phase * q^(e/6)), reduced mod sigma-equivalence and ptilde."""
    return ((j << 5 | phase % d.phase_mod[j]) << 16) + e % d.period


@lru_cache(maxsize=1 << 16)
def _point(key: int) -> SigmaPoint:
    """The point of a key; cached so that equal keys share one SigmaPoint."""
    return SigmaPoint(key >> 21, SpectralScalar(key >> 16 & 31, key & 0xFFFF))


# node j of a template: (j, 24/m_j, its phases, its groups (phase, size, exponents, values))
Run = tuple[int, int, list[int], list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]]


def _scatter(d: AffineData, i: int) -> tuple[dict[int, int], list[Run]]:
    """Build node i's template by the scatter law, and its runs; both are kept on d."""
    ps, pe = d.pstar
    period, phase_mod = d.period, d.phase_mod
    acc: dict[int, int] = {}
    for j in d.i0:
        node, mod = j << 21, phase_mod[j]
        for jj, sign, ph, e in ((j, 1, 0, 0), (d.istar[j], -1, ps, pe)):
            canon = phase_mod[jj]  # x is canonical at jj iff its phase is below this
            for (rph, re6), m in denominator(d, i, jj).mults:
                m *= sign
                # the key of x = r, then of x = 1/r
                if rph < canon:
                    key = node + ((rph - ph) % mod << 16) + (re6 - e) % period
                    acc[key] = acc.get(key, 0) + m
                if -rph % 24 < canon:
                    key = node + ((-rph - ph) % mod << 16) + (-re6 - e) % period
                    acc[key] = acc.get(key, 0) + m
    table = {k: v for k, v in acc.items() if v}
    keys = sorted(table)
    vals = tuple(map(table.__getitem__, keys))
    runs: list[Run] = []
    start = 0
    for j, node_keys in groupby(keys, (21).__rrshift__):
        groups = []
        for head, group in groupby(node_keys, (16).__rrshift__):  # head: the node and phase fields
            fs = tuple(map((0xFFFF).__and__, group))
            n = len(fs)
            # twice over, the first copy shifted down a period: a rotation is one slice
            groups.append((head & 31, n, tuple(map((-period).__add__, fs)) + fs, vals[start:start + n] * 2))
            start += n
        runs.append((j, phase_mod[j], [g[0] for g in groups], groups * 2))
    d._template_cache[i] = table, runs
    return table, runs


def _template(d: AffineData, i: int) -> dict[int, int]:
    """The nonzero lambda_inf((i, 1), c) by the scatter law, keyed by `_key` of c."""
    return (d._template_cache.get(i) or _scatter(d, i))[0]


def lambda_inf(d: AffineData, p1: SigmaPoint, p2: SigmaPoint) -> int:
    """Alternating dual-orbit sum sum_k (-1)^k de(M, D^k N), read from M's template."""
    d.check_node(p2.node)
    a, b = p1.param, p2.param
    return _template(d, p1.node).get(_key(d, p2.node, b.phase - a.phase, b.e - a.e), 0)


def lambda_(d: AffineData, p1: SigmaPoint, p2: SigmaPoint) -> int:
    """The invariant sum_k (-1)^{k + delta(k<0)} de(M, D^k N), by the scatter law (see above)."""
    d.check_node(p2.node)
    a, b = p1.param, p2.param
    total = 0
    for jj, parity in ((p2.node, 0), (d.istar[p2.node], 1)):
        for r, m in denominator(d, p1.node, jj):
            for x in (r, r.inv()):
                c = x * a
                k, rest = divmod(c.e - b.e, d.pstar.e)
                if not rest and k % 2 == parity and canonical_param(d, jj, b * d.pstar ** k) == c:
                    total += m if (k >= 0) == (k % 2 == 0) else -m
    return total


class SigmaFunction(Frozen):
    """A Z-valued function on sigma(g), periodic under the ptilde-shift.

    The storage is two flat tuples over the ptilde-orbit representatives
    where the function is nonzero (it is constant on each orbit): `keys`,
    their `_key`s ascending, each once, and `vals`, the value at each.
    Every constructor keeps this, so equal functions have equal tuples, and
    equality and hashing read them.  `values` is the same function with
    each key turned into its (cached) SigmaPoint, for output.  `gens`
    records how the function was assembled from s-generators; the bilinear
    pairing requires it, and it is None for raw functions.
    """

    __slots__ = ("keys", "vals", "gens")

    def __init__(self, keys: tuple[int, ...], vals: tuple[int, ...],
                 gens: tuple[tuple[SigmaPoint, int], ...] | None = None):
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "gens", gens)

    @property
    def values(self) -> tuple[tuple[SigmaPoint, int], ...]:
        return tuple(zip(map(_point, self.keys), self.vals))

    @property
    def is_zero(self) -> bool:
        return not self.keys

    def value_at(self, d: AffineData, node: int, param: SpectralScalar) -> int:
        d.check_node(node)
        key = _key(d, node, *param)
        t = bisect_left(self.keys, key)
        return self.vals[t] if t < len(self.keys) and self.keys[t] == key else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SigmaFunction):
            return NotImplemented
        return self.keys == other.keys and self.vals == other.vals

    def __hash__(self) -> int:
        return hash((self.keys, self.vals))

    def __neg__(self) -> "SigmaFunction":
        gens = None if self.gens is None else tuple((p, -c) for p, c in self.gens)
        return SigmaFunction(self.keys, tuple(-v for v in self.vals), gens)


def s_func(d: AffineData, p: SigmaPoint) -> SigmaFunction:
    """E(V(varpi_i)_a): the function (j, b) -> lambda_inf((i,a), (j,b))."""
    cached = d._sfunc_cache.get(p)
    if cached is not None:
        return cached
    phase, e = p.param
    e %= d.period
    keys: list[int] = []
    vals: list[int] = []
    for j, mod, phases, groups in (d._template_cache.get(p.node) or _scatter(d, p.node))[1]:
        s = phase % mod
        k = bisect_left(phases, mod - s)
        for ph, n, fs, vs in groups[k:k + len(phases)]:
            # the first copy holds f - 12 hvee: those with f + e past the period come first
            t = bisect_left(fs, -e, 0, n)
            keys += map(_key(d, j, ph + s, e).__add__, fs[t:t + n])
            vals += vs[t:t + n]
    out = SigmaFunction(tuple(keys), tuple(vals), ((p, 1),))
    d._sfunc_cache[p] = out
    return out


AffineWeightList = Iterable[SigmaPoint]


def e_of(d: AffineData, weights: AffineWeightList) -> SigmaFunction:
    """E of a module with the given affine weight: the sum of its s-functions."""
    total: dict[int, int] = {}
    gens: dict[SigmaPoint, int] = {}
    for p in weights:
        gens[p] = gens.get(p, 0) + 1
        f = s_func(d, p)
        for k, v in zip(f.keys, f.vals):
            total[k] = total.get(k, 0) + v
    keys = tuple(sorted(k for k, v in total.items() if v))
    return SigmaFunction(keys, tuple(map(total.__getitem__, keys)), tuple(sorted(gens.items())))


PairingArg = Union[SigmaPoint, SigmaFunction]


def _as_gens(x: PairingArg) -> tuple[tuple[SigmaPoint, int], ...]:
    if isinstance(x, SigmaPoint):
        return ((x, 1),)
    if x.gens is None:
        raise DecompositionUnavailable(
            "function has no s-generator decomposition; build it via s_func/e_of"
        )
    return x.gens


def pairing(d: AffineData, f: PairingArg, g: PairingArg) -> int:
    """The symmetric bilinear form with (s_{i,a}, s_{j,b}) = -lambda_inf."""
    total = 0
    for p, cp in _as_gens(f):
        for q, cq in _as_gens(g):
            total -= cp * cq * lambda_inf(d, p, q)
    return total
