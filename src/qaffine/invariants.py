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

lambda_inf((i,a), (j,b)) is s_{i,a}(j, b), and both rest on one table per
node, its template.  de((i,a),(j,b)) depends on b/a alone, so the dual-orbit
sum obeys the translation law

    lambda_inf((i, a), (j, b)) = lambda_inf((i, 1), (j, b/a)),

and by the periodicity above only b/a modulo ptilde matters (its phase only
modulo 24/m_j, the sigma-equivalence at j).  So `lambda_inf` reads s_{i,1} at
(j, b/a), and caches one function per node i whatever p1.  The template of
node i holds the nonzero lambda_inf((i, 1), c) over ptilde-representatives
c, keyed by the int `_key` of c = z24^phase * q^(e/6) at node j, the bit
fields ((j << 5 | phase) << 16) + e of phase mod 24/m_j and e mod 12*hvee;
`_point` decodes it.  Both moduli are fields of AffineData, computed once:
`phase_mod[j]` = 24/m_j and `period` = 12*hvee.  The phase is below 2^5 and e
below 2^16 (12*hvee is at most 1,512 at the rank cap), so int order is
(node, phase, e) order.

The template is a signed count of denominator roots (the scatter law):
summed over all k at once, the even terms D^{2l} put +m at c = x and the odd
terms put -m at c = x/p*, for x in {r, 1/r} and r a root of multiplicity m
of d_{i,j} (even) or d_{i,j*} (odd).  So summed, it is one formula for all
fourteen families (for ADE the roots are (-q)^{+-(k+1)} of multiplicity
ctilde_ij(k)): ctilde_ij(u - d_i) - ctilde_ij(u + d_i) at (j, eps_base^u),
1 <= u <= span = 12 hvee / e(eps_base), u = span kept at 0 (eps_base: the
labelling base of the family).  `_scatter` reads ctilde off the psi_Q rows
of the default Q-datum (Fujita-Oh 2021, see `qcartan`): with I the top of
i's rho-orbit and d = d_I, coordinate I of psi_Q(a, p), signed (-1)^m, is
ctilde_{i,pi(a)}(xi_I + d - p), so going down from p = xi_a it reads row a,
then -row a* (the Nakayama shift), and so on, for every row a of j's orbit,
as row a holds only every 2 d_a-th p.  The key of (j, u) has the offsets of
phi_Q: phase 12 (s_j - s_i) + u phase(eps_base), s = `eps_sign`, and e = u
e(eps_base), so (-q)^u for ADE.  ctilde_ij(u) vanishes on one parity of u
and eps_base has phase 0 or 12, so node j's entries share one phase and
are one group (phase, exponents, values), laid out straight from its list,
sorting no key.  A twisted template is built on its ADE partner's rows for
i0, any preimage of i, and folded group by group: the fold (j, x) ->
(node(j), x f_j / f_i0) moves the phase field alone, as the f_j are roots of
unity, so partner node j's group goes whole to node(j), at its phase shifted
by that of f_j / f_i0.  Every node's run is then its groups in phase order,
one for an untwisted node, one per preimage for a folded one.  The fold is
one-to-one exactly when no two groups land on one (node, phase); a clash
raises InvariantViolation, and so does a template whose value at (i, 1),
e = 0 of node i's phase-0 group, is not -2.
No template builds a denominator; criterion 4 of `acceptance` ties the B, C,
F and G tables to the rows.  No path sums a window or calls de; `lambda_`,
whose signs (-1)^{k + delta(k<0)} need k itself, scatters roots: a root x of
d_{i,j} (even k) or d_{i,j*} (odd k) hits D^k (j, b) exactly when x a is the
canonical parameter of D^k (j, b), whose q-power fixes k.  The explicit
orbit sum is the tests' oracle, and the scatter with one `_key` call per
root (`_old_scatter`) is the oracle of every template.

A SigmaFunction stores the same int keys: `keys` ascending with no key
twice, and `vals` the value at each.  `s_func` translates the template
into them, `e_of` and `value_at` work on the keys, and the packed check of
`blocks.psi_lattice` reads them, giving each key of sigma_0 one slot.
SigmaPoints are built only for output, by `SigmaFunction.values`, through
a bounded cache on `_point` so that equal keys share one point.  The
key order (node, phase, e) is the library order, numeric in the q-exponent,
so `values` is in that order too.  Users see the printed order of
`scalars.order_key`: the CLI sorts by it before printing.

`s_func` sorts nothing and builds no tuple per entry.  A template is kept
only as runs: per node j, its entries grouped by phase, each group
holding its exponents in ascending order with their values.
Translating by z24^phase * q^(e/6) adds a constant modulo 24/m_j to every
phase and a constant modulo 12 hvee to every exponent, so each sorted list
is only rotated: the members that pass the modulus move to the front, in
the same order.  Each group lists its exponents twice, first as f - 12 hvee
and then as f, and its values twice, so the rotated group is one slice
found by one bisect, and its keys are that slice plus one constant (the
node and phase fields and e).  The result is the sorted keys of the
translation law exactly (the sort it replaced is the tests' oracle).

A miss need not rotate at all.  By the duality identity s_{D p} = -s_p,
for D p = (i*, a p*), the two functions have the same keys and opposite
values.  So a miss on p first looks up D p and D^-1 p = (i*, a / p*) in the
cache, each point built from the ints of p, `istar`, p* and `phase_mod`;
`dual_shift` moves a point by the same ints, and `lambda_inf` reads its key
from the ints of p2 - p1, so neither multiplies scalars.
If one is cached, s_p is that function negated: it shares the partner's
`keys` tuple and allocates no key.  Only a miss with no cached partner
rotates the template.  On either path the result's `gens` are ((p, 1),),
so the pairing cannot tell them apart.  `delta0` walks sigma_Q and its
first dual translate, which hold p and D p for each positive root, so it
keeps one key tuple per pair.  The cache is keyed by the point as given,
so a partner is found when it was asked for with the canonical phase that
`sigma_point` gives.  It has no bound: it keeps one function per point ever
given to `s_func`.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress, cycle, islice
from operator import neg, sub
from typing import Iterable, NamedTuple, Union

from .affine import AffineData, canonical_param
from .denominators import denominator
from .qcartan import _row, default_qdatum
from .scalars import (
    ONE,
    Frozen,
    InvariantViolation,
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
    return SigmaPoint(node, param if 0 <= param.phase < d.phase_mod[node] else canonical_param(d, node, param))


def parse_sigma_point(d: AffineData, text: str) -> SigmaPoint:
    """Parse `i@<scalar>` (e.g. `3@(-q)^5`)."""
    head, sep, tail = text.partition("@")
    head = head.strip()
    if not sep or not (head.isascii() and head.isdigit()):
        raise ParseError("expected point of the form i@<scalar>", 0)
    return sigma_point(d, _int(head, 0), parse_scalar(tail.strip()))


def dual_shift(d: AffineData, p: SigmaPoint, k: int = 1) -> SigmaPoint:
    """The k-fold dual: (i, a) -> (i^{*k}, a * (p*)^k), in ints."""
    d.check_node(p.node)
    node = p.node if k % 2 == 0 else d.istar[p.node]
    (phase, e), (ps, pe) = p.param, d.pstar
    return SigmaPoint(node, SpectralScalar((phase + k * ps) % d.phase_mod[node], e + k * pe))


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
    """The point of a key; cached, for at most 2^16 keys, so that equal keys share one SigmaPoint."""
    return SigmaPoint(key >> 21, SpectralScalar(key >> 16 & 31, key & 0xFFFF))


# node j of a template: (j, 24/m_j, its phases, its groups (phase, size, exponents, values))
Run = tuple[int, int, list[int], list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]]


def _run(d: AffineData, j: int, groups: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]) -> Run:
    """Node j's run from its groups phase -> (exponents ascending, values), the one run format: each group
    lists its exponents twice, the first copy shifted down a period, so a rotation is one slice."""
    groups = [(ph, len(fs), tuple(map((-d.period).__add__, fs)) + fs, vs * 2)
              for ph, (fs, vs) in sorted(groups.items())]
    return j, d.phase_mod[j], [g[0] for g in groups], groups * 2


def _scatter(d: AffineData, i: int) -> list[Run]:
    """Build node i's template as runs off the psi_Q rows (see above), kept on d."""
    q = default_qdatum(d)  # the partner's Q-datum when d is twisted
    (i0, f0), spec, n = d.preimages[i][0], q.base.type.spec, q.base.n
    (bph, be), half, s0 = spec.eps_base, d.period // spec.eps_base.e // 2, spec.eps_sign(n, i0)
    top = q.orbit_top(next(a for a, j in q.pi.items() if j == i0))
    dt, x = q.d[top], q.xi[top] + q.d[top]  # the cell (a, p) carries ctilde_{i0,pi(a)}(x - p)
    # ct[j][m] = ctilde_{i0,j}(u) at u = 2 m + 2 - odd[j] - d, on the one parity of u where it may be nonzero
    ct, odd = {j: [0] * (half + dt) for j in q.base.i0}, {}
    for a in range(1, q.rs.rank + 1):  # row a, then -row a*, repeating, at u = x - xi_a + 2 d_a k
        u, step = x - q.xi[a], 2 * q.d[a]
        odd[q.pi[a]] = par = (u + dt) % 2
        cells = [b[top - 1] for b, _ in _row(q, a)] + [-b[top - 1] for b, _ in _row(q, q.rs.istar(a))]
        k = max(0, -((u - 1) // step))  # the first cell with u >= 1
        at = range((u + k * step + dt + par) // 2 - 1, half + dt, q.d[a])
        ct[q.pi[a]][at.start:at.stop:at.step] = islice(cycle(cells), k, k + len(at))
    laid = {node: {} for node in d.i0}  # node -> phase -> (exponents, values): one group per partner node j
    for j, c in ct.items():
        vals = list(map(sub, c, c[dt:]))  # at u = 2 m + 2 - odd[j], so u = span is last if odd[j] = 0
        vals = vals if odd[j] else vals[-1:] + vals[:-1]  # u = span is kept at 0
        node, f = d.fold[j]  # the fold moves j's group whole, shifting its phase alone
        phase = (12 * (spec.eps_sign(n, j) - s0) + odd[j] * bph + f.phase - f0.phase) % d.phase_mod[node]
        if phase in (groups := laid[node]):
            raise InvariantViolation(f"the fold of {d} is not one-to-one on node {i}'s template")
        groups[phase] = tuple(compress(range(odd[j] * be, d.period, 2 * be), vals)), tuple(filter(None, vals))
    if (0, -2) not in zip(*laid[i].get(0, ((), ()))):  # the value at (i, 1): e = 0 of node i's phase-0 group
        raise InvariantViolation(f"lambda_inf(({i}, 1), ({i}, 1)) is not -2 on {d}")
    runs = d._template_cache[i] = [_run(d, node, groups) for node, groups in laid.items()]
    return runs


def lambda_inf(d: AffineData, p1: SigmaPoint, p2: SigmaPoint) -> int:
    """Alternating dual-orbit sum sum_k (-1)^k de(M, D^k N): s_{p1} at p2, read as s_{(i, 1)} at p2 / p1 (in ints)."""
    (a, x), (b, y) = p1.param, p2.param
    return s_func(d, SigmaPoint(p1.node, ONE)).value_at(d, p2.node, SpectralScalar((b - a) % 24, y - x))


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
    equality and hashing read them; the hash is not kept, as no library path
    hashes a function twice.  `values` is the same function with each key
    turned into its (cached) SigmaPoint, for output.
    `gens` records how the function was assembled from s-generators; the
    bilinear pairing requires it, and it is None for raw functions.
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
    cache = d._sfunc_cache
    cached = cache.get(p)
    if cached is not None:
        return cached
    d.check_node(p.node)
    phase, e = p.param
    # a cached dual neighbour D p or D^-1 p = (i*, a (p*)^{+-1}) gives s_p by negation
    star, (ps, pe) = d.istar[p.node], d.pstar
    mod = d.phase_mod[star]
    partner = cache.get(SigmaPoint(star, SpectralScalar((phase + ps) % mod, e + pe)))
    if partner is None:
        partner = cache.get(SigmaPoint(star, SpectralScalar((phase - ps) % mod, e - pe)))
    if partner is not None:
        out = cache[p] = SigmaFunction(partner.keys, tuple(map(neg, partner.vals)), ((p, 1),))
        return out
    e %= d.period
    keys: list[int] = []
    vals: list[int] = []
    for j, mod, phases, groups in d._template_cache.get(p.node) or _scatter(d, p.node):
        s = phase % mod
        k = bisect_left(phases, mod - s)
        for ph, n, fs, vs in groups[k:k + len(phases)]:
            # the first copy holds f - 12 hvee (f + e past the period first); a key is f + `_key(d, j, ph + s, e)`
            t = bisect_left(fs, -e, 0, n)
            keys += map((((j << 5 | (ph + s) % mod) << 16) + e).__add__, fs[t:t + n])
            vals += vs[t:t + n]
    out = cache[p] = SigmaFunction(tuple(keys), tuple(vals), ((p, 1),))
    return out


def e_of(d: AffineData, weights: Iterable[SigmaPoint]) -> SigmaFunction:
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
