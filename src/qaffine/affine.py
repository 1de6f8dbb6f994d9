"""Static data for the fourteen affine families.

Everything downstream consumes only I_0-level data: the index set, the
identification exponents m_i, the duality shift p*, the involution i -> i*,
the finite simply-laced type of the associated root system, and the graph
distance on the Dynkin diagram of g_0.  The affine node 0 is never
materialized.

`AffineData(t)` computes them once from the family's `FamilySpec`, and
`build` shares one instance per type.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

from .roots import diagram_adj, graph_distance, root_system
from .scalars import (
    MINUS_ONE,
    MINUS_Q,
    MINUS_QS,
    MINUS_QT,
    OMEGA,
    ONE,
    I_UNIT,
    Q,
    QS,
    Frozen,
    InvariantViolation,
    QAffineError,
    SpectralScalar,
    scalar,
)


class RankOutOfRange(QAffineError):
    """Rank parameter outside the family's legal range."""


class NodeOutOfRange(QAffineError):
    """Node index outside I_0."""


# the largest rank of the associated finite type that `build` accepts; it
# bounds work that grows as about rank^4 (B_n^{(1)} and A_{2n}^{(2)} have
# a finite type of about twice their own rank)
MAX_GFIN_RANK = 64


class Family(str, Enum):
    A1 = "A1"
    B1 = "B1"
    C1 = "C1"
    D1 = "D1"
    E6_1 = "E6_1"
    E7_1 = "E7_1"
    E8_1 = "E8_1"
    F4_1 = "F4_1"
    G2_1 = "G2_1"
    A2_EVEN = "A2_even"
    A2_ODD = "A2_odd"
    D2 = "D2"
    E6_2 = "E6_2"
    D4_3 = "D4_3"


def _mq(k: int) -> SpectralScalar:
    return MINUS_Q ** k


def _simply_laced_base(n: int, i: int, dd) -> SpectralScalar:
    return _mq(dd(1, i))


class FamilySpec(NamedTuple):
    """The facts that define one affine family; everything else is derived.

    The type string prints as `<letter><num_scale * n + num_offset>-<twist>`.
    An untwisted family names its finite type `gfin(n) = (letter, rank)`; a
    twisted one names its untwisted partner `partner(n) = (family, rank)`
    and shares the partner's finite type.

    An untwisted family also fixes its default Q-datum on that finite type:
    the automorphism `rho(n)` (moved nodes only) and the height function
    `xi(n)`, which for A, D and E comes from the diagram instead (see
    `qcartan.default_qdatum`).  Its labelling epsilon sends the cell (i, p)
    to the node pi(i), renumbered by `relabel`, and the scalar
    (-1)^eps_sign(n, pi(i)) eps_base^p.  A twisted family folds its
    partner's sigma_0 into its own: `fold(n, i) = (node, factor)` sends the
    point (i, a) to (node, factor * a); an untwisted family's fold is the
    identity.  `AffineData` tables the fold and its inverse.
    """

    letter: str
    twist: int
    rank: int  # the least rank, or the only one when `fixed`
    pstar: Callable[[int], SpectralScalar]
    k0: tuple[int, int, int]
    sigma0_base: Callable[[int, int, Callable[[int, int], int]], SpectralScalar]
    fixed: bool = False
    num_scale: int = 1
    num_offset: int = 0
    m: Callable[[int, int], int] = lambda n, i: 1
    gfin: Callable[[int], tuple[str, int]] | None = None
    partner: Callable[[int], tuple["Family", int]] | None = None
    rho: Callable[[int], dict[int, int]] = lambda n: {}
    xi: Callable[[int], dict[int, int]] | None = None
    relabel: dict[int, int] | None = None
    eps_base: SpectralScalar = MINUS_Q
    eps_sign: Callable[[int, int], int] = lambda n, i: 0
    fold: Callable[[int, int], tuple[int, SpectralScalar]] = lambda n, i: (i, ONE)


# generators of the stabilizer of sigma_Z, as (e_step, phase_step, phase_mod)
_K0_Q2 = (12, 0, 0)  # <q^2>
_K0_Q = (6, 0, 0)  # <q>
_K0_QT2 = (4, 0, 0)  # <q_t^2>
_K0_MINUS_Q = (6, 12, 0)  # <-q>
_K0_SIGN_Q2 = (12, 0, 12)  # <-1, q^2>
_K0_OMEGA_Q2 = (12, 0, 8)  # <omega, q^2>

_E62_FOLD = {1: (1, ONE), 2: (4, I_UNIT), 3: (2, ONE), 4: (3, I_UNIT), 5: (2, MINUS_ONE), 6: (1, MINUS_ONE)}
_D43_FOLD = {1: (1, ONE), 2: (2, ONE), 3: (1, OMEGA), 4: (1, OMEGA * OMEGA)}

_SPECS: dict[Family, FamilySpec] = {
    Family.A1: FamilySpec(
        "A", 1, 1, lambda n: _mq(n + 1), _K0_Q2, _simply_laced_base,
        gfin=lambda n: ("A", n),
    ),
    Family.B1: FamilySpec(
        "B", 1, 2, lambda n: scalar(0, 2 * n - 1), _K0_Q,
        lambda n, i, dd: ONE if i == n else (MINUS_ONE ** (n + i)) * QS,
        gfin=lambda n: ("A", 2 * n - 1),
        rho=lambda n: {k: 2 * n - k for k in range(1, 2 * n)},
        xi=lambda n: {i: 2 * n - 2 * i - 1 if i < n else 2 * i - 2 * n - 3 if i > n else 0
                      for i in range(1, 2 * n)},
        eps_base=QS, eps_sign=lambda n, i: n + i,
    ),
    Family.C1: FamilySpec(
        "C", 1, 3, lambda n: scalar(0, n + 1), _K0_Q,
        lambda n, i, dd: MINUS_QS ** (i - 1),
        gfin=lambda n: ("D", n + 1),
        rho=lambda n: {n: n + 1, n + 1: n},
        xi=lambda n: {i: 1 - i if i <= n else -n - 1 for i in range(1, n + 2)},
        eps_base=MINUS_QS,
    ),
    Family.D1: FamilySpec(
        "D", 1, 4, lambda n: scalar(0, 2 * n - 2), _K0_Q2, _simply_laced_base,
        gfin=lambda n: ("D", n),
    ),
    Family.E6_1: FamilySpec(
        "E", 1, 6, lambda n: scalar(0, 12), _K0_Q2, _simply_laced_base,
        fixed=True, gfin=lambda n: ("E", 6),
    ),
    Family.E7_1: FamilySpec(
        "E", 1, 7, lambda n: scalar(0, 18), _K0_Q2, _simply_laced_base,
        fixed=True, gfin=lambda n: ("E", 7),
    ),
    Family.E8_1: FamilySpec(
        "E", 1, 8, lambda n: scalar(0, 30), _K0_Q2, _simply_laced_base,
        fixed=True, gfin=lambda n: ("E", 8),
    ),
    Family.F4_1: FamilySpec(
        "F", 1, 4, lambda n: scalar(0, 9), _K0_Q,
        lambda n, i, dd: (MINUS_ONE ** i) * (QS ** (-1 if i == 3 else 0)),
        fixed=True, gfin=lambda n: ("E", 6),
        rho=lambda n: {1: 6, 6: 1, 3: 5, 5: 3},
        xi=lambda n: {1: 0, 2: -2, 3: -2, 4: -3, 5: -4, 6: -2},
        relabel={1: 1, 3: 2, 4: 3, 2: 4}, eps_base=QS, eps_sign=lambda n, i: i,
    ),
    Family.G2_1: FamilySpec(
        "G", 1, 2, lambda n: scalar(0, 4), _K0_QT2,
        lambda n, i, dd: MINUS_QT ** dd(2, i),
        fixed=True, gfin=lambda n: ("D", 4),
        rho=lambda n: {1: 3, 3: 4, 4: 1},
        xi=lambda n: {1: -1, 2: 0, 3: -3, 4: -5},
        eps_base=MINUS_QT,
    ),
    Family.A2_EVEN: FamilySpec(
        "A", 2, 1, lambda n: scalar(12, 2 * n + 1), _K0_MINUS_Q,
        lambda n, i, dd: ONE,
        num_scale=2, partner=lambda n: (Family.A1, 2 * n),
        fold=lambda n, i: (i, ONE) if i <= n else (2 * n + 1 - i, ONE),
    ),
    Family.A2_ODD: FamilySpec(
        "A", 2, 2, lambda n: scalar(12, 2 * n), _K0_SIGN_Q2,
        lambda n, i, dd: _mq(i + 1),
        num_scale=2, num_offset=-1, m=lambda n, i: 2 if i == n else 1,
        partner=lambda n: (Family.A1, 2 * n - 1),
        fold=lambda n, i: (i, ONE) if i <= n else (2 * n - i, MINUS_ONE),
    ),
    Family.D2: FamilySpec(
        "D", 2, 3, lambda n: scalar(12 * (n + 1), 2 * n), _K0_SIGN_Q2,
        lambda n, i, dd: _mq(i + 1) if i == n else (I_UNIT ** (n + 1 - i)) * _mq(i + 1),
        num_offset=1, m=lambda n, i: 1 if i == n else 2,
        partner=lambda n: (Family.D1, n + 1),
        fold=lambda n, i: (i, I_UNIT ** (n + 1 - i)) if i < n else (n, MINUS_ONE ** i),
    ),
    Family.E6_2: FamilySpec(
        "E", 2, 4, lambda n: scalar(12, 12), _K0_SIGN_Q2,
        lambda n, i, dd: Q ** (i + 1) if i in (1, 2) else I_UNIT * _mq(i + 1),
        fixed=True, num_offset=2, m=lambda n, i: 1 if i <= 2 else 2,
        partner=lambda n: (Family.E6_1, 6), fold=lambda n, i: _E62_FOLD[i],
    ),
    Family.D4_3: FamilySpec(
        "D", 3, 2, lambda n: scalar(0, 6), _K0_OMEGA_Q2,
        lambda n, i, dd: ONE if i == 1 else MINUS_Q,
        fixed=True, num_offset=2, m=lambda n, i: 1 if i == 1 else 3,
        partner=lambda n: (Family.D1, 4), fold=lambda n, i: _D43_FOLD[i],
    ),
}


class AffineType(Frozen):
    """One affine family at rank n; an out-of-range rank raises RankOutOfRange."""

    __slots__ = ("family", "n")

    def __init__(self, family: Family, n: int):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        spec = self.spec
        if spec.fixed and self.n != spec.rank:
            raise RankOutOfRange(f"{self.family.value} has fixed rank {spec.rank}")
        if self.n < spec.rank:
            raise RankOutOfRange(f"{self.family.value} needs n >= {spec.rank}, got {self.n}")
        if self.gfin_type[1] > MAX_GFIN_RANK:
            raise RankOutOfRange(
                f"{self} has a finite type of rank {self.gfin_type[1]}, above the cap {MAX_GFIN_RANK}"
            )

    @property
    def spec(self) -> FamilySpec:
        return _SPECS[self.family]

    @property
    def gfin_type(self) -> tuple[str, int]:
        """(letter, rank) of the associated finite simply-laced type."""
        spec = self.spec
        if spec.partner is None:
            return spec.gfin(self.n)
        family, n = spec.partner(self.n)
        return _SPECS[family].gfin(n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineType):
            return NotImplemented
        return self.family is other.family and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.family, self.n))

    def __str__(self) -> str:
        return format_type_string(self)


_TYPE_RE = re.compile(r"^([A-G])([0-9]+)-([123])$")


def parse_type_string(text: str) -> AffineType:
    """Parse `<family><N>-<twist>`, e.g. A5-1, B3-1, D5-2, A4-2, E6-2, D4-3."""
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise RankOutOfRange(f"malformed type string {text!r}")
    letter, digits, twist = m.group(1), m.group(2), int(m.group(3))
    try:
        num = int(digits)
    except ValueError:  # past the interpreter's int-string limit
        raise RankOutOfRange(f"rank of {letter}<{len(digits)} digits>-{twist} is too long") from None
    for family, spec in _SPECS.items():
        n, rest = divmod(num - spec.num_offset, spec.num_scale)
        if (spec.letter, spec.twist, rest) == (letter, twist, 0) and (not spec.fixed or n == spec.rank):
            return AffineType(family, n)
    raise RankOutOfRange(f"unknown affine type {text!r}")


def format_type_string(t: AffineType) -> str:
    spec = t.spec
    return f"{spec.letter}{spec.num_scale * t.n + spec.num_offset}-{spec.twist}"


class AffineData:
    """All I_0-level constants of one affine family at one rank, computed from its spec.

    A simply-laced family takes i* and the diagram of g_0 from its finite
    type; every other family has i* = id and the chain A_n for g_0.  `build`
    shares one instance per type, and instances are treated as immutable;
    the private dicts are append-only memo caches (single-writer
    initialization).  They compare and hash by identity: Q-data key their
    lattice tables by them.
    """

    __slots__ = ("type", "family", "n", "i0", "twisted", "m", "pstar", "ptilde", "istar", "gfin", "hvee",
                 "g0_adj", "k0", "sigma0_base", "simply_laced", "phase_mod", "period", "fold", "preimages",
                 "_denom_cache", "_template_cache", "_sfunc_cache")

    def __init__(self, t: AffineType):
        spec, n = t.spec, t.n
        self.type, self.family, self.n, self.i0 = t, t.family, n, tuple(range(1, n + 1))
        self.gfin = gfin = root_system(*t.gfin_type)
        self.twisted = spec.twist > 1
        # untwisted, with the family's own Dynkin type as the finite type (A, D, E)
        self.simply_laced = not self.twisted and gfin.letter == spec.letter
        self.g0_adj = gfin.adj if self.simply_laced else diagram_adj("A", n)
        self.istar = {i: gfin.istar(i) if self.simply_laced else i for i in self.i0}
        self.m = {i: spec.m(n, i) for i in self.i0}
        self.pstar = spec.pstar(n)
        if self.pstar.e % 6:
            raise InvariantViolation(f"p* = {self.pstar} of {t} is not an integral power of q")
        self.ptilde, self.hvee = self.pstar * self.pstar, self.pstar.e // 6
        # the moduli of `invariants._key`: phase mod 24/m_j (sigma-equivalence), e mod 12 hvee (ptilde)
        self.phase_mod = {i: 24 // self.m[i] for i in self.i0}
        self.period = 12 * self.hvee
        # stabilizer subgroup of sigma_Z, as reduction data (e_step, phase_step, phase_mod) on
        # the scalar's (phase, e): generator (phase_step, e_step) plus an optional pure-phase one
        self.k0 = spec.k0
        self.sigma0_base = {i: spec.sigma0_base(n, i, self.dd) for i in self.i0}
        # the fold of the partner's sigma_0 into sigma(g), partner node a -> (node, f_a)
        # (the identity when untwisted), and its inverse node -> [(a, f_a)] in order of a
        self.fold = {a: spec.fold(n, a) for a in range(1, gfin.rank + 1)}
        self.preimages: dict[int, list[tuple[int, SpectralScalar]]] = {}
        for a, (node, f) in self.fold.items():
            self.preimages.setdefault(node, []).append((a, f))
        # memo caches; `_template_cache` maps a node to its lambda_inf template, keyed by
        # int `_key`s, and its runs, from which `s_func` slices its keys (see `invariants`)
        self._denom_cache, self._template_cache, self._sfunc_cache = {}, {}, {}

    def dd(self, i: int, j: int) -> int:
        return graph_distance(self.g0_adj, i, j)

    def check_node(self, i: int) -> None:
        if not 1 <= i <= len(self.i0):
            raise NodeOutOfRange(f"node {i} outside I0 of {self.type}")

    def __str__(self) -> str:
        return format_type_string(self.type)


# the shared `AffineData` of a type; `build.__wrapped__(t)` makes a fresh, unshared one
build = lru_cache(maxsize=None)(AffineData)


def untwisted_partner(d: AffineData) -> AffineData:
    """The untwisted family whose Q-data drive the twisted sigma_Q."""
    partner = d.type.spec.partner
    return d if partner is None else build(AffineType(*partner(d.n)))


def canonical_param(d: AffineData, i: int, x: SpectralScalar) -> SpectralScalar:
    """Reduce the phase mod 24/m_i: (i, x) ~ (i, y), i.e. x^{m_i} = y^{m_i}, iff the results agree."""
    return SpectralScalar(x.phase % d.phase_mod[i], x.e)


def component_class(d: AffineData, i: int, x: SpectralScalar) -> SpectralScalar:
    """Canonical translation datum of the sigma_Z-translate containing (i, x).

    Two points lie in the same connected component of sigma(g) iff their
    classes coincide; the class of sigma_Z itself is the scalar 1.
    """
    d.check_node(i)
    c = x / d.sigma0_base[i]
    e_step, phase_step, phase_mod = d.k0
    k, e_red = divmod(c.e, e_step)
    phase = (c.phase - k * phase_step) % 24
    if phase_mod:
        phase %= phase_mod
    return SpectralScalar(phase, e_red)
