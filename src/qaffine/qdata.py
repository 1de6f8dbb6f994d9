"""The spectral side of Q-data: the labeling epsilon, the folding twist,
phi_Q and the per-Q-datum lattice tables.

The Q-datum itself and psi_Q live in `qcartan`, whose ADE rows also give
the inverse quantum Cartan matrix, ctilde_{i,j}(k) = (-1)^m beta_j for
(beta, m) = psi_Q(i, xi_j + 1 - k).  For an untwisted family phi_Q(beta) is
epsilon of psi_Q^{-1}(beta, 0); the twisted families reuse the Q-datum of
their untwisted partner and post-compose the parameter bijection with the
star/dagger folding map.  Epsilon and the fold are read from the family's
`affine.FamilySpec`; the explicit sigma_Q windows they are checked against
are golden data of `acceptance`.  phi_Q, read off the rows of the window
I_Q in ints (one offset per node, then eps_base^p per cell), and all else
a pair (q, d) computes is kept once in its `Lattice`, whose maker refuses
a q unfit for d, for every reader here, `phi_q` too.
"""

from __future__ import annotations

from itertools import islice
from weakref import WeakKeyDictionary

from .affine import AffineData, untwisted_partner
from .invariants import SigmaPoint, _key, dual_shift
from .qcartan import InvalidQDatum, QDatum, _row, _window, default_qdatum
from .roots import Vec
from .scalars import MINUS_ONE, InvariantViolation, QAffineError, SpectralScalar


class NotAPositiveRoot(QAffineError):
    """A vector outside the positive roots of the finite root system."""


def esig(q: QDatum, i: int, p: int) -> tuple[int, SpectralScalar]:
    """The labeling (i, p) -> (pi(i), signed q-power) of the base untwisted family."""
    spec, node = q.base.type.spec, q.pi[i]
    return node, MINUS_ONE ** spec.eps_sign(q.base.n, node) * spec.eps_base ** p


def twist(d: AffineData, node: int, a: SpectralScalar) -> tuple[int, SpectralScalar]:
    """The folding map (star, or dagger for D4-3) from the untwisted partner's sigma_0 into sigma(d).

    It is the identity when d is untwisted.
    """
    node, factor = d.fold[node]
    return node, factor * a


class Lattice:
    """The lattice table of q for d; each part is filled by its reader, and none refers to q or d (the weak key).

    phi is `phi_q_map` (all that `gram` and `delta0` build), coords and slots
    `root_coords`; the rest is `blocks`': home the component class of sigma_Q,
    memo maps the `_key` of a generator to its coordinates, peaks a simple root
    i (from 0) to max |s_{phi_Q(alpha_i)}|, and widths a slot size in bytes to
    its bias template, its pack, and the packed s_{phi_Q(alpha_i)} at that size.
    """

    __slots__ = ("phi", "home", "coords", "slots", "memo", "peaks", "widths")

    def __init__(self):
        self.phi, self.home, self.coords, self.slots, self.memo, self.peaks, self.widths = {}, None, {}, {}, {}, {}, {}


def lattice_table(q: QDatum, d: AffineData) -> Lattice:
    """q's `Lattice` for d, kept on d weakly keyed by q; InvalidQDatum if q is not of d's untwisted partner."""
    if d._lattice is None:
        d._lattice = WeakKeyDictionary()
    table = d._lattice.get(q)
    if table is None:
        if q.base.type != untwisted_partner(d).type:
            raise InvalidQDatum(f"a Q-datum of {q.base} does not fit {d}")
        table = d._lattice[q] = Lattice()
    return table


def phi_q_map(q: QDatum, d: AffineData) -> dict[Vec, SigmaPoint]:
    """phi_Q over the positive roots in their order (simple roots first), tabled once (shared: do not change it);
    the cell (i, p) of (beta, 0) is epsilon(i, p) folded into sigma(d): `twist` of `esig` at p = 0, times eps_base^p."""
    phi = lattice_table(q, d).phi
    if not phi:
        (bph, be), cells, points = q.base.type.spec.eps_base, 0, {}
        for i in range(1, q.rs.rank + 1):
            node, (phase, e) = twist(d, *esig(q, i, 0))
            d.check_node(node)
            mod, row = d.phase_mod[node], _row(q, i)
            for p, (beta, _) in zip(_window(q, i), row):
                points[beta] = SigmaPoint(node, SpectralScalar((phase + p * bph) % mod, e + p * be))
            cells += len(row)
        # `_row` makes every cell a positive root, so the counts decide that each is met once
        if not cells == len(points) == len(q.rs.positive_roots):
            raise InvariantViolation(f"the window I_Q of {q.base} holds {len(points)} distinct roots in"
                                     f" {cells} cells, not the {len(q.rs.positive_roots)} positive roots")
        phi.update({beta: points[beta] for beta in q.rs.positive_roots})
    return phi


def phi_q(q: QDatum, d: AffineData, beta: Vec) -> SigmaPoint:
    """phi_Q(beta), looked up in `phi_q_map`; so, like every reader of the lattice table, it refuses a q unfit for d."""
    point = phi_q_map(q, d).get(tuple(beta))
    if point is None:
        raise NotAPositiveRoot(f"{beta} is not a positive root of {q.rs.type_name}")
    return point


def root_coords(q: QDatum, d: AffineData) -> dict[int, Vec]:
    """The `_key` of phi_Q(beta) -> beta and of its dual translate -> -beta, over Delta+; each key gets its slot.

    The 2 |Delta+| keys are sigma_0 modulo the ptilde-shift (see `blocks`).
    """
    lattice = lattice_table(q, d)
    coords, slots = lattice.coords, lattice.slots
    if not coords:
        for beta, point in phi_q_map(q, d).items():
            for p, root in ((point, beta), (dual_shift(d, point), tuple(-c for c in beta))):
                key = _key(d, p.node, *p.param)
                coords[key], slots[key] = root, len(slots)
    return coords


def simple_root_points(q: QDatum, d: AffineData) -> tuple[SigmaPoint, ...]:
    """phi_Q on the simple roots in node order: the first rank values of `phi_q_map` (see `positive_roots`)."""
    return tuple(islice(phi_q_map(q, d).values(), q.rs.rank))


def sigma_q_points(d: AffineData, q: QDatum | None = None) -> frozenset[SigmaPoint]:
    """The image of phi_Q over the positive roots."""
    q = q or default_qdatum(d)
    return frozenset(phi_q_map(q, d).values())


def translate_star(d: AffineData, points, k: int) -> frozenset[SigmaPoint]:
    """The k-th dual translate sigma_Q^{*k}."""
    return frozenset(dual_shift(d, p, k) for p in points)
