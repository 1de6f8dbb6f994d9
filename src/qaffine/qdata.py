"""The spectral side of Q-data: the labeling epsilon, the folding twist,
phi_Q and the per-Q-datum lattice tables.

The Q-datum itself and psi_Q live in `qcartan`, whose ADE rows also give
the inverse quantum Cartan matrix, ctilde_{i,j}(k) = (-1)^m beta_j for
(beta, m) = psi_Q(i, xi_j + 1 - k).  For an untwisted family phi_Q(beta) is
epsilon of psi_Q^{-1}(beta, 0); the twisted families reuse the Q-datum of
their untwisted partner and post-compose the parameter bijection with the
star/dagger folding map.  Epsilon and the fold are read from the family's
`affine.FamilySpec`; the explicit sigma_Q windows they are checked against
are golden data of `acceptance`.
"""

from __future__ import annotations

from .affine import AffineData
from .invariants import SigmaPoint, _key, dual_shift, sigma_point
from .qcartan import QDatum, default_qdatum, phi_inverse_zero
from .roots import Vec
from .scalars import MINUS_ONE, SpectralScalar


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


def phi_q(q: QDatum, d: AffineData, beta: Vec) -> SigmaPoint:
    """phi_Q(beta): epsilon of psi^{-1}(beta, 0), folded into sigma(d)."""
    cell = phi_inverse_zero(q).get(tuple(beta))
    if cell is None:
        raise ValueError(f"{beta} is not a positive root of {q.rs.type_name}")
    return sigma_point(d, *twist(d, *esig(q, *cell)))


def phi_q_map(q: QDatum, d: AffineData) -> dict[Vec, SigmaPoint]:
    return {beta: phi_q(q, d, beta) for beta in q.rs.positive_roots}


def lattice_table(q: QDatum, d: AffineData) -> tuple[tuple[SigmaPoint, ...], dict, dict[int, Vec]]:
    """q's lattice table for d: the simple-root points, a generator memo and `root_coords`.

    The memo maps the `_key` of a generator to its coordinates; `blocks` fills
    it.  The third part stays empty until `root_coords`, so `gram` never builds it.
    """
    table = q._lattice.get(d)
    if table is None:
        pts = tuple(phi_q(q, d, q.rs.simple_root(i)) for i in range(1, q.rs.rank + 1))
        table = q._lattice[d] = (pts, {}, {})
    return table


def root_coords(q: QDatum, d: AffineData) -> dict[int, Vec]:
    """The `_key` of phi_Q(beta) -> beta and of its dual translate -> -beta, over Delta+.

    The 2 |Delta+| keys are sigma_0 modulo the ptilde-shift (see `blocks`).
    """
    coords = lattice_table(q, d)[2]
    if not coords:
        for beta, p in phi_q_map(q, d).items():
            coords[_key(d, p.node, *p.param)] = beta
            p = dual_shift(d, p)
            coords[_key(d, p.node, *p.param)] = tuple(-c for c in beta)
    return coords


def simple_root_points(q: QDatum, d: AffineData) -> tuple[SigmaPoint, ...]:
    """phi_Q on the simple roots, in node order of the finite diagram (shared, so a tuple)."""
    return lattice_table(q, d)[0]


def sigma_q_points(d: AffineData, q: QDatum | None = None) -> frozenset[SigmaPoint]:
    """The image of phi_Q over the positive roots."""
    q = q or default_qdatum(d)
    return frozenset(phi_q_map(q, d).values())


def translate_star(d: AffineData, points, k: int) -> frozenset[SigmaPoint]:
    """The k-th dual translate sigma_Q^{*k}."""
    return frozenset(dual_shift(d, p, k) for p in points)
