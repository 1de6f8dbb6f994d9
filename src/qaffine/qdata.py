"""The spectral side of Q-data: the labeling epsilon, the star/dagger twists,
phi_Q, the explicit sigma_Q windows and the per-Q-datum lattice tables.

The Q-datum itself and psi_Q live in `qcartan`, whose ADE rows also give
the inverse quantum Cartan matrix, ctilde_{i,j}(k) = (-1)^m beta_j for
(beta, m) = psi_Q(i, xi_j + 1 - k).  For an untwisted family phi_Q(beta) is
epsilon of psi_Q^{-1}(beta, 0); the twisted families reuse the Q-datum of
their untwisted partner and post-compose the parameter bijection with the
star/dagger folding maps.
"""

from __future__ import annotations

from .affine import AffineData, Family, untwisted_partner
from .invariants import SigmaPoint, dual_shift, sigma_point
from .qcartan import QDatum, default_qdatum, phi_inverse_zero
from .roots import Vec
from .scalars import (
    I_UNIT,
    MINUS_ONE,
    MINUS_Q,
    MINUS_QS,
    MINUS_QT,
    OMEGA,
    QS,
    SpectralScalar,
    scalar,
)


def esig(q: QDatum, i: int, p: int) -> tuple[int, SpectralScalar]:
    """The labeling (i, p) -> (pi(i), signed q-power) of the base untwisted family."""
    fam = q.base.family
    if q.base.simply_laced:
        return i, MINUS_Q ** p
    if fam == Family.B1:
        sign = MINUS_ONE ** (i + q.base.n)
        return q.pi[i], sign * QS ** p
    if fam == Family.C1:
        return q.pi[i], MINUS_QS ** p
    if fam == Family.F4_1:
        node = q.pi[i]
        return node, (MINUS_ONE ** node) * QS ** p
    # G2
    return q.pi[i], MINUS_QT ** p


def twist_star(d: AffineData, node: int, a: SpectralScalar) -> tuple[int, SpectralScalar]:
    """The star map from the untwisted partner's sigma_0 into sigma(d)."""
    f, n = d.family, d.n
    if f in (Family.A2_EVEN, Family.A2_ODD):
        big = d.gfin.rank
        if node <= (big + 1) // 2:
            return node, a
        return big + 1 - node, (MINUS_ONE ** big) * a
    if f == Family.D2:
        if node <= n - 1:
            return node, (I_UNIT ** (n + 1 - node)) * a
        return n, (MINUS_ONE ** node) * a
    if f == Family.E6_2:
        table = {
            1: (1, scalar(0, 0)),
            3: (2, scalar(0, 0)),
            5: (2, MINUS_ONE),
            6: (1, MINUS_ONE),
            4: (3, I_UNIT),
            2: (4, I_UNIT),
        }
        tgt, mul = table[node]
        return tgt, mul * a
    raise ValueError(f"star twist undefined for {d}")


def twist_dagger(d: AffineData, node: int, a: SpectralScalar) -> tuple[int, SpectralScalar]:
    """The dagger map for D_4^{(3)}."""
    if d.family != Family.D4_3:
        raise ValueError(f"dagger twist undefined for {d}")
    if node == 2:
        return 2, a
    mul = {1: scalar(0, 0), 3: OMEGA, 4: OMEGA * OMEGA}[node]
    return 1, mul * a


def _apply_twist(d: AffineData, node: int, a: SpectralScalar) -> tuple[int, SpectralScalar]:
    if d.family == Family.D4_3:
        return twist_dagger(d, node, a)
    return twist_star(d, node, a)


def phi_q(q: QDatum, d: AffineData, beta: Vec) -> SigmaPoint:
    """phi_Q(beta): epsilon of psi^{-1}(beta, 0), twisted when d is twisted."""
    cell = phi_inverse_zero(q).get(tuple(beta))
    if cell is None:
        raise ValueError(f"{beta} is not a positive root of {q.rs.type_name}")
    node, val = esig(q, *cell)
    if d.twisted:
        node, val = _apply_twist(d, node, val)
    return sigma_point(d, node, val)


def phi_q_map(q: QDatum, d: AffineData) -> dict[Vec, SigmaPoint]:
    return {beta: phi_q(q, d, beta) for beta in q.rs.positive_roots}


def lattice_table(q: QDatum, d: AffineData) -> tuple[tuple[SigmaPoint, ...], dict]:
    """q's lattice table for d: the simple-root points and a generator memo.

    The memo maps the `_key` of a generator to its coordinates (or to the
    unsolved marker None); `blocks` fills it.  Both parts are built once
    per (q, d).
    """
    table = q._lattice.get(d)
    if table is None:
        pts = tuple(phi_q(q, d, q.rs.simple_root(i)) for i in range(1, q.rs.rank + 1))
        table = q._lattice[d] = (pts, {})
    return table


def simple_root_points(q: QDatum, d: AffineData) -> tuple[SigmaPoint, ...]:
    """phi_Q on the simple roots, in node order of the finite diagram (shared, so a tuple)."""
    return lattice_table(q, d)[0]


def _window(lo: int, hi: int, step: int) -> list[int]:
    """hi, hi - step, ... down to lo inclusive."""
    k = hi
    out = []
    while k >= lo:
        out.append(k)
        k -= step
    return out


def _untwisted_sigma_q_raw(d: AffineData) -> list[tuple[int, SpectralScalar]]:
    """The explicit sigma_Q window lists, family by family."""
    f, n = d.family, d.n
    pts: list[tuple[int, SpectralScalar]] = []
    if f == Family.A1:
        for i in d.i0:
            pts += [(i, MINUS_Q ** k) for k in _window(i - 2 * n + 1, -i + 1, 2)]
    elif f == Family.B1:
        for i in range(1, n):
            sign = MINUS_ONE ** (n + i)
            for k in _window(-2 * n - 2 * i + 3, 2 * n - 2 * i - 1, 2):
                pts.append((i, sign * QS ** k))
        pts += [(n, scalar(0, k)) for k in _window(-2 * n + 2, 0, 1)]
    elif f == Family.C1:
        for i in d.i0:
            dd = d.dd(1, i)
            pts += [(i, MINUS_QS ** k) for k in _window(-dd - 2 * n, -dd, 2)]
    elif f == Family.D1:
        for i in d.i0:
            dd = d.dd(1, i)
            pts += [(i, MINUS_Q ** k) for k in _window(-dd - 2 * n + 4, -dd, 2)]
    elif f in (Family.E6_1, Family.E7_1, Family.E8_1):
        spread = {Family.E6_1: None, Family.E7_1: 16, Family.E8_1: 28}[f]
        for i in d.i0:
            dd = d.dd(1, i)
            if f == Family.E6_1:
                lo, hi = dd - 14, -dd + 2 * (i == 2)
            else:
                hi = -dd + 2 * (i == 2)
                lo = hi - spread
            pts += [(i, MINUS_Q ** k) for k in _window(lo, hi, 2)]
    elif f == Family.F4_1:
        for i in d.i0:
            dd = d.dd(i, 3)
            half = int(i == 3)  # in units of q^(1/2)
            for k in _window(2 * dd - 20 + half, 2 * dd - 4 + half, 2):
                pts.append((i, (MINUS_ONE ** i) * QS ** k))
    elif f == Family.G2_1:
        for i in d.i0:
            dd = d.dd(2, i)
            pts += [(i, MINUS_QT ** k) for k in _window(-dd - 10, -dd, 2)]
    else:
        raise ValueError(f"{d} is not untwisted")
    return pts


def sigma_q_window(d: AffineData) -> frozenset[SigmaPoint]:
    """The explicit sigma_Q description (golden data alongside phi_Q's image)."""
    base = untwisted_partner(d)
    raw = _untwisted_sigma_q_raw(base)
    if not d.twisted:
        return frozenset(sigma_point(d, i, a) for i, a in raw)
    return frozenset(sigma_point(d, *_apply_twist(d, i, a)) for i, a in raw)


def sigma_q_points(d: AffineData, q: QDatum | None = None) -> frozenset[SigmaPoint]:
    """The image of phi_Q over the positive roots."""
    q = q or default_qdatum(d)
    return frozenset(phi_q_map(q, d).values())


def translate_star(d: AffineData, points, k: int) -> frozenset[SigmaPoint]:
    """The k-th dual translate sigma_Q^{*k}."""
    return frozenset(dual_shift(d, p, k) for p in points)
