"""Q-data: folded Dynkin diagrams with height functions, and the bijections
they induce between positive roots and spectral parameters.

For an untwisted family the Q-datum lives on the diagram of the associated
simply-laced type; the twisted families reuse the Q-datum of their
untwisted partner and post-compose the parameter bijection with the
star/dagger folding maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .affine import AffineData, Family, untwisted_partner
from .invariants import SigmaPoint, dual_shift, sigma_point
from .qcartan import _heights
from .roots import (
    FinRootSystem,
    FinWeight,
    Vec,
    apply_word,
    identity_perm,
    mat_apply,
    perm_from_map,
    perm_order,
)
from .scalars import (
    I_UNIT,
    InvariantViolation,
    MINUS_ONE,
    MINUS_Q,
    MINUS_QS,
    MINUS_QT,
    OMEGA,
    QS,
    QAffineError,
    SpectralScalar,
    scalar,
)


class NotInHatIQ(QAffineError):
    """(i, p) violates p = xi_i mod 2 d_i."""


class InvalidQDatum(QAffineError):
    """Height function fails the Q-datum axioms."""


@dataclass(eq=False)
class QDatum:
    """(Dynkin diagram, automorphism rho, height function xi) for `base`."""

    rs: FinRootSystem
    rho: tuple[int, ...]
    xi: dict[int, int]
    base: AffineData
    non_default: bool = False
    # an alternative legal reflection ordering (testing hook; the bijection
    # must not depend on the choice among weakly-decreasing orderings)
    tau_override: tuple[int, ...] | None = None
    _rows: dict = field(default_factory=dict, repr=False)
    _phi_inv: dict | None = field(default=None, repr=False)
    # AffineData -> its lattice table (see `lattice_table`); it lives and dies
    # with this Q-datum, so custom data leave nothing behind on AffineData
    _lattice: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.ord_rho = perm_order(self.rho)
        self.orbits: dict[int, tuple[int, ...]] = {}
        for i in range(1, self.rs.rank + 1):
            orbit = [i]
            j = self.rho[i]
            while j != i:
                orbit.append(j)
                j = self.rho[j]
            self.orbits[i] = tuple(sorted(orbit))
        self.d = {i: len(o) for i, o in self.orbits.items()}
        if self.base.family == Family.F4_1:
            rep = {1: 1, 3: 2, 4: 3, 2: 4}
            self.pi = {i: rep[min(o)] for i, o in self.orbits.items()}
        else:
            self.pi = {i: min(o) for i, o in self.orbits.items()}

    def orbit_top(self, i: int) -> int:
        """The orbit member with maximal height (the i-degree node of the orbit)."""
        return max(self.orbits[i], key=lambda j: (self.xi[j], -j))


_DEFAULT_RHO = {
    Family.B1: lambda d: perm_from_map(d.gfin.rank, {k: 2 * d.n - k for k in range(1, 2 * d.n)}),
    Family.C1: lambda d: perm_from_map(d.gfin.rank, {d.n: d.n + 1, d.n + 1: d.n}),
    Family.F4_1: lambda d: perm_from_map(6, {1: 6, 6: 1, 3: 5, 5: 3}),
    Family.G2_1: lambda d: perm_from_map(4, {1: 3, 3: 4, 4: 1}),
}


def _default_xi(d: AffineData) -> dict[int, int]:
    f, n = d.family, d.n
    if d.simply_laced:
        return _heights(d.gfin.letter, d.gfin.rank)
    if f == Family.B1:
        xi = {i: 2 * n - 2 * i - 1 for i in range(1, n)}
        xi[n], xi[n + 1] = 0, -1
        xi.update({i: 2 * i - 2 * n - 3 for i in range(n + 2, 2 * n)})
        return xi
    if f == Family.C1:
        xi = {i: 1 - i for i in range(1, n + 1)}
        xi[n + 1] = -n - 1
        return xi
    if f == Family.F4_1:
        return {1: 0, 2: -2, 3: -2, 4: -3, 5: -4, 6: -2}
    # G2
    return {1: -1, 2: 0, 3: -3, 4: -5}


def default_qdatum(d: AffineData) -> QDatum:
    """The paper's fixed Q-datum; for twisted d, its untwisted partner's."""
    base = untwisted_partner(d)
    rho_builder = _DEFAULT_RHO.get(base.family)
    rho = rho_builder(base) if rho_builder else identity_perm(base.gfin.rank)
    q = QDatum(rs=base.gfin, rho=rho, xi=_default_xi(base), base=base)
    violations = validate_qdatum(q)
    if violations:
        raise InvariantViolation(f"default Q-datum of {d} is invalid: " + "; ".join(violations))
    return q


def custom_qdatum(d: AffineData, xi: dict[int, int]) -> QDatum:
    """A user height function; only simply-laced untwisted types, validated.

    Results computed from a non-default datum carry no golden-data
    guarantee (the marker is the `non_default` flag).
    """
    if not d.simply_laced:
        raise InvalidQDatum("custom height functions are supported for untwisted ADE only")
    q = QDatum(rs=d.gfin, rho=identity_perm(d.gfin.rank), xi=dict(xi), base=d, non_default=True)
    violations = validate_qdatum(q)
    if violations:
        raise InvalidQDatum("; ".join(violations))
    return q


def validate_qdatum(q: QDatum) -> list[str]:
    """Check the two height-function axioms plus the orbit-chain condition."""
    out: list[str] = []
    rs, xi, rho = q.rs, q.xi, q.rho
    if set(xi) != set(range(1, rs.rank + 1)):
        return [f"height function defined on {sorted(xi)} instead of the node set"]
    for a, b in rs.edges:
        if q.d[a] == q.d[b] and abs(xi[a] - xi[b]) != q.d[a]:
            out.append(f"condition (1) fails on edge {a}-{b}: |xi difference| != {q.d[a]}")
    for a, b in rs.edges:
        for i, j in ((a, b), (b, a)):
            if q.d[i] == 1 and q.d[j] == q.ord_rho > 1:
                good = []
                for jc in q.orbits[j]:
                    if abs(xi[i] - xi[jc]) != 1:
                        continue
                    chain = all(
                        xi[_rho_pow(rho, k, jc)] == xi[jc] - 2 * k for k in range(q.ord_rho)
                    )
                    if chain:
                        good.append(jc)
                if len(good) != 1:
                    out.append(
                        f"condition (2) fails at node {i} against orbit {q.orbits[j]}:"
                        f" {len(good)} admissible choices"
                    )
    for i in q.orbits:
        top = q.orbit_top(i)
        if not all(xi[_rho_pow(rho, k, top)] == xi[top] - 2 * k for k in range(q.d[i])):
            out.append(f"orbit-chain condition fails on the orbit of {i}")
    return out


def _rho_pow(rho: tuple[int, ...], k: int, i: int) -> int:
    for _ in range(k):
        i = rho[i]
    return i


def tau_q(q: QDatum) -> tuple:
    """The generalized Coxeter word s_{i_1} ... s_{i_r} rho (rho acts first).

    Ties in the height ordering are broken by ascending node index.
    """
    if q.tau_override is not None:
        tops = list(q.tau_override)
        heights = [q.xi[t] for t in tops]
        if heights != sorted(heights, reverse=True):
            raise InvalidQDatum(f"tau override {q.tau_override} is not weakly decreasing in height")
        if set(tops) != {q.orbit_top(i) for i in q.orbits}:
            raise InvalidQDatum(f"tau override {q.tau_override} is not the set of orbit tops")
    else:
        tops = sorted({q.orbit_top(i) for i in q.orbits}, key=lambda t: (-q.xi[t], t))
    word: list = list(tops)
    if q.rho != identity_perm(q.rs.rank):
        word.append(q.rho)
    return tuple(word)


def gamma_q(q: QDatum, i: int) -> Vec:
    """gamma_i = (1 - tau_Q^{d_i}) Lambda_i, a positive root."""
    lam = q.rs.fundamental_weight(i)
    img = lam
    word = tau_q(q)
    for _ in range(q.d[i]):
        img = apply_word(q.rs, word, img)
    root = q.rs.weight_to_root(FinWeight(tuple(a - b for a, b in zip(lam.coords, img.coords))))
    if not q.rs.is_positive_root(root):
        raise InvariantViolation(f"gamma_{i} = {root} is not a positive root")
    return root


def _row(q: QDatum, i: int) -> dict[int, tuple[Vec, int]]:
    """Lazily extendable row of psi_Q values at node i, seeded at (i, xi_i)."""
    row = q._rows.get(i)
    if row is None:
        row = {q.xi[i]: (gamma_q(q, i), 0)}
        q._rows[i] = row
    return row


def psi_q(q: QDatum, i: int, p: int) -> tuple[Vec, int]:
    """The bijection hat I_Q -> Delta+ x Z, computed by walking from the seed."""
    if not 1 <= i <= q.rs.rank:
        raise NotInHatIQ(f"node {i} outside the diagram")
    step = 2 * q.d[i]
    if (p - q.xi[i]) % step:
        raise NotInHatIQ(f"p = {p} is not congruent to xi_{i} = {q.xi[i]} mod {step}")
    row = _row(q, i)
    if p not in row:
        # extend the known run from its end nearer p: tau_Q^{d_i} takes one
        # step down in p, its inverse one step up
        sign = -1 if p < min(row) else 1
        cur = min(row) if sign < 0 else max(row)
        beta, m = row[cur]
        mat = q.rs.word_power(tau_q(q), -sign * q.d[i])
        while cur != p:
            cur += sign * step
            beta = mat_apply(mat, beta)
            if not any(c > 0 for c in beta):
                beta = tuple(-c for c in beta)
                m += sign
            row[cur] = (beta, m)
    return row[p]


def i_q(q: QDatum) -> list[tuple[int, int]]:
    """The window { (i,p) : xi_{i*} - ord(rho) h^vee < p <= xi_i } = psi^{-1}(Delta+ x {0})."""
    out = []
    bound = q.ord_rho * q.base.hvee
    for i in range(1, q.rs.rank + 1):
        lower = q.xi[q.rs.istar(i)] - bound
        p = q.xi[i]
        while p > lower:
            out.append((i, p))
            p -= 2 * q.d[i]
    return out


def phi_inverse_zero(q: QDatum) -> dict[Vec, tuple[int, int]]:
    """beta -> (i, p) over the m = 0 slice; checks the slice is exactly Delta+."""
    if q._phi_inv is not None:
        return q._phi_inv
    out: dict[Vec, tuple[int, int]] = {}
    for i, p in i_q(q):
        beta, m = psi_q(q, i, p)
        if m != 0:
            raise InvariantViolation(f"I_Q window cell ({i},{p}) has m = {m}")
        if beta in out:
            raise InvariantViolation(f"duplicate root {beta} in the m = 0 slice")
        out[beta] = (i, p)
    if len(out) != len(q.rs.positive_roots):
        raise InvariantViolation(
            f"the m = 0 slice has {len(out)} roots, not {len(q.rs.positive_roots)}"
        )
    q._phi_inv = out
    return out


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
