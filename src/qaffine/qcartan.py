"""Q-data, the bijection psi_Q, and the inverse quantum Cartan matrix.

A Q-datum is a Dynkin diagram with an automorphism rho and a height
function xi.  For an untwisted family it lives on the diagram of the
associated simply-laced type; the twisted families reuse the Q-datum of
their untwisted partner.  The default Q-datum is read from the family's
`affine.FamilySpec` (rho, xi, and the F4 relabelling of the rho-orbits);
for A, D and E, xi_i = -dd(1, i), raised by 2 at the branch node 2 of E.
Its generalized Coxeter element tau_Q walks each
gamma_i = (1 - tau_Q^{d_i}) Lambda_i through the rows of psi_Q.

tau_Q is kept only as a word of simple reflections and rho, built once per
Q-datum.  The row of i starts at psi_Q(i, xi_i) = (gamma_i, 0); one step
down in p (p -> p - 2 d_i) applies the word tau_Q^{d_i} to the root
coordinates, one step up applies the inverse word.  A step that lands on a
negative root flips its sign and moves m by one.

For an ADE type those rows are the inverse quantum Cartan matrix: the
coefficient of z^k in its (i, j) entry is the j-th coordinate of
tau_Q^{e/2} gamma_i, e = k + xi_i - xi_j - 1, so

    ctilde_{i,j}(k) = (-1)^m beta_j  with  (beta, m) = psi_Q(i, xi_j + 1 - k).

A truncated exact power-series inversion of the z-deformed Cartan matrix is
kept as an independent route; agreement of the two on every coefficient is
one of the acceptance checks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .affine import AffineData, untwisted_partner
from .roots import (
    FinRootSystem,
    Vec,
    apply_word_root,
    identity_perm,
    inverse_word,
    perm_from_map,
    perm_order,
    perm_root,
    root_system,
)
from .scalars import InvariantViolation, QAffineError


class NotInHatIQ(QAffineError):
    """(i, p) violates p = xi_i mod 2 d_i."""


class InvalidQDatum(QAffineError):
    """Height function fails the Q-datum axioms."""


class QDatum:
    """(Dynkin diagram, automorphism rho, height function xi) for `base`; compared by identity."""

    __slots__ = ("rs", "rho", "xi", "base", "_rows", "_phi_inv", "_tau",
                 "_lattice", "ord_rho", "orbits", "d", "pi", "__weakref__")

    def __init__(self, rs: FinRootSystem, rho: tuple[int, ...], xi: dict[int, int], base: AffineData):
        self.rs, self.rho, self.xi, self.base = rs, rho, xi, base
        self._rows, self._phi_inv, self._tau = {}, None, None  # `_tau`: the word of `tau_q`, lazy
        # AffineData -> its lattice table (see `qdata.lattice_table`); it lives and
        # dies with this Q-datum, so custom data leave nothing behind on AffineData
        self._lattice: dict = {}
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
        rep = self.base.type.spec.relabel or {}
        self.pi = {i: rep.get(min(o), min(o)) for i, o in self.orbits.items()}

    def orbit_top(self, i: int) -> int:
        """The orbit member with maximal height (the i-degree node of the orbit)."""
        return max(self.orbits[i], key=lambda j: (self.xi[j], -j))


@lru_cache(maxsize=None)
def default_qdatum(d: AffineData) -> QDatum:
    """The paper's fixed Q-datum (see the module docstring); for twisted d, its untwisted partner's.

    Cached per `AffineData`, so every caller that passes q=None shares one
    Q-datum, its psi_Q rows and its lattice table.  The cache holds its key,
    so an instance from `build` adds nothing that `build` does not keep, but
    one from `build.__wrapped__` stays in this cache for good.
    """
    base = untwisted_partner(d)
    spec, rank = base.type.spec, base.gfin.rank
    xi = spec.xi(base.n) if spec.xi else {
        i: 2 * (spec.letter == "E" and i == 2) - base.dd(1, i) for i in range(1, rank + 1)}
    q = QDatum(rs=base.gfin, rho=perm_from_map(rank, spec.rho(base.n)), xi=xi, base=base)
    violations = validate_qdatum(q)
    if violations:
        raise InvariantViolation(f"default Q-datum of {d} is invalid: " + "; ".join(violations))
    return q


def custom_qdatum(d: AffineData, xi: dict[int, int]) -> QDatum:
    """A user height function; only simply-laced untwisted types, validated.

    Results computed from a custom datum carry no golden-data guarantee.
    """
    if not d.simply_laced:
        raise InvalidQDatum("custom height functions are supported for untwisted ADE only")
    q = QDatum(rs=d.gfin, rho=identity_perm(d.gfin.rank), xi=dict(xi), base=d)
    violations = validate_qdatum(q)
    if violations:
        raise InvalidQDatum("; ".join(violations))
    return q


def validate_qdatum(q: QDatum) -> list[str]:
    """Check that xi is an int on each node, the two height-function axioms and the orbit-chain condition."""
    out: list[str] = []
    rs, xi, rho = q.rs, q.xi, q.rho
    if set(xi) != set(range(1, rs.rank + 1)):
        nodes = sorted(xi, key=lambda k: (0, k) if isinstance(k, int) else (1, repr(k)))  # never int < str
        return [f"height function defined on {nodes} instead of the node set"]
    bad = [f"height xi_{i} = {xi[i]!r} is not an int" for i in sorted(xi) if not isinstance(xi[i], int)]
    if bad:
        return bad
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

    Ties in the height ordering are broken by ascending node index.  The word
    is built on first use and kept on q.
    """
    if q._tau is not None:
        return q._tau
    word: list = sorted({q.orbit_top(i) for i in q.orbits}, key=lambda t: (-q.xi[t], t))
    if q.rho != identity_perm(q.rs.rank):
        word.append(q.rho)
    q._tau = tuple(word)
    return q._tau


def gamma_q(q: QDatum, i: int) -> Vec:
    """gamma_i = (1 - tau_Q^{d_i}) Lambda_i, a positive root.

    The walk keeps tau_Q^{d_i} Lambda_i as Lambda_a - r with r in root
    coordinates: s_j takes it to Lambda_a - (s_j r + [j = a] alpha_j) and
    rho to Lambda_{rho(a)} - rho(r).  It must end at a = i, where gamma_i = r.
    """
    a, r = i, (0,) * q.rs.rank
    for entry in reversed(tau_q(q) * q.d[i]):
        if isinstance(entry, int):
            r = q.rs.reflect_root(entry, r)
            if entry == a:
                r = r[: a - 1] + (r[a - 1] + 1,) + r[a:]
        else:
            a, r = entry[a], perm_root(entry, r)
    if a != i:
        raise InvariantViolation(f"tau_Q^{q.d[i]} Lambda_{i} = Lambda_{a} - {r}: the walk leaves node {i}")
    if not q.rs.is_positive_root(r):
        raise InvariantViolation(f"gamma_{i} = {r} is not a positive root")
    return r


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
        word = tau_q(q) * q.d[i]
        if sign > 0:
            word = inverse_word(word)
        while cur != p:
            cur += sign * step
            beta = apply_word_root(q.rs, word, beta)
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


def ctilde_formula(q: QDatum, i: int, j: int, k: int) -> int:
    """Coefficient of z^k in the (i,j) entry of the inverse quantum Cartan matrix.

    q is the Q-datum of an ADE type; the coefficient is read off the psi_Q
    row of i (see the module docstring).
    """
    if k < 1 or (k + q.xi[i] - q.xi[j] - 1) % 2:
        return 0
    beta, m = psi_q(q, i, q.xi[j] + 1 - k)
    return -beta[j - 1] if m % 2 else beta[j - 1]


class CTildeTable(NamedTuple):
    """Coefficients (i, j, k) -> integer of z C(z)^{-1} z^{-1}, k up to `order`."""

    rank: int
    order: int
    values: tuple[tuple[tuple[int, ...], ...], ...]  # values[k-1][i-1][j-1]

    def get(self, i: int, j: int, k: int) -> int:
        if k < 1 or k > self.order:
            if 0 <= k <= self.order:
                return 0
            raise ValueError(f"k={k} beyond truncation order {self.order}")
        return self.values[k - 1][i - 1][j - 1]


def ctilde_oracle(cartan: tuple[tuple[int, ...], ...], order: int) -> CTildeTable:
    """Invert C(z) as an exact power series, truncated at z^order.

    With M(z) = z C(z) = I + z B + z^2 I (B the off-diagonal part of the
    Cartan matrix), the inverse series A(z) = sum A_k z^k satisfies A_0 = I,
    A_1 = -B, A_k = -B A_{k-1} - A_{k-2}; then ctilde(k) = A_{k-1}.  The
    recurrence result is re-multiplied against M(z) as a self-check.
    """
    n = len(cartan)
    ident = [[int(r == c) for c in range(n)] for r in range(n)]
    b = [[cartan[r][c] if r != c else 0 for c in range(n)] for r in range(n)]

    def mul(x, y):
        return [[sum(x[r][t] * y[t][c] for t in range(n)) for c in range(n)] for r in range(n)]

    def add(x, y, sign=1):
        return [[x[r][c] + sign * y[r][c] for c in range(n)] for r in range(n)]

    coeffs = [ident, [[-v for v in row] for row in b]]
    while len(coeffs) <= order:
        nxt = add([[-v for v in row] for row in mul(b, coeffs[-1])], coeffs[-2], sign=-1)
        coeffs.append(nxt)

    # self-check: (I + zB + z^2 I) * A(z) = I through the truncation order
    for k in range(order + 1):
        total = coeffs[k][:]
        total = add(total, mul(b, coeffs[k - 1])) if k >= 1 else total
        total = add(total, coeffs[k - 2]) if k >= 2 else total
        expected = ident if k == 0 else [[0] * n for _ in range(n)]
        if total != expected:
            raise InvariantViolation(f"power series inversion failed at order {k}")

    values = tuple(
        tuple(tuple(coeffs[k - 1][r][c] for c in range(n)) for r in range(n))
        for k in range(1, order + 1)
    )
    return CTildeTable(rank=n, order=order, values=values)


@lru_cache(maxsize=None)
def ctilde_oracle_for(letter: str, rank: int) -> CTildeTable:
    rs = root_system(letter, rank)
    h = 2 * len(rs.positive_roots) // rank  # the Coxeter number of an ADE type
    return ctilde_oracle(rs.cartan, 2 * h + 2)
