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
Q-datum, and compiled once per row into the int steps of tau_Q^{d_i}
(`roots.compile_word`).  Only the window I_Q = psi_Q^{-1}(Delta+ x {0}) is
walked, once, and only by those steps: the row of i starts at
psi_Q(i, xi_i) = (gamma_i, 0), gamma_i walked on the same steps (`_row`),
and one step down in p (p -> p - 2 d_i) runs them on the root coordinates,
over the cells xi_{i*} - H < p <= xi_i, H = ord(rho) h^vee.  Every other
cell is read off the window by the Nakayama shift nu(i, p) = (i*, p - H)
(Hernandez-Leclerc, "Quantum Grothendieck rings and derived Hall algebras",
2015, for rho = id; Fujita-Oh, "Q-data and representation theory of
untwisted quantum affine algebras", 2021):

    psi_Q(i*, p - H) = (beta, m - 1)  for  (beta, m) = psi_Q(i, p).

The window holds each positive root once, so `qdata` reads phi_Q off it
(no inverse table is kept).  For an ADE type those rows are the inverse
quantum Cartan matrix: the coefficient of z^k in its (i, j) entry is the
j-th coordinate of tau_Q^{e/2} gamma_i, e = k + xi_i - xi_j - 1, so

    ctilde_{i,j}(k) = (-1)^m beta_j  with  (beta, m) = psi_Q(i, xi_j + 1 - k).

For every untwisted family the rows give g's own ctilde through the
rho-orbits: ctilde_ij(u) is coordinate I of tau_Q^{(u + xi_J - xi_I - d_i)/2}
gamma_J, I and J the tops of the orbits of i and j, read over the rows of
J's whole orbit, as row J holds only every d_j-th step (`invariants._scatter`).
A truncated exact power-series inversion of the z-deformed Cartan matrix is
kept as an independent route for ADE; criterion 3 checks every coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .affine import AffineData, untwisted_partner
from .roots import FinRootSystem, Vec, compile_word, identity_perm, perm_from_map, root_system, run_word
from .scalars import InvariantViolation, QAffineError


class NotInHatIQ(QAffineError):
    """(i, p) violates p = xi_i mod 2 d_i."""


class InvalidQDatum(QAffineError):
    """A Q-datum that fails its axioms, or is used with a type whose untwisted partner it was not made for:
    `qdata.lattice_table` refuses that for every (q, d) reader in `qdata` and `blocks`, `phi_q` too."""


class BeyondTruncation(QAffineError):
    """A coefficient past the order of a truncated series."""


class QDatum:
    """(Dynkin diagram, automorphism rho, height function xi) for `base`; compared by identity."""

    __slots__ = ("rs", "rho", "xi", "base", "_rows", "_tau", "ord_rho", "orbits", "d", "pi", "__weakref__")

    def __init__(self, rs: FinRootSystem, rho: tuple[int, ...], xi: dict[int, int], base: AffineData):
        self.rs, self.rho, self.xi, self.base = rs, rho, xi, base
        # `_rows`: node -> its window cells (see `_row`); `_tau`: the word of `tau_q`; both lazy
        self._rows, self._tau = {}, None
        self.orbits: dict[int, tuple[int, ...]] = {}
        for i in range(1, self.rs.rank + 1):
            orbit = [i]
            j = self.rho[i]
            while j != i:
                orbit.append(j)
                j = self.rho[j]
            self.orbits[i] = tuple(sorted(orbit))
        self.d = {i: len(o) for i, o in self.orbits.items()}
        self.ord_rho = lcm(*self.d.values())
        rep = self.base.type.spec.relabel or {}
        self.pi = {i: rep.get(min(o), min(o)) for i, o in self.orbits.items()}

    def orbit_top(self, i: int) -> int:
        """The orbit member with maximal height (the i-degree node of the orbit)."""
        return max(self.orbits[i], key=lambda j: (self.xi[j], -j))


def default_qdatum(d: AffineData) -> QDatum:
    """The paper's fixed Q-datum (see the module docstring); for twisted d, its untwisted partner's.

    Kept on d, filled on first use, so every caller that passes q=None
    shares one Q-datum, its psi_Q rows and its lattice table, and the datum
    dies with d; a twisted type shares its partner's datum.
    """
    q = d._qdatum
    if q is not None:
        return q
    base = untwisted_partner(d)
    if base is not d:
        d._qdatum = q = default_qdatum(base)
        return q
    spec, rank = d.type.spec, d.gfin.rank
    xi = spec.xi(d.n) if spec.xi else {
        i: 2 * (spec.letter == "E" and i == 2) - d.dd(1, i) for i in range(1, rank + 1)}
    q = QDatum(rs=d.gfin, rho=perm_from_map(rank, spec.rho(d.n)), xi=xi, base=d)
    violations = validate_qdatum(q)
    if violations:
        raise InvariantViolation(f"default Q-datum of {d} is invalid: " + "; ".join(violations))
    d._qdatum = q
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


def _window(q: QDatum, i: int) -> range:
    """The p of row i in the window I_Q, descending: xi_{i*} - H < p <= xi_i, H = ord(rho) h^vee."""
    return range(q.xi[i], q.xi[q.rs.istar(i)] - q.ord_rho * q.base.hvee, -2 * q.d[i])


def _row(q: QDatum, i: int) -> list[tuple[Vec, int]]:
    """psi_Q over the window cells of row i: row[k] = (beta, 0) at p = xi_i - 2 d_i k.

    Walked once by tau_Q^{d_i}, compiled once, and kept on q.  The first
    cell is gamma_i = (1 - tau_Q^{d_i}) Lambda_i: the steps act on
    tau_Q^{d_i} Lambda_i kept as Lambda_a - beta, so s_j takes it to
    Lambda_a - (s_j beta + [j = a] alpha_j) and rho to Lambda_{rho(a)} -
    rho(beta), and a must end at i.  Each later cell is the step of the one
    above.  Each cell must be a positive root, and the step past the lowest
    cell must leave them (there psi_Q(i, xi_{i*} - H) = (gamma_{i*}, -1) by
    the Nakayama shift).
    """
    row = q._rows.get(i)
    if row is None:
        steps, a, r, row = compile_word(q.rs, tau_q(q) * q.d[i]), i - 1, [0] * q.rs.rank, []
        for step in steps:
            if type(step) is list:  # rho moves Lambda_a to Lambda_{rho(a)}; a is an index here
                a, r = step.index(a), [r[k] for k in step]
            else:
                j, nbrs = step
                r[j] = sum(r[k] for k in nbrs) - r[j] + (j == a)
        beta = tuple(r)
        if a != i - 1:
            raise InvariantViolation(f"tau_Q^{q.d[i]} Lambda_{i} = Lambda_{a + 1} - {beta}: the walk leaves node {i}")
        for p in _window(q, i):
            if not q.rs.is_positive_root(beta):
                raise InvariantViolation(f"psi_Q({i},{p}) = {beta} in the window I_Q is not a positive root")
            row.append((beta, 0))
            beta = run_word(steps, beta)
        if q.rs.is_positive_root(beta):
            raise InvariantViolation(f"below its window, row {i} reaches the positive root {beta}")
        q._rows[i] = row
    return row


def psi_q(q: QDatum, i: int, p: int) -> tuple[Vec, int]:
    """The bijection hat I_Q -> Delta+ x Z: a window cell, or one read off it by the Nakayama shift."""
    if not 1 <= i <= q.rs.rank:
        raise NotInHatIQ(f"node {i} outside the diagram")
    k, off = divmod(q.xi[i] - p, 2 * q.d[i])
    if off:
        raise NotInHatIQ(f"p = {p} is not congruent to xi_{i} = {q.xi[i]} mod {2 * q.d[i]}")
    row = q._rows.get(i) or _row(q, i)
    if 0 <= k < len(row):
        return row[k]
    # below the window of i, one Nakayama shift away, lies the window of i*
    # (m = -1); the two span one period 2H of p, and each period down moves m by -2
    star = q._rows.get(istar := q.rs.istar(i)) or _row(q, istar)
    periods, k = divmod(k, len(row) + len(star))
    if k < len(row):
        return row[k][0], -2 * periods
    return star[k - len(row)][0], -2 * periods - 1


def i_q(q: QDatum) -> list[tuple[int, int]]:
    """The window { (i,p) : xi_{i*} - ord(rho) h^vee < p <= xi_i } = psi^{-1}(Delta+ x {0})."""
    return [(i, p) for i in range(1, q.rs.rank + 1) for p in _window(q, i)]


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
            raise BeyondTruncation(f"k={k} beyond truncation order {self.order}")
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
    """The series inversion for one ADE type, shared; unbounded, and criterion 3 asks for 16 types."""
    rs = root_system(letter, rank)
    h = 2 * len(rs.positive_roots) // rank  # the Coxeter number of an ADE type
    return ctilde_oracle(rs.cartan, 2 * h + 2)
