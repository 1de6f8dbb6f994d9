"""Inverse quantum Cartan matrix coefficients for the ADE types.

Two independent routes are provided: the closed formula through the
Auslander-Reiten combinatorics of a fixed quiver orientation (pairing a
Coxeter-translated root with a fundamental weight), and a truncated exact
power-series inversion of the z-deformed Cartan matrix.  Agreement of the
two on every coefficient is one of the acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .roots import FinRootSystem, Vec, mat_apply, root_system
from .scalars import InvariantViolation


def _quiver_arrows(letter: str, rank: int) -> list[tuple[int, int]]:
    if letter == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if letter == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    chain = [(1, 3)] + [(i, i + 1) for i in range(3, rank)]
    return chain + [(2, 4)]


def _heights(letter: str, rank: int) -> dict[int, int]:
    if letter == "A":
        return {i: 1 - i for i in range(1, rank + 1)}
    if letter == "D":
        xi = {i: 1 - i for i in range(1, rank - 1)}
        xi[rank - 1] = xi[rank] = 2 - rank
        return xi
    xi = {1: 0, 2: -1}
    xi.update({k: 2 - k for k in range(3, rank + 1)})
    return xi


@dataclass(eq=False)
class AdeQuiverData:
    """Fixed quiver orientation, heights and Coxeter data for one ADE type."""

    rs: FinRootSystem
    xi: dict[int, int]
    tau_word: tuple[int, ...]
    gamma: dict[int, Vec]
    h: int


@lru_cache(maxsize=None)
def ade_quiver(letter: str, rank: int) -> AdeQuiverData:
    rs = root_system(letter, rank)
    arrows = _quiver_arrows(letter, rank)
    xi = _heights(letter, rank)
    for a, b in arrows:
        if xi[b] != xi[a] - 1:
            raise InvariantViolation(f"height function inconsistent on arrow {a}->{b}")
    order = sorted(range(1, rank + 1), key=lambda i: (-xi[i], i))
    tau_word = tuple(order)

    preds: dict[int, list[int]] = {i: [] for i in range(1, rank + 1)}
    for a, b in arrows:
        preds[b].append(a)
    gamma: dict[int, Vec] = {}
    for i in range(1, rank + 1):
        anc = {i}
        stack = [i]
        while stack:
            for p in preds[stack.pop()]:
                if p not in anc:
                    anc.add(p)
                    stack.append(p)
        gamma[i] = tuple(1 if j in anc else 0 for j in range(1, rank + 1))

    h = max(sum(beta) for beta in rs.positive_roots) + 1
    d = AdeQuiverData(rs=rs, xi=xi, tau_word=tau_word, gamma=gamma, h=h)
    for i in range(1, rank + 1):
        if not rs.is_positive_root(gamma[i]):
            raise InvariantViolation(f"gamma_{i} = {gamma[i]} is not a positive root of {letter}{rank}")
    return d


def ctilde_formula(d: AdeQuiverData, i: int, j: int, k: int) -> int:
    """Coefficient of z^k in the (i,j) entry of the inverse quantum Cartan matrix."""
    if k < 1:
        return 0
    e = k + d.xi[i] - d.xi[j] - 1
    if e % 2:
        return 0
    v = mat_apply(d.rs.word_power(d.tau_word, e // 2), d.gamma[i])
    return v[j - 1]


@dataclass(frozen=True)
class CTildeTable:
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
    d = ade_quiver(letter, rank)
    return ctilde_oracle(d.rs.cartan, 2 * d.h + 2)
