"""Denominator polynomials d_{i,j}(z) between fundamental representations.

A denominator is stored as the multiset of its roots inside the exact
scalar domain; z^2- and z^3-factors are expanded into linear roots at
construction time so zero-order queries are plain multiset lookups.
d_{j,i} is taken equal to d_{i,j} throughout.

The untwisted A, D, E families and the twisted ones, whose partner is of
type A, D or E, read their denominators off the inverse quantum Cartan
matrix of that partner, i.e. off the psi_Q rows of the default Q-datum,
through the family's fold (see `_folded_factors`).  B, C, F and G keep
closed formulas and tables.  No template builds a denominator: every
family's template reads the rows (see `invariants`), so only `de`, `lambda_`
and the `denom` command, and criteria 2, 4 and 10 through them, build these.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator

from .affine import AffineData, Family
from .qcartan import ctilde_formula, default_qdatum
from .scalars import (
    MINUS_ONE,
    MINUS_Q,
    MINUS_QS,
    QS,
    QT,
    Frozen,
    SpectralScalar,
    nth_roots,
    order_key,
    scalar,
)

# one factor (z^deg - value)^mult of a denominator polynomial
Factor = tuple[int, SpectralScalar, int]


class RootMultiset(Frozen):
    """Monic polynomial prod (z - r), as a finite multiset of roots in printed order."""

    __slots__ = ("mults", "_index")

    def __init__(self, mults: tuple[tuple[SpectralScalar, int], ...]):
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "_index", dict(mults))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[SpectralScalar, int]]) -> "RootMultiset":
        acc: dict[SpectralScalar, int] = {}
        for r, m in pairs:
            acc[r] = acc.get(r, 0) + m
        return cls(tuple(sorted(acc.items(), key=lambda rm: order_key(rm[0]))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootMultiset):
            return NotImplemented
        return self.mults == other.mults

    def __hash__(self) -> int:
        return hash(self.mults)

    def mult(self, x: SpectralScalar) -> int:
        return self._index.get(x, 0)

    def __iter__(self) -> Iterator[tuple[SpectralScalar, int]]:
        return iter(self.mults)


def _mq(k: int) -> SpectralScalar:
    return MINUS_Q ** k


def _neg(x: SpectralScalar) -> SpectralScalar:
    return MINUS_ONE * x


def _folded_factors(d: AffineData, i: int, j: int) -> list[Factor]:
    """d_{i,j} folded from the partner's ctilde (the family itself when untwisted).

    With fold(a) = (node, f_a) and m_i <= m_j, fix one preimage i0 of i; every
    preimage a of j and every k with c = ctilde_{i0,a}(k) != 0 give the factor
    (z^{m_j} - ((-q)^{k+1} f_a / f_{i0})^{m_j})^c, equal factors merged.  An
    untwisted fold is the identity, which leaves the ADE factors
    (z - (-q)^{k+1})^c in the order of k.
    """
    q = default_qdatum(d)  # the partner's Q-datum when d is twisted
    if d.m[i] > d.m[j]:
        i, j = j, i
    (i0, f0), deg = d.preimages[i][0], d.m[j]
    out: dict[SpectralScalar, int] = {}
    for a, f in d.preimages[j]:
        scale = (f / f0) ** deg
        # ctilde_{i0,a}(k) vanishes unless k + xi_{i0} - xi_a is odd
        for k in range(1 + (q.xi[i0] - q.xi[a]) % 2, q.base.hvee, 2):
            c = ctilde_formula(q, i0, a, k)
            if c:
                value = _mq(deg * (k + 1)) * scale
                out[value] = out.get(value, 0) + c
    return [(deg, value, c) for value, c in out.items()]


def _b1_factors(d: AffineData, k: int, l: int) -> list[Factor]:
    n = d.n
    if k == n and l == n:
        return [(1, QS ** (4 * s - 2), 1) for s in range(1, n + 1)]
    if l == n or k == n:
        k = min(k, l)
        sign = MINUS_ONE ** (n + k)
        return [(1, sign * QS ** (2 * n - 2 * k - 1 + 4 * s), 1) for s in range(1, k + 1)]
    out: list[Factor] = []
    for s in range(1, min(k, l) + 1):
        out.append((1, _mq(abs(k - l) + 2 * s), 1))
        out.append((1, _neg(_mq(2 * n - k - l - 1 + 2 * s)), 1))
    return out


def _c1_factors(d: AffineData, k: int, l: int) -> list[Factor]:
    n = d.n
    out: list[Factor] = []
    for s in range(1, min(k, l, n - k, n - l) + 1):
        out.append((1, MINUS_QS ** (abs(k - l) + 2 * s), 1))
    for s in range(1, min(k, l) + 1):
        out.append((1, MINUS_QS ** (2 * n + 2 - k - l + 2 * s), 1))
    return out


# (base, {(i, j): [(deg, z24 phase, exponents, multiplicities)]}): the factors
# (z^deg - z24^phase base^e)^mult of d_{i,j}
_G2_TABLE = QT, {
    (1, 1): [(1, 0, [6, 8, 10, 12], [1, 1, 1, 1])],
    (1, 2): [(1, 12, [7, 11], [1, 1])],
    (2, 2): [(1, 0, [2, 8, 12], [1, 1, 1])],
}

_F4_TABLE = QS, {
    (1, 1): [(1, 0, [4, 10, 12, 18], [1, 1, 1, 1])],
    (1, 2): [(1, 12, [6, 8, 10, 12, 14, 16], [1] * 6)],
    (1, 3): [(1, 0, [7, 9, 13, 15], [1] * 4)],
    (1, 4): [(1, 12, [8, 14], [1, 1])],
    (2, 2): [(1, 0, [4, 6, 8, 10, 12, 14, 16, 18], [1, 1, 2, 2, 2, 2, 1, 1])],
    (2, 3): [(1, 12, [5, 7, 9, 11, 13, 15, 17], [1, 1, 1, 2, 1, 1, 1])],
    (2, 4): [(1, 0, [6, 10, 12, 16], [1] * 4)],
    (3, 3): [(1, 0, [2, 6, 8, 10, 12, 16, 18], [1, 1, 1, 1, 2, 1, 1])],
    (3, 4): [(1, 12, [3, 7, 11, 13, 17], [1] * 5)],
    (4, 4): [(1, 0, [2, 8, 12, 18], [1] * 4)],
}


def _table_factors(table, d: AffineData, i: int, j: int) -> list[Factor]:
    base, entries = table
    out: list[Factor] = []
    for deg, phase, exps, mults in entries[(i, j)]:
        for e, m in zip(exps, mults):
            out.append((deg, scalar(phase, 0) * base ** e, m))
    return out


# the families whose partner is not of type A, D or E (see `denominator_factors`)
_FAMILY_FACTORS = {
    Family.B1: _b1_factors,
    Family.C1: _c1_factors,
    Family.G2_1: partial(_table_factors, _G2_TABLE),
    Family.F4_1: partial(_table_factors, _F4_TABLE),
}


def denominator_factors(d: AffineData, i: int, j: int) -> list[Factor]:
    """d_{i,j}(z) as a product of (z^deg - value)^mult factors."""
    d.check_node(i)
    d.check_node(j)
    factors = _folded_factors if d.simply_laced or d.twisted else _FAMILY_FACTORS[d.family]
    return factors(d, min(i, j), max(i, j))


def expand_factors(factors: Iterable[Factor]) -> RootMultiset:
    pairs: list[tuple[SpectralScalar, int]] = []
    for deg, value, mult in factors:
        if deg == 1:
            pairs.append((value, mult))
        else:
            for r in nth_roots(value, deg):
                pairs.append((r, mult))
    return RootMultiset.from_pairs(pairs)


def denominator(d: AffineData, i: int, j: int) -> RootMultiset:
    """The full root multiset of d_{i,j}(z) (symmetric in i and j, cached)."""
    d.check_node(i)
    d.check_node(j)
    key = (min(i, j), max(i, j))
    cached = d._denom_cache.get(key)
    if cached is None:
        cached = expand_factors(denominator_factors(d, *key))
        d._denom_cache[key] = cached
    return cached
