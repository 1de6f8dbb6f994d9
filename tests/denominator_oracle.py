"""Test-only oracle: the closed formulas and tables of the folded denominators.

These are the hand-written d_{i,j}(z) of the A/D/E-partnered families that
`qaffine.denominators` now folds from the partner's inverse quantum Cartan
matrix: the classical formulas of A_{2n}^{(2)}, A_{2n-1}^{(2)} and
D_{n+1}^{(2)}, the tables of E6^{(2)} (with d_{3,4} corrected: q^9 is a
simple root, as the fold of d^{E6}_{2,4} gives) and D4^{(3)}, and the
untwisted A/D/E factors, here taken from the exact series inversion of the
Cartan matrix instead of the psi_Q rows.  `oracle_factors(d, i, j)` returns
the factors (deg, value, mult) of (z^deg - value)^mult for i <= j.
"""

from __future__ import annotations

from qaffine.affine import Family
from qaffine.qcartan import ctilde_oracle_for
from qaffine.scalars import MINUS_ONE, MINUS_Q, Q, scalar


def _mq(k):
    return MINUS_Q ** k


def _mq2(k):
    return scalar(12 * k, 2 * k)  # (-q^2)^k


def _neg(x):
    return MINUS_ONE * x


def _ade_factors(d, i, j):
    table = ctilde_oracle_for(d.gfin.letter, d.gfin.rank)
    return [(1, _mq(k + 1), table.get(i, j, k)) for k in range(1, d.hvee) if table.get(i, j, k)]


def _a2odd_factors(d, k, l):
    n = d.n
    out = []
    for s in range(1, min(k, l) + 1):
        out.append((1, _mq(abs(k - l) + 2 * s), 1))
        out.append((1, _neg(_mq(2 * n - k - l + 2 * s)), 1))
    return out


def _a2even_factors(d, k, l):
    n = d.n
    out = []
    for s in range(1, min(k, l) + 1):
        out.append((1, _mq(abs(k - l) + 2 * s), 1))
        out.append((1, _mq(2 * n + 1 - k - l + 2 * s), 1))
    return out


def _d2_factors(d, k, l):
    n = d.n
    if k == n and l == n:
        return [(1, _neg(_mq2(s)), 1) for s in range(1, n + 1)]
    if l == n or k == n:
        k = min(k, l)
        return [(2, _neg(_mq2(n - k + 2 * s)), 1) for s in range(1, k + 1)]
    out = []
    for s in range(1, min(k, l) + 1):
        out.append((2, _mq2(abs(k - l) + 2 * s), 1))
        out.append((2, _mq2(2 * n - k - l + 2 * s), 1))
    return out


# (base, {(i, j): [(deg, z24 phase, exponents, multiplicities)]}): the factors
# (z^deg - z24^phase base^e)^mult of d_{i,j}
_D43_TABLE = Q, {
    (1, 1): [(1, 0, [2, 6], [1, 1]), (1, 8, [4], [1]), (1, 16, [4], [1])],
    (1, 2): [(3, 12, [9, 15], [1, 1])],
    (2, 2): [(3, 0, [6, 12, 18], [1, 2, 1])],
}

_E62_TABLE = Q, {
    (1, 1): [(1, 0, [2, 8], [1, 1]), (1, 12, [6, 12], [1, 1])],
    (1, 2): [(1, 12, [3, 7, 9], [1, 1, 1]), (1, 0, [5, 7, 11], [1, 1, 1])],
    (1, 3): [(2, 12, [8, 12, 16, 20], [1] * 4)],
    (1, 4): [(2, 12, [10, 18], [1, 1])],
    (2, 2): [
        (1, 0, [2, 4, 6, 8, 10], [1, 1, 1, 2, 1]),
        (1, 12, [4, 6, 8, 10, 12], [1, 2, 1, 1, 1]),
    ],
    (2, 3): [(2, 12, [6, 10, 14, 18, 22], [1, 2, 2, 2, 1])],
    (2, 4): [(2, 12, [8, 12, 16, 20], [1] * 4)],
    (3, 3): [(2, 0, [4, 8, 12, 16, 20, 24], [1, 2, 3, 3, 2, 1])],
    (3, 4): [(2, 0, [6, 10, 14, 18, 22], [1, 1, 2, 1, 1])],
    (4, 4): [(2, 0, [4, 12, 16, 24], [1] * 4)],
}


def _table_factors(table):
    base, entries = table

    def factors(d, i, j):
        return [(deg, scalar(phase, 0) * base ** e, m)
                for deg, phase, exps, mults in entries[(i, j)] for e, m in zip(exps, mults)]

    return factors


_ORACLE = {
    **dict.fromkeys((Family.A1, Family.D1, Family.E6_1, Family.E7_1, Family.E8_1), _ade_factors),
    Family.A2_ODD: _a2odd_factors,
    Family.A2_EVEN: _a2even_factors,
    Family.D2: _d2_factors,
    Family.E6_2: _table_factors(_E62_TABLE),
    Family.D4_3: _table_factors(_D43_TABLE),
}


def oracle_factors(d, i, j):
    return _ORACLE[d.family](d, min(i, j), max(i, j))
