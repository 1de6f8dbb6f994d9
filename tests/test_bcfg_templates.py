"""The B, C, F and G templates against g's own quantum Cartan matrix.

The templates of these families are read off the psi_Q rows of their
rho-folded Q-data, over whole rho-orbits (see `invariants`), so this checks
those rows against g's own series.  It shares nothing with the rows or with
the denominator tables: it inverts the quantum Cartan matrix C(z) of g
itself as an exact power series, with

    C(z)_ii = z^{d_i} + z^{-d_i},    C(z)_ij = [a_ij]_z  (i != j),

a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) and d_i = (alpha_i, alpha_i)
in units of the short root: 2 on long roots and 1 on short ones, 3 and 1 for
G2.  With ctilde_ij(u) the z^u coefficient of C(z)^{-1}, node i's template
takes the value ctilde_ij(u - d_i) - ctilde_ij(u + d_i) at node j and the
u-th power of q^(1/2) (of q^(1/3) for G2), for 0 < u below the period, and
-2 delta_ij at u = 0; it is zero everywhere else.
"""

import pytest

from qaffine.affine import build, parse_type_string
from qaffine.invariants import SigmaPoint, s_func
from qaffine.scalars import ONE

# d_i in the library's node labels; each diagram is the chain 1 - 2 - ... - n
ROOT_LENGTHS = {
    **{f"B{n}-1": [2] * (n - 1) + [1] for n in range(2, 6)},
    **{f"C{n}-1": [1] * (n - 1) + [2] for n in range(3, 6)},
    "F4-1": [2, 2, 1, 1],
    "G2-1": [3, 1],
}


def _cartan(ds):
    """a_ij of a chain: -max(d_i, d_j) / d_i on an edge."""
    n = len(ds)
    return [[2 if i == j else -max(ds[i], ds[j]) // ds[i] if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)]


def _qint(a):
    """[a]_z = (z^a - z^-a) / (z - 1/z) as {exponent: coefficient}."""
    return {e: 1 if a > 0 else -1 for e in range(1 - abs(a), abs(a), 2)}


def ctilde_table(ds, order):
    """ctilde(i, j, u) for 1 <= i, j <= n and u <= order, from the exact inverse of C(z).

    M(z) = C(z) diag(z^{d_j}) is a polynomial matrix with M(0) = I, so its
    inverse is the power series sum A_k z^k with A_0 = I and
    A_k = -sum_{l >= 1} M_l A_{k-l}; then C(z)^{-1} = diag(z^{d_i}) M(z)^{-1}.
    """
    n, cartan = len(ds), _cartan(ds)
    terms = {}
    for r in range(n):
        for c in range(n):
            entry = {ds[r]: 1, -ds[r]: 1} if r == c else _qint(cartan[r][c]) if cartan[r][c] else {}
            for e, v in entry.items():
                terms.setdefault(e + ds[c], [[0] * n for _ in range(n)])[r][c] += v
    assert min(terms) == 0 and terms[0] == [[int(r == c) for c in range(n)] for r in range(n)]
    series = [terms.pop(0)]
    for k in range(1, order + 1):
        series.append([[-sum(ml[r][t] * series[k - l][t][c] for l, ml in terms.items() if l <= k for t in range(n))
                        for c in range(n)] for r in range(n)])

    def ctilde(i, j, u):
        k = u - ds[i - 1]
        return series[k][i - 1][j - 1] if 0 <= k <= order else 0

    return ctilde


@pytest.mark.parametrize("s", ROOT_LENGTHS)
def test_templates_are_differences_of_the_inverse_quantum_cartan_matrix(s):
    d, ds = build(parse_type_string(s)), ROOT_LENGTHS[s]
    unit = 6 // max(ds)  # q^(1/2), or q^(1/3) for G2, in the q^(1/6) of a key
    period = d.period // unit
    ctilde = ctilde_table(ds, period + max(ds))
    for i in d.i0:
        got = {}
        for p, v in s_func(d, SigmaPoint(i, ONE)).values:
            u, rest = divmod(p.param.e, unit)
            assert not rest and (p.node, u) not in got, (s, i, p)  # one phase per (node, u)
            got[p.node, u] = v
        want = {}
        for j in d.i0:
            for u in range(period):
                w = ctilde(i, j, u - ds[i - 1]) - ctilde(i, j, u + ds[i - 1]) if u else -2 * (i == j)
                if w:
                    want[j, u] = w
        assert got == want, (s, i)
