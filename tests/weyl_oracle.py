"""Test-only oracle: words in W_fin x Aut as explicit integer matrices.

A simple reflection is the matrix read off its Cartan row, s_i(alpha_c) =
alpha_c - C_ic alpha_i; a diagram automorphism is a permutation matrix; a
word is the product of its entries' matrices.  Nothing here calls the
library's word code.  Matrices act on root-coordinate columns:
(M v)_r = sum_c M[r][c] v_c.  `weight_to_root`, the exact Cartan solve, is
the oracle of the lattice coordinates that the library reads off phi_Q.
`bfs_positive_roots`, a search under the simple reflections, is the oracle
of the library's root enumeration.  `two_way_row`, a psi_Q row walked one
word at a time in both directions from its seed, is the oracle of the rows
the library reads off the window I_Q, and `zero_slice`, the inverse of
psi_Q on Delta+ x {0} read off such rows, that of the phi_Q map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul


class NotInRootLattice(ValueError):
    """A weight whose Cartan solve is not integral."""


def identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def reflection_matrix(cartan, i):
    n = len(cartan)
    return [[int(r == c) - int(r == i - 1) * cartan[i - 1][c] for c in range(n)] for r in range(n)]


def perm_matrix(perm):
    """alpha_c -> alpha_{perm(c)}, perm 1-based with perm[0] unused."""
    n = len(perm) - 1
    return [[int(perm[c + 1] == r + 1) for c in range(n)] for r in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def mat_power(m, k):
    out = identity(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def word_matrix(cartan, word, inverse=False):
    """The matrix of a word (rightmost entry acts first), or of its inverse.

    A reflection matrix is its own inverse and a permutation matrix's inverse
    is its transpose, so the inverse is the reversed product of those.
    """
    factors = []
    for e in word:
        if isinstance(e, int):
            factors.append(reflection_matrix(cartan, e))
        else:
            p = perm_matrix(e)
            factors.append([list(col) for col in zip(*p)] if inverse else p)
    out = identity(len(cartan))
    for f in reversed(factors) if inverse else factors:
        out = mat_mul(out, f)
    return out


def word_powers(cartan, word, lo, hi):
    """{m: the matrix of word^m} for lo <= m <= hi, with lo <= 0 <= hi."""
    step, back = word_matrix(cartan, word), word_matrix(cartan, word, inverse=True)
    out = {0: identity(len(cartan))}
    for m in range(1, hi + 1):
        out[m] = mat_mul(out[m - 1], step)
    for m in range(-1, lo - 1, -1):
        out[m] = mat_mul(out[m + 1], back)
    return out


def inverse_word(word):
    """The word of the inverse element: reversed, each automorphism inverted."""
    # sorting the nodes by their images inverts a permutation
    return tuple(e if isinstance(e, int) else tuple(sorted(range(len(e)), key=e.__getitem__))
                 for e in reversed(tuple(word)))


def apply_word(cartan, word, v):
    """A word (rightmost entry acts first) on root coordinates, one entry at a time."""
    out = list(v)
    for e in reversed(tuple(word)):
        if isinstance(e, int):
            out[e - 1] -= sum(map(mul, cartan[e - 1], out))
        else:
            moved = [0] * len(out)
            for c, x in enumerate(out, start=1):
                moved[e[c] - 1] = x
            out = moved
    return tuple(out)


def two_way_row(cartan, word, gamma, top, step, lo, hi):
    """{p: (beta, m)} on one psi_Q row, for lo <= p <= hi in the row's residue class.

    The row is seeded at (gamma, 0) at p = top.  One step down in p
    (p -> p - step) applies `word`, one step up its inverse; an image with
    no positive coordinate flips its sign and moves m by one in the
    direction of the step.  For the row of i, top = xi_i, step = 2 d_i and
    word is that of tau_Q^{d_i}.
    """
    row = {top: (gamma, 0)}
    for sign, w, end in ((-1, word, lo), (1, inverse_word(word), hi)):
        beta, m, p = gamma, 0, top
        while sign * (end - p) >= step:
            p += sign * step
            beta = apply_word(cartan, w, beta)
            if not any(c > 0 for c in beta):
                beta, m = tuple(-c for c in beta), m + sign
            row[p] = beta, m
    return row


def zero_slice(rows):
    """beta -> (i, p) over the m = 0 cells of psi_Q rows {i: {p: (beta, m)}}; each root must occur once."""
    out = {}
    for i, row in rows.items():
        for p, (beta, m) in row.items():
            if m == 0:
                if beta in out:
                    raise AssertionError(f"{beta} at both {out[beta]} and {(i, p)} of the m = 0 slice")
                out[beta] = (i, p)
    return out


def matrix_order(m, cap=1000):
    """The least t >= 1 with m^t = 1."""
    one, cur = identity(len(m)), m
    for t in range(1, cap):
        if cur == one:
            return t
        cur = mat_mul(cur, m)
    raise AssertionError(f"no order below {cap}")


def root_inner(cartan, v, w):
    """(v, w) = v^T C w for root-coordinate vectors."""
    return sum(x * y for x, y in zip(v, mat_vec(cartan, w)))


def root_to_weight(cartan, v):
    """The fundamental-weight coordinates C v of a root-coordinate vector."""
    return mat_vec(cartan, v)


@lru_cache(maxsize=None)
def _cartan_inverse(cartan):
    """C^-1 as Fractions, by one Gauss-Jordan elimination of [C | 1]."""
    n = len(cartan)
    aug = [[Fraction(c) for c in row] + [Fraction(int(r == k)) for k in range(n)]
           for r, row in enumerate(cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [x / scale for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def weight_to_root(cartan, w):
    """Solve C x = w for fundamental-weight coordinates w, exactly over Fractions.

    `cartan` is a tuple of rows.  Raises NotInRootLattice when x is not integral.
    """
    sol = [sum(a * b for a, b in zip(row, w)) for row in _cartan_inverse(cartan)]
    if any(x.denominator != 1 for x in sol):
        raise NotInRootLattice(f"{tuple(w)} is not in the root lattice: C x = w gives x = {sol}")
    return tuple(int(x) for x in sol)


def bfs_positive_roots(cartan):
    """The positive roots by breadth-first search under the simple reflections.

    s_i(v) = v - (v, alpha_i) alpha_i, and a reflected root is kept when it
    is positive and new.  The order is the library's: the simple roots in
    node order, then the rest by (height, v).
    """
    n = len(cartan)
    simples = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    found, frontier = set(simples), list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = list(v)
                w[i] -= sum(map(mul, cartan[i], v))
                w = tuple(w)
                if min(w) >= 0 and w not in found:
                    found.add(w)
                    nxt.append(w)
        frontier = nxt
    return tuple(simples + sorted(found - set(simples), key=lambda v: (sum(v), v)))
