"""The acceptance suite: every headline identity, runnable as a library call.

Each criterion returns (ok, detail).  All checks are exact integer or exact
set comparisons; there are no tolerances anywhere.  The same functions back
`qaffine verify` and the pytest acceptance module.  The explicit sigma_Q
windows (criterion 5) and the block-kernel lists (criterion 8) are golden
data, written out family by family, that the derived tables are checked
against.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from typing import Callable

from .affine import AffineData, Family, build, component_class, parse_type_string, untwisted_partner
from .blocks import NotInW0, delta0, gram, psi_lattice
from .invariants import (
    SigmaPoint,
    de,
    dual_shift,
    e_of,
    lambda_,
    lambda_inf,
    pairing,
    s_func,
    sigma_point,
)
from .qcartan import ctilde_formula, ctilde_oracle_for, default_qdatum, i_q, psi_q, tau_q
from .qdata import phi_q_map, sigma_q_points, twist
from .roots import apply_word_root
from .scalars import MINUS_ONE, MINUS_Q, MINUS_QS, MINUS_QT, Q, QS, SpectralScalar, scalar

SWEEP = (
    [f"A{n}-1" for n in range(1, 7)]
    + [f"B{n}-1" for n in range(2, 6)]
    + [f"C{n}-1" for n in range(3, 6)]
    + [f"D{n}-1" for n in range(4, 7)]
    + [f"A{2 * n}-2" for n in range(1, 5)]
    + [f"A{2 * n - 1}-2" for n in range(2, 5)]
    + [f"D{n + 1}-2" for n in range(3, 6)]
    + ["E6-1", "E7-1", "E8-1", "F4-1", "G2-1", "E6-2", "D4-3"]
)

_SEED = 20260810


def criterion_1_main_theorem() -> tuple[bool, str]:
    """gram() equals the predicted Cartan matrix for every family and rank."""
    start = time.monotonic()
    bad = []
    for s in SWEEP:
        res = gram(build(parse_type_string(s)))
        if not res.equal:
            bad.append(f"{s} mismatches at {res.mismatches}")
    elapsed = time.monotonic() - start
    if bad:
        return False, "; ".join(bad)
    if elapsed >= 60.0:
        return False, f"sweep exceeded the 60 s budget: {elapsed:.1f} s"
    return True, f"{len(SWEEP)} instances"  # the time goes in the record's `seconds`


def criterion_2_self_pairing() -> tuple[bool, str]:
    """(s_{i,a}, s_{i,a}) = 2 and de(p, D^k p) = delta(k = +-1), k in [-4, 4]."""
    checked = 0
    for s in SWEEP:
        d = build(parse_type_string(s))
        for i in d.i0:
            p = sigma_point(d, i, Q)
            if pairing(d, p, p) != 2:
                return False, f"(s,s) != 2 at {s} node {i}"
            for k in range(-4, 5):
                if de(d, p, dual_shift(d, p, k)) != int(k in (-1, 1)):
                    return False, f"dual-orbit de wrong at {s} node {i} k={k}"
            checked += 1
    return True, f"{checked} fundamental classes"


_ADE_RANKS_8 = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6), ("E", 7), ("E", 8)]
_ADE_RANKS_6 = [("A", n) for n in range(1, 7)] + [("D", n) for n in range(4, 7)] + [("E", 6)]


def criterion_3_ctilde_cross_check() -> tuple[bool, str]:
    """Closed formula equals exact series inversion for all ADE of rank <= 8 (k reaches
    2 h^vee - 1, past the window I_Q, so this checks the Nakayama shift too)."""
    checked = 0
    for letter, rank in _ADE_RANKS_8:
        d = build(parse_type_string(f"{letter}{rank}-1"))
        q = default_qdatum(d)
        table = ctilde_oracle_for(letter, rank)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                for k in range(1, 2 * d.hvee):
                    if ctilde_formula(q, i, j, k) != table.get(i, j, k):
                        return False, f"{letter}{rank} disagrees at ({i},{j},{k})"
                    checked += 1
    return True, f"{checked} coefficients"


def criterion_4_lambda_identity() -> tuple[bool, str]:
    """lambda_inf((i,1), (j,(-q)^t)) = ctilde_ij(t-1) - ctilde_ij(t+1), and -2 delta_ij at t = 0, ADE rank <= 6.

    Every template reads the psi_Q rows, so lambda_inf must also equal the dual-orbit sum of de, which checks the
    dual-orbit law against ctilde on its own (criterion 3 ties ctilde to the series).  On B3, C3, F4 and G2, whose
    ctilde has no ADE formula, that sum alone is compared, at phases 0 and 12 of each eps_base^u in one period:
    this ties the hand-written denominator tables to the rows.  Denominator roots are (-q)^s, 2 <= s <= hvee, on
    ADE, so only -2 <= k <= 1 count, and de must vanish at k = -3 and 2 (on all ten types)."""
    checked = 0
    for s in [f"{letter}{rank}-1" for letter, rank in _ADE_RANKS_6] + ["B3-1", "C3-1", "F4-1", "G2-1"]:
        d = build(parse_type_string(s))
        q, be, ade = default_qdatum(d), d.type.spec.eps_base.e, d.simply_laced
        for i in d.i0:
            pi = sigma_point(d, i, scalar(0, 0))
            for j in d.i0:
                for t in range(d.period // be):
                    for phase in (12 * t % 24,) if ade else (0, 12):  # (-q)^t on ADE
                        pj = sigma_point(d, j, SpectralScalar(phase, t * be))
                        terms = [de(d, pi, dual_shift(d, pj, k)) for k in range(-3, 3)]
                        got = sum(terms[1:-1:2]) - sum(terms[2:-1:2])  # even k = -2, 0 minus odd k = -1, 1
                        want = got
                        if ade:
                            want = -2 * (i == j) if not t else \
                                ctilde_formula(q, i, j, t - 1) - ctilde_formula(q, i, j, t + 1)
                        lam = lambda_inf(d, pi, pj)
                        if terms[0] or terms[-1] or got != want or lam != got:
                            return False, f"{s} at ({i},{j},{pj.param}): sum {got}, lambda_inf {lam}, want {want}"
                        checked += 1
    return True, f"{checked} evaluations"


def _untwisted_sigma_q_raw(d: AffineData) -> list[tuple[int, SpectralScalar]]:
    """The explicit sigma_Q window lists, family by family."""
    f, n = d.family, d.n
    pts: list[tuple[int, SpectralScalar]] = []
    if f == Family.A1:
        for i in d.i0:
            pts += [(i, MINUS_Q ** k) for k in range(-i + 1, i - 2 * n, -2)]
    elif f == Family.B1:
        for i in range(1, n):
            sign = MINUS_ONE ** (n + i)
            for k in range(2 * n - 2 * i - 1, -2 * n - 2 * i + 2, -2):
                pts.append((i, sign * QS ** k))
        pts += [(n, scalar(0, k)) for k in range(0, -2 * n + 1, -1)]
    elif f == Family.C1:
        for i in d.i0:
            dd = d.dd(1, i)
            pts += [(i, MINUS_QS ** k) for k in range(-dd, -dd - 2 * n - 1, -2)]
    elif f == Family.D1:
        for i in d.i0:
            dd = d.dd(1, i)
            pts += [(i, MINUS_Q ** k) for k in range(-dd, -dd - 2 * n + 3, -2)]
    elif f in (Family.E6_1, Family.E7_1, Family.E8_1):
        spread = {Family.E6_1: None, Family.E7_1: 16, Family.E8_1: 28}[f]
        for i in d.i0:
            dd = d.dd(1, i)
            if f == Family.E6_1:
                lo, hi = dd - 14, -dd + 2 * (i == 2)
            else:
                hi = -dd + 2 * (i == 2)
                lo = hi - spread
            pts += [(i, MINUS_Q ** k) for k in range(hi, lo - 1, -2)]
    elif f == Family.F4_1:
        for i in d.i0:
            dd = d.dd(i, 3)
            half = int(i == 3)  # in units of q^(1/2)
            for k in range(2 * dd - 4 + half, 2 * dd - 21 + half, -2):
                pts.append((i, (MINUS_ONE ** i) * QS ** k))
    elif f == Family.G2_1:
        for i in d.i0:
            dd = d.dd(2, i)
            pts += [(i, MINUS_QT ** k) for k in range(-dd, -dd - 11, -2)]
    else:
        raise ValueError(f"{d} is not untwisted")
    return pts


def sigma_q_window(d: AffineData) -> frozenset[SigmaPoint]:
    """The explicit sigma_Q description (golden data alongside phi_Q's image)."""
    return frozenset(sigma_point(d, *twist(d, i, a)) for i, a in _untwisted_sigma_q_raw(untwisted_partner(d)))


def criterion_5_phi_golden() -> tuple[bool, str]:
    """phi_Q image equals the explicit sigma_Q lists; |I_Q| = |Delta+|."""
    for s in SWEEP:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        if len(i_q(q)) != len(q.rs.positive_roots):
            return False, f"|I_Q| wrong for {s}"
        if sigma_q_points(d, q) != sigma_q_window(d):
            return False, f"phi_Q image differs from the sigma_Q list for {s}"
    return True, f"{len(SWEEP)} instances"


def criterion_6_psi_bijectivity() -> tuple[bool, str]:
    """psi_Q covers Delta+ x {0,1,2} exactly once on the m-window: I_Q maps onto Delta+,
    and the m = 1, 2 cells, read off it by the Nakayama shift, are distinct.  The shift
    must also step across both edges of each row's window (p = xi_i + 2 d_i and its lowest
    cell): psihat(i, p - 2 d_i) = tau_Q^{d_i} psihat(i, p), with psihat = (-1)^m beta."""
    steps = 0
    for s in SWEEP:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        cells, low = {}, {}
        for i, p in i_q(q):
            low[i] = p  # each row is listed downward, so its last p is its lowest
            pp = p
            while True:
                beta, m = psi_q(q, i, pp)
                if m > 2:
                    break
                if m >= 0:
                    key = (beta, m)
                    if key in cells and cells[key] != (i, pp):
                        return False, f"{s}: {key} hit twice"
                    cells[key] = (i, pp)
                pp += 2 * q.d[i]
        if len(cells) != 3 * len(q.rs.positive_roots):
            return False, f"{s}: m-window covers {len(cells)} cells"
        for i, p_low in low.items():
            for p in (q.xi[i] + 2 * q.d[i], p_low):
                (beta, m), (below, mb) = psi_q(q, i, p), psi_q(q, i, p - 2 * q.d[i])
                if apply_word_root(q.rs, tau_q(q) * q.d[i], beta) != tuple((-1) ** (m - mb) * c for c in below):
                    return False, f"{s}: psi_Q({i},{p - 2 * q.d[i]}) is not tau_Q^{q.d[i]} of psi_Q({i},{p})"
                steps += 1
    return True, f"{len(SWEEP)} instances, {steps} edge steps"


def criterion_7_duality_shift_laws() -> tuple[bool, str]:
    """s_{i,a} = -s(dual) as functions; shift equivariance; 100 random samples."""
    rng = random.Random(_SEED)
    for _ in range(100):
        d = build(parse_type_string(rng.choice(SWEEP)))
        i = rng.choice(d.i0)
        a = scalar(rng.randrange(24), Fraction(rng.randrange(-36, 37), rng.choice((1, 2, 3, 6))))
        p = sigma_point(d, i, a)
        if s_func(d, p) != -s_func(d, dual_shift(d, p, 1)):
            return False, f"duality fails at {d} {p}"
        t = scalar(rng.randrange(24), Fraction(rng.randrange(-12, 13), rng.choice((1, 2, 3, 6))))
        j = rng.choice(d.i0)
        b = scalar(rng.randrange(24), rng.randrange(-8, 9))
        lhs = s_func(d, sigma_point(d, i, t * a)).value_at(d, j, t * b)
        rhs = s_func(d, p).value_at(d, j, b)
        if lhs != rhs:
            return False, f"shift equivariance fails at {d} {p} t={t}"
    return True, "100 samples"


def _kernel_lists(s: str, t) -> list[list]:
    """The block-kernel generator sets, per untwisted family (one rank each)."""
    d = build(parse_type_string(s))
    qp = lambda k: t * Q ** k  # noqa: E731
    fam = d.family
    n = d.n
    if fam == Family.A1:
        return [[(1, qp(2 * k)) for k in range(n + 1)]]
    if fam == Family.B1:
        return [[(n, t), (n, qp(2 * n - 1))]]
    if fam == Family.C1:
        return [[(1, t), (1, qp(n + 1))]]
    if fam == Family.D1 and n % 2 == 1:
        return [[(n, t), (n, qp(2)), (n, qp(2 * n - 2)), (n, qp(2 * n))]]
    if fam == Family.D1:
        return [
            [(n - 1, t), (n - 1, qp(2)), (n, qp(2 * n - 2)), (n, qp(2 * n))],
            [(n - 1, t), (n - 1, qp(2 * n - 2))],
            [(n, t), (n, qp(2 * n - 2))],
        ]
    if fam == Family.E6_1:
        return [
            [(1, t), (1, qp(8)), (1, qp(16))],
            [(1, t), (1, qp(2)), (1, qp(4)), (1, qp(12)), (1, qp(14)), (1, qp(16))],
        ]
    if fam == Family.E7_1:
        return [
            [(7, t), (7, qp(18))],
            [(7, t), (7, qp(2)), (7, qp(12)), (7, qp(14)), (7, qp(24)), (7, qp(26))],
        ]
    if fam == Family.E8_1:
        return [
            [(8, t), (8, qp(30))],
            [(8, t), (8, qp(20)), (8, qp(40))],
            [(8, t), (8, qp(12)), (8, qp(24)), (8, qp(36)), (8, qp(48))],
        ]
    if fam == Family.F4_1:
        return [
            [(4, t), (4, qp(9))],
            [(4, t), (4, qp(6)), (4, qp(12))],
        ]
    if fam == Family.G2_1:
        return [
            [(2, t), (2, qp(4))],
            [(2, t), (2, t * MINUS_QT ** 8), (2, t * MINUS_QT ** 16)],
        ]
    raise ValueError(s)


def criterion_8_block_kernels() -> tuple[bool, str]:
    """Every kernel generator of the block-group presentation maps to zero."""
    reps = ["A3-1", "B3-1", "C3-1", "D5-1", "D4-1", "E6-1", "E7-1", "E8-1", "F4-1", "G2-1"]
    checked = 0
    for s in reps:
        d = build(parse_type_string(s))
        for t in (scalar(0, 0), scalar(7, Fraction(5, 2))):
            for gen in _kernel_lists(s, t):
                pts = [sigma_point(d, i, x) for i, x in gen]
                if not e_of(d, pts).is_zero:
                    return False, f"kernel generator {gen} nonzero for {s}"
                checked += 1
    return True, f"{checked} generator sets"


def criterion_9_delta0_census() -> tuple[bool, str]:
    """|Delta_0| equals the root count of gfin; members distinct of norm 2."""
    reps = ["A4-1", "B3-1", "C3-1", "D5-1", "A4-2", "A5-2", "D5-2",
            "E6-1", "E7-1", "E8-1", "F4-1", "G2-1", "E6-2", "D4-3"]
    counts = {"A": lambda r: r * (r + 1), "D": lambda r: 2 * r * (r - 1),
              "E": lambda r: {6: 72, 7: 126, 8: 240}[r]}
    for s in reps:
        d = build(parse_type_string(s))
        roots = delta0(d)
        want = counts[d.gfin.letter](d.gfin.rank)
        if len(roots) != want:
            return False, f"{s}: |Delta_0| = {len(roots)}, expected {want}"
        if len(set(roots)) != want:
            return False, f"{s}: members not pairwise distinct"
        for f in roots:
            if pairing(d, f, f) != 2:
                return False, f"{s}: member of norm != 2"
    return True, f"{len(reps)} families"


def criterion_10_algebraic_identities() -> tuple[bool, str]:
    """de symmetry, parity, 2 de = Lambda + Lambda-reversed on 500 random pairs."""
    rng = random.Random(_SEED + 1)
    for _ in range(500):
        d = build(parse_type_string(rng.choice(SWEEP)))
        p1 = sigma_point(d, rng.choice(d.i0), scalar(rng.randrange(24), rng.randrange(-9, 10)))
        p2 = sigma_point(d, rng.choice(d.i0), scalar(rng.randrange(24), rng.randrange(-9, 10)))
        if de(d, p1, p2) != de(d, p2, p1):
            return False, f"de asymmetry at {d} {p1} {p2}"
        if (lambda_(d, p1, p2) - lambda_inf(d, p1, p2)) % 2:
            return False, f"parity fails at {d} {p1} {p2}"
        if 2 * de(d, p1, p2) != lambda_(d, p1, p2) + lambda_(d, p2, p1):
            return False, f"2de identity fails at {d} {p1} {p2}"
    return True, "500 pairs"


def criterion_11_cross_component_orthogonality() -> tuple[bool, str]:
    """Pairs in provably different translates pair to zero."""
    rng = random.Random(_SEED + 2)
    sixth = scalar(0, Fraction(1, 6))
    for _ in range(50):
        d = build(parse_type_string(rng.choice(SWEEP)))
        p1 = sigma_point(d, rng.choice(d.i0), scalar(rng.randrange(24), rng.randrange(-6, 7)))
        off = sixth * scalar(rng.randrange(24), rng.randrange(-6, 7))
        p2 = sigma_point(d, rng.choice(d.i0), p1.param * off)
        if component_class(d, p1.node, p1.param) == component_class(d, p2.node, p2.param):
            return False, f"offset by q^(1/6) failed to leave the component at {d}"
        if pairing(d, p1, p2) != 0:
            return False, f"cross-component pairing nonzero at {d} {p1} {p2}"
    return True, "50 pairs"


def criterion_12_delta0_coordinates() -> tuple[bool, str]:
    """psi_lattice gives s_{phi_Q(beta)} the coordinates beta and its dual translate -beta."""
    for s in SWEEP:
        d = build(parse_type_string(s))
        q = default_qdatum(d)
        for beta, p in phi_q_map(q, d).items():
            for pt, want in ((p, beta), (dual_shift(d, p), tuple(-c for c in beta))):
                try:
                    got = psi_lattice(d, q, s_func(d, pt))
                except NotInW0 as exc:
                    return False, f"{s}: {pt} is not in W0: {exc}"
                if got != want:
                    return False, f"{s}: {pt} has coordinates {got}, not {want}"
    return True, f"{len(SWEEP)} instances"


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("1 main theorem: gram = Cartan for all 14 families", criterion_1_main_theorem),
    ("2 self-pairing 2 and dual-orbit de", criterion_2_self_pairing),
    ("3 quantum Cartan formula = series oracle (ADE <= 8)", criterion_3_ctilde_cross_check),
    ("4 lambda-infinity = dual-orbit de sum (= ctilde difference on ADE)", criterion_4_lambda_identity),
    ("5 phi_Q image = explicit sigma_Q lists", criterion_5_phi_golden),
    ("6 psi_Q bijective on the m-window", criterion_6_psi_bijectivity),
    ("7 duality and shift equivariance", criterion_7_duality_shift_laws),
    ("8 block kernel generators vanish", criterion_8_block_kernels),
    ("9 Delta_0 census", criterion_9_delta0_census),
    ("10 de/Lambda algebraic identities", criterion_10_algebraic_identities),
    ("11 cross-component orthogonality", criterion_11_cross_component_orthogonality),
    ("12 Delta_0 coordinates = the roots of gfin", criterion_12_delta0_coordinates),
]


def run_criteria():
    """Yield (name, ok, detail, seconds) for each criterion, in order."""
    for name, fn in CRITERIA:
        start = time.perf_counter()
        ok, detail = fn()
        yield name, ok, detail, time.perf_counter() - start
