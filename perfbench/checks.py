"""Independent checks of the workloads' outputs.

Every expectation here comes from the mathematics (closed forms, root
counts, determinants, additivity), never from a saved copy of qaffine's
output.  The checks run outside the timed region.  `selftest` feeds each
check known-bad inputs and fails if any of them is let through, so a check
that has stopped checking is caught on every run.
"""

from __future__ import annotations

import re
from fractions import Fraction

# The associated simply-laced type (the paper's g_fin) of each family.
_UNTWISTED = {
    "A": lambda n: ("A", n),
    "B": lambda n: ("A", 2 * n - 1),
    "C": lambda n: ("D", n + 1),
    "D": lambda n: ("D", n),
    "E": lambda n: ("E", n),
    "F": lambda n: ("E", 6),
    "G": lambda n: ("D", 4),
}
_TWISTED = {
    ("A", 2): lambda n: ("A", n),
    ("D", 2): lambda n: ("D", n),
    ("E", 2): lambda n: ("E", 6),
    ("D", 3): lambda n: ("D", 4),
}
# det of the Cartan matrix, one value per simply-laced type
_DET = {"A": lambda r: r + 1, "D": lambda r: 4, "E": lambda r: 9 - r}


def associated_type(type_string: str) -> tuple[str, int]:
    """`B3-1` -> ("A", 5): the finite simply-laced type the theorem predicts."""
    m = re.fullmatch(r"([A-G])(\d+)-([123])", type_string)
    if not m:
        raise ValueError(f"not a type string: {type_string}")
    letter, n, twist = m.group(1), int(m.group(2)), int(m.group(3))
    table = _UNTWISTED[letter] if twist == 1 else _TWISTED[(letter, twist)]
    return table(n)


def root_count(letter: str, rank: int) -> int:
    """|Delta| of the simply-laced type: r(r+1), 2r(r-1), or 72/126/240."""
    if letter == "A":
        return rank * (rank + 1)
    if letter == "D":
        return 2 * rank * (rank - 1)
    return {6: 72, 7: 126, 8: 240}[rank]


def determinant(matrix) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in matrix]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def cartan_problems(matrix, letter: str, rank: int) -> list[str]:
    """A Gram matrix must be the Cartan matrix of `letter``rank`, up to node order.

    Symmetric, 2 on the diagonal, off-diagonal entries in {0, -1}, a tree
    as graph, and the determinant of the type (which, at fixed rank, tells
    A, D and E apart).
    """
    n = len(matrix)
    if n != rank or any(len(row) != n for row in matrix):
        return [f"matrix is not {rank}x{rank}"]
    out = []
    if any(matrix[i][j] != matrix[j][i] for i in range(n) for j in range(n)):
        out.append("matrix is not symmetric")
    if any(matrix[i][i] != 2 for i in range(n)):
        out.append("diagonal entry != 2")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if matrix[i][j]]
    if any(matrix[i][j] not in (0, -1) for i in range(n) for j in range(n) if i != j):
        out.append("off-diagonal entry outside {0, -1}")
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in range(n):
            if matrix[i][j] and j not in reached:
                reached.add(j)
                frontier.append(j)
    if len(edges) != n - 1 or len(reached) != n:
        out.append("graph of the matrix is not a tree")
    if determinant(matrix) != _DET[letter](rank):
        out.append(f"determinant {determinant(matrix)} is not that of {letter}{rank}")
    return out


def census_problems(type_string: str, members, delta0, norms, gram_matrix) -> list[str]:
    """Delta_0 of one family: the members are s-functions, one per point of sigma_Q u sigma_Q^*."""
    letter, rank = associated_type(type_string)
    want = root_count(letter, rank)
    funcs = [frozenset(f.values) for f in members]
    found = set(funcs)
    out = []
    if len(funcs) != want or len(found) != want:
        out.append(f"{type_string}: {len(found)} distinct of {len(funcs)} members, want {want}")
    if {frozenset(f.values) for f in delta0} != found:
        out.append(f"{type_string}: delta0 differs from the census of s-functions")
    if any(n != 2 for n in norms):
        out.append(f"{type_string}: member of norm != 2")
    if {frozenset((p, -v) for p, v in f) for f in found} != found:
        out.append(f"{type_string}: Delta_0 is not closed under negation")
    out += [f"{type_string}: gram: {p}" for p in cartan_problems(gram_matrix, letter, rank)]
    return out


def add_labels(*labels) -> dict:
    """Sum of block labels, per component, with zero components dropped."""
    total: dict[str, tuple[int, ...]] = {}
    for label in labels:
        for comp, coords in label:
            prev = total.get(comp, (0,) * len(coords))
            total[comp] = tuple(a + b for a, b in zip(prev, coords))
    return {c: v for c, v in total.items() if any(v)}


def additivity_problem(label_m, label_n, label_mn) -> str | None:
    if add_labels(label_m, label_n) != add_labels(label_mn):
        return f"label not additive: {label_m} + {label_n} != {label_mn}"
    return None


def dual_pair_problem(label) -> str | None:
    return None if not add_labels(label) else f"{{p, D p}} has nontrivial label {label}"


def phi_root_problem(label, beta) -> str | None:
    want = {"1": tuple(beta)}
    return None if add_labels(label) == want else f"label of phi_Q({beta}) is {label}"


def order_problem(label, label_reversed) -> str | None:
    if add_labels(label) != add_labels(label_reversed):
        return f"label depends on the order of the points: {label} vs {label_reversed}"
    return None


def _coords_of(entries) -> list:
    return [(e["component"].removeprefix("t="), tuple(e["coords"])) for e in entries]


def cli_problem(kind: str, payload, expect) -> str | None:
    """Check one CLI JSON payload against the closed form for its kind."""
    if kind == "de":
        ok = payload["de"] == 1
    elif kind == "lambda-inf":
        ok = payload["lambda-inf"] == -2
    elif kind == "denom":
        ok = payload["roots"] == [{"scalar": "q^2", "mult": 1}]
    elif kind == "s-func":
        values = payload["values"]
        ok = {"at": expect, "value": -2} in values and all(v["value"] for v in values)
    elif kind == "e-of":
        ok = payload["values"] == []
    elif kind == "block-label":
        ok = phi_root_problem(_coords_of(payload["label"]), expect) is None
    elif kind == "sigma-q":
        rows = {(p["i"], p["scalar"]) for p in payload["points"]}
        ok = len(payload["points"]) == len(rows) == root_count(*expect) // 2
    elif kind == "cartan-check":
        ok = payload["equal"] is True and not cartan_problems(payload["matrix"], *expect)
    elif kind == "partition":
        blocks = {}
        for idx, block in enumerate(payload["blocks"]):
            for member in block["members"]:
                blocks[tuple(member)] = (idx, _coords_of(block["label"]))
        single, with_pair, pair = (tuple(m) for m in expect)
        ok = (
            sum(len(b["members"]) for b in payload["blocks"]) == 3
            and blocks[single][0] == blocks[with_pair][0]
            and dual_pair_problem(blocks[pair][1]) is None
        )
    elif kind == "verify":
        ok = True  # the output must parse as JSON; nothing more is specified
    else:
        raise ValueError(f"unknown kind {kind}")
    return None if ok else f"{kind}: unexpected output {payload}"


class _Fn:
    """Stand-in for a SigmaFunction in the self-test."""

    def __init__(self, values):
        self.values = tuple(values)


def selftest() -> None:
    """Raise RuntimeError unless every check rejects its known-bad input and accepts good ones."""
    a3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    d4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    bad_cases = {
        "asymmetric": cartan_problems(((2, -1, 0), (0, 2, -1), (0, -1, 2)), "A", 3),
        "diagonal": cartan_problems(((2, -1, 0), (-1, 4, -1), (0, -1, 2)), "A", 3),
        "cycle": cartan_problems(((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), "A", 3),
        "entry": cartan_problems(((2, -2, 0), (-2, 2, -1), (0, -1, 2)), "A", 3),
        "wrong type": cartan_problems(d4, "A", 4),
    }
    f = _Fn([("p", 1), ("r", -1)])
    neg = _Fn([("p", -1), ("r", 1)])
    g = _Fn([("s", 1)])
    bad_cases["census count"] = census_problems("A1-1", [f, f], [f], [2, 2], ((2,),))
    bad_cases["census negation"] = census_problems("A1-1", [f, g], [f, g], [2, 2], ((2,),))
    bad_cases["census norm"] = census_problems("A1-1", [f, neg], [f, neg], [2, 4], ((2,),))
    bad_cases["census delta0"] = census_problems("A1-1", [f, neg], [f], [2, 2], ((2,),))
    lab = [("1", (1, 0))]
    bad_cases["additivity"] = [additivity_problem(lab, lab, [("1", (1, 0))])]
    bad_cases["dual pair"] = [dual_pair_problem([("q", (0, 1))])]
    bad_cases["phi root"] = [phi_root_problem([("1", (0, 1))], (1, 0))]
    bad_cases["order"] = [order_problem(lab, [("1", (0, 1))])]
    bad_cases["cli de"] = [cli_problem("de", {"de": 0}, None)]
    bad_cases["cli lambda-inf"] = [cli_problem("lambda-inf", {"lambda-inf": 2}, None)]
    bad_cases["cli denom"] = [cli_problem("denom", {"roots": [{"scalar": "q", "mult": 1}]}, None)]
    bad_cases["cli s-func"] = [cli_problem("s-func", {"values": [{"at": "1@1", "value": 2}]}, "1@1")]
    bad_cases["cli e-of"] = [cli_problem("e-of", {"values": [{"at": "1@1", "value": 1}]}, None)]
    bad_cases["cli block-label"] = [
        cli_problem("block-label", {"label": [{"component": "t=q", "coords": [1]}]}, (1,))
    ]
    bad_cases["cli sigma-q"] = [
        cli_problem("sigma-q", {"points": [{"i": 1, "scalar": "1"}] * 3}, ("A", 2))
    ]
    bad_cases["cli cartan-check"] = [
        cli_problem("cartan-check", {"equal": True, "matrix": a3}, ("D", 4))
    ]
    part = {"blocks": [
        {"label": [], "members": [["1@1"], ["1@1", "2@q", "1@q^3"]]},
        {"label": [{"component": "t=1", "coords": [0, 1]}], "members": [["2@q", "1@q^3"]]},
    ]}
    bad_cases["cli partition"] = [
        cli_problem("partition", part, (["1@1"], ["1@1", "2@q", "1@q^3"], ["2@q", "1@q^3"]))
    ]
    passed = [name for name, problems in bad_cases.items() if not any(problems)]
    good = cartan_problems(d4, "D", 4) + cartan_problems(a3, "A", 3)
    if passed or good:
        raise RuntimeError(f"checks let bad input through: {passed}; rejected good input: {good}")
