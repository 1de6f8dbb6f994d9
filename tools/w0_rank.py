"""Print the rank of the Delta_0 functions against rank(gfin), type by type.

Usage: python tools/w0_rank.py <src-dir> [type ...]

Imports `qaffine` from <src-dir>.  For each type (by default the 33
`acceptance.SWEEP` types) it takes the s-functions of `delta0(d)` as integer
vectors over their `keyed` support and computes the exact rank of their span
by fraction-free row reduction.  The paper's theorem makes (R (x) W0, Delta_0)
a root system of rank n = rank(gfin), so the two numbers should agree.  Each
line shows the type, |Delta_0|, that rank and rank(gfin); the exit code is 1
if any type disagrees.  This is a diagnostic, not part of the test suite.
"""

from __future__ import annotations

import sys
from math import gcd
from pathlib import Path


def integer_rank(vectors) -> int:
    """Exact rank of sparse integer vectors (dicts key -> int)."""
    pivots: dict = {}  # leading key -> reduced row with that leading key
    for vec in vectors:
        row = {k: v for k, v in vec.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            a, b = row[lead], piv[lead]
            row = {k: b * row.get(k, 0) - a * piv.get(k, 0) for k in row.keys() | piv.keys()}
            row = {k: v for k, v in row.items() if v}
            g = gcd(*row.values()) if row else 1
            row = {k: v // g for k, v in row.items()}
    return len(pivots)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    from qaffine import build, delta0, parse_type_string
    from qaffine.acceptance import SWEEP

    bad = 0
    for s in argv[1:] or SWEEP:
        d = build(parse_type_string(s))
        roots = delta0(d)
        rank = integer_rank(dict(f.keyed) for f in roots)
        ok = rank == d.gfin.rank
        bad += not ok
        print(f"{s:8} |Delta0| {len(roots):4}  rank {rank:3}  rank(gfin) {d.gfin.rank:3}  {'ok' if ok else 'MISMATCH'}")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
