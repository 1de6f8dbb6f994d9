"""Time the cold tables of large types in fresh processes, from one or more source trees.

Usage: python tools/cold_tables.py <src-dir> [<src-dir> ...]

Each run starts a fresh interpreter with PYTHONPATH=<src-dir> and times, on
one type, `build`, `default_qdatum`, `sigma_q_points`, `gram` and `delta0` in
that order, then `delta0` once more, then `psi_lattice` over every member of
Delta_0, the work of acceptance criterion 12 ("coords").  Each step finds the
tables of the steps before it and builds its own: `build` pays for the root
system, `sigma_q_points` for the psi_Q rows of the window I_Q and phi_Q on
them, `gram` for the templates of the nodes it pairs and `delta0` for the
dual translates and the rest of its s-functions; the second, warm `delta0`
finds every s-function cached, and "coords" builds the root coordinates and
lists each member's.  The map from members to coordinates is built after the
timer stops, as it pays each member's first hash, which criterion 12 does
not.  The child checks its results by explicit tests, which `python -O`
keeps: Gram = Cartan, |Delta_0| = 2|Delta+| = 2|sigma_Q| distinct members,
and, member by member, that s_{phi_Q(beta)} has the coordinates beta and its
dual translate -beta for every positive root beta; a failed check stops the
tool with a non-zero exit and the child's message.  The import is not timed.
The child also reports its peak RSS (`ru_maxrss`) after the last step.  The
types are A32-1, A64-1, A64-2, B32-1, C32-1, D64-1, D64-2 and E8-1 (A64-2
and D64-2 fold at the cap).  Runs go one process at a time, 5 per type and
tree, alternating between the source trees with the helpers of
`import_cost.py`.  For each type it prints the median and quartiles per tree
of each step and of their total in milliseconds, and of the peak RSS in MB.
To compare two checkouts:

    python tools/cold_tables.py /path/to/parent/src src
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

from import_cost import alternate, missing_tree, tree_env

RUNS = 5
TYPES = ("A32-1", "A64-1", "A64-2", "B32-1", "C32-1", "D64-1", "D64-2", "E8-1")
STEPS = ("build", "default_qdatum", "sigma_q_points", "gram", "delta0", "delta0 (warm)", "coords")
RSS = "peak RSS (MB)"
CHILD = """
import json, resource, sys
from time import perf_counter
from qaffine import (build, default_qdatum, delta0, dual_shift, gram, parse_type_string, phi_q_map, psi_lattice,
                     s_func, sigma_q_points)
t = parse_type_string(sys.argv[1])
out = {}
t0 = perf_counter(); d = build(t); out["build"] = perf_counter() - t0
t0 = perf_counter(); q = default_qdatum(d); out["default_qdatum"] = perf_counter() - t0
t0 = perf_counter(); pts = sigma_q_points(d, q); out["sigma_q_points"] = perf_counter() - t0
t0 = perf_counter(); ok = gram(d).equal; out["gram"] = perf_counter() - t0
t0 = perf_counter(); n = len(delta0(d)); out["delta0"] = perf_counter() - t0
t0 = perf_counter(); warm = delta0(d); out["delta0 (warm)"] = perf_counter() - t0
t0 = perf_counter(); listed = [psi_lattice(d, q, f) for f in warm]; out["coords"] = perf_counter() - t0
coords = dict(zip(warm, listed))  # untimed: the member map pays each member's hash
roots = d.gfin.positive_roots  # checked by raising, not by assert, so that -O keeps the checks
if not ok or not n == 2 * len(roots) == 2 * len(pts) == len(warm) == len(coords):
    sys.exit(f"{sys.argv[1]}: Gram = Cartan is {ok}; |Delta0| = {n} (warm {len(warm)}), {len(coords)} distinct"
             f" members, 2|Delta+| = {2 * len(roots)}, 2|sigma_Q| = {2 * len(pts)}")
for beta, p in phi_q_map(q, d).items():  # member by member: s_{phi_Q(beta)} at beta, its dual translate at -beta
    for point, want in ((p, beta), (dual_shift(d, p), tuple(-c for c in beta))):
        if coords.get(s_func(d, point)) != want:
            sys.exit(f"{sys.argv[1]}: the coordinates of s_{point} are {coords.get(s_func(d, point))}, not {want}")
print(json.dumps({"seconds": out, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def _time_once(src: str, type_string: str) -> dict[str, float]:
    """One child's step times in ms, their total, and its peak RSS in MB."""
    out = subprocess.run([sys.executable, "-c", CHILD, type_string], env=tree_env(src), capture_output=True,
                         text=True)
    if out.returncode:
        raise SystemExit(f"{type_string} from {src}: {out.stderr.strip()}")
    record = json.loads(out.stdout)
    ms = {step: seconds * 1e3 for step, seconds in record["seconds"].items()}
    return {**ms, "total": sum(ms.values()), RSS: record["peak_rss_kb"] / 1024}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if (src := missing_tree(argv, "blocks.py")) is not None:
        print(f"{src} holds no qaffine/blocks.py", file=sys.stderr)
        return 2

    trees = [str(Path(src).resolve()) for src in argv]
    rows = (*STEPS, "total", RSS)
    samples = {(src, t): {row: [] for row in rows} for src in trees for t in TYPES}
    for t, src in alternate([(t, src) for t in TYPES for src in trees], RUNS):
        for row, value in _time_once(src, t).items():
            samples[src, t][row].append(value)

    print(f"{sys.executable} {sys.version.split()[0]}, {RUNS} fresh processes per type and tree")
    print(f"{'type':6s} {'step':15s} " + "  ".join(f"{'tree ' + str(k + 1):>24s}" for k in range(len(trees))))
    for t in TYPES:
        for row in rows:
            cells = []
            for src in trees:
                q1, med, q3 = quantiles(samples[src, t][row], n=4)
                cells.append(f"{med:8.1f} ({q1:.1f}-{q3:.1f})")
            print(f"{t:6s} {row:15s} " + "  ".join(f"{c:>24s}" for c in cells))
    for k, src in enumerate(trees, start=1):
        print(f"tree {k}: {src}")
    print("ms, or MB for the peak RSS: median (quartiles)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
