"""Steadiness check: run every workload in two sets of runs and compare them.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json once per seed 1..RUNS, with
BENCHMARK.json's `run_seconds`.  For every end-to-end metric it prints, per
set, the median and the spread (the distance between the first and third
quartile as a share of the median), and the shift of the second set's
median from the first's.  A metric passes if its spread stays under a third
of its bound in both sets and the shift stays within the bound.  Each
workload must also be correct in every run and fail the same share of its
ops in every run.  Two traced runs per workload must give identical counts.
The runs go one after another, never in parallel, so that they do not
compete for the machine.  Exits with code 1 if anything fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
TRACED = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def compare(spec: dict, sets: list[list[dict]]) -> tuple[dict, bool]:
    """Spread of every end-to-end metric in each set, and the shift of its median between sets."""
    rows, ok = {}, True
    for m in spec["end_to_end"]:
        values = [[r["metrics"][m["name"]]["value"] for r in results] for results in sets]
        medians = [median(v) for v in values]
        spreads = [spread(v) for v in values]
        shift = max(abs(x / medians[0] - 1) for x in medians)
        passed = max(spreads) < m["bound"] / 3 and shift <= m["bound"]
        ok &= passed
        rows[m["name"]] = {"medians": medians, "spreads": spreads, "shift": shift,
                           "bound": m["bound"], "passed": passed, "values": values}
        print(f"  {m['name']:<12} medians {' '.join(f'{x:11.6g}' for x in medians)} {m['unit']:<4}"
              f" spreads {' '.join(f'{x:6.4f}' for x in spreads)}  shift {shift:6.4f}"
              f"  bound {m['bound']:.3f}  {'ok' if passed else 'FAILS'}")
    return rows, ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = range(1, RUNS + 1)
    summary, all_ok = {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run_once(workload, s, seconds, 0) for s in seeds] for _ in range(SETS)]
        results = [r for results in sets for r in results]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {SETS} sets of {RUNS} runs, correct={correct}, failed shares {shares}")
        rows, ok = compare(spec, sets)
        traced = [run_once(workload, 1, seconds, 1) for _ in range(TRACED)]
        counts = [{k: v["value"] for k, v in t["metrics"].items() if not k.endswith("_ms")} for t in traced]
        repeat = all(c == counts[0] for c in counts)
        print(f"  traced: {TRACED} runs, correct={all(t['correct'] for t in traced)}, "
              f"counts repeat exactly: {repeat}")
        all_ok &= ok and correct and len(shares) == 1 and repeat and all(t["correct"] for t in traced)
        summary[workload] = {"seeds": list(seeds), "correct": correct, "failed_shares": shares,
                             "metrics": rows, "traced_counts_repeat": repeat,
                             "traced": [t["metrics"] for t in traced]}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
