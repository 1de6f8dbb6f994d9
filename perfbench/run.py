"""Run one benchmark workload against the qaffine sources of this checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

The run builds the workload's inputs from the seed, then runs a fixed number
of whole rounds of the same ops: the fewest rounds that take `--seconds` on
the machine the benchmark was tuned on, so the work done never depends on
how fast the machine is now.  Each op is timed alone, with the reference
kernel timed just before and after it.  The outputs are checked outside the
timed region.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`, which are the end-to-end
metrics of BENCHMARK.json with `--trace 0` and its per-layer metrics with
`--trace 1`.  A fuller record goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 31
# seconds one round takes on the tuning machine (2-vCPU Intel Xeon VM, Python 3.11)
NOMINAL_ROUND_SECONDS = {"census": 16.0, "partition": 11.0, "cli": 8.5}
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 75, 50)
# imported anew for every set-up, as a fresh process imports them
FRESH_MODULES = ("qaffine", "workloads", "checks", "layers")


def round_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / NOMINAL_ROUND_SECONDS[workload]))


def tail_percentile(samples_per_round: int) -> float:
    """The highest percentile with at least ten samples of one round beyond it."""
    return next(p for p in TAIL_PERCENTILES if samples_per_round * (100 - p) / 100 >= 10)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure_setup(workload: str, seed: int, workdir: Path, ref_seconds, nominal_seconds: float):
    """Set-up time: importing qaffine and building the workload's inputs.

    Set-up runs SETUP_REPEATS times in this process, each time on freshly
    imported modules, with the reference kernel timed just before and after.
    The run calls it in a child process (`--setup-only`), so that the
    repeated imports do not count in the run's own peak RSS.
    Returns the median time at the nominal reference speed (time in refs,
    times the kernel's nominal duration) and the median raw wall time.
    """
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        for name in list(sys.modules):
            if name.split(".")[0] in FRESH_MODULES:
                del sys.modules[name]
        gc.collect()
        ref_before = ref_seconds()
        t0 = perf_counter()
        importlib.import_module("workloads").WORKLOADS[workload](seed, workdir, None)
        dt = perf_counter() - t0
        scaled.append(dt / math.sqrt(ref_before * ref_seconds()) * nominal_seconds)
        raw.append(dt)
    return median(scaled), median(raw)


def run_rounds(wl, rounds: int, tracer, ref_seconds, op_failed) -> list[dict]:
    done: list[dict] = []
    for _ in range(rounds):
        wl.start_round()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        durations, ratios, results, failed = [], [], [], 0
        for kind, _, fn in wl.ops:
            ref_before = ref_seconds()
            t0 = perf_counter()
            try:
                result = fn()
            except op_failed as exc:
                result = None
                failed += 1
                if not done:
                    print(f"failed op {kind}: {exc}", file=sys.stderr)
            except Exception:  # a program error fails the op, not the run
                result = None
                failed += 1
                traceback.print_exc()
            dt = perf_counter() - t0
            ref_after = ref_seconds()
            durations.append(dt)
            ratios.append(dt / math.sqrt(ref_before * ref_after))
            results.append(result)
        layers = tracer.snapshot() if tracer is not None else None
        problems = wl.check(results, first=not done)
        done.append({"durations": durations, "ratios": ratios, "failed": failed,
                     "layers": layers, "problems": problems})
    return done


def op_timings(rounds: list[dict], ops_per_round: int) -> dict:
    durations = [d for r in rounds for d in r["durations"]]
    ratios = [x for r in rounds for x in r["ratios"]]
    return {
        "run_s": median(sum(r["durations"]) for r in rounds),
        "run_ref": median(sum(r["ratios"]) for r in rounds),
        "op_p50_ms": median(durations) * 1e3,
        "op_p50_ref": median(ratios),
        "op_tail_ref": percentile(ratios, tail_percentile(ops_per_round)),
    }


def per_layer(rounds: list[dict], layer_metrics) -> tuple[dict, list[str]]:
    """Counts from the first round (every round must repeat them); times as medians over rounds."""
    per_round = [layer_metrics(r["layers"]) for r in rounds]
    out, problems = {}, []
    for name, first in per_round[0].items():
        values = [m[name] for m in per_round]
        if name.endswith("_ms"):
            out[name] = median(values)
        else:
            out[name] = first
            if any(v != first for v in values):
                problems.append(f"{name} differs between rounds: {values}")
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(NOMINAL_ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qaffine" / "__init__.py").is_file():
        print(f"error: no qaffine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so that an op and the
    # reference kernel timed next to it run on the same processor
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import refkernel

    rounds = round_count(args.workload, args.seconds)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(json.dumps(measure_setup(
                args.workload, args.seed, workdir, refkernel.ref_seconds, refkernel.NOMINAL_SECONDS)))
            return 0
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            check=True, stdout=subprocess.PIPE, text=True)
        setup_s, setup_raw_s = json.loads(child.stdout)
        import checks
        import layers
        import workloads

        checks.selftest()
        tracer = layers.Tracer() if args.trace else None
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, tracer)
        done = run_rounds(wl, rounds, tracer, refkernel.ref_seconds, workloads.OpFailed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    computed = {"setup_s": setup_s, "setup_raw_s": setup_raw_s, "peak_rss_mb": wl.peak_rss_kb / 1024,
                **op_timings(done, len(wl.ops))}
    problems = [p for r in done for p in r["problems"]]
    if args.trace:
        layer_values, layer_problems = per_layer(done, layers.layer_metrics)
        computed.update(layer_values)
        problems += layer_problems

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}
    attempted = len(wl.ops) * rounds
    failed = sum(r["failed"] for r in done)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(wl.ops),
        "tail_percentile": tail_percentile(len(wl.ops)), "problems": problems,
        "metrics": computed, "ref_ms_median": median(
            d / x * 1e3 for r in done for d, x in zip(r["durations"], r["ratios"])),
        "first_round_ops": [
            {"kind": kind, "ms": d * 1e3, "ref": x}
            for (kind, _, _), d, x in zip(wl.ops, done[0]["durations"], done[0]["ratios"])
        ],
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload}: {rounds} round(s) of {len(wl.ops)} ops, "
          f"attempted {attempted}, failed {failed}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  raw, machine-speed dependent: run_s = {computed['run_s']:.6g} s, "
          f"op_p50_ms = {computed['op_p50_ms']:.6g} ms, setup_raw_s = {computed['setup_raw_s']:.6g} s")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
