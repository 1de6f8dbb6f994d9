"""The benchmark's workloads: seeded inputs, one round of ops, and output checks.

A workload is built once per run from its seed (this is the set-up), then
runs whole rounds.  Every round starts from cold qaffine caches and runs the
same list of ops; each op is one call into a public qaffine function, or
one `qaffine` invocation in a fresh interpreter.

- census: the Delta_0 root census of the fourteen families of acceptance
  criterion 9 -- build, default Q-datum, one s_func per point of
  sigma_Q u sigma_Q^*, then delta0 and gram.  Every s_func is a cache
  miss, and the lattice solver in `blocks` does no work.
- partition: the block label of each module of a seeded stream over an
  untwisted ADE, an E-type and a twisted family.  Points span several
  ptilde periods and several components.  s_func mostly hits its cache,
  and the time goes to pairing and the lattice solve.
- cli: seeded single `qaffine` invocations on small types, each in a
  fresh interpreter, so the time goes to start-up, import and `build`.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import qaffine
from qaffine.qdata import translate_star

import checks
from layers import Tracer

CENSUS_TYPES = ("A4-1", "B3-1", "C3-1", "D5-1", "A4-2", "A5-2", "D5-2",
                "E6-1", "E7-1", "E8-1", "F4-1", "G2-1", "E6-2", "D4-3")
PARTITION_TYPES = ("A5-1", "E7-1", "D5-2")
PARTITION_MODULES = 160  # per type and round
CLI_TYPES = ("A2-1", "A3-1", "B2-1", "D4-1", "G2-1", "A4-2")
CLI_KINDS = ("de", "lambda-inf", "denom", "s-func", "e-of", "block-label",
             "sigma-q", "cartan-check", "partition", "verify")


class OpFailed(Exception):
    """An op ran to its end without producing a usable result."""


def cold_caches() -> None:
    """Empty every memo cache in qaffine, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "qaffine":
            continue
        for value in list(vars(module).values()):
            # look through the tracer's wrappers down to the lru_cache
            while callable(value):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
                    break
                value = getattr(value, "__wrapped__", None)


def _data(type_string: str):
    d = qaffine.build(qaffine.parse_type_string(type_string))
    return d, qaffine.default_qdatum(d)


def _census_points(d, q) -> list:
    pts = qaffine.sigma_q_points(d, q)
    return sorted(pts | translate_star(d, pts, 1))


class _InProcess:
    """A workload whose ops call qaffine in this process."""

    def trace_layers(self, trace: Tracer | None) -> None:
        if trace is not None:
            trace.install()

    @property
    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Census(_InProcess):
    def __init__(self, seed: int, workdir: Path, trace: Tracer | None):
        rng = random.Random(seed)
        self.points = {}
        for s in rng.sample(CENSUS_TYPES, len(CENSUS_TYPES)):
            pts = _census_points(*_data(s))
            rng.shuffle(pts)
            self.points[s] = pts
        self.ops = []
        for s, pts in self.points.items():
            self.ops.append(("build", s, lambda s=s: self._build(s)))
            self.ops.append(("default_qdatum", s, lambda s=s: self._qdatum(s)))
            self.ops += [("s_func", s, lambda s=s, p=p: qaffine.s_func(self.d[s], p)) for p in pts]
            self.ops.append(("delta0", s, lambda s=s: qaffine.delta0(self.d[s], self.q[s])))
            self.ops.append(("gram", s, lambda s=s: qaffine.gram(self.d[s], self.q[s])))
        self.trace_layers(trace)

    def start_round(self) -> None:
        cold_caches()
        self.d, self.q = {}, {}

    def _build(self, s):
        self.d[s] = qaffine.build(qaffine.parse_type_string(s))
        return self.d[s]

    def _qdatum(self, s):
        self.q[s] = qaffine.default_qdatum(self.d[s])
        return self.q[s]

    def check(self, results: list, first: bool) -> list[str]:
        by_type: dict[str, dict] = {s: {"s_func": []} for s in self.points}
        for (kind, s, _), res in zip(self.ops, results):
            if kind == "s_func":
                by_type[s]["s_func"].append(res)
            else:
                by_type[s][kind] = res
        problems = []
        for s, res in by_type.items():
            if None in res["s_func"] or res.get("delta0") is None or res.get("gram") is None:
                problems.append(f"{s}: an op failed")
                continue
            norms = [qaffine.pairing(self.d[s], f, f) for f in res["s_func"]]
            problems += checks.census_problems(
                s, res["s_func"], res["delta0"], norms, res["gram"].matrix
            )
        return problems


class Partition(_InProcess):
    def __init__(self, seed: int, workdir: Path, trace: Tracer | None):
        rng = random.Random(seed)
        self.modules: dict[str, list[list[str]]] = {}
        self.ops = []
        for s in PARTITION_TYPES:
            d, q = _data(s)
            base = _census_points(d, q)
            translates = [qaffine.scalar(0, 0)] + [
                qaffine.scalar(rng.randrange(24), Fraction(e, 6)) for e in rng.sample(range(1, 6), 2)
            ]
            sizes = [k % 5 + 1 for k in range(PARTITION_MODULES)]  # 1..5 equally often
            draws = [(rng.choice(base), rng.randrange(-2, 3)) for _ in range(sum(sizes))]
            modules = []
            for size in sizes:
                module = []
                for b, k in draws[:size]:
                    p = qaffine.dual_shift(d, b, 2 * k)
                    c = rng.choice(translates)
                    module.append(str(qaffine.sigma_point(d, p.node, p.param * c)))
                del draws[:size]
                modules.append(module)
            self.modules[s] = modules
            self.ops += [("block_label", s, lambda s=s, m=m: self._label(s, m)) for m in modules]
        self.rng = random.Random(seed + 1)
        self.first_labels: list | None = None
        self.trace_layers(trace)

    def start_round(self) -> None:
        cold_caches()
        self.data = {}

    def _label(self, s: str, texts: list[str]):
        # the first module of a type pays build and the Q-datum, once,
        # as `qaffine partition --file` does
        if s not in self.data:
            self.data[s] = _data(s)
        d, q = self.data[s]
        return qaffine.block_label(d, q, [qaffine.parse_sigma_point(d, t) for t in texts])

    def check(self, results: list, first: bool) -> list[str]:
        if None in results:
            return ["an op failed"]
        labels = [r.components for r in results]
        if not first:
            return [] if labels == self.first_labels else ["labels differ between rounds"]
        self.first_labels = labels
        problems = []
        offset = 0
        for s, modules in self.modules.items():
            own = labels[offset:offset + len(modules)]
            offset += len(modules)
            d, q = self.data[s]

            def label(points):
                return qaffine.block_label(d, q, points).components

            parsed = [[qaffine.parse_sigma_point(d, t) for t in m] for m in modules]
            for j in self.rng.sample(range(len(modules) - 1), 10):
                problems.append(checks.additivity_problem(own[j], own[j + 1], label(parsed[j] + parsed[j + 1])))
                problems.append(checks.order_problem(own[j], label(parsed[j][::-1])))
            for p in self.rng.sample([p for m in parsed for p in m], 5):
                problems.append(checks.dual_pair_problem(label([p, qaffine.dual_shift(d, p, 1)])))
            roots = [q.rs.simple_root(i) for i in range(1, q.rs.rank + 1)]
            roots += self.rng.sample(q.rs.positive_roots, 5)
            for beta in roots:
                problems.append(checks.phi_root_problem(label([qaffine.phi_q(q, d, beta)]), beta))
        return [f"partition: {p}" for p in problems if p]


class Cli:
    def __init__(self, seed: int, workdir: Path, trace: Tracer | None):
        import qaffine.cli  # noqa: F401  (compiles every module before the first timed child)

        rng = random.Random(seed)
        self.workdir = workdir
        self.trace = trace
        self.env = dict(os.environ)
        src = str(Path(qaffine.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # every kind on every type: the seed picks the points and the order,
        # so the mix of work is the same for every seed
        invocations = [
            self._invocation(rng, kind, t, f"{kind}-{k}")
            for kind in CLI_KINDS for k, t in enumerate(CLI_TYPES)
        ]
        rng.shuffle(invocations)
        self.ops = [(kind, argv, lambda argv=argv: self._run(argv)) for kind, argv, _ in invocations]
        self.expect = [expect for _, _, expect in invocations]
        self.peak_rss_kb = 0

    def _invocation(self, rng: random.Random, kind: str, t: str, tag: str):
        d, q = _data(t)

        def point(qmax: int | None = None):
            e = rng.randrange(0, 2 * d.hvee) if qmax is None else rng.randrange(-qmax, qmax + 1)
            return qaffine.sigma_point(d, rng.choice(d.i0), qaffine.scalar(rng.randrange(24), e))

        p = point(6)
        dp = qaffine.dual_shift(d, p, rng.choice((-1, 1)))
        expect = None
        if kind in ("de", "lambda-inf"):
            argv = [kind, t, str(p), str(dp if kind == "de" else p)]
        elif kind == "denom":
            argv = [kind, f"A{CLI_TYPES.index(t) + 1}-1", "--i", "1", "--j", "1"]
        elif kind == "s-func":
            # a point inside the fundamental ptilde window is its own representative
            p = point()
            argv, expect = [kind, t, str(p)], str(p)
        elif kind == "e-of":
            argv = [kind, t, "--weights", f"{p},{dp}"]
        elif kind == "block-label":
            beta = rng.choice(q.rs.positive_roots)
            argv, expect = [kind, t, "--weights", str(qaffine.phi_q(q, d, beta))], beta
        elif kind in ("sigma-q", "cartan-check"):
            argv, expect = [kind, t], checks.associated_type(t)
        elif kind == "partition":
            r = point(6)
            dr = qaffine.dual_shift(d, r, 1)
            expect = ([str(p)], [str(p), str(r), str(dr)], [str(r), str(dr)])
            path = self.workdir / f"{tag}.jsonl"
            path.write_text("".join(json.dumps(m) + "\n" for m in expect), encoding="utf-8")
            argv = [kind, t, "--file", str(path)]
        else:  # verify
            argv = [kind, t]
        return kind, argv + ["--format", "json"], expect

    def start_round(self) -> None:
        pass

    def _run(self, argv: list[str]):
        if self.trace is None:
            cmd = [sys.executable, "-c", "from qaffine.cli import main; main()", *argv]
        else:
            dump = self.workdir / "child-trace.json"
            dump.unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).with_name("layers.py")), str(dump), *argv]
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = proc.stdout.read(), proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.trace is not None and dump.exists():
            self.trace.merge(json.loads(dump.read_text(encoding="utf-8")))
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-300:]}")
        try:
            return json.loads(out)
        except json.JSONDecodeError as exc:
            raise OpFailed(f"output is not JSON: {out[:80]!r}") from exc

    def check(self, results: list, first: bool) -> list[str]:
        problems = []
        for (kind, argv, _), payload, expect in zip(self.ops, results, self.expect):
            if payload is not None:  # failed ops are counted, not checked
                problem = checks.cli_problem(kind, payload, expect)
                if problem:
                    problems.append(f"{' '.join(argv)}: {problem}")
        return problems


WORKLOADS = {"census": Census, "partition": Partition, "cli": Cli}
