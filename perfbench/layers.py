"""Per-layer tracing of qaffine from the benchmark's side.

`Tracer.install` wraps the public functions of each layer at every binding
inside the `qaffine` package (and the methods on their classes), so calls
made between modules are counted too.  Each wrapper keeps calls, self time
(its own time minus that of traced calls inside it) and, where a layer can
waste work, its outcomes: s-function cache misses and nonzero `de` probes.
Nothing is recorded per call; the totals stay in memory until the run
writes them out.

Run as a script, this file is the traced form of one `qaffine` invocation:
`python3 perfbench/layers.py <dump.json> <qaffine args...>` times the import
of `qaffine.cli`, installs the tracer, runs `cli.run(args)` and writes the
layer totals to `<dump.json>`.
"""

from __future__ import annotations

import importlib
import json
import sys
from statistics import median
from time import perf_counter

# layer name -> (module, attribute); "Class.method" names a method
LAYERS = {
    "scalars.mul": ("qaffine.scalars", "SpectralScalar.__mul__"),
    "scalars.parse": ("qaffine.scalars", "parse_scalar"),
    "scalars.print": ("qaffine.scalars", "print_scalar"),
    "denominators.denominator": ("qaffine.denominators", "denominator"),
    "denominators.mult": ("qaffine.denominators", "RootMultiset.mult"),
    "invariants.de": ("qaffine.invariants", "de"),
    "invariants.lambda_inf": ("qaffine.invariants", "lambda_inf"),
    "invariants.s_func": ("qaffine.invariants", "s_func"),
    "invariants.pairing": ("qaffine.invariants", "pairing"),
    "invariants.e_of": ("qaffine.invariants", "e_of"),
    "blocks.psi_lattice": ("qaffine.blocks", "psi_lattice"),
    "blocks.block_label": ("qaffine.blocks", "block_label"),
    "blocks.delta0": ("qaffine.blocks", "delta0"),
    "blocks.gram": ("qaffine.blocks", "gram"),
    "qdata.default_qdatum": ("qaffine.qdata", "default_qdatum"),
    "qdata.phi_q": ("qaffine.qdata", "phi_q"),
    "qcartan.ctilde_formula": ("qaffine.qcartan", "ctilde_formula"),
    "affine.build": ("qaffine.affine", "build"),
    "affine.component_class": ("qaffine.affine", "component_class"),
    "roots.root_system": ("qaffine.roots", "root_system"),
}


def _sfunc_miss(d, p, *_) -> bool:
    return p not in d._sfunc_cache


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.sfunc_misses = 0
        self.de_nonzero = 0
        self.cli_import_ms: list[float] = []
        self.cli_run_ms: list[float] = []
        # child-time accumulators of the traced calls in progress
        self._stack = [0.0]

    def reset(self) -> None:
        """Zero the totals in place: the installed wrappers hold these dicts."""
        for layer in LAYERS:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
        self.sfunc_misses = self.de_nonzero = 0
        self.cli_import_ms.clear()
        self.cli_run_ms.clear()

    def install(self) -> None:
        """Replace every layer function, at every qaffine binding, by a counting wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "qaffine"]
        for layer, (modname, attr) in LAYERS.items():
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                setattr(owner, meth, self._wrap(layer, owner.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def _wrap(self, layer: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        probe_miss = _sfunc_miss if layer == "invariants.s_func" else None
        count_nonzero = layer == "invariants.de"
        tracer = self

        def traced(*args, **kwargs):
            if probe_miss is not None and probe_miss(*args):
                tracer.sfunc_misses += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                calls[layer] += 1
            if count_nonzero and result:
                tracer.de_nonzero += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "sfunc_misses": self.sfunc_misses,
            "de_nonzero": self.de_nonzero,
            "cli_import_ms": list(self.cli_import_ms),
            "cli_run_ms": list(self.cli_run_ms),
        }

    def merge(self, snap: dict) -> None:
        """Add the totals of a traced child process."""
        for layer in LAYERS:
            self.calls[layer] += snap["calls"][layer]
            self.self_s[layer] += snap["self_s"][layer]
        self.sfunc_misses += snap["sfunc_misses"]
        self.de_nonzero += snap["de_nonzero"]
        self.cli_import_ms += snap["cli_import_ms"]
        self.cli_run_ms += snap["cli_run_ms"]


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one round, by the names BENCHMARK.json uses."""
    calls, self_s = snap["calls"], snap["self_s"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_ms"] = self_s[layer] * 1e3
    sf, de = calls["invariants.s_func"], calls["invariants.de"]
    out["invariants.s_func.misses"] = snap["sfunc_misses"]
    out["invariants.s_func.hit_share"] = (sf - snap["sfunc_misses"]) / sf if sf else 0.0
    out["invariants.de.nonzero_share"] = snap["de_nonzero"] / de if de else 0.0
    out["cli.import_ms"] = median(snap["cli_import_ms"]) if snap["cli_import_ms"] else 0.0
    out["cli.run_ms"] = median(snap["cli_run_ms"]) if snap["cli_run_ms"] else 0.0
    return out


def _child(dump_path: str, argv: list[str]) -> int:
    t0 = perf_counter()
    from qaffine import cli

    import_ms = (perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.install()
    t1 = perf_counter()
    rc = cli.run(argv)
    tracer.cli_run_ms.append((perf_counter() - t1) * 1e3)
    tracer.cli_import_ms.append(import_ms)
    sys.stdout.flush()
    with open(dump_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.snapshot(), handle)
    return rc


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
