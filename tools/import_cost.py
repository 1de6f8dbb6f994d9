"""Time the cold start of `import qaffine.cli` from one or more source trees.

Usage: python tools/import_cost.py <src-dir> [<src-dir> ...]

Each run starts a fresh interpreter with PYTHONPATH=<src-dir> and times the
whole process, `python -c "import qaffine.cli"`, from spawn to exit.  Runs go
one process at a time, 30 per side, alternating between the source trees and
a bare `python -c pass`, so drift on the machine hits every side alike.  For
each side it prints the median and quartiles in milliseconds, then, for each
tree, the modules that the import loads beyond those `python -c pass` has.
To compare two checkouts:

    python tools/import_cost.py /path/to/parent/src src

The environment is passed on unchanged; with PYTHONDONTWRITEBYTECODE set,
every run compiles the package from source, and the header says so.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from statistics import quantiles
from time import perf_counter

RUNS = 30
IMPORT = "import qaffine.cli"
NEW_MODULES = (
    "import sys; before = set(sys.modules); import qaffine.cli; "
    "print(*sorted(set(sys.modules) - before))"
)


def tree_env(src: str | None) -> dict[str, str]:
    """The environment for a child that imports qaffine from `src` (None: from nowhere)."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if src is not None:
        env["PYTHONPATH"] = src
    return env


def missing_tree(srcs: list[str], module: str) -> str | None:
    """The first of `srcs` that holds no qaffine/<module>, or None."""
    return next((src for src in srcs if not (Path(src) / "qaffine" / module).is_file()), None)


def alternate(sides: list, runs: int):
    """Each side `runs` times, one at a time, in reverse order on every other pass,
    so drift on the machine hits every side alike."""
    for run in range(runs):
        yield from sides if run % 2 == 0 else sides[::-1]


def _time_once(code: str, src: str | None) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=tree_env(src), check=True)
    return (perf_counter() - t0) * 1e3


def _new_modules(src: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", NEW_MODULES], env=tree_env(src), check=True, capture_output=True, text=True
    )
    return out.stdout.split()


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    if (src := missing_tree(argv, "cli.py")) is not None:
        print(f"{src} holds no qaffine/cli.py", file=sys.stderr)
        return 2

    sides: list[tuple[str, str, str | None]] = [("python -c pass", "pass", None)]
    sides += [(src, IMPORT, str(Path(src).resolve())) for src in argv]
    samples: dict[str, list[float]] = {label: [] for label, _, _ in sides}
    for label, code, src in alternate(sides, RUNS):
        samples[label].append(_time_once(code, src))

    pyc = "off (PYTHONDONTWRITEBYTECODE is set)" if os.environ.get("PYTHONDONTWRITEBYTECODE") else "on"
    print(f"{sys.executable} {sys.version.split()[0]}, {RUNS} runs per side, bytecode cache {pyc}")
    print(f"{'side':40s} {'median':>8s} {'q1':>8s} {'q3':>8s}  (ms, whole process)")
    for label, values in samples.items():
        q1, med, q3 = quantiles(values, n=4)
        print(f"{label:40s} {med:8.1f} {q1:8.1f} {q3:8.1f}")
    for label, _, src in sides[1:]:
        loaded = _new_modules(src)
        own = [m for m in loaded if m.split(".")[0] == "qaffine"]
        other = [m for m in loaded if m.split(".")[0] != "qaffine"]
        print(f"\n{label}: {len(loaded)} modules beyond `python -c pass` ({len(own)} qaffine)")
        print("  " + " ".join(other))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
