"""Print the output of a fixed sweep of `qaffine` CLI calls, to check byte-identity.

Usage: python tools/cli_sweep.py [--digests] <src-dir> > sweep.txt

Imports `qaffine` from <src-dir> and runs `cli.run` in this process, in text
and JSON, over all 33 `acceptance.SWEEP` types: `sigma-q`, `cartan-check`,
`verify <type>` (timings masked), `denom` on every node pair (and on node
row 1 of A32-1 and D24-1, near the rank cap), `sigma-q` and `cartan-check`
on B10-1, C12-1 and D32-1 (rho-folded and large-rank psi_Q walks), `sigma-q`
on A9-2, A10-2 and D9-2 (folds at larger rank), `block-label` and `partition`
on A7-1, C6-1, D7-1, A9-2 and D7-2 with points spelled other than printed
(`(-q)^3`, `qs^4`, `z24^25*q`, ints past 9 digits, ...) and with scalars that
do not parse, so the parser's factor loop reads them, `lambda` from every `i@1` to
the second and third dual translates of a template point (dual-orbit terms
at k <= -2), `s-func` on
every `i@1`, on seeded points, on one point per node whose exponent puts a
template entry on the 12 hvee wrap, and at all 24 phases of each twisted type,
seeded `e-of`, `de`, `lambda`, `lambda-inf` and `partition`, `block-label` on
seeded weight lists, on every point of sigma_Q and its first dual translate,
on three of those points each repeated over several ptilde periods, and on
the pair [p, D p] of every such point of E6-2, `cartan-check --all-ranks`
on the first SWEEP type of each family, `verify --all` (every acceptance
criterion with its detail, timings masked), error paths, and `--help` of
`qaffine` and of every subcommand (wrapped at COLUMNS=80).  Each call
prints its argv and exit code, then its stdout and stderr.  To compare two
checkouts:

    python tools/cli_sweep.py /path/to/parent/src > parent.txt
    python tools/cli_sweep.py src > change.txt
    cmp parent.txt change.txt

With --digests it prints, as JSON, the sha256 of each section of that text
instead: a section is every call of one subcommand on one type (its first
two arguments), in the order the sweep first reaches it.  The calls whose
help or error text argparse or json words go to sections of their own, named
with a " [python]" suffix, and the Python minor version is recorded, since
that wording varies between versions.  `tests/sweep_digests.json` is that
output for the tree whose outputs are the contract, and
`tests/test_sweep_digests.py` recomputes it in-process and names the first
section that differs.  A change that alters an output on purpose
regenerates the file:

    python tools/cli_sweep.py --digests src > tests/sweep_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from typing import Callable
from unittest import mock

SECONDS = re.compile(r'"seconds": [0-9.e-]+')
WORDED = " [python]"
# scalars that are not printed forms, or whose ints pass 9 digits; and scalars that do not parse
SPELLED = ("(-q)^3", "-1*q^2", "qs^4", "z24^25*q", "q^(2/4)", "w*q", "q^1234567890", "z24^3*q^(-1234567891/2)")
MISSPELLED = ("q^(1/4)", "z24^", "q^(1/0)", "(-q)^(1/2)", "q^2*", "q^(1/2")  # the digest section of the calls whose help or errors the interpreter words


def _point(rng: random.Random, n: int) -> str:
    return f"{rng.randint(1, n)}@z24^{rng.randrange(24)}*q^({rng.randint(-60, 60)}/6)"


def _weights(rng: random.Random, n: int) -> str:
    return ",".join(_point(rng, n) for _ in range(rng.randint(1, 4)))


def sweep(tmp: Path, emit: Callable[[list[str], str, bool], None]) -> None:
    """Run every call of the sweep, passing `emit` its argv (without --format), its printed
    text, and whether that text holds help or an error worded by the interpreter (argparse or json)."""
    from qaffine import (
        build, default_qdatum, dual_shift, parse_sigma_point, parse_type_string, s_func, sigma_point,
        sigma_q_points,
    )
    from qaffine.acceptance import SWEEP
    from qaffine.cli import run
    from qaffine.invariants import _point as key_point
    from qaffine.qdata import translate_star
    from qaffine.scalars import ONE

    def call(*argv: str, worded: bool = False) -> None:
        for fmt in ("text", "json"):
            args = [*argv, "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc: object = run(args)
                except Exception as exc:  # a bug: record it and go on with the sweep
                    rc = f"raised {type(exc).__name__}: {exc}"
            text = f"$ qaffine {' '.join(args)} -> {rc}\n{out.getvalue()}"
            if err.getvalue():
                text += f"stderr: {err.getvalue()}"
            emit(list(argv), SECONDS.sub('"seconds": <masked>', text).replace(str(tmp), "<tmp>"), worded)

    def partition(name: str, type_string: str, lines: list[str], worded: bool = False) -> None:
        path = tmp / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        call("partition", type_string, "--file", str(path), worded=worded)

    for s in SWEEP:
        d = build(parse_type_string(s))
        n = len(d.i0)
        rng = random.Random(s)
        call("sigma-q", s)
        call("cartan-check", s)
        call("verify", s)
        for i in d.i0:
            for j in d.i0:
                call("denom", s, "--i", str(i), "--j", str(j))
        for i in d.i0:
            call("s-func", s, f"{i}@1")
        for _ in range(4):
            call("s-func", s, _point(rng, n))
        for _ in range(3):
            call("e-of", s, "--weights", _weights(rng, n))
        for cmd in ("de", "lambda", "lambda-inf"):
            for _ in range(4):
                call(cmd, s, _point(rng, n), _point(rng, n))
        modules = [_weights(rng, n) for _ in range(4)]
        for weights in modules:
            call("block-label", s, "--weights", weights)
        q = default_qdatum(d)
        sq = sigma_q_points(d, q)
        points = sorted(sq | translate_star(d, sq, 1))
        census = [str(p) for p in points]
        for p in census:
            call("block-label", s, "--weights", p)
        for p in rng.sample(points, min(3, len(points))):
            # one point over several ptilde periods: one lattice-table entry
            call("block-label", s, "--weights", ",".join(str(dual_shift(d, p, 2 * k)) for k in (0, 1, -1, 3)))
        if s == "E6-2":
            # s_p + s_{D p} = 0, so each pair has the empty label
            for p in points:
                call("block-label", s, "--weights", f"{p},{dual_shift(d, p, 1)}")
        partition(f"{s}.jsonl", s, [json.dumps(m.split(",")) for m in modules])
        partition(f"{s}-census.jsonl", s, [json.dumps([p]) for p in census[::3]])
        period = 12 * d.hvee
        for i in d.i0:
            # an exponent that puts one template entry exactly on the 12 hvee wrap,
            # so s_func takes both halves of that entry's run
            keys = s_func(d, sigma_point(d, i, ONE)).keys
            f = key_point(keys[len(keys) // 2]).param.e
            call("s-func", s, f"{i}@q^({period - f + period * rng.randint(-3, 2)}/6)")
        if d.twisted:
            for k in range(24):
                call("s-func", s, f"{1 + k % n}@z24^{k}*q^({rng.randint(-60, 60)}/6)")
        call("s-func", s, f"{n + 1}@1")

    for s in ("A32-1", "D24-1"):
        for j in build(parse_type_string(s)).i0:
            call("denom", s, "--i", "1", "--j", str(j))
    for s in ("B10-1", "C12-1", "D32-1"):
        call("sigma-q", s)
        call("cartan-check", s)
    for s in ("A9-2", "A10-2", "D9-2"):
        call("sigma-q", s)
    for s in ("A7-1", "C6-1", "D7-1", "A9-2", "D7-2"):
        # points spelled other than `print_scalar` prints them, or with ints past 9 digits,
        # so the parser's factor loop reads them; each module beside its printed form
        d = build(parse_type_string(s))
        points = [f"{1 + k % len(d.i0)}@{x}" for k, x in enumerate(SPELLED)]
        for p in points:
            call("block-label", s, "--weights", p)
        call("block-label", s, "--weights", ",".join(points))
        for x in MISSPELLED:
            call("block-label", s, "--weights", f"1@{x}")
        printed = [str(parse_sigma_point(d, p)) for p in points]
        partition(f"{s}-spelled.jsonl", s, [json.dumps(m[k:k + 2]) for k in range(0, len(points), 2)
                                            for m in (points, printed)])
    for s in SWEEP:
        d = build(parse_type_string(s))
        for i in d.i0:
            # c pairs nonzero with i@1, so D^2 c and D^3 c carry terms at k = -1, -2, -3
            keys = s_func(d, sigma_point(d, i, ONE)).keys
            j, x = key_point(keys[len(keys) // 3])
            c = sigma_point(d, j, x)
            for k in (2, 3):
                call("lambda", s, f"{i}@1", str(dual_shift(d, c, k)))
    families = {}
    for s in SWEEP:
        families.setdefault(parse_type_string(s).family, s)
    for s in families.values():
        call("cartan-check", s, "--all-ranks")
    call("verify", "--all")
    call("cartan-check", "Z9-1")
    call("cartan-check", "Z9-1", "--all-ranks")
    call("cartan-check", "A300-1")
    call("s-func", "A3-1", "x@1")
    call("s-func", "A3-1", "1@q^(1/5)")
    call("e-of", "A3-1", "--weights", "1@1,,2@q^")
    call("de", "A3-1", "1@1", worded=True)  # argparse's usage error
    call("block-label", "E6-2", "--weights", "2@q^-3")
    for name, line in (("json", '["1@1",'), ("list", '[1, 2]'), ("point", '["x@1"]'), ("node", '["9@1"]')):
        partition(f"bad-{name}.jsonl", "A3-1", ['["1@1"]', line], worded=name == "json")  # json's message
    call("partition", "A3-1", "--file", str(tmp / "absent.jsonl"), worded=True)
    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps help to the terminal's width
        call("--help", worded=True)
        for cmd in ("cartan-check", "denom", "de", "lambda", "lambda-inf", "s-func", "e-of", "sigma-q",
                    "block-label", "partition", "verify"):
            call(cmd, "--help", worded=True)


def digests() -> dict:
    """The sha256 of each section of the sweep, with the Python minor version."""
    sections: dict = {}

    def emit(argv: list[str], text: str, worded: bool) -> None:
        name = " ".join(argv[:2]) + WORDED * worded
        sections.setdefault(name, hashlib.sha256()).update(text.encode())

    with tempfile.TemporaryDirectory() as tmp:
        sweep(Path(tmp), emit)
    python = f"{sys.version_info.major}.{sys.version_info.minor}"
    return {"python": python, "sections": {name: h.hexdigest() for name, h in sections.items()}}


def main(argv: list[str]) -> int:
    if not argv or len(argv) != 1 + (argv[0] == "--digests"):
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[-1]).resolve()))
    if argv[0] == "--digests":
        print(json.dumps(digests(), indent=1))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sweep(Path(tmp), lambda argv, text, worded: print(text, end=""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
