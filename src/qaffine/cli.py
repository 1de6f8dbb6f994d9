"""Command-line front end: `qaffine <subcommand> ...`.

Exit codes: 0 on success, 1 on domain errors (bad type strings, parameters
outside the scalar domain, failed verification), 2 on usage errors.  Any
other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .affine import AffineData, build, parse_type_string
from .blocks import block_label, gram, partition_blocks
from .denominators import denominator, denominator_factors
from .invariants import de, e_of, lambda_, lambda_inf, parse_sigma_point, s_func
from .qcartan import default_qdatum
from .qdata import phi_q_map
from .scalars import MINUS_ONE, ParseError, QAffineError, order_key, print_scalar

DOMAIN_ERRORS = (QAffineError,)


def _data(args) -> AffineData:
    return build(parse_type_string(args.type))


def _parse_weights(d: AffineData, text: str):
    return [parse_sigma_point(d, part) for part in text.split(",") if part.strip()]


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _printed_values(f) -> list[dict]:
    """A function's values in printed order: by node, then `order_key` of the parameter."""
    values = sorted(f.values, key=lambda pv: (pv[0].node, order_key(pv[0].param)))
    return [{"at": str(p), "value": v} for p, v in values]


def _factor_str(deg: int, value, mult: int) -> str:
    z = "z" if deg == 1 else f"z^{deg}"
    if value.phase == 12:
        body = f"{z} + {print_scalar(MINUS_ONE * value)}"
    else:
        body = f"{z} - {print_scalar(value)}"
    return f"({body})" + (f"^{mult}" if mult > 1 else "")


def cmd_cartan_check(args) -> int:
    types = [args.type]
    if args.all_ranks:
        from . import acceptance

        family = parse_type_string(args.type).family
        types = [s for s in acceptance.SWEEP if parse_type_string(s).family == family]
    ok_all = True
    for s in types:
        d = build(parse_type_string(s))
        res = gram(d)
        verdict = f"OK: Cartan of {d.gfin.type_name}"
        if not res.equal:
            verdict = f"MISMATCH at {res.mismatches}"
            ok_all = False
        payload = {
            "type": s,
            "matrix": [list(r) for r in res.matrix],
            "expected": [list(r) for r in res.expected],
            "equal": res.equal,
        }
        rows = "\n".join(" ".join(f"{v:3d}" for v in row) for row in res.matrix)
        _emit(args, payload, f"{s}\n{rows}\n{verdict}")
    return 0 if ok_all else 1


def cmd_denom(args) -> int:
    d = _data(args)
    factors = denominator_factors(d, args.i, args.j)
    rm = denominator(d, args.i, args.j)
    payload = {
        "i": args.i,
        "j": args.j,
        "roots": [{"scalar": print_scalar(r), "mult": m} for r, m in rm],
    }
    factored = " ".join(_factor_str(*f) for f in factors) or "1"
    roots = ", ".join(f"{print_scalar(r)} (x{m})" if m > 1 else print_scalar(r) for r, m in rm)
    _emit(args, payload, f"d_{args.i},{args.j}(z) = {factored}\nroots: {roots or 'none'}")
    return 0


def _two_point_cmd(args, fn, name: str) -> int:
    d = _data(args)
    p1 = parse_sigma_point(d, args.p1)
    p2 = parse_sigma_point(d, args.p2)
    val = fn(d, p1, p2)
    _emit(args, {"p1": str(p1), "p2": str(p2), name: val}, f"{name}({p1}, {p2}) = {val}")
    return 0


def cmd_s_func(args) -> int:
    d = _data(args)
    p = parse_sigma_point(d, args.point)
    values = _printed_values(s_func(d, p))
    payload = {"point": str(p), "period_qexp": 2 * d.hvee, "values": values}
    lines = [f"s_{p} (values repeat with q-exponent period {2 * d.hvee}):"]
    lines += [f"  {pv['at']}: {pv['value']}" for pv in values]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_e_of(args) -> int:
    d = _data(args)
    pts = _parse_weights(d, args.weights)
    values = _printed_values(e_of(d, pts))
    body = "\n".join(f"  {pv['at']}: {pv['value']}" for pv in values) or "  0"
    _emit(args, {"values": values}, f"E({args.weights}):\n{body}")
    return 0


def cmd_sigma_q(args) -> int:
    d = _data(args)
    q = default_qdatum(d)
    table = sorted(
        ((p.node, print_scalar(p.param), "".join(map(str, beta))) for beta, p in phi_q_map(q, d).items()),
        key=lambda row: (row[0], row[1]),
    )
    payload = {"points": [{"i": i, "scalar": s, "root": b} for i, s, b in table]}
    lines = [f"{i}@{s}  <-  {b}" for i, s, b in table]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_block_label(args) -> int:
    d = _data(args)
    q = default_qdatum(d)
    label = block_label(d, q, _parse_weights(d, args.weights))
    payload = [{"component": f"t={c}", "coords": list(v)} for c, v in label.components]
    text = "\n".join(f"component t={c}: {list(v)}" for c, v in label.components) or "trivial (zero) label"
    _emit(args, {"label": payload}, text)
    return 0


def cmd_partition(args) -> int:
    modules = []
    with args.file as handle:
        d = _data(args)
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                where = f"{handle.name}:{lineno}"
                try:
                    texts = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{where}: {exc.msg}", exc.pos) from exc
                if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
                    raise ParseError(f"{where}: expected a JSON list of point strings", 0)
                try:
                    modules.append([parse_sigma_point(d, t) for t in texts])
                except QAffineError as exc:
                    raise QAffineError(f"{where}: {exc}") from exc
    groups = partition_blocks(d, default_qdatum(d), modules)
    payload = [
        {
            "label": [{"component": f"t={c}", "coords": list(v)} for c, v in label.components],
            "members": [[str(p) for p in module] for module in members],
        }
        for label, members in groups
    ]
    lines = []
    for idx, (label, members) in enumerate(groups):
        lines.append(f"block {idx}: label={[(c, list(v)) for c, v in label.components]}")
        for module in members:
            lines.append("  " + ",".join(str(p) for p in module))
    _emit(args, {"blocks": payload}, "\n".join(lines) or "no modules")
    return 0


def _verdict(args, check: str, ok: bool, detail: str, seconds: float, text: str) -> bool:
    payload = {"check": check, "ok": ok, "detail": detail, "seconds": round(seconds, 3)}
    _emit(args, payload, f"[{'PASS' if ok else 'FAIL'}] {text}")
    return ok


def cmd_verify(args) -> int:
    """One PASS/FAIL line, or with --format json one record, per check."""
    if args.all or args.type is None:
        from . import acceptance

        oks = [
            _verdict(args, f"criterion {name}", ok, detail, seconds, f"criterion {name} ({detail})")
            for name, ok, detail, seconds in acceptance.run_criteria()
        ]
    else:
        start = time.perf_counter()
        d = build(parse_type_string(args.type))
        res = gram(d)
        detail = f"Cartan of {d.gfin.type_name}" if res.equal else f"mismatches at {res.mismatches}"
        check = f"gram({args.type})"
        oks = [_verdict(args, check, res.equal, detail, time.perf_counter() - start, check)]
    return 0 if all(oks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaffine",
        description="Exact spectral combinatorics of quantum affine algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_type=True):
        if with_type:
            p.add_argument("type", help="affine type string, e.g. A5-1, B3-1, D5-2, E6-2, D4-3")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cartan-check", help="verify the Gram matrix equals the Cartan matrix")
    common(p)
    p.add_argument("--all-ranks", action="store_true", help="sweep the family's standard ranks")
    p.set_defaults(fn=cmd_cartan_check)

    p = sub.add_parser("denom", help="denominator polynomial between two fundamentals")
    common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(fn=cmd_denom)

    for name, fn in (("de", de), ("lambda", lambda_), ("lambda-inf", lambda_inf)):
        p = sub.add_parser(name, help=f"the {name} invariant of two points i@scalar")
        common(p)
        p.add_argument("p1")
        p.add_argument("p2")
        p.set_defaults(fn=lambda a, f=fn, n=name: _two_point_cmd(a, f, n))

    p = sub.add_parser("s-func", help="the block invariant function of one point")
    common(p)
    p.add_argument("point")
    p.set_defaults(fn=cmd_s_func)

    p = sub.add_parser("e-of", help="E of an affine weight list")
    common(p)
    p.add_argument("--weights", required=True, help="comma-separated points, e.g. 1@q^2,3@(-q)^5")
    p.set_defaults(fn=cmd_e_of)

    p = sub.add_parser("sigma-q", help="the sigma_Q table with positive-root labels")
    common(p)
    p.set_defaults(fn=cmd_sigma_q)

    p = sub.add_parser("block-label", help="block label of an affine weight list")
    common(p)
    p.add_argument("--weights", required=True)
    p.set_defaults(fn=cmd_block_label)

    p = sub.add_parser("partition", help="group affine weight lists (JSONL file) into blocks")
    common(p)
    p.add_argument("--file", required=True, type=argparse.FileType("r", encoding="utf-8"),
                   help="one JSON list of point strings per line")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("verify", help="run acceptance criteria")
    p.add_argument("type", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
