import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import qaffine
from qaffine import cli, invariants
from qaffine.cli import run
from qaffine.affine import RankOutOfRange, build, parse_type_string
from qaffine.invariants import parse_sigma_point
from qaffine.scalars import InvariantViolation, ParseError, parse_scalar


def test_cartan_check_g2(capsys):
    assert run(["cartan-check", "G2-1"]) == 0
    out = capsys.readouterr().out
    assert "OK: Cartan of D4" in out
    assert out.count("2") >= 4  # the 4x4 matrix is printed


def test_cartan_check_all_ranks(capsys):
    assert run(["cartan-check", "B3-1", "--all-ranks"]) == 0
    out = capsys.readouterr().out
    assert "B2-1" in out and "B5-1" in out


def test_denom_b3(capsys):
    assert run(["denom", "B3-1", "--i", "3", "--j", "3"]) == 0
    out = capsys.readouterr().out
    assert "q^(1/2)" in out or "q" in out
    assert run(["denom", "B3-1", "--i", "3", "--j", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["i"] == 3
    assert {r["scalar"] for r in payload["roots"]} == {"q", "q^3", "q^5"}
    assert all(r["mult"] == 1 for r in payload["roots"])


def test_denom_json_round_trip(capsys):
    assert run(["denom", "D4-3", "--i", "1", "--j", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["roots"]) == 6


def test_de_and_lambda(capsys):
    assert run(["de", "F4-1", "1@1", "1@q^2"]) == 0
    assert "de(1@1, 1@q^2) = 1" in capsys.readouterr().out
    assert run(["lambda-inf", "A4-1", "1@1", "1@1"]) == 0
    assert "= -2" in capsys.readouterr().out
    assert run(["lambda", "A4-1", "1@1", "1@1"]) == 0
    assert "= 0" in capsys.readouterr().out


def test_s_func_json(capsys):
    assert run(["s-func", "A2-1", "1@1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"at": "1@1", "value": -2} in payload["values"]


def test_e_of_kernel(capsys):
    weights = "1@1,1@q^2,1@q^4,1@q^6"
    assert run(["e-of", "A3-1", "--weights", weights, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == []


def test_sigma_q(capsys):
    assert run(["sigma-q", "G2-1"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 12
    assert run(["sigma-q", "G2-1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 12


def test_block_label_cli(capsys):
    assert run(["block-label", "A3-1", "--weights", "1@1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] == [{"component": "t=1", "coords": [1, 0, 0]}]


def test_partition_cli(tmp_path, capsys):
    path = tmp_path / "weights.jsonl"
    lines = [
        json.dumps(["1@1"]),
        json.dumps(["1@1", "1@1", "1@q^2", "1@q^4", "1@q^6"]),
        json.dumps(["1@z24^3*q"]),
    ]
    path.write_text("\n".join(lines), encoding="utf-8")
    assert run(["partition", "A3-1", "--file", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["blocks"]) == 2
    sizes = sorted(len(b["members"]) for b in payload["blocks"])
    assert sizes == [1, 2]


def test_partition_missing_file_is_a_usage_error(tmp_path, capsys):
    assert run(["partition", "A3-1", "--file", str(tmp_path / "absent.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "can't open" in err and "Traceback" not in err


@pytest.mark.parametrize("line", ["[1, 2]", '["1@1", 2]', '{"1@1": 1}', '"1@1"'])
def test_partition_line_not_a_list_of_strings_is_a_domain_error(tmp_path, capsys, line):
    path = tmp_path / "weights.jsonl"
    path.write_text(f'["1@1"]\n{line}\n', encoding="utf-8")
    assert run(["partition", "A3-1", "--file", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:2: expected a JSON list of point strings (at offset 0)\n"
    )


@pytest.mark.parametrize("point, message", [
    ("x@1", "expected point of the form i@<scalar> (at offset 0)"),
    ("9@1", "node 9 outside I0 of A3-1"),
])
def test_partition_bad_point_names_its_line(tmp_path, capsys, point, message):
    path = tmp_path / "weights.jsonl"
    path.write_text(f'["1@1"]\n["{point}"]\n', encoding="utf-8")
    assert run(["partition", "A3-1", "--file", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"


# The library sorts scalars by (phase, e), numeric in the q-exponent; the CLI
# prints in the order of (phase, num, den) with the exponent num/den in lowest
# terms (`scalars.order_key`).  The two disagree once half- or third-powers
# mix with integral ones, as below, and the printed order must not change.

def test_denom_roots_print_in_printed_order(capsys):
    assert run(["denom", "G2-1", "--i", "1", "--j", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "roots: q^2, q^4, q^(8/3), q^(10/3)"


def test_s_func_values_print_in_printed_order(capsys):
    assert run(["s-func", "G2-1", "1@1"]) == 0
    node1 = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()[1:11]]
    assert node1 == [
        "1@1", "1@q^(2/3)", "1@q^4", "1@q^(4/3)", "1@q^(8/3)",
        "1@q^(10/3)", "1@q^(14/3)", "1@q^(16/3)", "1@q^(20/3)", "1@q^(22/3)",
    ]


def test_e_of_values_print_in_printed_order(capsys):
    assert run(["e-of", "B2-1", "--weights", "2@1,2@qs", "--format", "json"]) == 0
    values = [(v["at"], v["value"]) for v in json.loads(capsys.readouterr().out)["values"]]
    assert values == [
        ("1@z24^12", -1), ("1@z24^12*q", -1), ("1@z24^12*q^(1/2)", -1), ("1@z24^12*q^3", 1),
        ("1@z24^12*q^4", 1), ("1@z24^12*q^(5/2)", 1), ("1@z24^12*q^(7/2)", 1),
        ("1@z24^12*q^(11/2)", -1), ("2@1", -2), ("2@q", 1), ("2@q^(1/2)", -2), ("2@q^2", -1),
        ("2@q^3", 2), ("2@q^(3/2)", 1), ("2@q^4", -1), ("2@q^5", 1), ("2@q^(5/2)", -1),
        ("2@q^(7/2)", 2), ("2@q^(9/2)", -1), ("2@q^(11/2)", 1),
    ]


def test_block_label_components_print_in_printed_order(capsys):
    assert run(["block-label", "C3-1", "--weights", "1@q^(1/3),1@q^(1/6)"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "component t=q^(1/3): [1, 0, 0, 0]",
        "component t=q^(1/6): [1, 0, 0, 0]",
    ]


def test_verify_single(capsys):
    assert run(["verify", "D4-3"]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_verify_json(capsys):
    assert run(["verify", "D4-3", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is True
    assert record["detail"] == "Cartan of D4"
    assert record["seconds"] >= 0


def test_verify_all_json(capsys, monkeypatch):
    from qaffine import acceptance

    monkeypatch.setattr(acceptance, "CRITERIA", [
        ("1 passes", lambda: (True, "fine")),
        ("2 fails", lambda: (False, "broken")),
    ])
    assert run(["verify", "--all", "--format", "json"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["check"], r["ok"], r["detail"]) for r in records] == [
        ("criterion 1 passes", True, "fine"),
        ("criterion 2 fails", False, "broken"),
    ]
    assert all(isinstance(r["seconds"], float) for r in records)
    assert run(["verify", "--all"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] criterion 1 passes (fine)",
        "[FAIL] criterion 2 fails (broken)",
    ]


def test_usage_error():
    assert run(["denom", "B3-1"]) == 2  # missing --i/--j
    assert run(["nonsense"]) == 2


def test_domain_error(capsys):
    assert run(["cartan-check", "B1-1"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["de", "A2-1", "1@1", "9@q"]) == 1
    assert run(["de", "A2-1", "1@1", "1@q^(1/5)"]) == 1
    assert run(["denom", "A3-1", "--i", "0", "--j", "1"]) == 1


@pytest.mark.parametrize("point, message", [
    ("1@q^\u00b2", "expected integer (at offset 2)"),
    ("1@z24^\u00b3", "expected integer (at offset 4)"),
    ("\u00b2@1", "expected point of the form i@<scalar> (at offset 0)"),
    ("\u0661@1", "expected point of the form i@<scalar> (at offset 0)"),
])
def test_non_ascii_digits_are_a_domain_error(capsys, point, message):
    assert run(["de", "A2-1", point, "1@1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# an integer literal past the interpreter's int-string limit (4,300 digits by
# default): `int` raises a bare ValueError on it, which must not escape
BIG = "9" * 5000
needs_int_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(BIG),
    reason="no int-string limit below the literal's length",
)


@needs_int_limit
@pytest.mark.parametrize("text", [f"q^{BIG}", f"z24^{BIG}", f"q^({BIG}/2)", f"q^(2/{BIG})", f"q*(-qs)^-{BIG}"],
                         ids=["power", "phase", "numerator", "denominator", "negative-power"])
def test_long_integer_in_a_scalar_is_a_parse_error(text):
    # reported, like the factor's other errors, at the factor's end
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert str(err.value) == f"integer literal too long (at offset {len(text)})"
    assert err.value.offset == len(text)


@needs_int_limit
def test_long_integer_in_a_point_or_type_is_a_domain_error():
    d = build(parse_type_string("A3-1"))
    with pytest.raises(ParseError) as err:
        parse_sigma_point(d, f"{BIG}@1")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_sigma_point(d, f"1@q^{BIG}")
    assert err.value.offset == 2 + len(BIG)
    for text in (f"A{BIG}-1", f"D{BIG}-2"):
        with pytest.raises(RankOutOfRange, match="digits>-[12] is too long"):
            parse_type_string(text)


@needs_int_limit
@pytest.mark.parametrize("argv, message", [
    (["de", "A2-1", f"1@q^{BIG}", "1@1"], f"integer literal too long (at offset {2 + len(BIG)})"),
    (["lambda", "A2-1", "1@1", f"{BIG}@1"], "integer literal too long (at offset 0)"),
    (["cartan-check", f"A{BIG}-1"], "rank of A<5000 digits>-1 is too long"),
    (["s-func", "E6-2", f"1@q^({BIG}/2)"], f"integer literal too long (at offset {6 + len(BIG)})"),
], ids=["scalar", "node", "type", "fraction"])
def test_long_integer_arguments_exit_1(capsys, argv, message):
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@needs_int_limit
@pytest.mark.parametrize("line", [f"[{BIG}]", f'["1@1", {BIG}]', f'["{BIG}@1"]', f'["1@z24^{BIG}"]'],
                         ids=["json-int", "json-int-after-point", "node", "phase"])
def test_long_integer_in_a_partition_file_names_its_line(tmp_path, capsys, line):
    path = tmp_path / "weights.jsonl"
    path.write_text(f'["1@1"]\n{line}\n', encoding="utf-8")
    assert run(["partition", "A3-1", "--file", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: integer literal too long (at offset ")
    assert "Traceback" not in err


def test_malformed_partition_file_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "weights.jsonl"
    path.write_text('["1@1"]\n["1@1",\n', encoding="utf-8")
    assert run(["partition", "A3-1", "--file", str(path)]) == 1
    assert ":2:" in capsys.readouterr().err


def test_internal_error_propagates(monkeypatch):
    def broken(*args):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "de", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["de", "A2-1", "1@1", "1@q^2"])


def test_internal_guard_failure_propagates(monkeypatch, capsys):
    # a failed internal check is a library bug, not bad input, so it must
    # not exit 1 as a domain error
    def broken(*args):
        raise InvariantViolation("broken denominator table")

    monkeypatch.setattr(invariants, "denominator", broken)
    with pytest.raises(InvariantViolation, match="broken denominator table"):
        run(["lambda", "A4-1", "2@1", "2@1"])
    assert capsys.readouterr().err == ""


def test_rank_cap_fails_fast(capsys):
    start = time.perf_counter()
    assert run(["cartan-check", "A300-1"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "above the cap 64" in capsys.readouterr().err


def test_text_output_is_stable(capsys):
    run(["sigma-q", "D5-2"])
    first = capsys.readouterr().out
    run(["sigma-q", "D5-2"])
    assert capsys.readouterr().out == first


def _loaded_after_cli_import(modules, *flags):
    """Which of `modules` a fresh interpreter has loaded after `import qaffine.cli`."""
    src = str(Path(qaffine.__file__).parents[1])
    code = f"import sys, qaffine.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_cli_import_leaves_acceptance_unloaded():
    # only verify and cartan-check --all-ranks need the acceptance suite
    assert _loaded_after_cli_import(["qaffine.acceptance"]) == []


@pytest.mark.parametrize("flags", [(), ("-O",)])
def test_cli_import_loads_neither_dataclasses_nor_inspect(flags):
    # all cost cold start on every qaffine call: dataclasses imports inspect,
    # which imports ast, dis and tokenize, and fractions imports decimal and numbers
    modules = ["dataclasses", "inspect", "fractions", "decimal", "numbers"]
    assert _loaded_after_cli_import(modules, *flags) == []
