"""Byte-identity of the CLI outputs, section by section.

`tests/sweep_digests.json` holds the sha256 of each section of
`tools/cli_sweep.py` (every call of one subcommand on one type) for the
outputs that are the contract.  This test reruns the sweep in-process and
names the first section whose text differs.  Under a Python minor version
other than the recorded one it still checks every section but those marked
" [python]", whose error texts argparse or json word.  A change that alters
an output on purpose regenerates the file (see the sweep's docstring).
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sweep_module():
    spec = importlib.util.spec_from_file_location("cli_sweep", ROOT / "tools" / "cli_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_sweep_matches_the_recorded_digests():
    recorded = json.loads((ROOT / "tests" / "sweep_digests.json").read_text(encoding="utf-8"))
    sweep = _sweep_module()
    got = sweep.digests()
    same_python = got["python"] == recorded["python"]
    for name, digest in recorded["sections"].items():
        if same_python or not name.endswith(sweep.WORDED):
            assert got["sections"].get(name) == digest, f"first sweep section that differs: {name!r}"
    assert list(got["sections"]) == list(recorded["sections"]), "the sweep's sections changed"
