"""No `assert` statement in the library or the tools, so that every invariant check survives `python -O`.

`python -O` strips asserts, so a check written as one silently stops
checking.  Each module under src/qaffine and tools/ is parsed with `ast`,
and so is each module-level string that is itself a program (the source a
tool hands to a child interpreter, such as `cold_tables.CHILD`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "qaffine").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def _programs(path):
    """(name, tree) of the module and of each module-level string assignment that parses as Python."""
    tree = ast.parse(path.read_text(), str(path))
    yield path.name, tree
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            try:
                yield f"{path.name} {ast.unparse(node.targets[0])}", ast.parse(node.value.value)
            except SyntaxError:
                pass


def test_no_module_under_src_or_tools_asserts():
    assert len(MODULES) > 10 and any(p.name == "cold_tables.py" for p in MODULES)
    found = [f"{name}:{n.lineno}" for path in MODULES for name, tree in _programs(path)
             for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, f"assert statements, which python -O strips: {found}"
