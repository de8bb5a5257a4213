"""Every function, method and class the package defines has a caller.

A definition counts as used when its name appears as a name, an attribute
or an import anywhere in ``src/``, ``demos/``, ``tests/`` or
``perfbench/`` (its own ``def`` or ``class`` line does not count). The
check reads the syntax trees only, so it imports nothing and runs in well
under a second.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "locbounds"
SEARCHED = ("src", "demos", "tests", "perfbench")


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _used_names() -> set[str]:
    used: set[str] = set()
    for top in SEARCHED:
        for _, tree in _trees(ROOT / top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.update(node.name.split("."))
    return used


def _definitions():
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, kinds) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                yield f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name


def test_every_definition_has_a_caller():
    used = _used_names()
    stranded = [where for where, name in _definitions() if name not in used]
    assert stranded == []
