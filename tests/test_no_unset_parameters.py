"""Every defaulted parameter the package defines is set by some call.

A parameter with a default counts as set when a call in ``src/``,
``demos/``, ``tests/`` or ``perfbench/`` passes it by keyword, or passes
enough positional arguments to reach it. Calls are matched to definitions
by name (the attribute name for ``obj.method(...)``), and an ``__init__``
by its class's name; a call that unpacks ``*args`` or ``**kwargs`` may set
anything, so it sets every parameter of the name it calls. Like
``test_no_dead_definitions.py``, the check reads the syntax trees only.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "locbounds"
SEARCHED = ("src", "demos", "tests", "perfbench")


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the searched trees, by the name it calls."""
    calls = defaultdict(list)
    for top in SEARCHED:
        for _, tree in _trees(ROOT / top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name):
                        calls[func.id].append(node)
                    elif isinstance(func, ast.Attribute):
                        calls[func.attr].append(node)
    return calls


def _defaulted(func: ast.FunctionDef, bound: bool):
    """(position, name) of each defaulted parameter; position is None for
    keyword-only ones and counts from the first argument a caller passes."""
    positional = func.args.posonlyargs + func.args.args
    first = 1 if bound else 0
    for i, arg in enumerate(positional[len(positional) - len(func.args.defaults) :]):
        yield len(positional) - len(func.args.defaults) + i - first, arg.arg
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _sets(call: ast.Call, position, name: str) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _definitions():
    """(where, called name, position, parameter) of every defaulted
    parameter of a function or method in the package."""
    for path, tree in _trees(PACKAGE):
        scopes = [(tree, None)]
        while scopes:
            scope, cls = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, node.name))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scopes.append((node, None))
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list
                    )
                    called = cls if node.name == "__init__" else node.name
                    for position, param in _defaulted(node, cls is not None and not static):
                        where = f"{path.relative_to(ROOT)}:{node.lineno} {node.name}.{param}"
                        yield where, called, position, param


def test_every_defaulted_parameter_is_set_somewhere():
    calls = _calls()
    unset = [
        where
        for where, called, position, param in _definitions()
        if not any(_sets(call, position, param) for call in calls.get(called, ()))
    ]
    assert unset == []
