"""Only ``network.py`` knows the dense layout of the network information.

A ``NetworkEfim`` holds per-agent anchor and prior stacks and a list of
cooperation links; its (2N, 2N) matrices ``j_a``, ``j_c``, ``xi_p`` and
``total`` are built on access for checks and demos. No other module of
the package may read them or call ``network._blocks``, so the choice of
layout stays in one module. Like ``test_no_dead_definitions.py``, the
check reads the syntax trees only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "locbounds"
DENSE = {"j_a", "j_c", "xi_p", "total", "_blocks"}


def _dense_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in DENSE:
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.alias) and node.name == "_blocks":
            found.append(f"{path.name}:{node.lineno} import _blocks")
    return found


def test_only_network_reads_the_dense_matrices():
    outside = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "network.py"]
    assert outside
    assert [hit for path in outside for hit in _dense_reads(path)] == []


def test_the_guard_sees_a_dense_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .network import _blocks\n"
        "def f(net):\n"
        "    return net.j_c, net.total.array\n"
    )
    assert _dense_reads(probe) == [
        "probe.py:1 import _blocks",
        "probe.py:3 .j_c",
        "probe.py:3 .total",
    ]
