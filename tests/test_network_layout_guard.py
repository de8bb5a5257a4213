"""Only ``network.py`` knows the dense layout of the network information.

A ``NetworkEfim`` holds per-agent anchor and prior stacks and a list of
cooperation links; its (2N, 2N) matrices ``j_a``, ``j_c``, ``xi_p`` and
``total`` are built on access for checks and demos. No other module of
the package may read them or call ``network._blocks``, so the choice of
layout stays in one module. Likewise ``network.build_efim`` is the one
assembly: no other code of the package constructs a ``NetworkEfim``, so
an update (``join``, ``leave``) edits the topology and assembles it again.
And a ``Topology`` is arrays: its ``Node`` and ``RangingLink`` views
(``nodes``, ``links``, ``node``, ``agents``, ``anchors``, ``link_geometry``)
are read by ``class Topology`` alone, so no computing path of the package,
nor an edit of a topology, goes back to objects. Like
``test_no_dead_definitions.py``, the checks read the syntax trees only.
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


def _efim_constructions(path: Path) -> list[str]:
    """``NetworkEfim(...)`` calls, each named by its enclosing function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if name == "NetworkEfim":
                found.append(f"{path.stem}.{owner}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_build_efim_constructs_a_network_efim():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _efim_constructions(path)]
    assert [hit.split(":")[0] for hit in hits] == ["network.build_efim"]


def test_the_guard_sees_a_network_efim_construction(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import network\n"
        "def leave(net, k):\n"
        "    return network.NetworkEfim(net.agent_ids[1:], *net.stacks)\n"
        "EMPTY = NetworkEfim((), [], [], [], [], [])\n"
    )
    assert _efim_constructions(probe) == ["probe.leave:3", "probe.<module>:4"]


VIEWS = {"nodes", "links", "node", "agents", "anchors", "link_geometry"}


def _view_reads(path: Path) -> list[str]:
    """Reads of a ``Topology``'s object views outside ``class Topology``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node):
        if isinstance(node, ast.ClassDef) and node.name == "Topology":
            return
        if isinstance(node, ast.Attribute) and node.attr in VIEWS:
            found.append(f"{path.name}:{node.lineno} .{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_only_topology_reads_its_object_views():
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _view_reads(path)]
    assert hits == []


def test_the_guard_sees_an_object_view_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class Topology:\n"
        "    def node(self, k):\n"
        "        return self.nodes[k]\n"
        "def relabel(topo, k):\n"
        "    return [l for l in topo.links if l.to_id == k], topo.node(k).position\n"
    )
    assert _view_reads(probe) == ["probe.py:5 .links", "probe.py:5 .node"]
