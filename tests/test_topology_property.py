"""Property test of ``Topology``'s link arrays on generated networks with
reciprocal pairs, repeated directed links, bearing and distance overrides
and agent priors: ``RangingLink``s round-trip through the arrays exactly,
a topology built by hand and the same network loaded from a config
document assemble bit-identical information, and both reject a reciprocal
mismatch as the per-link rule does (of a direction given twice, the last
counts)."""

import json
import math
import os
import tempfile

import numpy as np
import pytest

from locbounds.config import ConfigError, load_config
from locbounds.network import Node, Topology, build_efim
from locbounds.ranging import RangingLink

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _networks(draw):
    """(nodes, links, reciprocal, config document) of one small network."""
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    n_agents = draw(st.integers(1, 5))
    n_nodes = n_agents + draw(st.integers(0, 3))
    nodes, entries = [], []
    for i in range(n_nodes):
        node_id, kind = (f"a{i}", "agent") if i < n_agents else (f"b{i}", "anchor")
        position = [draw(coord), draw(coord)]
        entry = {"id": node_id, "kind": kind, "position": position}
        info = mean = None
        if kind == "agent" and draw(st.booleans()):
            x, y = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
            c = draw(st.floats(-0.9, 0.9)) * x * y
            info = [[x * x, c], [c, y * y]]
            entry["prior"] = {"info": info}
            if draw(st.booleans()):
                mean = [draw(coord), draw(coord)]
                entry["prior"]["mean"] = mean
        nodes.append(Node(node_id, kind, position, prior_info=info, prior_mean=mean))
        entries.append(entry)

    # few distinct intensities, so that repeated and reverse directions often
    # agree, and 1 + 1e-10 to sit inside the reciprocal tolerance
    few = st.sampled_from([0.0, 1.0, 1.0 + 1e-10, 2.0])
    intensity = st.one_of(few, few, few, st.floats(1e-3, 1e3))
    override = st.one_of(st.none(), st.floats(-4.0, 4.0))
    distance = st.one_of(st.none(), st.floats(0.1, 100.0))
    links, link_entries = [], []

    def add(link):
        links.append(link)
        entry = {"from": link.from_id, "to": link.to_id, "rii": link.rii}
        if link.phi is not None:
            entry["phi_rad"] = link.phi
        if link.distance is not None:
            entry["distance_m"] = link.distance
        link_entries.append(entry)

    for k, j, rii, phi, dist in draw(
        st.lists(
            st.tuples(
                st.integers(0, n_agents - 1),
                st.one_of(st.integers(0, n_agents - 1), st.integers(0, n_nodes - 1)),
                intensity,
                override,
                distance,
            ),
            max_size=5 * n_agents,
        )
    ):
        if k != j:
            add(RangingLink(nodes[k].node_id, nodes[j].node_id, rii, phi, dist))
    # a direction given again at another intensity, now and then followed by
    # its reverse at that intensity: the last of a direction decides
    for i, rii, reverse in draw(st.lists(st.tuples(st.integers(0, 99), intensity, st.booleans()))):
        if links:
            link = links[i % len(links)]
            add(RangingLink(link.from_id, link.to_id, rii))
            if reverse and link.to_id.startswith("a"):
                add(RangingLink(link.to_id, link.from_id, rii))
    reciprocal = draw(st.booleans())
    doc = {
        "version": 1,
        "network": {"reciprocal": reciprocal, "nodes": entries, "links": link_entries},
    }
    return tuple(nodes), tuple(links), reciprocal, doc


def _reciprocal_fault(nodes, links):
    """The per-link reciprocal rule: the last intensity of each agent-agent
    direction, directions named in the order they first appear."""
    agents = {node.node_id for node in nodes if node.is_agent}
    seen = {}
    for link in links:
        if link.from_id in agents and link.to_id in agents:
            seen[(link.from_id, link.to_id)] = link.rii
    for (k, m), lam in seen.items():
        rev = seen.get((m, k))
        if rev is not None and not math.isclose(rev, lam, rel_tol=1e-9, abs_tol=0.0):
            return f"reciprocal topology but links {k}<->{m} carry different intensities"
    return None


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.int64)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(network=_networks())
def test_link_arrays_round_trip_and_match_the_config_path(network):
    nodes, links, reciprocal, doc = network
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "network.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        fault = _reciprocal_fault(nodes, links) if reciprocal else None
        if fault is not None:
            with pytest.raises(ValueError) as hand:
                Topology(nodes, links, reciprocal=reciprocal)
            assert str(hand.value) == fault
            with pytest.raises(ConfigError) as loaded:
                load_config(path)
            assert str(loaded.value) == f"network: {fault}"
            return
        topo = Topology(nodes, links, reciprocal=reciprocal)
        loaded = load_config(path).topology

    assert topo.links == links
    again = Topology(topo.nodes, topo.links, reciprocal=topo.reciprocal)
    for name in ("src", "dst"):
        assert np.array_equal(getattr(again, name), getattr(topo, name))
    for name in ("rii", "phi", "distance"):
        assert np.array_equal(_bits(getattr(again, name)), _bits(getattr(topo, name)))

    hand, from_config = build_efim(topo), build_efim(loaded)
    assert from_config.agent_ids == hand.agent_ids
    for name in ("j_a", "j_c", "xi_p"):
        assert np.array_equal(_bits(getattr(from_config, name)), _bits(getattr(hand, name)))
