"""Property test: ``join`` and ``leave`` equal batch re-assembly bit for bit.

An update keeps the stacks and the link arrays in the order batch
assembly of the updated topology gives them, so ``total`` and
``agent_info`` come out as the same floats, not merely close ones.
"""

import numpy as np
import pytest

from locbounds.network import Node, Topology, build_efim, join, leave
from locbounds.ranging import RangingLink

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _networks(draw):
    """Five agents and up to three anchors with random links: duplicates,
    both directions of a pair, zero intensities, bearing overrides and
    priors; under ``reciprocal`` an agent pair is given one direction.
    Returns the topology and the id of one agent."""
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    intensity = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    n_agents, n_anchors = 5, draw(st.integers(0, 3))
    nodes = []
    for i in range(n_agents):
        prior = None
        if draw(st.booleans()):
            prior = np.diag([draw(intensity), draw(intensity)])
        nodes.append(Node(f"a{i}", "agent", draw(st.tuples(coord, coord)), prior))
    nodes += [Node(f"b{i}", "anchor", draw(st.tuples(coord, coord))) for i in range(n_anchors)]
    reciprocal = draw(st.booleans())
    links, pairs = [], set()
    for _ in range(draw(st.integers(0, 20))):
        k = draw(st.integers(0, n_agents - 1))
        j = draw(st.integers(0, len(nodes) - 1))
        if k == j or (reciprocal and j < n_agents and (j, k) in pairs):
            continue
        pairs.add((k, j))
        phi = draw(st.one_of(st.none(), st.floats(-3.0, 3.0)))
        links.append(RangingLink(nodes[k].node_id, nodes[j].node_id, draw(intensity), phi))
    topo = Topology(nodes, links, reciprocal=reciprocal)
    return topo, nodes[draw(st.integers(0, n_agents - 1))].node_id


def _assert_bitwise_equal(net, batch):
    assert net.agent_ids == batch.agent_ids
    assert np.array_equal(net.total.array, batch.total.array)
    assert np.array_equal(net.agent_info, batch.agent_info)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=_networks())
def test_join_equals_batch_assembly(case):
    topo, agent_id = case
    gone = [n.node_id for n in topo.nodes].index(agent_id)
    newcomer = topo.nodes[gone]
    before = Topology(
        topo.nodes[:gone] + topo.nodes[gone + 1 :],
        [link for link in topo.links if agent_id not in (link.from_id, link.to_id)],
        reciprocal=topo.reciprocal,
    )
    links = [link for link in topo.links if agent_id in (link.from_id, link.to_id)]
    grown = join(build_efim(before), newcomer, links)
    _assert_bitwise_equal(grown, build_efim(grown.topology))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=_networks())
def test_leave_equals_batch_assembly(case):
    topo, agent_id = case
    reduced = leave(build_efim(topo), agent_id)
    _assert_bitwise_equal(reduced, build_efim(reduced.topology))
