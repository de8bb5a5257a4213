"""Property test: on a network made of several cooperation components,
``NetworkEfim.agent_info`` gives every agent the answer of its component
reduced alone.

The network information is block diagonal over the components, so an
agent's Schur complement involves its own component only; a component
without anchor or prior information moves as a whole unobserved.
"""

import numpy as np
import pytest

from locbounds.infogeo import speb_blocks
from locbounds.network import Node, Topology, build_efim
from locbounds.ranging import RangingLink

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

KINDS = ("anchored", "anchor_free", "rank_starved", "isolated")


@st.composite
def _component(draw, tag: str):
    """One cooperation component: agents chained by positive-intensity
    links, with anchor links (or a prior) by kind. A rank-starved
    component has a single anchor link; an isolated one is one agent with
    no link at all."""
    kind = draw(st.sampled_from(KINDS))
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    intensity = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    n_agents = draw(st.integers(*{"isolated": (1, 1), "anchor_free": (2, 3)}.get(kind, (1, 3))))
    n_anchors = draw(st.integers(1, 3)) if kind == "anchored" else int(kind == "rank_starved")
    agents, anchors = [], []
    for i in range(n_agents):
        prior = None
        if kind == "anchored" and draw(st.booleans()):
            prior = np.diag([draw(intensity), draw(intensity)])
        agents.append(Node(f"{tag}a{i}", "agent", draw(st.tuples(coord, coord)), prior))
    for i in range(n_anchors):
        anchors.append(Node(f"{tag}b{i}", "anchor", draw(st.tuples(coord, coord))))
    links = [
        RangingLink(agents[i].node_id, agents[i + 1].node_id, draw(intensity))
        for i in range(n_agents - 1)
    ]
    if kind == "anchored":
        for _ in range(draw(st.integers(0 if agents[0].prior_info is not None else 1, 4))):
            k = draw(st.integers(0, n_agents - 1))
            j = draw(st.integers(0, n_anchors - 1))
            links.append(RangingLink(agents[k].node_id, anchors[j].node_id, draw(intensity)))
    elif kind == "rank_starved":
        k = draw(st.integers(0, n_agents - 1))
        links.append(RangingLink(agents[k].node_id, anchors[0].node_id, draw(intensity)))
    return agents, anchors, links


@st.composite
def _unions(draw):
    """2-4 components, their agents interleaved in a random order that
    keeps each component's own order."""
    parts = [draw(_component(f"c{i}")) for i in range(draw(st.integers(2, 4)))]
    owner = draw(st.permutations([c for c, part in enumerate(parts) for _ in part[0]]))
    queues = [list(part[0]) for part in parts]
    agents = [queues[c].pop(0) for c in owner]
    anchors = [node for part in parts for node in part[1]]
    links = [link for part in parts for link in part[2]]
    union = Topology(agents + anchors, links)
    alone = [Topology(part[0] + part[1], part[2]) for part in parts]
    return union, alone


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(networks=_unions())
def test_each_agent_gets_its_component_reduced_alone(networks):
    union, alone = networks
    net = build_efim(union)
    spebs = dict(zip(net.agent_ids, speb_blocks(net.agent_info)))
    for topo in alone:
        part = build_efim(topo)
        for agent_id, expected in zip(part.agent_ids, speb_blocks(part.agent_info)):
            got = spebs[agent_id]
            assert np.isinf(got) == np.isinf(expected), agent_id
            if np.isfinite(expected):
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0), agent_id
