"""Property test of ``NetworkEfim.agent_info`` on generated corner-case
networks, against per-agent pseudo-inverse reductions."""

import numpy as np
import pytest
from scipy.linalg import pinvh
from scipy.sparse.csgraph import connected_components

from locbounds.infogeo import UNLOCALIZABLE, InfoMatrix2, is_singular, schur_reduce, speb
from locbounds.network import Node, Topology, _pinv_reduce, agent_efim, build_efim
from locbounds.ranging import RangingLink

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _networks(draw):
    """Small topologies full of corner cases: isolated agents, one-link
    agents, anchor-free clusters, zero-intensity links, missing reverse
    links and intensities from 1e-8 to 1e8.
    """
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    intensity = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0**e))
    n_agents = draw(st.integers(1, 6))
    n_nodes = n_agents + draw(st.integers(0, 3))
    positions = draw(st.lists(st.tuples(coord, coord), min_size=n_nodes, max_size=n_nodes))
    nodes = tuple(
        Node(f"a{i}" if i < n_agents else f"b{i}", "agent" if i < n_agents else "anchor", p)
        for i, p in enumerate(positions)
    )
    triples = draw(
        st.lists(
            st.tuples(st.integers(0, n_agents - 1), st.integers(0, n_nodes - 1), intensity),
            max_size=3 * n_agents,
        )
    )
    reciprocal = draw(st.booleans())
    links, pairs = [], set()
    for k, j, rii in triples:
        if k == j or (reciprocal and (j, k) in pairs):
            continue  # a reciprocal topology takes one intensity per pair
        pairs.add((k, j))
        links.append(RangingLink(nodes[k].node_id, nodes[j].node_id, rii))
    return Topology(nodes, tuple(links), reciprocal=reciprocal)


def _unanchored_ids(topo):
    """Agents joined by positive-intensity links to no anchor link of
    positive intensity (the generator draws no priors)."""
    agent_ids = {node.node_id for node in topo.agents}
    group = {node_id: {node_id} for node_id in agent_ids}
    anchored = set()
    for link in topo.links:
        if link.rii <= 0.0:
            continue
        if link.to_id not in agent_ids:
            anchored.add(link.from_id)
        elif group[link.from_id] is not group[link.to_id]:
            merged = group[link.from_id] | group[link.to_id]
            for node_id in merged:
                group[node_id] = merged
    return {node_id for node_id in agent_ids if not group[node_id] & anchored}


def _reference(total, k):
    """Agent k's block by ``schur_reduce(use_pinv=True)``, and that
    reduction's rounding error eps (|A| + |B|^2 |C^+|): it forms C^+
    explicitly, so its error grows with C^+ whatever B's directions."""
    idx = [2 * k, 2 * k + 1]
    b = np.delete(total[idx], idx, axis=1)
    c = np.delete(np.delete(total, idx, axis=0), idx, axis=1)
    c_pinv_norm = np.linalg.norm(pinvh(c), 2) if c.size else 0.0
    a_norm = np.abs(total[np.ix_(idx, idx)]).sum()
    error = np.finfo(float).eps * (a_norm + np.linalg.norm(b, 2) ** 2 * c_pinv_norm)
    return schur_reduce(total, keep=[k], use_pinv=True).array, error


def _components(total):
    """Each cooperation component of ``total`` (agents joined by nonzero
    blocks) as (its agents, its submatrix)."""
    n = total.shape[0] // 2
    _, labels = connected_components(total.reshape(n, 2, n, 2).any(axis=(1, 3)), directed=False)
    for label in np.unique(labels):
        agents = np.flatnonzero(labels == label)
        rows = (2 * agents[:, None] + np.arange(2)).ravel()
        yield agents, total[np.ix_(rows, rows)]


def _eig_min_and_trace(block):
    block = 0.5 * (block + block.T)
    return np.linalg.eigvalsh(block)[0], np.trace(block)


def _decided(block, error, floor):
    """The reduction's verdict on the true block, from ``block`` computed
    with rounding ``error``: singular where the true smallest eigenvalue is
    at most ``floor`` (the reduction's own rounding level) or where
    ``is_singular`` holds. True or False where that holds with a margin of
    1e3 anywhere within ``error``; None where it does not."""
    eig_min, trace = _eig_min_and_trace(block)
    if eig_min - error > 1e3 * floor and not is_singular(1e3 * trace, eig_min - error):
        return False
    if is_singular(1e-3 * trace, eig_min + error):
        return True
    return None


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(topo=_networks(), order=st.randoms(use_true_random=False))
def test_never_raises_and_agrees_with_per_agent_reduction(topo, order):
    net = build_efim(topo)
    info = net.agent_info
    assert info.shape == (net.n_agents, 2, 2)
    total = net.total.array
    # the rounding level of the pseudo-inverse reduction, taken for the
    # halving path too
    floor = total.shape[0] * _pinv_reduce(total)[1]
    unanchored = _unanchored_ids(topo)
    anchors_only = net.j_a + net.xi_p
    for k, agent_id in enumerate(net.agent_ids):
        j = agent_efim(net, agent_id)
        assert np.array_equal(j.as_array(), info[k])
        if agent_id in unanchored:
            assert speb(j) is UNLOCALIZABLE
        else:
            verdict = _decided(*_reference(total, k), floor[k])
            if verdict is not None:
                assert (speb(j) is UNLOCALIZABLE) == verdict
        # cooperation never hurts, up to the reduction's rounding level
        own = InfoMatrix2.from_array(anchors_only[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])
        if speb(j) is UNLOCALIZABLE:
            assert speb(own) is UNLOCALIZABLE
        else:
            rounded_up = InfoMatrix2.from_array(info[k] + floor[k] * np.eye(2))
            assert speb(rounded_up) <= speb(own) * (1 + 1e-9)

    # the same two checks at each component's own rounding level, the
    # floor ``agent_info`` takes when it falls back to the pseudo-inverse
    for agents, part in _components(total):
        part_floor = part.shape[0] * _pinv_reduce(part)[1]
        for i, k in enumerate(agents):
            j = agent_efim(net, net.agent_ids[k])
            if net.agent_ids[k] not in unanchored:
                verdict = _decided(*_reference(part, i), part_floor[i])
                if verdict is not None:
                    assert (speb(j) is UNLOCALIZABLE) == verdict
            if speb(j) is not UNLOCALIZABLE:
                own = InfoMatrix2.from_array(anchors_only[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])
                rounded_up = InfoMatrix2.from_array(info[k] + part_floor[i] * np.eye(2))
                assert speb(rounded_up) <= speb(own) * (1 + 1e-9)

    # reordering the nodes reorders the agents and nothing else, up to
    # the rounding error
    nodes = list(topo.nodes)
    order.shuffle(nodes)
    shuffled = build_efim(Topology(tuple(nodes), topo.links, reciprocal=topo.reciprocal))
    for k, agent_id in enumerate(net.agent_ids):
        other = shuffled.agent_info[shuffled.index(agent_id)]
        verdict = _decided(info[k], floor[k], floor[k])
        if verdict is not None:
            assert (speb(InfoMatrix2.from_array(other)) is UNLOCALIZABLE) == verdict
        if verdict is False:
            mine = speb(InfoMatrix2.from_array(info[k]))
            rel = 1e-6 + 2.0 * floor[k] / _eig_min_and_trace(info[k])[0]
            assert speb(InfoMatrix2.from_array(other)) == pytest.approx(mine, rel=rel)
