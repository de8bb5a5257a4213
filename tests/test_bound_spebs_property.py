"""Property test of ``bounds.bound_spebs`` against the objects of
``efim_bounds_all`` on generated corner-case networks."""

import math

import numpy as np
import pytest

from locbounds.bounds import bound_spebs, efim_bounds_all
from locbounds.infogeo import speb, speb_blocks
from locbounds.network import NetworkEfim, Node, Topology, build_efim
from locbounds.ranging import RangingLink

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _networks(draw):
    """Small reciprocal topologies on a coarse grid, so agents and anchors
    often line up: a peer whose only anchor lies across the bearing to its
    neighbour is singular along that bearing, and one whose only anchor
    lies on it is singular across it. Intensities are 0 or span
    1e-8 to 1e8, so anchor information is often strongly anisotropic, and
    agents may have no links at all."""
    coord = st.integers(-3, 3).map(float)
    intensity = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).map(lambda e: 10.0**e))
    n_agents = draw(st.integers(1, 6))
    n_nodes = n_agents + draw(st.integers(0, 3))
    positions = draw(
        st.lists(st.tuples(coord, coord), min_size=n_nodes, max_size=n_nodes, unique=True)
    )
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
    links, pairs = [], set()
    for k, j, rii in triples:
        if k == j or (j, k) in pairs or (k, j) in pairs:
            continue  # a reciprocal topology takes one intensity per pair
        pairs.add((k, j))
        links.append(RangingLink(nodes[k].node_id, nodes[j].node_id, rii))
    return Topology(nodes, tuple(links), reciprocal=True)


def _topology(positions, n_agents, links):
    nodes = tuple(
        Node(f"a{i}" if i < n_agents else f"b{i}", "agent" if i < n_agents else "anchor", p)
        for i, p in enumerate(positions)
    )
    links = tuple(RangingLink(nodes[k].node_id, nodes[j].node_id, rii) for k, j, rii in links)
    return Topology(nodes, links, reciprocal=True)


# a1's one anchor lies across its bearing to a0, a2 is isolated, and the
# a0-a2 link carries no intensity
_SINGULAR_PEER = _topology(
    [(0.0, 0.0), (1.0, 0.0), (3.0, 3.0), (1.0, 2.0), (0.0, 2.0), (-2.0, 0.0)],
    3,
    [(0, 1, 5.0), (1, 3, 2.0), (0, 4, 1.0), (0, 5, 1.0), (0, 2, 0.0)],
)
# the same with a1's one anchor on its bearing to a0, at angle pi from a1:
# a1 is singular across the bearing, up to rounding in the angles
_ANCHOR_ON_BEARING = _topology(
    [(0.0, 0.0), (1.0, 0.0), (3.0, 3.0), (2.0, 0.0), (0.0, 2.0), (-2.0, 0.0)],
    3,
    [(0, 1, 5.0), (1, 3, 2.0), (0, 4, 1.0), (0, 5, 1.0), (0, 2, 0.0)],
)
# a0's anchors give it 1e8 along x and 1e-8 along y
_ANISOTROPIC = _topology(
    [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0), (1.0, 3.0)],
    2,
    [(0, 2, 1e8), (0, 3, 1e-8), (0, 1, 1e3), (1, 4, 1.0), (1, 5, 1.0)],
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(topo=_networks())
@example(topo=_SINGULAR_PEER)
@example(topo=_ANCHOR_ON_BEARING)
@example(topo=_ANISOTROPIC)
def test_array_spebs_equal_the_objects(topo):
    net = build_efim(topo)
    upper, lower = bound_spebs(net)
    objects = efim_bounds_all(net)
    assert list(objects) == list(net.agent_ids)
    want_upper = [speb(low) for low, _, _ in objects.values()]
    want_lower = [speb(high) for _, high, _ in objects.values()]
    # bit for bit, inf where the scalar rule says unlocalizable
    assert upper.tolist() == want_upper
    assert lower.tolist() == want_lower
    assert all(math.copysign(1.0, v) == 1.0 for v in upper.tolist() + lower.tolist())


def test_examples_hold_their_corner_cases():
    coeffs = efim_bounds_all(build_efim(_SINGULAR_PEER))["a0"][2]
    assert coeffs.peer_ids == ("a1",)  # a zero-intensity link is no link
    assert coeffs.singular_peers == (True,)
    upper, lower = bound_spebs(build_efim(_SINGULAR_PEER))
    assert math.isinf(upper[2]) and math.isinf(lower[2])  # the isolated agent
    upper, lower = bound_spebs(build_efim(_ANISOTROPIC))
    assert math.isfinite(lower[0])


def test_a_peer_singular_across_the_bearing_still_cooperates():
    """Rounding in the bearings (about 1e-16 rad) must not make a peer whose
    anchor lies on the bearing read as singular across it, which would drop
    the link from J_L and J_U and put the lower SPEB above the exact one."""
    net = build_efim(_ANCHOR_ON_BEARING)
    coeffs = efim_bounds_all(net)["a0"][2]
    assert coeffs.singular_peers == (False,)
    assert coeffs.xi_l[0] > 0.0
    upper, lower = bound_spebs(net)
    exact = speb_blocks(net.agent_info)
    # a0 and a1 form a two-agent network, where the bounds are exact
    assert lower[0] == upper[0] == pytest.approx(exact[0], rel=1e-12)


def _faulting_net(priors):
    """Three agents a0-a1-a2 in a line, each with anchor information
    diag(1, 1), plus the given per-agent prior arrays."""
    n = 3
    anchor = np.broadcast_to(np.eye(2), (n, 2, 2))
    prior = np.zeros((n, 2, 2))
    for k, block in priors.items():
        prior[k] = block
    terms = np.broadcast_to(np.diag([1.0, 0.0]), (n - 1, 2, 2))  # ranging along x
    return NetworkEfim(("a0", "a1", "a2"), anchor, prior, [0, 1], [1, 2], terms)


@pytest.mark.parametrize(
    "priors, message",
    [
        # a1 is not PSD and a2 is not finite: a1's error comes first
        (
            {1: [[0.0, 0.0], [0.0, -3.0]], 2: [[math.nan, 0.0], [0.0, 0.0]]},
            "InfoMatrix2 is not PSD within tolerance",
        ),
        ({1: [[0.0, 0.0], [0.0, math.inf]], 2: [[0.0, 0.0], [0.0, -3.0]]}, "must be finite"),
    ],
)
def test_faulting_network_raises_what_the_objects_raise(priors, message):
    net = _faulting_net(priors)
    with pytest.raises(ValueError, match=message) as objects:
        efim_bounds_all(net)
    with pytest.raises(ValueError) as arrays:
        bound_spebs(net)
    assert str(arrays.value) == str(objects.value)
