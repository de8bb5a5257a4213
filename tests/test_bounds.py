"""Tests for the closed-form cooperation bounds."""

import math

import numpy as np
import pytest

from locbounds.bounds import (
    effective_rii,
    efim_bounds,
    efim_bounds_all,
    peer_dpeb,
    two_agent_exact,
)
from locbounds.infogeo import EllipseForm, InfoMatrix2, rdm, schur_reduce, speb, to_ellipse
from locbounds.network import agent_efim, build_efim

from conftest import random_pd_matrix, random_topology

PEER = EllipseForm(2.0, 1.0, 0.0)


class TestEffectiveRii:
    def test_worked_values(self):
        """Peer F(2,1,0): Delta is 1/2, 3/4, 1 along 0, pi/4, pi/2."""
        assert abs(peer_dpeb(PEER, 0.0) - 0.5) < 1e-12
        assert abs(peer_dpeb(PEER, math.pi / 4) - 0.75) < 1e-12
        assert abs(peer_dpeb(PEER, math.pi / 2) - 1.0) < 1e-12
        res = effective_rii(PEER, 1.0, math.pi / 2)
        assert abs(res.xi - 0.5) < 1e-12
        assert abs(res.eff - 0.5) < 1e-12

    def test_asymptotic_limits(self):
        """eff saturates at the inverse directional bound of the peer."""
        for phi, limit in ((0.0, 2.0), (math.pi / 4, 4.0 / 3.0), (math.pi / 2, 1.0)):
            res = effective_rii(PEER, 1e6, phi)
            assert abs(res.eff - limit) < 1e-3
        assert effective_rii(PEER, 0.0, 0.3).eff == 0.0

    def test_monotone_and_capped(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            peer = to_ellipse(random_pd_matrix(rng))
            phi = rng.uniform(0, 2 * math.pi)
            limit = 1.0 / peer_dpeb(peer, phi)
            effs = [effective_rii(peer, nu, phi).eff for nu in (0.1, 1.0, 10.0, 100.0)]
            assert all(b > a for a, b in zip(effs, effs[1:]))
            assert all(e < limit for e in effs)

    def test_singular_peer_flagged(self):
        degenerate = EllipseForm(1.0, 0.0, 0.0)
        res = effective_rii(degenerate, 2.0, math.pi / 2)
        assert res.eff == 0.0 and res.xi == 0.0 and res.peer_singular

    def test_matches_direct_quadratic_form(self):
        """Eigen-form Delta equals q^T J^-1 q computed directly."""
        rng = np.random.default_rng(2)
        for _ in range(100):
            j = random_pd_matrix(rng)
            phi = rng.uniform(0, 2 * math.pi)
            q = np.array([math.cos(phi), math.sin(phi)])
            direct = float(q @ np.linalg.inv(j.as_array()) @ q)
            assert abs(peer_dpeb(to_ellipse(j), phi) - direct) < 1e-9 * direct


class TestTwoAgentExact:
    def test_worked_example(self):
        je1, je2 = two_agent_exact(
            InfoMatrix2(1, 0, 1), InfoMatrix2(1, 0, 1), 1.0, 0.0
        )
        np.testing.assert_allclose(je1.as_array(), np.diag([1.5, 1.0]), atol=1e-14)
        np.testing.assert_allclose(je2.as_array(), np.diag([1.5, 1.0]), atol=1e-14)
        assert abs(speb(je1) - 5.0 / 3.0) < 1e-14

    def test_zero_intensity_identity(self):
        ja1 = InfoMatrix2(2.0, 0.2, 1.0)
        je1, _ = two_agent_exact(ja1, InfoMatrix2(1, 0, 1), 0.0, 0.7)
        np.testing.assert_array_equal(je1.as_array(), ja1.as_array())

    def test_matches_joint_reduction(self):
        """Closed form equals the 4x4 joint information reduction."""
        rng = np.random.default_rng(3)
        for _ in range(200):
            ja1 = random_pd_matrix(rng)
            ja2 = random_pd_matrix(rng)
            nu = rng.uniform(0.0, 5.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            je1, je2 = two_agent_exact(ja1, ja2, nu, phi)
            c = nu * rdm(phi).as_array()
            joint = np.block(
                [[ja1.as_array() + c, -c], [-c, ja2.as_array() + c]]
            )
            oracle1 = schur_reduce(joint, keep=[0]).array
            oracle2 = schur_reduce(joint, keep=[1]).array
            scale = max(np.abs(oracle1).max(), 1.0)
            np.testing.assert_allclose(je1.as_array(), oracle1, atol=1e-10 * scale)
            np.testing.assert_allclose(je2.as_array(), oracle2, atol=1e-10 * scale)

    def test_certain_peer_acts_like_anchor(self):
        """A peer with huge information along the coupling hands over the
        full intensity."""
        phi = 0.3
        ja2 = to_ellipse(InfoMatrix2(1, 0, 1)).to_matrix()
        certain = EllipseForm(1e12, 1.0, phi).to_matrix()
        ja1 = InfoMatrix2(2.0, 0.0, 1.0)
        nu = 3.0
        je1, _ = two_agent_exact(ja1, certain, nu, phi)
        expected = ja1.as_array() + nu * rdm(phi).as_array()
        np.testing.assert_allclose(je1.as_array(), expected, rtol=1e-6)


class TestEfimBounds:
    def test_two_agents_bounds_coincide(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            topo = random_topology(rng, n_agents=2)
            net = build_efim(topo)
            for agent_id in net.agent_ids:
                low, high, coeffs = efim_bounds(net, agent_id)
                np.testing.assert_array_equal(coeffs.xi_l, coeffs.xi_u)
                np.testing.assert_array_equal(low.as_array(), high.as_array())
                exact = agent_efim(net, agent_id).as_array()
                np.testing.assert_allclose(
                    low.as_array(), exact, atol=1e-10 * max(np.abs(exact).max(), 1.0)
                )

    def test_no_cooperation_collapses_to_anchor_info(self):
        rng = np.random.default_rng(5)
        topo = random_topology(rng, n_agents=3)
        stripped = type(topo)(
            topo.nodes,
            tuple(l for l in topo.links if not l.to_id.startswith("a")),
        )
        net = build_efim(stripped)
        for agent_id in net.agent_ids:
            low, high, coeffs = efim_bounds(net, agent_id)
            np.testing.assert_array_equal(low.as_array(), high.as_array())
            np.testing.assert_array_equal(
                low.as_array(), net.anchor_block(agent_id).as_array()
            )
            assert coeffs.peer_ids == ()

    def test_sandwich_on_random_networks(self):
        """PSD ordering J_L <= J_exact <= J_U and the error-bound sandwich."""
        rng = np.random.default_rng(6)
        for _ in range(100):
            topo = random_topology(rng, n_agents=int(rng.integers(3, 9)))
            net = build_efim(topo)
            for agent_id, (low, high, coeffs) in efim_bounds_all(net).items():
                exact = agent_efim(net, agent_id).as_array()
                tol = 1e-9 * max(np.trace(exact), 1.0)
                assert np.linalg.eigvalsh(exact - low.as_array())[0] >= -tol
                assert np.linalg.eigvalsh(high.as_array() - exact)[0] >= -tol
                s_exact = np.trace(np.linalg.inv(exact))
                assert speb(high) <= s_exact * (1 + 1e-9)
                assert s_exact <= speb(low) * (1 + 1e-9)
                assert np.all(coeffs.xi_l >= 0.0) and np.all(coeffs.xi_u <= 1.0)
                assert np.all(coeffs.xi_l <= coeffs.xi_u)

    def test_xi_decreases_with_intensity(self):
        """The discount factor falls as the raw coupling grows."""
        rng = np.random.default_rng(7)
        peer = to_ellipse(random_pd_matrix(rng))
        xis = [effective_rii(peer, nu, 0.4).xi for nu in (0.1, 1.0, 10.0)]
        assert xis[0] > xis[1] > xis[2]

    def test_rank_two_pair_block_rejected(self):
        """Closed-form bounds assume one coupling direction per pair."""
        from locbounds.network import Node, Topology
        from locbounds.ranging import RangingLink

        nodes = (
            Node("a0", "agent", np.zeros(2)),
            Node("a1", "agent", np.array([1.0, 0.0])),
            Node("b0", "anchor", np.array([0.0, 2.0])),
            Node("b1", "anchor", np.array([3.0, 1.0])),
        )
        links = (
            RangingLink("a0", "b0", 1.0),
            RangingLink("a0", "b1", 1.0),
            RangingLink("a1", "b0", 1.0),
            RangingLink("a1", "b1", 1.0),
            RangingLink("a0", "a1", 1.0),
            RangingLink("a1", "a0", 1.0, phi=1.0),  # inconsistent override
        )
        net = build_efim(Topology(nodes, links))
        with pytest.raises(ValueError):
            efim_bounds(net, "a0")


def _reference_bounds(net):
    """Peer-by-peer J_L, J_U and coefficients from the scalar
    ``effective_rii``: the loop the array kernel replaces."""
    n = net.n_agents
    base = net.j_a + net.xi_p
    pairs = {}
    for k in range(n):
        for m in range(k + 1, n):
            c = -net.j_c[2 * k : 2 * k + 2, 2 * m : 2 * m + 2]
            nu = float(np.trace(c))
            if nu > 0.0:
                pairs[(k, m)] = (nu, 0.5 * math.atan2(2.0 * c[0, 1], c[0, 0] - c[1, 1]))
    sums = np.zeros((n, 2, 2))
    for (a, b), (nu, phi) in pairs.items():
        sums[a] += nu * rdm(phi).as_array()
        sums[b] += nu * rdm(phi).as_array()
    out = {}
    for k in range(n):
        own = InfoMatrix2.from_array(base[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])
        low = high = own
        peers, xi_ls, xi_us, flags = [], [], [], []
        for j in range(n):
            key = (min(k, j), max(k, j))
            if j == k or key not in pairs:
                continue
            nu, phi = pairs[key]
            peer_base = base[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
            inflated = peer_base + 2.0 * (sums[j] - nu * rdm(phi).as_array())
            lower = effective_rii(to_ellipse(InfoMatrix2.from_array(peer_base)), nu, phi)
            upper = effective_rii(to_ellipse(InfoMatrix2.from_array(inflated)), nu, phi)
            xi_l, xi_u = min(lower.xi, upper.xi), upper.xi
            peers.append(net.agent_ids[j])
            xi_ls.append(xi_l)
            xi_us.append(xi_u)
            flags.append(lower.peer_singular)
            low = low + rdm(phi).scaled(xi_l * nu)
            high = high + rdm(phi).scaled(xi_u * nu)
        out[net.agent_ids[k]] = (low, high, tuple(peers), xi_ls, xi_us, tuple(flags))
    return out


class TestBoundsKernelReference:
    """The array kernel against the peer-by-peer reference."""

    def _check(self, net):
        reference = _reference_bounds(net)
        got = efim_bounds_all(net)
        assert list(got) == list(reference)
        for agent_id, (low, high, coeffs) in got.items():
            ref_low, ref_high, peers, xi_l, xi_u, flags = reference[agent_id]
            for mine, ref in ((low, ref_low), (high, ref_high)):
                scale = max(np.abs(ref.as_array()).max(), 1e-300)
                np.testing.assert_allclose(
                    mine.as_array(), ref.as_array(), rtol=0, atol=1e-12 * scale
                )
            assert coeffs.peer_ids == peers
            assert coeffs.singular_peers == flags
            np.testing.assert_allclose(coeffs.xi_l, xi_l, rtol=1e-12, atol=0)
            np.testing.assert_allclose(coeffs.xi_u, xi_u, rtol=1e-12, atol=0)
            single_low, single_high, single = efim_bounds(net, agent_id)
            np.testing.assert_array_equal(single_low.as_array(), low.as_array())
            np.testing.assert_array_equal(single_high.as_array(), high.as_array())
            assert single.peer_ids == coeffs.peer_ids

    def test_random_networks_with_priors(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            topo = random_topology(rng, n_agents=int(rng.integers(2, 12)), with_priors=True)
            self._check(build_efim(topo))

    def test_rank_starved_peers_flagged(self):
        """Agents keeping one anchor link or none are singular peers; some
        agent pairs lose their links too."""
        from locbounds.network import Topology

        rng = np.random.default_rng(9)
        seen_singular = False
        for _ in range(20):
            topo = random_topology(rng, n_agents=int(rng.integers(3, 8)))
            anchor_budget = {a.node_id: int(rng.integers(0, 3)) for a in topo.agents}
            links = []
            for link in topo.links:
                if link.to_id.startswith("b"):
                    if anchor_budget[link.from_id] == 0:
                        continue
                    anchor_budget[link.from_id] -= 1
                elif rng.random() < 0.3:
                    continue
                links.append(link)
            net = build_efim(Topology(topo.nodes, tuple(links)))
            self._check(net)
            seen_singular |= any(
                any(c.singular_peers) for _, _, c in efim_bounds_all(net).values()
            )
        assert seen_singular
