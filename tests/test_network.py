"""Tests for network information assembly, reduction and updates."""

import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from locbounds import network
from locbounds.bounds import bound_spebs, efim_bounds_all
from locbounds.experiments import gen_extended
from locbounds.infogeo import (
    UNLOCALIZABLE,
    InfoMatrix2,
    rdm,
    schur_reduce,
    speb,
)
from locbounds.network import (
    Node,
    Topology,
    _pinv_reduce,
    agent_efim,
    anchor_equivalence_check,
    build_efim,
    join,
    leave,
    relabel_as_anchor,
    temporal_efim,
)
from locbounds.ranging import RangingLink

from conftest import random_topology


def _anchor(node_id, x, y):
    return Node(node_id, "anchor", np.array([x, y], dtype=float))


def _agent(node_id, x, y, prior_info=None):
    return Node(node_id, "agent", np.array([x, y], dtype=float), prior_info=prior_info)


def pair_block(net, id_a, id_b):
    """C_km of two agents, from ``pair_info``."""
    k, m, c = net.pair_info()
    lo, hi = sorted((net.index(id_a), net.index(id_b)))
    return c[np.flatnonzero((k == lo) & (m == hi))[0]]


def two_agent_topology(nu: float = 1.0) -> Topology:
    """Two agents with identity anchor information, coupled along x."""
    nodes = (
        _agent("u1", 0.0, 0.0),
        _agent("u2", 1.0, 0.0),
        _anchor("A", -3.0, 0.0),
        _anchor("B", 0.0, -3.0),
        _anchor("C", 4.0, 0.0),
        _anchor("D", 1.0, 3.0),
    )
    links = (
        RangingLink("u1", "A", 1.0),
        RangingLink("u1", "B", 1.0),
        RangingLink("u2", "C", 1.0),
        RangingLink("u2", "D", 1.0),
        RangingLink("u1", "u2", nu),
    )
    return Topology(nodes, links)


class TestTopology:
    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            Topology((_agent("u", 0, 0),), (RangingLink("u", "nope", 1.0),))

    def test_anchor_receiver_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                (_agent("u", 0, 0), _anchor("A", 1, 0)),
                (RangingLink("A", "u", 1.0),),
            )

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            RangingLink("u", "u", 1.0)

    def test_anchor_prior_rejected(self):
        with pytest.raises(ValueError):
            Node("A", "anchor", np.zeros(2), prior_info=np.eye(2))

    def test_reciprocal_mismatch_rejected(self):
        nodes = (_agent("u1", 0, 0), _agent("u2", 1, 0), _anchor("A", -1, 0))
        links = (
            RangingLink("u1", "A", 1.0),
            RangingLink("u1", "u2", 1.0),
            RangingLink("u2", "u1", 2.0),
        )
        with pytest.raises(ValueError):
            Topology(nodes, links, reciprocal=True)

    @pytest.mark.parametrize("n_nodes, dst", [(3, -1), (2, 5)])
    def test_link_node_index_out_of_range_rejected(self, n_nodes, dst):
        """A link end outside [0, n) is rejected, not wrapped to the last
        node or left to fail in assembly."""
        is_agent = [True] + [False] * (n_nodes - 1)
        positions = np.arange(2.0 * n_nodes).reshape(-1, 2)
        with pytest.raises(ValueError, match=rf"^link node indices must be in \[0, {n_nodes}\)$"):
            Topology.from_arrays(is_agent, positions, [0], [dst], [1.0])

    def test_link_geometry_override(self):
        topo = Topology(
            (_agent("u", 0, 0), _anchor("A", 1, 0)),
            (RangingLink("u", "A", 1.0, phi=0.25, distance=9.0),),
        )
        phi, dist = topo.link_geometry(topo.links[0])
        assert (phi, dist) == (0.25, 9.0)


class TestBuildEfim:
    def test_two_agent_blocks(self):
        """Cooperating pair: off-diagonal blocks are the negated coupling."""
        net = build_efim(two_agent_topology())
        c = pair_block(net, "u1", "u2")
        np.testing.assert_allclose(c, rdm(math.pi).as_array(), atol=1e-12)
        total = net.total.array
        np.testing.assert_allclose(total, total.T)
        assert np.linalg.eigvalsh(total)[0] > 0

    def test_pair_info_reads_j_c(self, rng):
        """``pair_info`` lists the linked pairs k < m in ``np.triu_indices``
        order, each C_km the negated (k, m) block of ``j_c``, bit for bit."""
        for _ in range(10):
            topo = random_topology(rng, n_agents=int(rng.integers(1, 7)))
            keep = rng.random(len(topo.src)) < 0.5
            topo = Topology.from_arrays(
                topo.is_agent, topo.positions, *(a[keep] for a in topo._link_arrays)
            )
            net = build_efim(topo)
            k, m, c = net.pair_info()
            blocks = -net.j_c.reshape(net.n_agents, 2, net.n_agents, 2).swapaxes(1, 2)
            pairs = sorted({(min(a, b), max(a, b)) for a, b in zip(net.rx, net.tx)})
            assert list(zip(k.tolist(), m.tolist())) == pairs
            np.testing.assert_array_equal(c, blocks[k, m].reshape(-1, 2, 2))

    def test_anchor_blocks(self):
        net = build_efim(two_agent_topology())
        j1 = net.anchor_block("u1").as_array()
        np.testing.assert_allclose(j1, np.eye(2), atol=1e-12)

    def test_no_cooperation_reverts_to_block_diagonal(self):
        topo = two_agent_topology()
        topo = Topology(topo.nodes, topo.links[:-1])  # drop the coupling
        net = build_efim(topo)
        np.testing.assert_array_equal(net.j_c, np.zeros((4, 4)))
        for agent_id in net.agent_ids:
            np.testing.assert_allclose(
                agent_efim(net, agent_id).as_array(),
                net.anchor_block(agent_id).as_array(),
                atol=1e-12,
            )

    def test_single_agent_orthogonal_anchors(self):
        topo = Topology(
            (_agent("u", 0, 0), _anchor("A", 1, 0), _anchor("B", 0, 1)),
            (RangingLink("u", "A", 1.0), RangingLink("u", "B", 1.0)),
        )
        net = build_efim(topo)
        j = agent_efim(net, "u")
        np.testing.assert_allclose(j.as_array(), np.eye(2), atol=1e-12)
        assert abs(speb(j) - 2.0) < 1e-12

    def test_block_rows_of_cooperation_sum_to_zero(self):
        """Each diagonal cooperation block carries exactly the pair blocks
        its row negates; the fold residue is at machine precision."""
        rng = np.random.default_rng(1)
        for _ in range(20):
            topo = random_topology(rng, n_agents=int(rng.integers(2, 6)))
            net = build_efim(topo)
            n = net.n_agents
            scale = max(float(np.abs(net.j_c).max()), 1e-30)
            for k in range(n):
                row_sum = sum(
                    net.j_c[2 * k : 2 * k + 2, 2 * m : 2 * m + 2] for m in range(n)
                )
                assert np.max(np.abs(row_sum)) <= 1e-15 * scale

    def test_total_psd_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            topo = random_topology(rng, n_agents=int(rng.integers(1, 6)), with_priors=True)
            total = build_efim(topo).total.array
            eigs = np.linalg.eigvalsh(total)
            assert eigs[0] >= -1e-9 * max(np.trace(total), 1.0)

    def test_reciprocal_doubles_single_direction(self):
        nodes = (_agent("u1", 0, 0), _agent("u2", 1, 0), _anchor("A", -1, 0), _anchor("B", 0, 1))
        base_links = (RangingLink("u1", "A", 1.0), RangingLink("u2", "B", 1.0))
        one_way = Topology(nodes, base_links + (RangingLink("u1", "u2", 0.7),), reciprocal=True)
        two_way = Topology(
            nodes,
            base_links
            + (RangingLink("u1", "u2", 0.7), RangingLink("u2", "u1", 0.7)),
        )
        np.testing.assert_allclose(
            build_efim(one_way).total.array, build_efim(two_way).total.array, atol=1e-12
        )

    def test_prior_enters_xi_p(self):
        prior = np.diag([0.5, 0.25])
        topo = Topology(
            (_agent("u", 0, 0, prior_info=prior), _anchor("A", 1, 0)),
            (RangingLink("u", "A", 1.0),),
        )
        net = build_efim(topo)
        np.testing.assert_array_equal(net.xi_p, prior)
        np.testing.assert_allclose(
            net.total.array, rdm(math.pi).as_array() + prior, atol=1e-12
        )

    @pytest.mark.parametrize(
        "weak, negative", [(1e-3, -5e-10), (2.0**-560, -(2.0**-560))], ids=["1e-3", "2^-560"]
    )
    def test_indefinite_node_prior_rejected(self, weak, negative):
        """A node's prior is PSD by ``InfoMatrix2``'s rule, relative to its
        own trace: no absolute floor admits a negative eigenvalue of a
        weak prior."""
        with pytest.raises(ValueError, match="not PSD"):
            _agent("u", 0.0, 0.0, prior_info=np.diag([weak, negative]))

    def test_prior_mean_moves_geometry(self):
        """Ranging geometry is evaluated at the prior mean when present."""
        prior = np.eye(2)
        moved = Node(
            "u",
            "agent",
            np.array([0.0, 0.0]),
            prior_info=prior,
            prior_mean=np.array([0.0, 5.0]),
        )
        topo = Topology((moved, _anchor("A", 5.0, 5.0)), (RangingLink("u", "A", 1.0),))
        net = build_efim(topo)
        # from the mean (0,5), the anchor lies along +x
        np.testing.assert_allclose(
            net.j_a[:2, :2], rdm(math.pi).as_array(), atol=1e-12
        )


class TestBuildEfimEdgeCases:
    """Assembly against hand-written blocks. u1 and u2 sit on the y axis, so
    their bearing is +-pi/2 (R = diag(0, 1)); anchor A lies on the x axis of
    u1 (R = diag(1, 0)); u3 has no links at all, so every case also checks
    that its rows and columns stay zero."""

    NODES = (
        _agent("u1", 0.0, 0.0),
        _agent("u2", 0.0, 2.0),
        _agent("u3", 5.0, 5.0),
        _anchor("A", 3.0, 0.0),
    )
    ANCHOR = (RangingLink("u1", "A", 0.5),)
    X = np.diag([1.0, 0.0])
    Y = np.diag([0.0, 1.0])

    def _expected_j_c(self, c_pair):
        j_c = np.zeros((6, 6))
        j_c[:2, :2] = j_c[2:4, 2:4] = c_pair
        j_c[:2, 2:4] = j_c[2:4, :2] = -c_pair
        return j_c

    def _check(self, topo, c_pair):
        net = build_efim(topo)
        j_a = np.zeros((6, 6))
        j_a[:2, :2] = 0.5 * self.X
        np.testing.assert_allclose(net.j_a, j_a, rtol=0, atol=1e-15)
        np.testing.assert_allclose(net.j_c, self._expected_j_c(c_pair), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(net.xi_p, np.zeros((6, 6)))

    def test_present_zero_reverse_not_doubled(self):
        """A reverse link that exists counts as given even at rii = 0."""
        links = (
            RangingLink("u1", "u2", 2.0),
            RangingLink("u1", "u2", 0.0),
            RangingLink("u2", "u1", 0.0),
        )
        self._check(Topology(self.NODES, self.ANCHOR + links, reciprocal=True), 2.0 * self.Y)

    def test_duplicate_links_accumulate(self):
        links = (
            RangingLink("u1", "u2", 1.0),
            RangingLink("u1", "u2", 0.5),
            RangingLink("u2", "u1", 0.25),
        )
        self._check(Topology(self.NODES, self.ANCHOR + links), 1.75 * self.Y)

    def test_agent_pair_phi_override(self):
        """An explicit bearing wins over the positions (here x, not y)."""
        links = (RangingLink("u1", "u2", 1.5, phi=0.0),)
        self._check(Topology(self.NODES, self.ANCHOR + links), 1.5 * self.X)


class TestAgentEfim:
    def test_corollary_two_worked_example(self):
        net = build_efim(two_agent_topology(nu=1.0))
        j1 = agent_efim(net, "u1")
        np.testing.assert_allclose(j1.as_array(), np.diag([1.5, 1.0]), atol=1e-12)
        assert abs(speb(j1) - 5.0 / 3.0) < 1e-12

    def test_matches_inverse_extraction(self):
        """Schur route equals inverting the total and re-inverting the block."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            topo = random_topology(rng, n_agents=int(rng.integers(2, 7)))
            net = build_efim(topo)
            inv = np.linalg.inv(net.total.array)
            for k, agent_id in enumerate(net.agent_ids):
                direct = agent_efim(net, agent_id).as_array()
                oracle = np.linalg.inv(inv[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])
                np.testing.assert_allclose(
                    direct, oracle, atol=1e-9 * max(np.abs(oracle).max(), 1.0)
                )

    def test_isolated_agent_unlocalizable(self):
        topo = Topology(
            (_agent("u1", 0, 0), _agent("u2", 5, 5), _anchor("A", 1, 0), _anchor("B", 0, 1)),
            (RangingLink("u1", "A", 1.0), RangingLink("u1", "B", 1.0)),
        )
        net = build_efim(topo)
        # u2 has no information; u1 keeps its own answer, its anchors-only SPEB
        u1 = speb(agent_efim(net, "u1"))
        assert math.isfinite(u1)
        assert u1 == pytest.approx(speb(net.anchor_block("u1")), rel=1e-12)
        assert speb(agent_efim(net, "u2")) is UNLOCALIZABLE

    def test_adding_a_link_never_hurts_anyone(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            topo = random_topology(rng, n_agents=3)
            net = build_efim(topo)
            before = [speb(agent_efim(net, a)) for a in net.agent_ids]
            extra = RangingLink("a0", "b0", rng.uniform(0.1, 1.0))
            bigger = build_efim(Topology(topo.nodes, topo.links + (extra,)))
            after = [speb(agent_efim(bigger, a)) for a in bigger.agent_ids]
            assert all(b <= a + 1e-9 * a for a, b in zip(before, after))


class TestAgentInfo:
    def test_matches_strict_reduction(self):
        rng = np.random.default_rng(5)
        for n_agents in (1, 2, 3, 5, 8, 13):
            net = build_efim(random_topology(rng, n_agents=n_agents, with_priors=True))
            for k, agent_id in enumerate(net.agent_ids):
                np.testing.assert_allclose(
                    net.agent_info[k], schur_reduce(net.total, keep=[k]).array, rtol=1e-10
                )

    def test_anchor_free_triangle_beside_anchored_agent(self):
        nodes = (
            _agent("a0", 0.0, 0.0),
            _agent("t1", 5.0, 5.0),
            _agent("t2", 8.0, 5.0),
            _agent("t3", 6.0, 8.0),
            _anchor("b0", -3.0, 0.0),
            _anchor("b1", 0.0, -3.0),
        )
        links = (
            RangingLink("a0", "b0", 1.0),
            RangingLink("a0", "b1", 1.0),
            RangingLink("t1", "t2", 1.0),
            RangingLink("t2", "t3", 2.0),
            RangingLink("t3", "t1", 0.5),
        )
        net = build_efim(Topology(nodes, links, reciprocal=True))
        spebs = [speb(agent_efim(net, agent_id)) for agent_id in net.agent_ids]
        assert spebs[0] == pytest.approx(2.0, rel=1e-12)
        assert all(value is UNLOCALIZABLE for value in spebs[1:])

    def test_weak_direction_beside_a_strong_link_stays_localizable(self):
        """a0 has unit anchor information along x and 1e-4 along y, plus a
        1e6 link along y to a1, whose only anchor information is along x:
        both reduce to diag(1, 1e-4), far above rounding (~1e6 eps) though
        below 1e-9 of the strong link."""
        nodes = (
            _agent("a0", 0.0, 0.0),
            _agent("a1", 0.0, 1.0),
            _anchor("bx", 5.0, 0.0),
            _anchor("by", 0.0, -5.0),
            _anchor("bx1", 5.0, 1.0),
        )
        links = (
            RangingLink("a0", "bx", 1.0),
            RangingLink("a0", "by", 1e-4),
            RangingLink("a0", "a1", 1e6),
            RangingLink("a1", "bx1", 1.0),
        )
        net = build_efim(Topology(nodes, links, reciprocal=True))
        anchors_only = net.j_a + net.xi_p
        for k, agent_id in enumerate(net.agent_ids):
            coop = speb(agent_efim(net, agent_id))
            assert coop == pytest.approx(10001.0, rel=1e-5)
            own = InfoMatrix2.from_array(anchors_only[2 * k : 2 * k + 2, 2 * k : 2 * k + 2])
            assert coop <= speb(own)


    def test_pseudo_inverse_sees_one_component_at_most(self, monkeypatch):
        """A cooperative rmax = 6 extended draw with 65 agents falls apart
        into cooperation components, some of which fail the halving: the
        pseudo-inverse fallback reduces each alone, never the whole network."""
        sizes = []

        def recording(total):
            sizes.append(total.shape[0] // 2)
            return _pinv_reduce(total)

        monkeypatch.setattr(network, "_pinv_reduce", recording)
        radius = math.sqrt(32 / (math.pi * 0.01))
        net = build_efim(
            gen_extended(1, rho_b=0.01, rho_a=0.02, radius=radius, r0=1.0, rmax=6.0)
        )
        assert net.agent_info.shape == (65, 2, 2)
        coupled = net.total.array.reshape(65, 2, 65, 2).any(axis=(1, 3))
        _, labels = connected_components(coupled, directed=False)
        assert sizes and max(sizes) <= np.bincount(labels).max()


class TestJoinLeave:
    def test_join_matches_batch(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            topo = random_topology(rng, n_agents=4)
            net = build_efim(topo)
            newcomer = Node("a9", "agent", rng.uniform(-10, 10, 2))
            links = [
                RangingLink("a9", "b0", rng.uniform(0.1, 1.0)),
                RangingLink("a9", "a0", rng.uniform(0.1, 1.0)),
                RangingLink("a1", "a9", rng.uniform(0.1, 1.0)),
            ]
            grown = join(net, newcomer, links)
            batch = build_efim(grown.topology)
            np.testing.assert_allclose(
                grown.total.array, batch.total.array, atol=1e-12 * batch.total.array.max()
            )

    @staticmethod
    def _check_join(net, newcomer, links):
        grown = join(net, newcomer, links)
        batch = build_efim(grown.topology)
        assert grown.agent_ids == batch.agent_ids
        scale = batch.total.array.max()
        for part in ("j_a", "j_c", "xi_p"):
            np.testing.assert_allclose(
                getattr(grown, part), getattr(batch, part), rtol=0.0, atol=1e-12 * scale
            )
        return grown

    def test_join_reciprocal_one_direction_links(self):
        """Under ``reciprocal=True`` a joiner link whose reverse is absent
        counts twice, one given in both directions counts as given."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            topo = random_topology(rng, n_agents=4)
            net = build_efim(Topology(topo.nodes, topo.links, reciprocal=True))
            lam = rng.uniform(0.1, 1.0, size=4)
            links = [
                RangingLink("a9", "b1", lam[0]),
                RangingLink("a9", "a0", lam[1]),
                RangingLink("a2", "a9", lam[2]),
                RangingLink("a9", "a3", lam[3]),
                RangingLink("a3", "a9", lam[3]),
            ]
            grown = self._check_join(net, Node("a9", "agent", rng.uniform(-10, 10, 2)), links)
            one_way = build_efim(Topology(grown.topology.nodes, grown.topology.links))
            assert not np.allclose(grown.j_c, one_way.j_c)

    def test_join_phi_override(self):
        net = build_efim(two_agent_topology())
        links = [
            RangingLink("u3", "u1", 0.7, phi=0.3),
            RangingLink("u2", "u3", 0.4, phi=-1.1),
            RangingLink("u3", "C", 0.5, phi=2.0),
        ]
        grown = self._check_join(net, _agent("u3", 2.0, 2.0), links)
        np.testing.assert_allclose(
            pair_block(grown, "u1", "u3"), 0.7 * rdm(0.3).as_array(), atol=1e-15
        )

    def test_join_with_prior_mean(self):
        """Bearings of the joiner's links are evaluated at its prior mean."""
        net = build_efim(two_agent_topology())
        newcomer = Node(
            "u3",
            "agent",
            np.array([2.0, 2.0]),
            prior_info=np.array([[0.3, 0.1], [0.1, 0.2]]),
            prior_mean=np.array([-1.0, 2.5]),
        )
        links = [
            RangingLink("u3", "u1", 0.6),
            RangingLink("u2", "u3", 0.3),
            RangingLink("u3", "D", 0.8),
        ]
        grown = self._check_join(net, newcomer, links)
        np.testing.assert_array_equal(grown.xi_p[4:, 4:], newcomer.prior_info)

    def test_join_with_no_links_extends_block_diagonal(self):
        net = build_efim(two_agent_topology())
        grown = join(net, _agent("u3", 2.0, 2.0), [])
        assert grown.agent_ids == ("u1", "u2", "u3")
        np.testing.assert_array_equal(grown.total.array[4:, 4:], np.zeros((2, 2)))
        np.testing.assert_allclose(grown.total.array[:4, :4], net.total.array)

    def test_join_leave_roundtrip(self):
        net = build_efim(two_agent_topology())
        grown = join(
            net,
            _agent("u3", 2.0, 2.0),
            [RangingLink("u3", "u1", 0.4), RangingLink("u3", "C", 0.2)],
        )
        back = leave(grown, "u3")
        np.testing.assert_allclose(back.total.array, net.total.array, atol=1e-14)
        assert back.agent_ids == net.agent_ids

    def test_leave_matches_batch(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            topo = random_topology(rng, n_agents=4)
            net = build_efim(topo)
            gone = rng.choice(net.agent_ids)
            reduced = leave(net, gone)
            batch = build_efim(reduced.topology)
            np.testing.assert_allclose(
                reduced.total.array, batch.total.array, atol=1e-12 * batch.total.array.max()
            )

    def test_leave_isolated_agent_only_deletes_blocks(self):
        topo = Topology(
            (_agent("u1", 0, 0), _agent("u2", 5, 5), _anchor("A", 1, 0)),
            (RangingLink("u1", "A", 1.0),),
        )
        net = build_efim(topo)
        reduced = leave(net, "u2")
        np.testing.assert_array_equal(reduced.total.array, net.total.array[:2, :2])

    def test_leave_last_agent_gives_empty_stacks(self):
        """Without agents every per-agent answer is an empty stack, not an
        error."""
        topo = Topology(
            (_agent("u1", 0, 0), _anchor("A", 1, 0)), (RangingLink("u1", "A", 1.0),)
        )
        empty = leave(build_efim(topo), "u1")
        assert empty.agent_ids == ()
        for stack in (empty.agent_info, empty.own_info):
            assert stack.shape == (0, 2, 2)
        assert empty.total.array.shape == (0, 0)
        assert [s.shape for s in bound_spebs(empty)] == [(0,), (0,)]

    def test_anchors_only_topology_gives_the_empty_network(self):
        topo = Topology((_anchor("A", 1, 0), _anchor("B", 0, 1)), ())
        empty = build_efim(topo)
        assert empty.agent_ids == ()
        for stack in (empty.agent_info, empty.own_info):
            assert stack.shape == (0, 2, 2)
        assert [s.shape for s in bound_spebs(empty)] == [(0,), (0,)]
        assert efim_bounds_all(empty) == {}

    def test_leave_requires_a_topology(self):
        built = build_efim(two_agent_topology())
        net = network.NetworkEfim(
            built.agent_ids, built.anchor, built.prior, built.rx, built.tx, built.terms
        )
        with pytest.raises(ValueError, match="leave requires a NetworkEfim built from a topology"):
            leave(net, "u1")
        with pytest.raises(KeyError, match="unknown agent id 'A'"):
            leave(built, "A")

    def test_join_infinite_prior_acts_like_anchor(self):
        """A joining agent with a huge prior contributes like a new anchor."""
        base = two_agent_topology()
        net = build_efim(base)
        t2 = 1e12
        newcomer = Node("u3", "agent", np.array([0.0, 2.0]), prior_info=np.diag([t2, t2]))
        grown = join(net, newcomer, [RangingLink("u1", "u3", 0.8)])
        keep = [grown.index("u1"), grown.index("u2")]
        reduced = schur_reduce(grown.total, keep=keep)

        as_anchor = Topology(
            base.nodes + (_anchor("u3", 0.0, 2.0),),
            base.links + (RangingLink("u1", "u3", 0.8),),
        )
        target = build_efim(as_anchor).total.array
        assert np.max(np.abs(reduced.array - target)) < 1e-6 * np.max(np.abs(target))


class TestTemporal:
    def _anchors(self):
        return [_anchor("A", -5.0, 0.0), _anchor("B", 0.0, 5.0)]

    def _anchor_links(self, n):
        return [
            [RangingLink("x", "A", 1.0), RangingLink("x", "B", 1.0)] for _ in range(n)
        ]

    def test_zero_step_info_decouples(self):
        positions = [[0.0, 0.0], [1.0, 0.0]]
        net = temporal_efim(positions, self._anchors(), self._anchor_links(2), [0.0])
        np.testing.assert_array_equal(net.j_c, np.zeros((4, 4)))

    def test_tridiagonal_structure(self):
        """Coupling exists only between consecutive steps and each block row
        of the cooperation part sums to zero."""
        positions = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        nus = [0.5, 0.25]
        net = temporal_efim(positions, self._anchors(), self._anchor_links(3), nus)
        jc = net.j_c
        np.testing.assert_array_equal(jc[0:2, 4:6], np.zeros((2, 2)))  # steps 0 and 2
        np.testing.assert_allclose(
            -jc[0:2, 2:4], nus[0] * rdm(math.pi).as_array(), atol=1e-12
        )
        np.testing.assert_allclose(
            -jc[2:4, 4:6], nus[1] * rdm(math.pi).as_array(), atol=1e-12
        )
        scale = max(float(np.abs(jc).max()), 1e-30)
        for k in range(3):
            row = sum(jc[2 * k : 2 * k + 2, 2 * m : 2 * m + 2] for m in range(3))
            assert np.max(np.abs(row)) <= 1e-15 * scale

    def test_odometry_improves_middle_step(self):
        """A Gaussian odometer with variance sigma^2 contributes nu = 1/sigma^2
        and can only improve the middle position's bound."""
        positions = [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]]
        sigma = 0.5
        nu = 1.0 / sigma**2
        without = temporal_efim(positions, self._anchors(), self._anchor_links(3), [0.0, 0.0])
        with_od = temporal_efim(positions, self._anchors(), self._anchor_links(3), [nu, nu])
        s_without = speb(agent_efim(without, "t1"))
        s_with = speb(agent_efim(with_od, "t1"))
        assert s_with < s_without

    def test_length_validation(self):
        with pytest.raises(ValueError):
            temporal_efim([[0, 0]], self._anchors(), self._anchor_links(1), [])
        with pytest.raises(ValueError):
            temporal_efim(
                [[0, 0], [1, 0]], self._anchors(), self._anchor_links(2), [0.1, 0.2]
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_step_info_rejected(self, bad):
        """A NaN step is not skipped as no information, nor an infinite one
        left to ``RangingLink``: each is rejected with one message."""
        with pytest.raises(ValueError, match="^step information must be finite and nonnegative$"):
            temporal_efim(
                [[0, 0], [1, 0], [2, 0]], self._anchors(), self._anchor_links(3), [bad, 1.0]
            )


class TestAnchorEquivalence:
    def test_relabel_folds_both_directions(self):
        topo = two_agent_topology(nu=0.6)
        relabeled = relabel_as_anchor(topo, "u2")
        assert relabeled.node("u2").kind == "anchor"
        coop = [l for l in relabeled.links if l.to_id == "u2"]
        assert len(coop) == 1 and abs(coop[0].rii - 0.6) < 1e-15

    def test_limit_decreases_in_t2(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            topo = random_topology(rng, n_agents=int(rng.integers(2, 5)))
            agent_id = rng.choice([n.node_id for n in topo.agents])
            devs = [
                anchor_equivalence_check(topo, agent_id, t2)
                for t2 in (1e3, 1e6, 1e9, 1e12)
            ]
            assert all(b < a for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 1e-6

    def test_reciprocal_pair_given_once(self):
        """A reciprocal pair given in one direction folds into an anchor link
        of twice its intensity, as ``build_efim`` counts it."""
        nodes = (
            _agent("a0", 0.0, 0.0),
            _agent("u", 3.0, 1.0),
            _anchor("b0", 5.0, 0.0),
            _anchor("b1", 0.0, 5.0),
        )
        links = [RangingLink(a, b, 1.0) for a in ("a0", "u") for b in ("b0", "b1")]
        topo = Topology(nodes, links + [RangingLink("a0", "u", 2.0)], reciprocal=True)
        for agent_id in ("a0", "u"):
            devs = [anchor_equivalence_check(topo, agent_id, t2) for t2 in (1e3, 1e6, 1e9, 1e12)]
            assert all(b < a for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 1e-6
        folded = [l for l in relabel_as_anchor(topo, "u").links if l.to_id == "u"]
        assert [(l.from_id, l.rii) for l in folded] == [("a0", 4.0)]

    def test_limit_decreases_in_t2_reciprocal(self):
        """As ``test_limit_decreases_in_t2``, with one direction per agent
        pair and the reciprocal rule implying the other."""
        rng = np.random.default_rng(8)
        for _ in range(10):
            full = random_topology(rng, n_agents=int(rng.integers(2, 5)))
            once = ~full.is_agent[full.dst] | (full.src < full.dst)
            topo = Topology.from_arrays(
                full.is_agent, full.positions, *(a[once] for a in full._link_arrays),
                ids=full.ids, reciprocal=True,
            )
            agent_id = rng.choice(topo.agent_ids)
            devs = [
                anchor_equivalence_check(topo, agent_id, t2)
                for t2 in (1e3, 1e6, 1e9, 1e12)
            ]
            assert all(b < a for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 1e-6

    @staticmethod
    def _override_topology():
        """Agents a0 and u ranging with two anchors each, and u <- a0 at
        rii 2 with a bearing override."""
        nodes = (
            _agent("a0", 0.0, 0.0),
            _agent("u", 3.0, 1.0),
            _anchor("b0", 5.0, 0.0),
            _anchor("b1", 0.0, 5.0),
        )
        links = [RangingLink(a, b, 1.0) for a in ("a0", "u") for b in ("b0", "b1")]
        return Topology(nodes, links + [RangingLink("u", "a0", 2.0, phi=0.3)])

    def test_relabel_keeps_bearing_override(self):
        """A link the relabeled agent received from a peer becomes the peer's
        anchor link at that link's bearing override, so the deviation falls
        as 1/t2."""
        topo = self._override_topology()
        for t2 in (1e3, 1e6, 1e9, 1e12):
            assert anchor_equivalence_check(topo, "u", t2) < 2.0 / t2
        folded = [l for l in relabel_as_anchor(topo, "u").links if l.to_id == "u"]
        assert [(l.from_id, l.rii, l.phi) for l in folded] == [("a0", 2.0, 0.3)]

    def test_limit_decreases_in_t2_phi_overrides(self):
        """As ``test_limit_decreases_in_t2``, with a random bearing override
        on every cooperation link."""
        rng = np.random.default_rng(9)
        for _ in range(10):
            full = random_topology(rng, n_agents=int(rng.integers(2, 5)))
            coop = full.is_agent[full.dst]
            phi = np.where(coop, rng.uniform(-np.pi, np.pi, coop.size), np.nan)
            topo = Topology.from_arrays(
                full.is_agent, full.positions, full.src, full.dst, full.rii, phi, ids=full.ids
            )
            agent_id = rng.choice(topo.agent_ids)
            devs = [
                anchor_equivalence_check(topo, agent_id, t2)
                for t2 in (1e3, 1e6, 1e9, 1e12)
            ]
            assert all(b < a for a, b in zip(devs, devs[1:]))
            assert devs[-1] < 1e-6

    @pytest.mark.parametrize("t2", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_t2_rejected(self, t2):
        message = "^prior information t2 must be finite and nonnegative$"
        with pytest.raises(ValueError, match=message):
            anchor_equivalence_check(two_agent_topology(), "u2", t2)

    def test_zero_prior_contrast_is_large(self):
        topo = two_agent_topology(nu=1.0)
        dev0 = anchor_equivalence_check(topo, "u2", 0.0)
        dev_inf = anchor_equivalence_check(topo, "u2", 1e12)
        assert dev0 > 1e3 * max(dev_inf, 1e-300)
