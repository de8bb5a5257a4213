"""Tests for the topology generators and Monte Carlo runners."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from locbounds import experiments
from locbounds.experiments import (
    ExperimentSpec,
    angle_pair_spread,
    default_spec,
    gen_dense,
    gen_extended,
    lemma1_check,
    lemma2_check,
    run_experiment,
    run_fig6,
    run_fig7,
    run_fig8,
    run_scaling,
    substream,
    _draw,
    _first_doubles,
    _fit_loglog,
    _noncoop_spebs,
    _per_agent_spebs,
    _philox_first_block,
    _stream_keys,
)
from locbounds.infogeo import speb
from locbounds.network import Node, Topology, agent_efim, build_efim
from locbounds.ranging import RangingLink


class TestSubstream:
    def test_repeatable(self):
        a = substream(7, 3, 1, 5).random(4)
        b = substream(7, 3, 1, 5).random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams(self):
        a = substream(7, 3, 1, 5).random(4)
        b = substream(7, 3, 1, 6).random(4)
        assert not np.array_equal(a, b)

    def test_key_bounds(self):
        with pytest.raises(ValueError):
            substream(1, 0, 16)

    def test_key_bounds_on_index_arrays(self):
        for role, index in ((1, [0, 1 << 28]), (1, [-1, 0]), (0, [0]), (16, [0])):
            with pytest.raises(ValueError, match="role in"):
                _stream_keys(0, role, np.array(index))


class TestVectorizedPhilox:
    """The array kernel against numpy's own Philox, bit for bit."""

    def test_first_block_matches_numpy_philox(self):
        rng = np.random.default_rng(2024)
        seeds = [0, 1, (1 << 64) - 1, int(rng.integers(1 << 62))]
        trials = [0, 1, (1 << 32) - 1, int(rng.integers(1 << 32))]
        keys = []
        for trial in trials:
            for role in (1, 2, 3, 15):
                index = rng.integers(0, 1 << 28, size=6250)
                index[:2] = (0, (1 << 28) - 1)
                keys.append(_stream_keys(trial, role, index))
        keys = np.concatenate(keys)  # 100,000 keys, each under every seed below
        for j, seed in enumerate(seeds):
            block = _philox_first_block(seed, keys)
            # keyed as substream keys them: a uint64 array, not Python ints
            pairs = np.stack([np.full(keys.size, seed, dtype=np.uint64), keys], axis=1)
            # every key once across the seeds, the extremes under each
            index = [0, 1, 6250, 6251, *range(j, keys.size, len(seeds))]
            ref = np.array([np.random.Philox(key=pairs[i]).random_raw(4) for i in index])
            wrong = np.flatnonzero((block[:, index].T != ref).any(axis=1))
            assert wrong.size == 0, (seed, keys[np.array(index)[wrong[:5]]])

    def test_doubles_match_substream_draws(self):
        half = 7.3
        for seed, trial in ((0, 0), (5, 3), ((1 << 64) - 1, (1 << 32) - 1)):
            streams = ((1, 40), (2, 9))
            u = _first_doubles(seed, trial, streams)
            scaled = -half + (half - -half) * u
            pairs = [(role, i) for role, count in streams for i in range(count)]
            for row, (role, i) in enumerate(pairs):
                np.testing.assert_array_equal(u[row], substream(seed, trial, role, i).random(2))
                np.testing.assert_array_equal(
                    scaled[row], substream(seed, trial, role, i).uniform(-half, half, size=2)
                )


class TestGenDense:
    def test_connectivity_count(self):
        """Full connectivity: na * (nb + na - 1) directed links."""
        topo = gen_dense(0, 2, anchor_layout="both", d=10.0)
        assert len(topo.anchors) == 8
        assert len(topo.agents) == 2
        assert len(topo.links) == 2 * (8 + 2 - 1)

    def test_layout_positions(self):
        topo = gen_dense(0, 1, anchor_layout="setI", d=3.0)
        pos = sorted(tuple(a.position) for a in topo.anchors)
        assert pos == [(-3.0, -3.0), (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0)]
        topo = gen_dense(0, 1, anchor_layout="setII", d=3.0)
        pos = sorted(tuple(a.position) for a in topo.anchors)
        assert pos == [(-3.0, 0.0), (0.0, -3.0), (0.0, 3.0), (3.0, 0.0)]

    def test_deterministic_and_nested(self):
        """Same seed reproduces the draw; agent i ignores the total count."""
        a = gen_dense(42, 5, anchor_layout="setI", d=10.0, trial=3)
        b = gen_dense(42, 5, anchor_layout="setI", d=10.0, trial=3)
        for na, nb_ in zip(a.agents, b.agents):
            np.testing.assert_array_equal(na.position, nb_.position)
        bigger = gen_dense(42, 9, anchor_layout="setI", d=10.0, trial=3)
        for i in range(5):
            np.testing.assert_array_equal(a.agents[i].position, bigger.agents[i].position)

    def test_free_space_intensity(self):
        topo = gen_dense(1, 2, anchor_layout="setII", d=10.0, k_const=2.0)
        for link in topo.links:
            _, dist = topo.link_geometry(link)
            assert abs(link.rii - 2.0 / dist**2) < 1e-12 * link.rii

    def test_coincident_anchors_near_singular(self):
        """D -> 0 piles the anchors at the origin; anchors-only information
        becomes rank starved."""
        topo = gen_dense(3, 1, anchor_layout="both", d=1e-9)
        net = build_efim(topo)
        block = net.j_a[:2, :2]
        eigs = np.linalg.eigvalsh(block)
        assert eigs[0] < 1e-12 * eigs[1]

    def test_coincident_agents_rejected(self):
        """Agents 1e-300 apart have an infinite free-space intensity."""
        with pytest.raises(ValueError, match="rii must be finite and nonnegative"):
            gen_dense(0, 2, side=1e-300)
        with pytest.raises(ValueError, match="rii must be finite and nonnegative"):
            gen_dense(0, 1, side=1e-300, anchor_layout="random", nb=1)

    def test_random_layout_needs_nb(self):
        with pytest.raises(ValueError):
            gen_dense(0, 1, anchor_layout="random")


class TestGenExtended:
    def test_fixed_counts(self):
        radius = math.sqrt(64.0 / math.pi)  # rho_b = 1 -> exactly 64 anchors
        topo = gen_extended(0, rho_b=1.0, radius=radius, r0=0.5)
        assert len(topo.anchors) == 64
        assert len(topo.agents) == 1 and topo.agents[0].node_id == "a0"

    def test_poisson_counts_seeded(self):
        radius = math.sqrt(64.0 / math.pi)
        a = gen_extended(5, rho_b=1.0, radius=radius, r0=0.5, poisson_counts=True)
        b = gen_extended(5, rho_b=1.0, radius=radius, r0=0.5, poisson_counts=True)
        assert len(a.anchors) == len(b.anchors)

    def test_area_scaling_of_counts(self):
        r1 = math.sqrt(100.0 / math.pi)
        n1 = len(gen_extended(0, rho_b=1.0, radius=r1, r0=0.5).anchors)
        n2 = len(gen_extended(0, rho_b=1.0, radius=2 * r1, r0=0.5).anchors)
        assert n2 == 4 * n1

    def test_intensity_cap(self):
        """The minimum-separation indicator caps every intensity at 1/r0^2b."""
        topo = gen_extended(0, rho_b=2.0, radius=5.0, r0=0.5, b=1.5)
        cap = 1.0 / 0.5**3.0
        assert all(link.rii <= cap for link in topo.links)
        assert any(link.rii > 0 for link in topo.links)

    def test_outer_cutoff(self):
        topo = gen_extended(0, rho_b=2.0, radius=5.0, r0=0.5, rmax=2.0)
        far = [l for l in topo.links if topo.link_geometry(l)[1] > 2.0]
        assert far and all(l.rii == 0.0 for l in far)

    def test_radius_must_exceed_r0(self):
        with pytest.raises(ValueError):
            gen_extended(0, rho_b=1.0, radius=0.3, r0=0.5)


class TestLemmaChecks:
    def test_degenerate_angles_violate(self):
        """All-equal bearings have zero spread, far below the floor."""
        stat = angle_pair_spread(np.full(8, 0.37))
        assert stat < 8 * 8 / 32.0

    def test_spread_identity(self):
        rng = np.random.default_rng(11)
        phis = rng.uniform(0, 2 * math.pi, size=40)
        brute = sum(
            math.sin(a - b) ** 2 for a in phis for b in phis
        )
        assert abs(angle_pair_spread(phis) - brute) < 1e-8 * brute

    def test_violation_fraction_small_and_decreasing(self):
        fractions = [lemma1_check(n, 4000, 1) for n in (16, 32, 64)]
        assert fractions[-1] < 0.01
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))

    def test_lemma2_bound_value(self):
        """Uniform intensities, eps = 1/4, N = 32: the closed bound is
        (3/4)^16 ~ 0.0100 and the empirical tail sits below it."""
        res = lemma2_check(32, 0.25, 10_000, 3)
        assert abs(res.bound - 0.75**16) < 1e-12
        assert res.empirical <= res.bound

    def test_lemma2_median_above_threshold(self):
        res = lemma2_check(64, 0.25, 2000, 5)
        assert res.empirical <= 0.01

    def test_lemma2_rejects_large_eps(self):
        with pytest.raises(ValueError):
            lemma2_check(32, 0.6, 100, 0)

    def test_lemma2_eps_to_zero(self):
        res = lemma2_check(32, 1e-6, 100, 0)
        assert res.bound < 1e-40


class TestRunners:
    def test_fig6_single_agent_coop_equals_noncoop(self):
        spec = default_spec("fig6", seed=3, trials=10, na_sweep=(1,), layouts=("setII",))
        rows = run_fig6(spec).rows
        coop = next(r for r in rows if r["cooperative"])
        noncoop = next(r for r in rows if not r["cooperative"])
        assert coop["mean_speb_m2"] == noncoop["mean_speb_m2"]

    def test_fig6_cooperation_and_layout_ordering(self):
        spec = default_spec(
            "fig6", seed=3, trials=40, na_sweep=(2, 8), layouts=("setI", "setII")
        )
        rows = run_fig6(spec).rows
        get = lambda layout, coop, na: next(
            r["mean_speb_m2"]
            for r in rows
            if r["layout"] == layout and r["cooperative"] == coop and r["na"] == na
        )
        # cooperation strictly helps once peers exist
        assert get("setI", True, 8) < get("setI", False, 8)
        # edge-midpoint anchors beat corner anchors at D = 10
        assert get("setII", True, 8) < get("setI", True, 8)
        # more agents help the cooperative network
        assert get("setI", True, 8) < get("setI", True, 2)

    def test_coop_beats_noncoop_per_agent_per_trial(self):
        for trial in range(5):
            topo = gen_dense(13, 6, anchor_layout="both", d=10.0, trial=trial)
            net = build_efim(topo)
            coop = _per_agent_spebs(net)
            noncoop = _noncoop_spebs(net)
            assert np.all(coop <= noncoop * (1 + 1e-9))

    def test_singular_total_gives_per_agent_outage(self):
        """a1 ranges only to a0, along x: the total information is singular,
        yet a0 (anchors at 0, pi/2 and pi: J = diag(2, 1)) keeps its bound."""
        nodes = (
            Node("a0", "agent", np.zeros(2)),
            Node("a1", "agent", np.array([3.0, 0.0])),
            Node("b0", "anchor", np.array([5.0, 0.0])),
            Node("b1", "anchor", np.array([0.0, 5.0])),
            Node("b2", "anchor", np.array([-5.0, 0.0])),
        )
        links = (
            RangingLink("a0", "b0", 1.0),
            RangingLink("a0", "b1", 1.0),
            RangingLink("a0", "b2", 1.0),
            RangingLink("a0", "a1", 1.0, phi=0.0),
        )
        spebs = _per_agent_spebs(build_efim(Topology(nodes, links)))
        assert math.isclose(spebs[0], 1.5, rel_tol=1e-12)
        assert math.isinf(spebs[1])

    def test_rank_starved_agent_inf_on_study_and_cli_paths(self):
        """a1's one link, to a0, leaves it rank-one information along the
        link: unlocalizable on both paths at a bearing off the axes, while
        a0 keeps the bound of its three anchors."""
        bearing = 0.3
        nodes = (
            Node("a0", "agent", np.zeros(2)),
            Node("a1", "agent", 2.0 * np.array([math.cos(bearing), math.sin(bearing)])),
            Node("b0", "anchor", np.array([4.0, 1.0])),
            Node("b1", "anchor", np.array([-2.0, 3.0])),
            Node("b2", "anchor", np.array([-1.0, -4.0])),
        )
        links = tuple(RangingLink("a0", b, 1.0) for b in ("b0", "b1", "b2")) + (
            RangingLink("a0", "a1", 1.0),
        )
        net = build_efim(Topology(nodes, links, reciprocal=True))
        study = _per_agent_spebs(net)
        cli = [speb(agent_efim(net, agent_id)) for agent_id in net.agent_ids]
        for values in (study, cli):
            assert math.isclose(values[0], 1.3556651431320663, rel_tol=1e-12)
            assert math.isinf(values[1])

    def test_cooperative_extended_cutoff_draws_run(self):
        """Under rmax some draws hold anchor-free clusters of agents; the
        study reports them as outage instead of failing."""
        spec = default_spec(
            "extended_scaling",
            seed=3,
            trials=5,
            cooperative=True,
            rho_b=0.01,
            rho_a=0.02,
            r0=1.0,
            rmax=6.0,
            n_sweep=(4, 8, 12, 16),
        )
        rows = run_experiment(spec).rows
        assert len(rows) == 4
        assert any(r["outage"] > 0.0 for r in rows)
        assert all(math.isfinite(r["mean_speb_m2"]) for r in rows)

    def test_fig6_fig7_random_layout(self):
        """The random anchor layout draws spec.nb anchors in fig6 and fig7
        as it does in fig8 and dense scaling."""
        for kind in ("fig6", "fig7"):
            spec = default_spec(kind, seed=4, trials=3, na_sweep=(2,), layouts=("random",), nb=5)
            rows = run_experiment(spec).rows
            assert rows and all(r["layout"] == "random" for r in rows)

    def test_fig7_two_agents_ratio_one(self):
        spec = default_spec("fig7", seed=5, trials=15, na_sweep=(2,), layouts=("both",))
        rows = run_fig7(spec).rows
        assert rows[0]["mean_ratio"] == 1.0

    def test_fig7_ratio_in_unit_interval(self):
        spec = default_spec("fig7", seed=5, trials=10, na_sweep=(3, 6), layouts=("setI",))
        for row in run_fig7(spec).rows:
            assert 0.0 < row["mean_ratio"] <= 1.0

    def test_fig8_deterministic_and_reports_minima(self):
        spec = default_spec(
            "fig8", seed=9, trials=8, na=6, d_sweep=(2.0, 6.0, 10.0), layouts=("setI",)
        )
        res1 = run_fig8(spec)
        res2 = run_fig8(spec)
        assert res1.rows == res2.rows
        assert "minima" in res1.summary and "setI" in res1.summary["minima"]

    def test_dense_scaling_noncoop_flat(self):
        spec = default_spec(
            "dense_scaling", seed=2, trials=25, na_sweep=(4, 8, 16, 32)
        )
        fits = run_scaling(spec).summary
        assert abs(fits["noncooperative_fit_vs_log_na"]["slope"]) < 0.1

    def test_dense_scaling_at_a_tiny_intensity_scale(self):
        """At k_const = 2^-560 every determinant of the information would
        underflow (every row read outage 1.0 and the slopes null): the
        rows are those of k_const = 1 with the bounds times 2^560, the
        slopes agree to 1e-12, and no floating-point warning is raised."""
        results = []
        for k_const in (1.0, 2.0**-560):
            spec = default_spec("dense_scaling", seed=3, trials=2, k_const=k_const)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                results.append(run_scaling(spec))
        for one, tiny in zip(results[0].rows, results[1].rows):
            assert tiny["outage"] == one["outage"]
            assert tiny["mean_speb_m2"] == math.ldexp(one["mean_speb_m2"], 560)
        for key, fit in results[0].summary.items():
            if key.endswith("_fit_vs_log_n_total") or key.endswith("_fit_vs_log_na"):
                assert results[1].summary[key]["slope"] == pytest.approx(fit["slope"], abs=1e-12)

    def test_scaling_fit_reproducible_across_seed_sets(self):
        """Disjoint seed sets give slope estimates whose 95% intervals overlap."""
        fits = []
        for seed in (111, 999):
            spec = default_spec(
                "dense_scaling", seed=seed, trials=40, na_sweep=(4, 8, 16, 32)
            )
            fits.append(run_scaling(spec).summary["cooperative_fit_vs_log_n_total"])
        lo = max(f["slope"] - f["ci95"] for f in fits)
        hi = min(f["slope"] + f["ci95"] for f in fits)
        assert lo <= hi

    def test_generated_networks_satisfy_bound_sandwich(self):
        """Ties the ratio study to the bounds module: on generated draws the
        exact bound sits between the two approximations."""
        from locbounds.bounds import efim_bounds_all
        from locbounds.infogeo import speb
        from locbounds.network import agent_efim

        for trial in range(5):
            topo = gen_dense(31, 6, anchor_layout="both", d=10.0, trial=trial)
            net = build_efim(topo)
            for agent_id, (low, high, _) in efim_bounds_all(net).items():
                exact = speb(agent_efim(net, agent_id))
                assert speb(high) <= exact * (1 + 1e-9)
                assert exact <= speb(low) * (1 + 1e-9)

    def test_fig7_ratio_floor_at_fifteen_agents(self):
        """Frozen sanity floor from the first calibration run: the mean ratio
        at 15 agents stays above 0.1 (observed about 0.54)."""
        spec = default_spec("fig7", seed=7, trials=60, na_sweep=(15,), layouts=("both",))
        rows = run_fig7(spec).rows
        assert rows[0]["mean_ratio"] > 0.1

    def test_extended_scaling_product_reported(self):
        spec = default_spec(
            "extended_scaling", seed=2, trials=10, n_sweep=(16, 32, 64, 128)
        )
        fits = run_scaling(spec).summary
        assert len(fits["mean_times_log_n"]) == 4
        assert fits["mean_times_log_n_spread"] >= 1.0

    def test_scaling_needs_four_points(self):
        spec = default_spec("dense_scaling", seed=2, trials=5, na_sweep=(4, 8))
        with pytest.raises(ValueError):
            run_scaling(spec)

    def test_sweep_entries_checked(self):
        for sweep in ((math.inf,), (math.nan,), (2.0, 0.0), (-1.0,)):
            with pytest.raises(ValueError, match="d_sweep entries must be finite and positive"):
                default_spec("fig8", trials=2, d_sweep=sweep)
        with pytest.raises(ValueError, match="na_sweep entries must be >= 1"):
            default_spec("fig6", trials=2, na_sweep=(2, 0))
        with pytest.raises(ValueError, match="n_sweep entries must be >= 1"):
            default_spec("extended_scaling", trials=2, n_sweep=(0, 8, 16, 32))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="path_exponent must be positive"):
            default_spec("extended_scaling", path_exponent=0.0)
        with pytest.raises(ValueError, match="rmax must be positive"):
            default_spec("extended_scaling", rmax=-1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(kind="nope")
        with pytest.raises(ValueError):
            ExperimentSpec(kind="fig6", trials=0)
        with pytest.raises(ValueError):
            ExperimentSpec(kind="fig6", layouts=("weird",))
        for name in (
            "side",
            "d_anchor",
            "k_const",
            "rho_b",
            "r0",
            "path_exponent",
            "rmax",
            "rho_a",
            "fading_sigma_db",
            "lambda0",
        ):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ExperimentSpec(kind="extended_scaling", **{name: value})


class TestStudyDraws:
    """The studies draw and assemble as arrays; the network must equal the
    public path's, ``build_efim(gen_*(...))``, bit for bit."""

    @staticmethod
    def assert_same(net, ref):
        assert net.agent_ids == ref.agent_ids
        for name in ("j_a", "j_c", "xi_p"):
            assert np.array_equal(getattr(net, name), getattr(ref, name)), name

    @pytest.mark.parametrize("layout", ["setI", "setII", "both", "random"])
    @pytest.mark.parametrize("fading", [0.0, 4.0])
    def test_dense(self, layout, fading):
        spec = default_spec("fig6", seed=11, nb=5, fading_sigma_db=fading)
        for trial, na in ((0, 1), (2, 7)):
            point = {"layout": layout, "na": na}
            ref = gen_dense(
                11,
                na,
                nb=5 if layout == "random" else None,
                anchor_layout=layout,
                d=spec.d_anchor,
                fading_sigma_db=fading,
                trial=trial,
            )
            self.assert_same(_draw(spec, "fig6", point, trial), build_efim(ref))

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(poisson_counts=True, fading_sigma_db=3.0, path_exponent=1.5),
            dict(cooperative=True, rho_b=0.01, rho_a=0.02, r0=1.0, rmax=6.0),
            dict(k_const=2.5, fading_sigma_db=2.0),
        ],
    )
    def test_extended(self, overrides):
        spec = default_spec("extended_scaling", seed=3, **overrides)
        rho_a = spec.rho_a if spec.cooperative else 0.0
        for trial, n in ((0, 16), (4, 64)):
            radius = math.sqrt(n / (math.pi * spec.rho_b))
            ref = gen_extended(
                3,
                rho_b=spec.rho_b,
                rho_a=rho_a,
                radius=radius,
                r0=spec.r0,
                rmax=spec.rmax,
                b=spec.path_exponent,
                k_const=spec.k_const,
                poisson_counts=spec.poisson_counts,
                fading_sigma_db=spec.fading_sigma_db,
                trial=trial,
            )
            net = _draw(spec, "extended_scaling", {"radius_m": radius}, trial)
            self.assert_same(net, build_efim(ref))
            assert net.n_agents == len(ref.agents)


class TestStudyPath:
    """The studies draw with ``gen_dense``/``gen_extended`` and assemble
    with ``build_efim``, the public path, once per draw."""

    @pytest.mark.parametrize(
        "kind, generator, draws",
        [("dense_scaling", "gen_dense", 5), ("extended_scaling", "gen_extended", 4)],
    )
    def test_one_public_draw_and_assembly_per_trial(self, monkeypatch, kind, generator, draws):
        calls = {"draw": [], "efim": []}

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                calls[name].append((args, result))
                return result

            return wrapper

        monkeypatch.setattr(
            experiments, generator, recording("draw", getattr(experiments, generator))
        )
        monkeypatch.setattr(experiments, "build_efim", recording("efim", experiments.build_efim))
        run_experiment(default_spec(kind, seed=5, trials=1))
        assert len(calls["draw"]) == len(calls["efim"]) == draws
        for (_, topo), ((arg,), _) in zip(calls["draw"], calls["efim"]):
            assert isinstance(topo, Topology) and arg is topo

    def test_large_draw_builds_no_node_or_link_objects(self, monkeypatch):
        counts = {"node": 0, "link": 0}

        def counting(name, init):
            def wrapper(self):
                counts[name] += 1
                init(self)

            return wrapper

        monkeypatch.setattr(Node, "__post_init__", counting("node", Node.__post_init__))
        monkeypatch.setattr(
            RangingLink, "__post_init__", counting("link", RangingLink.__post_init__)
        )
        topo = gen_extended(2, rho_b=1.0, radius=math.sqrt(4096 / math.pi), r0=0.5)
        net = build_efim(topo)
        assert len(topo.is_agent) == 4097 and net.agent_ids == ("a0",)
        assert counts == {"node": 0, "link": 0}
        assert topo.nodes[1].node_id == "b0" and counts["node"] == 4097


def _same_bits(a, b):
    """Equal as IEEE doubles, sign of zero included; NaN matches NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestFitLoglog:
    """``_fit_loglog`` is ``scipy.stats.linregress`` on the logarithms, bit
    for bit, without importing ``scipy.stats``."""

    @staticmethod
    def _linregress(x, y):
        from scipy.stats import linregress

        res = linregress(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)))
        return [res.slope, 1.96 * res.stderr, res.intercept, res.rvalue]

    def assert_matches(self, x, y):
        fit = _fit_loglog(x, y)
        assert list(fit) == ["slope", "ci95", "intercept", "r_value"]
        want = self._linregress(x, y)
        for key, got, ref in zip(fit, fit.values(), want):
            assert type(got) is float
            assert _same_bits(got, float(ref)), (key, got, ref)

    def test_random_inputs(self):
        rng = np.random.default_rng(17)
        for n in (3, 4, 5, 7, 12):
            for _ in range(40):
                x = np.sort(rng.uniform(1.0, 100.0, n))
                y = np.exp(rng.normal(0.0, 3.0, n)) * x ** rng.uniform(-2.0, 1.0)
                self.assert_matches(x.tolist(), y.tolist())

    def test_exact_power_law_and_the_dense_sweep(self):
        x = [8, 12, 20, 36, 68]
        self.assert_matches(x, [3.0 * v**-1.5 for v in x])
        self.assert_matches(x, [3.0 * v**1.0 for v in x])
        self.assert_matches([4, 8, 16, 32, 64], [0.9, 0.41, 0.2, 0.093, 0.051])

    def test_two_points(self):
        self.assert_matches([2.0, 5.0], [1.0, 0.3])
        self.assert_matches([2.0, 5.0], [0.3, 0.3])
        assert _fit_loglog([2.0, 5.0], [1.0, 0.3])["ci95"] == 0.0

    def test_constant_y(self):
        self.assert_matches([4, 8, 16, 32, 64], [0.5] * 5)
        assert math.isnan(_fit_loglog([4, 8, 16, 32, 64], [0.5] * 5)["r_value"])

    def test_infinite_mean(self):
        """A sweep point whose every draw is unlocalizable has mean inf."""
        self.assert_matches([4, 8, 16, 32, 64], [1.0, 0.5, math.inf, 0.1, 0.05])
        self.assert_matches([4, 8, 16], [math.inf] * 3)

    def test_nan(self):
        self.assert_matches([4, 8, 16, 32], [1.0, math.nan, 0.2, 0.1])
        self.assert_matches([4, 8, 16, 32], [1.0, -0.5, 0.2, 0.1])  # log of a negative
        fit = _fit_loglog([4, 4, 4], [1.0, math.nan, 0.2])
        assert all(math.isnan(v) for v in fit.values())
        assert _same_bits(fit["slope"], float(self._linregress([4, 4, 4], [1.0, math.nan, 0.2])[0]))

    def test_identical_x(self):
        from scipy.stats import linregress

        with pytest.raises(ValueError) as want:
            linregress(np.log([4.0, 4.0, 4.0]), np.log([1.0, 0.5, 0.2]))
        with pytest.raises(ValueError) as got:
            _fit_loglog([4, 4, 4], [1.0, 0.5, 0.2])
        assert str(got.value) == str(want.value)


class TestOutputs:
    def test_files_written_atomically_and_deterministic(self, tmp_path):
        spec = default_spec("fig7", seed=21, trials=5, na_sweep=(2, 3), layouts=("setI",))
        result = run_experiment(spec)
        csv_path, json_path = result.write(str(tmp_path))
        assert os.path.basename(csv_path) == "fig7_21.csv"
        assert os.path.basename(json_path) == "fig7_21.json"
        first = open(csv_path, "rb").read()
        result2 = run_experiment(spec)
        result2.write(str(tmp_path))
        assert open(csv_path, "rb").read() == first
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp_")]

    def test_summary_parses_and_echoes_seed(self, tmp_path):
        spec = default_spec("lemma2", seed=4, trials=200)
        result = run_experiment(spec)
        _, json_path = result.write(str(tmp_path))
        payload = json.loads(open(json_path).read())
        assert payload["seed"] == 4
        assert payload["empirical"] <= payload["bound"]

    def test_summary_json_holds_null_not_nan_or_infinity(self, tmp_path):
        """With one anchor every draw is unlocalizable: the mean bound is inf
        and mean x log 1 is NaN, which the summary file writes as null."""
        spec = default_spec("extended_scaling", seed=2, trials=3, n_sweep=(1, 64))
        _, json_path = run_experiment(spec).write(str(tmp_path))

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(open(json_path).read(), parse_constant=reject)
        assert payload["mean_times_log_n"][0] is None
        assert payload["mean_times_log_n_spread"] is None

    def test_run_experiment_dispatch_all_kinds(self, tmp_path):
        for kind, params in (
            ("fig4", {}),
            ("fig6", dict(trials=3, na_sweep=(1, 2), layouts=("setI",))),
            ("fig7", dict(trials=3, na_sweep=(2,), layouts=("setI",))),
            ("fig8", dict(trials=3, na=3, d_sweep=(5.0, 10.0), layouts=("setI",))),
            ("dense_scaling", dict(trials=3, na_sweep=(2, 4, 8, 16))),
            ("extended_scaling", dict(trials=3, n_sweep=(8, 16, 32, 64))),
            ("lemma1", dict(trials=100)),
            ("lemma2", dict(trials=100)),
        ):
            result = run_experiment(default_spec(kind, seed=1, **params))
            result.write(str(tmp_path))
            assert result.rows
