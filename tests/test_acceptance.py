"""Acceptance criteria, one test per criterion.

Each test prints a ``[acceptance NN] PASS/FAIL`` line (run with ``-s`` to
see them on success) and asserts the criterion at its stated tolerance.
Criterion 10's cooperative slope window is known-unattainable for the exact
mean bound at the pinned sweep; see the analysis in the repository notes.
Run:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from locbounds.bounds import effective_rii, efim_bounds_all, two_agent_exact
from locbounds.experiments import (
    default_spec,
    lemma1_check,
    lemma2_check,
    run_fig7,
    run_fig8,
    run_scaling,
)
from locbounds.infogeo import (
    EllipseForm,
    InfoMatrix2,
    dpeb,
    fuse_anchor,
    rdm,
    schur_reduce,
    speb,
    to_ellipse,
    wrap_angle,
)
from locbounds.network import (
    Node,
    Topology,
    agent_efim,
    anchor_equivalence_check,
    build_efim,
    join,
    leave,
)
from locbounds.ranging import (
    MultipathChannel,
    RangingLink,
    gaussian_pulse,
    path_overlap_chi,
    psi_matrix,
    rii_no_prior,
)

from conftest import random_pd_matrix, random_topology, random_unit_vector
from test_ranging import full_fim_rii_oracle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_c01_orthogonal_decomposition_identity():
    """SPEB equals the sum of DPEBs along any orthogonal pair (1e-10, <1s)."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        j = random_pd_matrix(rng)
        u = random_unit_vector(rng)
        u_perp = np.array([-u[1], u[0]])
        worst = max(worst, abs(dpeb(j, u) + dpeb(j, u_perp) - speb(j)))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst < 1e-10 and elapsed < 1.0,
        f"max |dpeb(u)+dpeb(u_perp)-speb| = {worst:.3e} (<1e-10), {elapsed:.2f}s (<1s)",
    )


def test_c02_coordinate_invariance():
    """SPEB is unchanged by rotating/translating every network (1e-10)."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        topo = random_topology(rng, n_agents=int(rng.integers(2, 5)), n_anchors=3)
        base = build_efim(topo)
        base_spebs = {a: speb(agent_efim(base, a)) for a in base.agent_ids}
        for _ in range(100):
            ang = rng.uniform(0.0, 2.0 * math.pi)
            shift = rng.uniform(-50.0, 50.0, size=2)
            rot = np.array(
                [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
            )
            moved_nodes = tuple(
                Node(n.node_id, n.kind, rot @ n.position + shift) for n in topo.nodes
            )
            moved = build_efim(Topology(moved_nodes, topo.links))
            for a in moved.agent_ids:
                ref = base_spebs[a]
                worst = max(worst, abs(speb(agent_efim(moved, a)) - ref) / ref)
    _report(2, worst < 1e-10, f"max relative SPEB change under isometries = {worst:.3e} (<1e-10)")


def test_c03_anchor_fusion_closed_form():
    """Closed-form fusion equals the eigen route (1e-10); the best and worst
    bearings land exactly on the grid's weak/strong axes."""
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        base = to_ellipse(random_pd_matrix(rng))
        nu = rng.uniform(0.0, 5.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        closed, closed_speb = fuse_anchor(base, nu, phi)
        summed = InfoMatrix2.from_array(base.to_matrix().as_array() + nu * rdm(phi).as_array())
        eig = to_ellipse(summed)
        scale = max(summed.trace, 1.0)
        d_theta = abs(wrap_angle(closed.theta) - wrap_angle(eig.theta))
        d_theta = min(d_theta, math.pi - d_theta)
        worst = max(
            worst,
            abs(closed.mu - eig.mu) / scale,
            abs(closed.eta - eig.eta) / scale,
            d_theta,
            abs(closed_speb - speb(summed)) / max(speb(summed), 1.0),
        )
    extremal_ok = True
    for _ in range(50):
        base = to_ellipse(random_pd_matrix(rng))
        nu = rng.uniform(0.1, 3.0)
        grid = np.array(
            [fuse_anchor(base, nu, base.theta + k * 2.0 * math.pi / 360.0)[1] for k in range(360)]
        )
        extremal_ok &= int(np.argmin(grid)) in (90, 270)
        extremal_ok &= int(np.argmax(grid)) in (0, 180)
    _report(
        3,
        worst < 1e-10 and extremal_ok,
        f"closed-vs-eigen max deviation = {worst:.3e} (<1e-10), "
        f"extrema on the 360-point grid at theta+-pi/2 / theta: {extremal_ok}",
    )


def test_c04_two_agent_exactness():
    """Two-agent closed form equals the 4x4 reduction (1e-10) and the hand
    instance gives diag(1.5, 1) with bound 5/3."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(500):
        ja1 = random_pd_matrix(rng)
        ja2 = random_pd_matrix(rng)
        nu = rng.uniform(0.0, 5.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        je1, je2 = two_agent_exact(ja1, ja2, nu, phi)
        c = nu * rdm(phi).as_array()
        joint = np.block([[ja1.as_array() + c, -c], [-c, ja2.as_array() + c]])
        for k, closed in ((0, je1), (1, je2)):
            oracle = schur_reduce(joint, keep=[k]).array
            scale = max(np.abs(oracle).max(), 1.0)
            worst = max(worst, np.max(np.abs(closed.as_array() - oracle)) / scale)
    je1, _ = two_agent_exact(InfoMatrix2(1, 0, 1), InfoMatrix2(1, 0, 1), 1.0, 0.0)
    hand_ok = (
        np.max(np.abs(je1.as_array() - np.diag([1.5, 1.0]))) < 1e-12
        and abs(speb(je1) - 5.0 / 3.0) < 1e-12
    )
    _report(
        4,
        worst < 1e-10 and hand_ok,
        f"closed-vs-joint max deviation = {worst:.3e} (<1e-10), hand instance ok: {hand_ok}",
    )


def test_c05_effective_intensity_asymptotes():
    """Effective cooperation intensity saturates at the peer's inverse
    directional bound (within 1e-3 at nu = 1e6)."""
    peer = EllipseForm(2.0, 1.0, 0.0)
    devs = {
        phi: abs(effective_rii(peer, 1e6, phi).eff - limit)
        for phi, limit in ((0.0, 2.0), (math.pi / 4.0, 4.0 / 3.0), (math.pi / 2.0, 1.0))
    }
    worst = max(devs.values())
    _report(5, worst < 1e-3, f"max |eff(1e6) - limit| = {worst:.2e} (<1e-3) at {len(devs)} bearings")


def test_c06_sandwich_and_ratio_curve():
    """Bound sandwich on 500 random networks plus the ratio-vs-agents curve:
    exactly 1 at two agents, in (0, 1], non-increasing mean (<60s)."""
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    eig_ok = True
    order_ok = True
    for _ in range(500):
        topo = random_topology(rng, n_agents=int(rng.integers(3, 9)))
        net = build_efim(topo)
        for agent_id, (low, high, _) in efim_bounds_all(net).items():
            exact = agent_efim(net, agent_id).as_array()
            tol = 1e-9 * max(np.trace(exact), 1.0)
            eig_ok &= np.linalg.eigvalsh(exact - low.as_array())[0] >= -tol
            eig_ok &= np.linalg.eigvalsh(high.as_array() - exact)[0] >= -tol
            s_exact = float(np.trace(np.linalg.inv(exact)))
            order_ok &= speb(high) <= s_exact * (1.0 + 1e-9)
            order_ok &= s_exact <= speb(low) * (1.0 + 1e-9)

    spec = default_spec("fig7", seed=1060, trials=200, layouts=("both",))
    rows = run_fig7(spec).rows
    means = [r["mean_ratio"] for r in rows]
    two_agent_exactly_one = rows[0]["na"] == 2 and means[0] == 1.0
    in_unit = all(0.0 < m <= 1.0 for m in means)
    non_increasing = all(b <= a for a, b in zip(means, means[1:]))
    elapsed = time.perf_counter() - start
    _report(
        6,
        eig_ok and order_ok and two_agent_exactly_one and in_unit and non_increasing and elapsed < 60.0,
        f"sandwich eig/order ok: {eig_ok}/{order_ok}; ratio curve {[round(m, 4) for m in means]} "
        f"(1.0 at Na=2: {two_agent_exactly_one}, non-increasing: {non_increasing}), {elapsed:.1f}s (<60s)",
    )


def test_c07_overlap_coefficient_and_intensity():
    """chi in [0,1] on 200 channels; zero for a disjoint first path; the
    intensity ignores paths outside the first cluster (1e-8) and matches the
    brute-force full-FIM reduction (1e-6) on 50 two-path channels."""
    sigma = 1e-9
    w = gaussian_pulse(sigma, dt=sigma / 32.0, span=8.0, c=3e8)
    rng = np.random.default_rng(107)
    chi_ok = True
    for _ in range(200):
        L = int(rng.integers(1, 5))
        gaps = rng.uniform(0.25, 2.5, size=L - 1) * sigma
        delays = np.concatenate([[0.0], np.cumsum(gaps)])
        amps = rng.choice([-1.0, 1.0], size=L) * rng.uniform(0.2, 1.5, size=L)
        amps[0] = rng.uniform(0.5, 1.5)
        chi = path_overlap_chi(psi_matrix(w, MultipathChannel(delays, amps)))
        chi_ok &= 0.0 <= chi <= 1.0
    disjoint = path_overlap_chi(
        psi_matrix(w, MultipathChannel([0.0, 30.0 * sigma], [1.0, 1.0]))
    )
    cluster_dev = 0.0
    for _ in range(20):
        gap = rng.uniform(0.2, 2.0) * sigma
        base = MultipathChannel([0.0, gap], [1.0, rng.uniform(-1.0, 1.0)])
        lam = rii_no_prior(w, base)
        extended = MultipathChannel(
            np.concatenate([base.delays, [50.0 * sigma]]),
            np.concatenate([base.amplitudes, [rng.uniform(0.5, 1.5)]]),
        )
        cluster_dev = max(cluster_dev, abs(rii_no_prior(w, extended) - lam) / lam)
    oracle_dev = 0.0
    for _ in range(50):
        gap = rng.uniform(0.2, 3.0) * sigma
        ch = MultipathChannel([0.0, gap], [rng.uniform(0.5, 1.5), rng.uniform(-1.2, 1.2)])
        lam = rii_no_prior(w, ch)
        oracle = full_fim_rii_oracle(w, ch)
        oracle_dev = max(oracle_dev, abs(lam - oracle) / oracle)
    _report(
        7,
        chi_ok and disjoint < 1e-9 and cluster_dev < 1e-8 and oracle_dev < 1e-6,
        f"chi in [0,1]: {chi_ok}; disjoint chi = {disjoint:.1e}; cluster invariance "
        f"{cluster_dev:.1e} (<1e-8); full-FIM oracle deviation {oracle_dev:.1e} (<1e-6)",
    )


def test_c08_anchor_equivalence_limit():
    """A huge position prior makes an agent an anchor: deviation below 1e-6
    at t2 = 1e12, decreasing monotonically in t2, on 100 random networks."""
    rng = np.random.default_rng(108)
    worst_final = 0.0
    monotone_ok = True
    for _ in range(100):
        topo = random_topology(rng, n_agents=int(rng.integers(2, 6)))
        agent_id = str(rng.choice([n.node_id for n in topo.agents]))
        devs = [anchor_equivalence_check(topo, agent_id, t2) for t2 in (1e3, 1e6, 1e9, 1e12)]
        monotone_ok &= all(b < a for a, b in zip(devs, devs[1:]))
        worst_final = max(worst_final, devs[-1])
    _report(
        8,
        worst_final < 1e-6 and monotone_ok,
        f"max deviation at t2=1e12: {worst_final:.2e} (<1e-6); monotone in t2: {monotone_ok}",
    )


def test_c09_join_leave_recursion():
    """Random join/leave sequences of length 10 reproduce batch assembly to
    1e-12 on 100 random networks."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        topo = random_topology(rng, n_agents=3)
        net = build_efim(topo)
        counter = 0
        for _ in range(10):
            do_join = net.n_agents <= 1 or rng.random() < 0.55
            if do_join:
                counter += 1
                newcomer = Node(f"x{counter}", "agent", rng.uniform(-10.0, 10.0, 2))
                links = [
                    RangingLink(newcomer.node_id, str(peer), float(rng.uniform(0.05, 0.5)))
                    for peer in rng.choice(
                        net.agent_ids, size=min(2, net.n_agents), replace=False
                    )
                ]
                links.append(RangingLink(newcomer.node_id, "b0", float(rng.uniform(0.05, 0.5))))
                net = join(net, newcomer, links)
            else:
                net = leave(net, str(rng.choice(net.agent_ids)))
        batch = build_efim(net.topology)
        scale = max(np.abs(batch.total.array).max(), 1.0)
        worst = max(worst, np.max(np.abs(net.total.array - batch.total.array)) / scale)
    _report(9, worst < 1e-12, f"max join/leave vs batch deviation = {worst:.2e} (<1e-12)")


def test_c10_dense_scaling_exponent():
    """Dense-network regression at the pinned sweep (Nb=4, Na in
    {4,...,64}, 20 m area, free-space intensity, 200 trials/point, <5 min).

    The non-cooperative slope against Na must be flat. The cooperative
    window [-1.2, -0.8] is asserted as stated; it is expected RED: over this
    sweep the exact mean bound decays at about -1.5 for every admissible
    anchor placement because the effective cooperation intensity is still
    rising (see the decisions ledger for the full calibration analysis).
    """
    start = time.perf_counter()
    spec = default_spec("dense_scaling", seed=1100, trials=200)
    result = run_scaling(spec)
    coop = result.summary["cooperative_fit_vs_log_n_total"]["slope"]
    upper = result.summary["upper_approx_fit_vs_log_n_total"]["slope"]
    noncoop = result.summary["noncooperative_fit_vs_log_na"]["slope"]
    elapsed = time.perf_counter() - start
    noncoop_ok = -0.1 <= noncoop <= 0.1
    coop_ok = -1.2 <= coop <= -0.8
    _report(
        10,
        noncoop_ok and coop_ok and elapsed < 300.0,
        f"coop slope vs log(Nb+Na) = {coop:.3f} (window [-1.2, -0.8]; "
        f"upper-approximation slope {upper:.3f} for reference); "
        f"noncoop slope vs log(Na) = {noncoop:.3f} (window [-0.1, 0.1]); {elapsed:.0f}s (<300s)",
    )


def test_c11_extended_scaling():
    """Extended networks: for unit amplitude loss the mean bound scales as
    1/log N (spread of bound x log N at most 2 across the sweep); for
    exponent 2 the bound converges (terminal ratio in [0.5, 1.5]). <10 min."""
    start = time.perf_counter()
    b1 = run_scaling(default_spec("extended_scaling", seed=1101, trials=200))
    spread = b1.summary["mean_times_log_n_spread"]
    b2 = run_scaling(
        default_spec("extended_scaling", seed=1102, trials=200, path_exponent=2.0)
    )
    ratio = b2.summary["terminal_ratio"]
    elapsed = time.perf_counter() - start
    _report(
        11,
        spread <= 2.0 and 0.5 <= ratio <= 1.5 and elapsed < 600.0,
        f"b=1 spread of mean x log N = {spread:.3f} (<=2); b=2 terminal ratio = {ratio:.3f} "
        f"(in [0.5, 1.5]); {elapsed:.0f}s (<600s)",
    )


def test_c12_scaling_lemmas():
    """Angle-spread floor violated in under 1% of draws at N=64; the
    order-statistic tail sits below its closed bound."""
    fraction = lemma1_check(64, 10_000, 112)
    res = lemma2_check(32, 0.25, 10_000, 112)
    _report(
        12,
        fraction < 0.01 and res.empirical <= res.bound,
        f"lemma1 violation fraction = {fraction:.4f} (<0.01); "
        f"lemma2 empirical {res.empirical:.4f} <= bound {res.bound:.4f}",
    )


def test_c13_anchor_placement_shape():
    """Mean bound against the anchor scale D: interior minimum on the sweep
    and at least a 5x blowup as D -> 0."""
    spec = default_spec(
        "fig8",
        seed=113,
        trials=100,
        na=15,
        layouts=("setI",),
        d_sweep=tuple(float(d) for d in range(1, 15)),
    )
    rows = run_fig8(spec).rows
    means = [r["mean_speb_m2"] for r in sorted(rows, key=lambda r: r["d_m"])]
    k = int(np.argmin(means))
    interior = 0 < k < len(means) - 1
    tiny_d = run_fig8(
        default_spec(
            "fig8", seed=113, trials=100, na=15, layouts=("setI",), d_sweep=(0.1,)
        )
    ).rows[0]["mean_speb_m2"]
    blowup = tiny_d / means[k]
    _report(
        13,
        interior and blowup >= 5.0,
        f"interior minimum at D = {k + 1} m: {interior}; mean bound at D->0 exceeds the "
        f"minimum by {blowup:.1f}x (>=5x)",
    )
