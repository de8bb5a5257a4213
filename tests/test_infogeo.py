"""Tests for the 2x2 information-matrix algebra."""

import math

import numpy as np
import pytest

from locbounds.infogeo import (
    UNLOCALIZABLE,
    BlockMatrix,
    EllipseForm,
    InfoMatrix2,
    SingularComplementError,
    dpeb,
    fuse_anchor,
    rdm,
    rdm3d,
    rotate,
    schur_reduce,
    speb,
    speb_blocks,
    to_ellipse,
    wrap_angle,
)

from conftest import random_pd_matrix, random_unit_vector


def angle_close(a: float, b: float, tol: float = 1e-10) -> bool:
    """Orientation angles agree modulo pi."""
    d = abs(wrap_angle(a) - wrap_angle(b))
    return min(d, math.pi - d) < tol


class TestRdm:
    def test_axis_aligned(self):
        np.testing.assert_allclose(rdm(0.0).as_array(), [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(
            rdm(math.pi / 2).as_array(), [[0, 0], [0, 1]], atol=1e-15
        )

    def test_diagonal_bearing(self):
        np.testing.assert_allclose(
            rdm(math.pi / 4).as_array(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_trace_det_and_periodicity(self):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(-10, 10, size=200):
            r = rdm(phi)
            assert abs(r.trace - 1.0) < 1e-12
            assert abs(r.det) < 1e-12
            np.testing.assert_allclose(
                r.as_array(), rdm(phi + math.pi).as_array(), atol=1e-12
            )

    def test_eigenvector_along_bearing(self):
        phi = 0.73
        q = np.array([math.cos(phi), math.sin(phi)])
        np.testing.assert_allclose(rdm(phi).as_array() @ q, q, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rdm(math.nan)


class TestRdm3d:
    def test_axis_cases(self):
        e1 = np.zeros((3, 3))
        e1[0, 0] = 1.0
        np.testing.assert_allclose(rdm3d(0.0, 0.0), e1, atol=1e-15)
        e2 = np.zeros((3, 3))
        e2[1, 1] = 1.0
        np.testing.assert_allclose(rdm3d(math.pi / 2, 0.0), e2, atol=1e-15)

    def test_trace_one_rank_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            varphi, phi = rng.uniform(-math.pi, math.pi, size=2)
            m = rdm3d(varphi, phi)
            assert abs(np.trace(m) - 1.0) < 1e-12
            eigs = np.sort(np.linalg.eigvalsh(m))
            np.testing.assert_allclose(eigs, [0.0, 0.0, 1.0], atol=1e-12)


class TestEllipseForm:
    def test_diagonal(self):
        e = to_ellipse(InfoMatrix2(2.0, 0.0, 1.0))
        assert (e.mu, e.eta, e.theta) == (2.0, 1.0, 0.0)

    def test_hand_decomposition(self):
        # [[1.5, .5], [.5, 1.5]] has eigenpairs (2, (1,1)/sqrt2), (1, (1,-1)/sqrt2)
        e = to_ellipse(InfoMatrix2(1.5, 0.5, 1.5))
        assert abs(e.mu - 2.0) < 1e-12
        assert abs(e.eta - 1.0) < 1e-12
        assert angle_close(e.theta, math.pi / 4)

    def test_rank_one_is_degenerate_ellipse(self):
        rng = np.random.default_rng(11)
        for phi in rng.uniform(0, math.pi, size=50):
            e = to_ellipse(rdm(phi))
            assert abs(e.mu - 1.0) < 1e-12
            assert abs(e.eta) < 1e-12
            assert angle_close(e.theta, phi, tol=1e-9)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            j = random_pd_matrix(rng)
            e = to_ellipse(j)
            np.testing.assert_allclose(
                e.to_matrix().as_array(), j.as_array(), atol=1e-12 * max(j.trace, 1.0)
            )
            assert e.mu >= e.eta >= 0.0
            assert 0.0 <= e.theta < math.pi
            assert abs((e.mu + e.eta) - j.trace) < 1e-12 * max(j.trace, 1.0)

    def test_tie_pins_theta(self):
        e = to_ellipse(InfoMatrix2(3.0, 0.0, 3.0))
        assert e.theta == 0.0

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            InfoMatrix2(1.0, 2.0, 1.0)  # det = -3
        with pytest.raises(ValueError):
            EllipseForm(1.0, 2.0, 0.0)  # mu < eta


class TestSpeb:
    def test_diagonal_value(self):
        assert abs(speb(InfoMatrix2(2.0, 0.0, 1.0)) - 1.5) < 1e-15

    def test_rank_one_unlocalizable(self):
        assert speb(rdm(0.3)) is UNLOCALIZABLE
        assert math.isinf(speb(rdm(0.3)))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            j = random_pd_matrix(rng)
            ang = rng.uniform(0, 2 * math.pi)
            assert abs(speb(rotate(j, ang)) - speb(j)) < 1e-10 * speb(j)

    def test_eigen_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            j = random_pd_matrix(rng)
            e = to_ellipse(j)
            assert abs(speb(j) - (1.0 / e.mu + 1.0 / e.eta)) < 1e-9 * speb(j)

    @pytest.mark.parametrize(
        "a11, a12, a22",
        [
            (0.5500088526668698, 0.9856874396754165, 1.7664801746172394),
            (0.5664106314200583, 0.7520865299290137, 0.9986291209469409),
            (1.3085537862727508, 0.8752472695173616, 0.5854232316783586),
        ],
    )
    def test_blocks_at_the_threshold_get_one_verdict(self, a11, a12, a22):
        """Blocks whose smallest eigenvalue sits at the singularity threshold,
        where ``math.hypot`` and ``np.hypot`` differ in the last bit: ``speb``
        and ``speb_blocks`` share one hypot, so one verdict and one value."""
        blocks = np.array([[[a11, a12], [a12, a22]]])
        assert speb_blocks(blocks)[0] == speb(InfoMatrix2(a11, a12, a22))

    @pytest.mark.parametrize("k", [-560, -20, 20, 520])
    def test_scales_exactly_beyond_the_determinant_range(self, k):
        """Information times 2^k gives SPEB and DPEB times 2^-k exactly, also
        where the determinant alone would leave float range (2^-1120 or
        2^1040 for |k| of 560 or 520)."""
        rng = np.random.default_rng(19)
        u = random_unit_vector(rng)
        for _ in range(50):
            j = random_pd_matrix(rng)
            big = InfoMatrix2(*(math.ldexp(v, k) for v in (j.a11, j.a12, j.a22)))
            assert speb(big) == math.ldexp(speb(j), -k)
            assert dpeb(big, u) == math.ldexp(dpeb(j, u), -k)
            block = big.as_array()[None]
            assert speb_blocks(block)[0] == math.ldexp(speb(j), -k)
            e = to_ellipse(j)
            for nu, phi in ((0.0, 0.3), (2.0, 1.1)):
                _, want = fuse_anchor(e, nu, phi)
                scaled = EllipseForm(math.ldexp(e.mu, k), math.ldexp(e.eta, k), e.theta)
                _, got = fuse_anchor(scaled, math.ldexp(nu, k), phi)
                assert got == math.ldexp(want, -k)


class TestDpeb:
    def test_axis_values(self):
        j = InfoMatrix2(2.0, 0.0, 1.0)
        assert abs(dpeb(j, (1.0, 0.0)) - 0.5) < 1e-15
        assert abs(dpeb(j, (0.0, 1.0)) - 1.0) < 1e-15

    def test_orthogonal_decomposition(self):
        """Summing bounds along any two orthogonal directions gives the total."""
        rng = np.random.default_rng(19)
        for _ in range(1000):
            j = random_pd_matrix(rng)
            u = random_unit_vector(rng)
            u_perp = np.array([-u[1], u[0]])
            assert abs(dpeb(j, u) + dpeb(j, u_perp) - speb(j)) < 1e-10 * max(speb(j), 1.0)

    def test_requires_unit_vector(self):
        with pytest.raises(ValueError):
            dpeb(InfoMatrix2(1.0, 0.0, 1.0), (1.0, 1.0))

    def test_singular_unlocalizable(self):
        assert dpeb(rdm(0.0), (0.0, 1.0)) is UNLOCALIZABLE


class TestSchurReduce:
    def test_block_diagonal_passthrough(self):
        blocks = [InfoMatrix2(2.0, 0.3, 1.0), InfoMatrix2(1.0, 0.0, 4.0)]
        m = np.zeros((4, 4))
        m[:2, :2] = blocks[0].as_array()
        m[2:, 2:] = blocks[1].as_array()
        reduced = schur_reduce(BlockMatrix(m), keep=[0])
        np.testing.assert_allclose(reduced.array, blocks[0].as_array(), atol=1e-15)

    def test_two_agent_worked_example(self):
        # identical unit anchor information, unit-intensity coupling along x
        c = rdm(0.0).as_array()
        eye = np.eye(2)
        m = np.block([[eye + c, -c], [-c, eye + c]])
        reduced = schur_reduce(m, keep=[0])
        np.testing.assert_allclose(reduced.array, np.diag([1.5, 1.0]), atol=1e-12)

    def test_matches_full_inverse_oracle(self):
        """[M^-1]_keep == reduced^-1 for random PD block matrices up to 6 blocks."""
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(2, 7)
            root = rng.normal(size=(2 * n, 2 * n))
            m = root @ root.T + 0.5 * np.eye(2 * n)
            keep = sorted(rng.choice(n, size=rng.integers(1, n), replace=False).tolist())
            reduced = schur_reduce(m, keep=keep)
            idx = [j for k in keep for j in (2 * k, 2 * k + 1)]
            oracle = np.linalg.inv(np.linalg.inv(m)[np.ix_(idx, idx)])
            scale = np.max(np.abs(oracle))
            np.testing.assert_allclose(reduced.array, oracle, atol=1e-9 * scale)

    def test_singular_complement_names_block(self):
        m = np.zeros((4, 4))
        m[:2, :2] = np.eye(2)
        # block 1 carries no information at all
        with pytest.raises(SingularComplementError) as err:
            schur_reduce(m, keep=[0])
        assert err.value.blocks == (1,)
        assert "1" in str(err.value)

    def test_singular_complement_judges_each_block_on_its_own_trace(self):
        """A weak but regular eliminated block beside a strong one is not
        named: 1e-4 I has SPEB 2e4, though 1e-4 is below 1e-9 of the
        eliminated matrix's trace."""
        m = np.zeros((8, 8))
        m[:2, :2] = np.eye(2)
        m[2:4, 2:4] = 1e6 * np.eye(2)
        m[4:6, 4:6] = 1e-4 * np.eye(2)
        m[6:, 6:] = np.diag([1.0, 0.0])
        with pytest.raises(SingularComplementError) as err:
            schur_reduce(m, keep=[0])
        assert err.value.blocks == (3,)

    def test_pinv_opt_in(self):
        m = np.zeros((4, 4))
        m[:2, :2] = np.diag([2.0, 1.0])
        reduced = schur_reduce(m, keep=[0], use_pinv=True)
        np.testing.assert_allclose(reduced.array, np.diag([2.0, 1.0]), atol=1e-12)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(29)
        root = rng.normal(size=(4, 4))
        m = root @ root.T + np.eye(4)
        np.testing.assert_allclose(schur_reduce(m, keep=[0, 1]).array, 0.5 * (m + m.T))


class TestFuseAnchor:
    def test_worked_example(self):
        """Pushing unit intensity on the weak axis of F(2,1,0) equalizes it."""
        e, new_speb = fuse_anchor(EllipseForm(2.0, 1.0, 0.0), 1.0, math.pi / 2)
        assert abs(e.mu - 2.0) < 1e-12
        assert abs(e.eta - 2.0) < 1e-12
        assert e.theta == 0.0
        assert abs(new_speb - 1.0) < 1e-12

    def test_zero_intensity_is_identity(self):
        base = EllipseForm(2.0, 1.0, 0.4)
        e, new_speb = fuse_anchor(base, 0.0, 1.1)
        assert abs(e.mu - base.mu) < 1e-14
        assert abs(e.eta - base.eta) < 1e-14
        assert angle_close(e.theta, base.theta)
        assert abs(new_speb - (1.0 / 2.0 + 1.0)) < 1e-14

    def test_matches_eigen_route(self):
        """Closed form equals eigen-decomposition of the summed matrices."""
        rng = np.random.default_rng(31)
        for _ in range(1000):
            base = to_ellipse(random_pd_matrix(rng))
            nu = rng.uniform(0.0, 5.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            closed, closed_speb = fuse_anchor(base, nu, phi)
            summed = InfoMatrix2.from_array(
                base.to_matrix().as_array() + nu * rdm(phi).as_array()
            )
            eig = to_ellipse(summed)
            scale = max(summed.trace, 1.0)
            assert abs(closed.mu - eig.mu) < 1e-10 * scale
            assert abs(closed.eta - eig.eta) < 1e-10 * scale
            assert angle_close(closed.theta, eig.theta, tol=1e-8)
            assert abs(closed_speb - speb(summed)) < 1e-10 * max(speb(summed), 1.0)

    def test_optimal_angle_formula(self):
        """Minimum over the bearing lands on the weak axis, with the stated value."""
        rng = np.random.default_rng(37)
        for _ in range(50):
            base = to_ellipse(random_pd_matrix(rng))
            nu = rng.uniform(0.1, 3.0)
            best = fuse_anchor(base, nu, base.theta + math.pi / 2)[1]
            expected = (base.mu + base.eta + nu) / (base.mu * (base.eta + nu))
            assert abs(best - expected) < 1e-12 * expected
            grid = [fuse_anchor(base, nu, phi)[1] for phi in np.linspace(0, math.pi, 181)]
            assert best <= min(grid) + 1e-12

    def test_monotone_improvement(self):
        """More information never worsens the bound."""
        rng = np.random.default_rng(41)
        for _ in range(200):
            base = to_ellipse(random_pd_matrix(rng))
            nu = rng.uniform(0.0, 4.0)
            phi = rng.uniform(0.0, 2 * math.pi)
            assert fuse_anchor(base, nu, phi)[1] <= speb(base.to_matrix()) + 1e-12


class TestMonotonicity:
    def test_adding_psd_never_increases_speb(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            j = random_pd_matrix(rng)
            extra = rdm(rng.uniform(0, math.pi)).scaled(rng.uniform(0, 2.0))
            assert speb(j + extra) <= speb(j) + 1e-12
