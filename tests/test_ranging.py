"""Tests for waveform-level ranging information."""

import math
import re

import numpy as np
import pytest

from locbounds.ranging import (
    ChannelPriorBlocks,
    DegenerateChannelError,
    MultipathChannel,
    WaveformModel,
    effective_bandwidth,
    first_contiguous_cluster,
    first_path_snr,
    gaussian_pulse,
    known_los_bias_prior,
    path_overlap_chi,
    psi_matrix,
    rii_no_prior,
    rii_pathloss,
    rii_pathloss_batch,
    rii_with_channel_prior,
    sinc_pulse,
)

SIGMA = 1e-9  # pulse RMS width used throughout (1 ns)
C = 3.0e8


def _pulse(dt_frac: float = 32.0, span: float = 8.0, n0_half: float = 1.0) -> WaveformModel:
    return gaussian_pulse(SIGMA, dt=SIGMA / dt_frac, span=span, n0_half=n0_half, c=C)


def full_fim_rii_oracle(w: WaveformModel, ch: MultipathChannel) -> float:
    """Distance information by brute force: build the Fisher matrix over
    (d, b_2..b_L, alpha~_1..alpha~_L) with the delay Jacobian and reduce it
    onto d. Independent of the overlap-coefficient partition."""
    psi = psi_matrix(w, ch).array
    L = ch.n_paths
    t = np.zeros((2 * L, 2 * L))
    for l in range(L):
        t[2 * l, 0] = 1.0 / w.c  # d/d d
        if l > 0:
            t[2 * l, l] = 1.0 / w.c  # d/d b_l
        t[2 * l + 1, L + l] = 1.0  # d/d alpha~_l
    fim = t.T @ psi @ t
    return float(fim[0, 0] - fim[0, 1:] @ np.linalg.solve(fim[1:, 1:], fim[1:, 0]))


class TestEffectiveBandwidth:
    def test_gaussian_closed_form(self):
        """A Gaussian with RMS energy width sigma has beta = 1/(4 pi sigma)."""
        w = gaussian_pulse(SIGMA, dt=SIGMA / 128, span=10.0, c=C)
        beta = effective_bandwidth(w)
        assert abs(beta * 4.0 * math.pi * SIGMA - 1.0) < 1e-3

    def test_shift_invariance(self):
        w = _pulse()
        shifted = WaveformModel(samples=w.samples, dt=w.dt, n0_half=w.n0_half, c=w.c, t0=w.t0 + 7e-9)
        assert effective_bandwidth(shifted) == effective_bandwidth(w)

    def test_sinc_flat_spectrum(self):
        """Flat two-sided spectrum of width W has beta = W / (2 sqrt 3).

        Tolerance is truncation-limited: the sampled sinc tail decays as 1/t.
        """
        bandwidth = 1.0e9
        w = sinc_pulse(bandwidth, span_lobes=256)
        beta = effective_bandwidth(w)
        assert abs(beta / (bandwidth / (2.0 * math.sqrt(3.0))) - 1.0) < 2e-2

    def test_matches_spectral_moment_route(self):
        """The time-domain value equals the ratio of spectral moments
        computed from the discrete spectrum (zero-padded so the frequency
        grid resolves the spectral width)."""
        for pulse, tol in ((_pulse(), 1e-3), (sinc_pulse(1.0e9, span_lobes=64), 1e-2)):
            n = 32 * pulse.samples.size
            spectrum = np.fft.rfft(pulse.samples, n=n) * pulse.dt
            freqs = np.fft.rfftfreq(n, d=pulse.dt)
            power = np.abs(spectrum) ** 2
            two_sided = np.full(freqs.size, 2.0)  # rfft folds the negative axis
            two_sided[0] = 1.0
            if n % 2 == 0:
                two_sided[-1] = 1.0
            power *= two_sided
            beta_spec = math.sqrt(float(np.sum(freqs**2 * power) / np.sum(power)))
            beta_time = effective_bandwidth(pulse)
            assert abs(beta_time / beta_spec - 1.0) < tol

    @pytest.mark.parametrize("field", ["dt", "n0_half", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_constants_must_be_finite_and_positive(self, field, value):
        args = dict(samples=np.hanning(64), dt=1e-10, n0_half=1.0, c=3e8) | {field: value}
        with pytest.raises(ValueError, match="dt, n0_half and c must be finite and positive"):
            WaveformModel(**args)

    def test_zero_energy_rejected(self):
        with pytest.raises(ValueError):
            WaveformModel(samples=np.zeros(64), dt=1e-10)

    def test_undersampled_rejected(self):
        with pytest.raises(ValueError):
            gaussian_pulse(SIGMA, dt=SIGMA / 4.0)


class TestFirstPathSnr:
    def test_zero_amplitude(self):
        assert first_path_snr(_pulse(), MultipathChannel([0.0], [0.0])) == 0.0

    def test_quadratic_in_amplitude(self):
        w = _pulse()
        one = first_path_snr(w, MultipathChannel([0.0], [1.0]))
        two = first_path_snr(w, MultipathChannel([0.0], [2.0]))
        assert abs(two - 4.0 * one) < 1e-12 * two

    def test_unit_energy_value(self):
        """Unit-energy pulse, unit amplitude, N0 = 2 gives SNR = 1/2."""
        snr = first_path_snr(_pulse(n0_half=1.0), MultipathChannel([0.0], [1.0]))
        assert abs(snr - 0.5) < 1e-9


class TestPsiMatrix:
    def test_single_path_closed_form(self):
        """One LOS path: diag(8 pi^2 beta^2 SNR1, 2 Es c^2 / N0), zero cross."""
        w = _pulse()
        ch = MultipathChannel([3e-9], [1.3])
        psi = psi_matrix(w, ch).array
        beta = effective_bandwidth(w)
        snr1 = first_path_snr(w, ch)
        u2 = 8.0 * math.pi**2 * beta**2 * snr1
        assert abs(psi[0, 0] - u2) < 1e-9 * u2
        amp_info = 2.0 * w.energy * w.c**2 / (2.0 * w.n0_half)
        assert abs(psi[1, 1] - amp_info) < 1e-9 * amp_info
        assert abs(psi[0, 1]) < 1e-6 * math.sqrt(psi[0, 0] * psi[1, 1])

    def test_disjoint_paths_zero_cross_blocks(self):
        """Arrivals separated far beyond the support do not couple at all."""
        w = _pulse()
        ch = MultipathChannel([0.0, 30.0 * SIGMA], [1.0, 0.8])
        psi = psi_matrix(w, ch).array
        np.testing.assert_array_equal(psi[:2, 2:], np.zeros((2, 2)))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        w = _pulse()
        for _ in range(20):
            L = int(rng.integers(1, 5))
            gaps = rng.uniform(0.2, 3.0, size=L - 1) * SIGMA
            delays = np.concatenate([[0.0], np.cumsum(gaps)])
            amps = rng.uniform(0.3, 1.5, size=L)
            psi = psi_matrix(w, MultipathChannel(delays, amps)).array
            np.testing.assert_array_equal(psi, psi.T)
            eigs = np.linalg.eigvalsh(psi)
            assert eigs[0] >= -1e-12 * eigs[-1]

    def test_matches_finite_difference_hessian(self):
        """Psi equals the finite-difference Hessian of the negative
        log-likelihood at the true parameters.

        With the noiseless observation the residual vanishes at the truth, so
        the Hessian of (1/N0) int (m(theta) - r)^2 reduces exactly to
        (2/N0) int dm dm^T; the signal partials are taken by central
        differences of the signal map itself. Fine sampling: both routes
        approximate the analytic correlations at O(dt^2), so agreement at
        1e-6 needs dt << sigma.
        """
        w = gaussian_pulse(SIGMA, dt=SIGMA / 4096, span=9.0, c=C)
        ch = MultipathChannel([0.0, 0.9 * SIGMA], [1.0, -0.7])
        psi = psi_matrix(w, ch).array

        pad = 16.0 * w.dt
        lo = ch.delays.min() + w.times[0] - pad
        hi = ch.delays.max() + w.times[-1] + pad
        t = lo + w.dt * np.arange(int(round((hi - lo) / w.dt)) + 1)

        def signal(theta):
            tau1, a1t, tau2, a2t = theta
            return w.c * a1t * w.sample_at(t - tau1) + w.c * a2t * w.sample_at(t - tau2)

        theta0 = np.array(
            [ch.delays[0], ch.amplitudes[0] / w.c, ch.delays[1], ch.amplitudes[1] / w.c]
        )
        n0 = 2.0 * w.n0_half
        steps = np.array([2 * w.dt, 1e-4 / w.c, 2 * w.dt, 1e-4 / w.c])
        partials = []
        for i in range(4):
            ei = np.zeros(4)
            ei[i] = steps[i]
            partials.append((signal(theta0 + ei) - signal(theta0 - ei)) / (2.0 * steps[i]))
        weights = np.full(t.size, w.dt)
        weights[0] = weights[-1] = 0.5 * w.dt
        hess = np.zeros((4, 4))
        for i in range(4):
            for j in range(i, 4):
                hess[i, j] = hess[j, i] = (2.0 / n0) * float(
                    np.sum(weights * partials[i] * partials[j])
                )

        scale = np.max(np.abs(psi))
        np.testing.assert_allclose(psi, hess, atol=1e-6 * scale)


class TestPathOverlapChi:
    def test_single_path_zero(self):
        chi = path_overlap_chi(psi_matrix(_pulse(), MultipathChannel([0.0], [1.0])))
        assert chi < 1e-9

    def test_disjoint_paths_zero(self):
        w = _pulse()
        psi = psi_matrix(w, MultipathChannel([0.0, 30.0 * SIGMA], [1.0, 1.0]))
        assert path_overlap_chi(psi) < 1e-9

    def test_heavy_overlap_in_open_interval(self):
        """Two equal arrivals a tenth of the support apart destroy most but
        not all first-path information; the value matches the brute-force
        reduction of the full Fisher matrix."""
        w = _pulse()
        delta = 0.1 * w.support_length
        ch = MultipathChannel([0.0, delta], [1.0, 1.0])
        psi = psi_matrix(w, ch)
        chi = path_overlap_chi(psi)
        assert 0.0 < chi < 1.0
        arr = psi.array
        schur = arr[0, 0] - arr[0, 1:] @ np.linalg.solve(arr[1:, 1:], arr[1:, 0])
        chi_oracle = 1.0 - schur / arr[0, 0]
        assert abs(chi - chi_oracle) < 1e-9

    def test_full_channel_equals_first_cluster(self):
        w = _pulse()
        full = MultipathChannel([0.0, 0.8 * SIGMA, 40.0 * SIGMA, 41.0 * SIGMA], [1.0, 0.6, 0.9, 0.4])
        cluster = first_contiguous_cluster(w, full)
        assert cluster.n_paths == 2
        chi_full = path_overlap_chi(psi_matrix(w, full))
        chi_cluster = path_overlap_chi(psi_matrix(w, cluster))
        assert abs(chi_full - chi_cluster) < 1e-8

    def test_coincident_paths_degenerate(self):
        w = _pulse()
        with pytest.raises(DegenerateChannelError):
            path_overlap_chi(psi_matrix(w, MultipathChannel([0.0, 0.0], [1.0, 1.0])))

    def test_nlos_rejected(self):
        w = _pulse()
        psi = psi_matrix(w, MultipathChannel([0.0], [1.0], los=False))
        with pytest.raises(ValueError):
            path_overlap_chi(psi)

    def test_chi_in_unit_interval_random(self):
        """Random overlapped channels; draws keep enough spacing and
        amplitude that the information stays numerically nonsingular."""
        rng = np.random.default_rng(6)
        w = _pulse()
        for _ in range(100):
            L = int(rng.integers(1, 5))
            gaps = rng.uniform(0.25, 2.5, size=L - 1) * SIGMA
            delays = np.concatenate([[0.0], np.cumsum(gaps)])
            amps = rng.choice([-1.0, 1.0], size=L) * rng.uniform(0.2, 1.5, size=L)
            amps[0] = rng.uniform(0.5, 1.5)
            chi = path_overlap_chi(psi_matrix(w, MultipathChannel(delays, amps)))
            assert 0.0 <= chi <= 1.0


class TestFirstContiguousCluster:
    def test_chaining(self):
        """Arrivals chain while consecutive gaps stay below the support."""
        w = _pulse()
        s = w.support_length
        ch = MultipathChannel([0.0, 0.8 * s, 1.6 * s, 4.0 * s], [1.0, 1.0, 1.0, 1.0])
        assert first_contiguous_cluster(w, ch).n_paths == 3

    def test_single(self):
        w = _pulse()
        ch = MultipathChannel([0.0, 2.0 * w.support_length], [1.0, 1.0])
        assert first_contiguous_cluster(w, ch).n_paths == 1


class TestRiiNoPrior:
    def test_nlos_zero(self):
        assert rii_no_prior(_pulse(), MultipathChannel([0.0], [1.0], los=False)) == 0.0

    def test_single_path_closed_form(self):
        w = _pulse()
        ch = MultipathChannel([2e-9], [1.0])
        lam = rii_no_prior(w, ch)
        beta = effective_bandwidth(w)
        expected = 8.0 * math.pi**2 * beta**2 * first_path_snr(w, ch) / C**2
        assert abs(lam - expected) < 1e-6 * expected

    def test_overlap_only_discounts(self):
        """Overlap never helps: lambda <= the single-path value at equal SNR."""
        rng = np.random.default_rng(8)
        w = _pulse()
        single = rii_no_prior(w, MultipathChannel([0.0], [1.0]))
        for _ in range(50):
            gap = rng.uniform(0.1, 3.0) * SIGMA
            amp2 = rng.uniform(-1.2, 1.2)
            lam = rii_no_prior(w, MultipathChannel([0.0, gap], [1.0, amp2]))
            assert lam <= single * (1.0 + 1e-9)

    def test_matches_full_fim_oracle(self):
        """Theorem-2-style value vs the brute-force full-FIM reduction."""
        rng = np.random.default_rng(9)
        w = _pulse()
        for _ in range(50):
            gap = rng.uniform(0.2, 3.0) * SIGMA
            amps = [rng.uniform(0.5, 1.5), rng.uniform(-1.2, 1.2)]
            ch = MultipathChannel([0.0, gap], amps)
            lam = rii_no_prior(w, ch)
            oracle = full_fim_rii_oracle(w, ch)
            assert abs(lam - oracle) < 1e-6 * max(oracle, 1e-30)

    def test_invariant_to_paths_outside_cluster(self):
        w = _pulse()
        base = MultipathChannel([0.0, 0.7 * SIGMA], [1.0, 0.8])
        lam = rii_no_prior(w, base)
        extended = MultipathChannel([0.0, 0.7 * SIGMA, 50.0 * SIGMA], [1.0, 0.8, 1.4])
        lam_ext = rii_no_prior(w, extended)
        assert abs(lam_ext - lam) < 1e-8 * lam


class TestRiiWithChannelPrior:
    def test_known_bias_limit_reproduces_no_prior(self):
        """Zero prior blocks plus the near-infinite first-bias information
        term reproduce the prior-free value."""
        w = _pulse()
        ch = MultipathChannel([0.0, 0.9 * SIGMA], [1.0, 0.7])
        psi = psi_matrix(w, ch)
        lam_prior = rii_with_channel_prior(psi, known_los_bias_prior(psi))
        lam = rii_no_prior(w, ch)
        assert abs(lam_prior - lam) < 1e-5 * lam

    def test_nlos_with_prior_positive(self):
        """Bias priors re-enable the contribution of NLOS signals."""
        w = _pulse()
        ch = MultipathChannel([0.0], [1.0], los=False)
        psi = psi_matrix(w, ch)
        xi_kk = np.zeros((2, 2))
        xi_kk[0, 0] = 1.0  # some knowledge of the bias, in 1/m^2
        prior = ChannelPriorBlocks(xi_dd=0.0, xi_dk=np.zeros(2), xi_kk=xi_kk)
        assert rii_with_channel_prior(psi, prior) > 0.0

    def test_perfect_channel_knowledge_limit(self):
        w = _pulse()
        ch = MultipathChannel([0.0, 0.6 * SIGMA], [1.0, 0.5])
        psi = psi_matrix(w, ch)
        scale = float(np.trace(psi.array)) / psi.array.shape[0] / w.c**2
        prior = ChannelPriorBlocks(
            xi_dd=0.0, xi_dk=np.zeros(4), xi_kk=1e14 * scale * np.eye(4)
        )
        lam = rii_with_channel_prior(psi, prior)
        sel = np.array([1.0, 0.0, 1.0, 0.0])
        expected = float(sel @ psi.array @ sel) / w.c**2
        assert abs(lam - expected) < 1e-4 * expected

    def test_monotone_in_prior_information(self):
        """Scaling up the prior blocks never reduces the intensity."""
        w = _pulse()
        ch = MultipathChannel([0.0, 0.8 * SIGMA], [1.0, 0.9])
        psi = psi_matrix(w, ch)
        base = np.eye(4) / C**2
        lams = []
        for factor in (1e-2, 1.0, 1e2, 1e4):
            prior = ChannelPriorBlocks(xi_dd=0.0, xi_dk=np.zeros(4), xi_kk=factor * base)
            lams.append(rii_with_channel_prior(psi, prior))
        assert all(b >= a * (1.0 - 1e-10) for a, b in zip(lams, lams[1:]))

    @pytest.mark.parametrize(
        "weak, negative", [(1e-3, -5e-10), (2.0**-560, -(2.0**-560))], ids=["1e-3", "2^-560"]
    )
    def test_indefinite_prior_rejected(self, weak, negative):
        """PSD by ``InfoMatrix2``'s rule, relative to the composite's own
        trace: no absolute floor admits a negative eigenvalue of a weak
        prior."""
        with pytest.raises(ValueError, match="channel prior information must be PSD"):
            ChannelPriorBlocks(xi_dd=weak, xi_dk=np.zeros(2), xi_kk=np.diag([negative, 0.0]))

    def test_prior_shape_mismatch(self):
        w = _pulse()
        psi = psi_matrix(w, MultipathChannel([0.0], [1.0]))
        with pytest.raises(ValueError):
            rii_with_channel_prior(
                psi, ChannelPriorBlocks(xi_dd=0.0, xi_dk=np.zeros(4), xi_kk=np.zeros((4, 4)))
            )


class TestRiiPathloss:
    def test_basic_value(self):
        assert rii_pathloss(2.0, 1.0, z=1.0) == 0.25

    def test_annulus_indicator(self):
        assert rii_pathloss(0.5, 1.0, r0=1.0) == 0.0
        assert rii_pathloss(5.0, 1.0, rmax=4.0) == 0.0
        assert rii_pathloss(3.0, 1.0, r0=1.0, rmax=4.0) == 1.0 / 9.0

    def test_zero_fading(self):
        assert rii_pathloss(2.0, 1.0, z=0.0) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rii_pathloss(0.0, 1.0)
        with pytest.raises(ValueError):
            rii_pathloss(1.0, -1.0)

    @pytest.mark.parametrize("d", [1e200, 1e-200])
    def test_power_out_of_float_range_is_value_error(self, d):
        """d^(2b) overflowing, or underflowing to zero, is an input error,
        and the batch kernel raises the same one."""
        message = f"path-loss power d^(2b) = {d!r}^4.0 is out of float range"
        with pytest.raises(ValueError, match=re.escape(message)):
            rii_pathloss(d, 2.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            rii_pathloss_batch([1.0, d], 2.0)
