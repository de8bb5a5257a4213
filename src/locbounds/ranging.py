"""Ranging-information intensity from waveform and path-loss models.

A received waveform r(t) = sum_l alpha_l s(t - tau_l) + noise carries
one-dimensional position information along the transmitter bearing. Its
intensity lambda (1/m^2) follows from the Fisher information of the
delay/amplitude parameters:

- ``effective_bandwidth`` computes the RMS spectral width beta of the pulse,
  which governs delay information;
- ``psi_matrix`` assembles the 2L x 2L Gaussian-likelihood Fisher matrix in
  the scaled coordinates (tau_1, alpha_1/c, ..., tau_L, alpha_L/c);
- ``path_overlap_chi`` measures the fraction of first-path delay information
  destroyed by overlap with later arrivals (chi in [0, 1]);
- ``rii_no_prior`` yields lambda = 8 pi^2 beta^2 (1 - chi) SNR1 / c^2 for
  line-of-sight links (0 for NLOS), restricted to the first contiguous
  cluster of arrivals, the only paths that carry ranging information when no
  channel prior is available;
- ``rii_with_channel_prior`` evaluates the general reduction with
  user-supplied prior Fisher blocks over (d, kappa) where
  kappa = (b_1, alpha_1, ..., b_L, alpha_L);
- ``rii_pathloss`` is the parametric model lambda(r) = z / r^(2b) on
  [r0, rmax] used by the scaling experiments;
- ``rii_no_prior_flat`` and ``rii_pathloss_batch`` compute the same
  intensities for many links at once, bit for bit, with the scalar
  functions as their references; ``rii_no_prior_flat`` reads channels as
  flat arrays (the config loader's form, checked by
  ``first_channel_fault`` with ``MultipathChannel``'s messages) and reads
  NaN where its scalar reference must decide; ``first_fault`` reports the
  first element failing a sequence of check masks, for the channel checks
  and ``network.first_link_fault``.

Unit audit: delays tau are seconds and distances meters, so the scaled
amplitude coordinate alpha/c makes every entry of the Psi matrix carry 1/s^2
and lambda = (information per squared second) / c^2 carries 1/m^2. Prior
blocks are expressed over (d, kappa) in meters, hence the c^2 factors that
pair them with Psi.

Pulses are uniformly sampled time series; correlations use trapezoidal
quadrature and pulse derivatives use central differences on the sample grid,
so no analytic pulse form is required. The sample step must resolve the
pulse (>= 16 samples per RMS width, validated at construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .infogeo import PSD_TOL

__all__ = [
    "SPEED_OF_LIGHT",
    "DegenerateChannelError",
    "WaveformModel",
    "MultipathChannel",
    "PsiMatrix",
    "RangingLink",
    "ChannelPriorBlocks",
    "gaussian_pulse",
    "sinc_pulse",
    "effective_bandwidth",
    "first_path_snr",
    "psi_matrix",
    "path_overlap_chi",
    "first_contiguous_cluster",
    "first_fault",
    "first_channel_fault",
    "rii_no_prior",
    "rii_no_prior_flat",
    "rii_with_channel_prior",
    "known_los_bias_prior",
    "rii_pathloss",
    "rii_pathloss_batch",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Fraction of pulse energy defining the support interval used to decide
# whether two arrivals are disjoint (pulses with infinite tails have no
# literal duration).
_SUPPORT_ENERGY = 0.9999

# Minimum samples per RMS pulse width; the Psi matrix needs accurate
# derivative correlations.
_MIN_SAMPLES_PER_RMS_WIDTH = 16

# Known LOS bias enters as prior information t^2 = this factor times the
# mean diagonal of the composite information, standing in for the exact
# infinite-information limit.
KNOWN_BIAS_INFO_FACTOR = 1e12

_CHI_CLAMP_TOL = 1e-6

# Longest observation window (samples) a link may need.
_MAX_WINDOW_SAMPLES = 20_000_000

# Most grid samples (links x padded window) ``rii_no_prior_flat`` builds at
# once: its 2L + 4 working arrays of that size stay under 400 KiB for L = 4,
# so batching adds no peak memory (larger chunks were no faster).
_BATCH_SAMPLES = 1 << 12


class DegenerateChannelError(ValueError):
    """Raised when a channel's Fisher information is singular (e.g. two
    paths with identical delay), so the overlap reduction is undefined."""


@dataclass(frozen=True)
class WaveformModel:
    """Sampled transmit pulse plus noise level and propagation speed.

    ``samples`` holds s(t) on a uniform grid starting at ``t0`` with step
    ``dt`` (seconds). ``n0_half`` is the two-sided noise PSD level N0/2.
    """

    samples: np.ndarray
    dt: float
    n0_half: float = 1.0
    c: float = SPEED_OF_LIGHT
    t0: float = 0.0

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 8:
            raise ValueError("pulse must be a 1-D array with at least 8 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("pulse samples must be finite")
        if self.dt <= 0.0 or self.n0_half <= 0.0 or self.c <= 0.0:
            raise ValueError("dt, n0_half and c must be positive")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.energy <= 0.0:
            raise ValueError("pulse energy must be positive")
        if self.rms_width / self.dt < _MIN_SAMPLES_PER_RMS_WIDTH:
            raise ValueError(
                f"pulse is undersampled: {self.rms_width / self.dt:.1f} samples per "
                f"RMS width, need >= {_MIN_SAMPLES_PER_RMS_WIDTH}"
            )

    @cached_property
    def times(self) -> np.ndarray:
        t = self.t0 + self.dt * np.arange(self.samples.size)
        t.flags.writeable = False
        return t

    @cached_property
    def energy(self) -> float:
        """Pulse energy integral of s^2 dt."""
        return float(np.trapezoid(self.samples**2, dx=self.dt))

    @cached_property
    def derivative(self) -> np.ndarray:
        """ds/dt by central differences (one-sided at the ends)."""
        d = np.gradient(self.samples, self.dt)
        d.flags.writeable = False
        return d

    @cached_property
    def rms_width(self) -> float:
        """RMS width of the energy density s(t)^2."""
        w = self.samples**2
        total = float(np.trapezoid(w, dx=self.dt))
        mean = float(np.trapezoid(self.times * w, dx=self.dt)) / total
        var = float(np.trapezoid((self.times - mean) ** 2 * w, dx=self.dt)) / total
        return math.sqrt(max(var, 0.0))

    @cached_property
    def support(self) -> tuple[float, float]:
        """Interval holding the central ``_SUPPORT_ENERGY`` of the energy."""
        w = self.samples**2
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * self.dt)])
        total = cum[-1]
        tail = 0.5 * (1.0 - _SUPPORT_ENERGY) * total
        lo = int(np.searchsorted(cum, tail, side="right")) - 1
        hi = int(np.searchsorted(cum, total - tail, side="left"))
        lo = max(lo, 0)
        hi = min(hi, self.samples.size - 1)
        return float(self.times[lo]), float(self.times[hi])

    @property
    def support_length(self) -> float:
        lo, hi = self.support
        return hi - lo

    def sample_at(self, t: np.ndarray) -> np.ndarray:
        """Evaluate s(t) by linear interpolation, zero outside the grid."""
        return np.interp(t, self.times, self.samples, left=0.0, right=0.0)

    def derivative_at(self, t: np.ndarray) -> np.ndarray:
        """Evaluate ds/dt by linear interpolation, zero outside the grid."""
        return np.interp(t, self.times, self.derivative, left=0.0, right=0.0)


def gaussian_pulse(
    sigma: float,
    dt: Optional[float] = None,
    span: float = 8.0,
    n0_half: float = 1.0,
    c: float = SPEED_OF_LIGHT,
) -> WaveformModel:
    """Unit-energy Gaussian pulse with RMS energy width ``sigma`` seconds.

    The sampled shape is exp(-t^2 / (4 sigma^2)), whose energy density has
    standard deviation sigma; its effective bandwidth is 1 / (4 pi sigma).
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    dt = sigma / 32.0 if dt is None else dt
    t = np.arange(-span * sigma, span * sigma + 0.5 * dt, dt)
    s = np.exp(-(t**2) / (4.0 * sigma**2))
    s = s / math.sqrt(float(np.trapezoid(s**2, dx=dt)))
    return WaveformModel(samples=s, dt=dt, n0_half=n0_half, c=c, t0=float(t[0]))


def sinc_pulse(bandwidth: float, span_lobes: int = 64) -> WaveformModel:
    """Unit-energy sinc pulse with two-sided bandwidth ``bandwidth`` Hz,
    sampled at 64 points per lobe."""
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    lobe = 1.0 / bandwidth  # zero-crossing spacing of sinc(W t)
    dt = lobe / 64.0
    t = np.arange(-span_lobes * lobe, span_lobes * lobe + 0.5 * dt, dt)
    s = np.sinc(bandwidth * t)
    s = s / math.sqrt(float(np.trapezoid(s**2, dx=dt)))
    return WaveformModel(samples=s, dt=dt, t0=float(t[0]))


@dataclass(frozen=True)
class MultipathChannel:
    """Arrival delays and amplitudes of one link; LOS means zero first bias."""

    delays: np.ndarray
    amplitudes: np.ndarray
    los: bool = True

    def __post_init__(self) -> None:
        delays = np.array(self.delays, dtype=float).reshape(-1)
        amps = np.array(self.amplitudes, dtype=float).reshape(-1)
        if delays.size < 1 or delays.size != amps.size:
            raise ValueError("need L >= 1 delays with matching amplitudes")
        if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(amps))):
            raise ValueError("delays and amplitudes must be finite")
        if np.any(np.diff(delays) < 0.0):
            raise ValueError("delays must be nondecreasing")
        delays.flags.writeable = False
        amps.flags.writeable = False
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_paths(self) -> int:
        return self.delays.size


def first_fault(checks) -> Optional[tuple[int, str]]:
    """(index, message) of the first element that fails any of ``checks``,
    with the message of the first check it fails; None if none fails.
    ``checks`` is a sequence of (mask, message) pairs over the same
    elements, each mask True where an element fails that check."""
    fails = np.array([mask for mask, _ in checks]).reshape(len(checks), -1)
    at = np.flatnonzero(fails.any(axis=0))
    if not at.size:
        return None
    return int(at[0]), checks[int(np.argmax(fails[:, at[0]]))][1]


def first_channel_fault(delays, amplitudes, n_delays, n_amplitudes) -> Optional[tuple[int, str]]:
    """(index, message) of the first channel that fails ``MultipathChannel``'s
    checks, in its order, run on flat arrays: channel k holds the next
    ``n_delays[k]`` of ``delays`` and the next ``n_amplitudes[k]`` of
    ``amplitudes``. None if every channel passes."""
    n_delays = np.asarray(n_delays, dtype=np.intp)
    n_amplitudes = np.asarray(n_amplitudes, dtype=np.intp)
    d_end, a_end = np.cumsum(n_delays), np.cumsum(n_amplitudes)

    def any_per_channel(flags, end, n):
        total = np.concatenate(([0], np.cumsum(flags)))
        return total[end] > total[end - n]

    falling = np.zeros(len(delays), dtype=bool)
    falling[1:] = np.diff(delays) < 0.0
    falling[(d_end - n_delays)[n_delays > 0]] = False  # a channel's first delay
    checks = (
        (
            (n_delays < 1) | (n_delays != n_amplitudes),
            "need L >= 1 delays with matching amplitudes",
        ),
        (
            any_per_channel(~np.isfinite(delays), d_end, n_delays)
            | any_per_channel(~np.isfinite(amplitudes), a_end, n_amplitudes),
            "delays and amplitudes must be finite",
        ),
        (any_per_channel(falling, d_end, n_delays), "delays must be nondecreasing"),
    )
    return first_fault(checks)


@dataclass(frozen=True)
class PsiMatrix:
    """Fisher information of one waveform over (tau_l, alpha_l / c) pairs.

    Symmetric PSD, 2L x 2L; the (0, 0) entry equals
    8 pi^2 beta^2 SNR1 up to quadrature error. Carries the propagation
    speed and LOS flag of the link it came from.
    """

    array: np.ndarray
    c: float
    los: bool

    def __post_init__(self) -> None:
        arr = np.array(self.array, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2 != 0:
            raise ValueError("Psi must be a 2L x 2L matrix")
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @property
    def n_paths(self) -> int:
        return self.array.shape[0] // 2


@dataclass(frozen=True)
class RangingLink:
    """Directed ranging observation: waveform received at ``from_id`` that was
    transmitted by ``to_id``, with intensity ``rii`` (1/m^2).

    ``phi`` and ``distance`` are normally derived from the endpoint
    positions; setting them explicitly overrides the geometry (used for
    mean-position evaluation and measured geometries). ``rii`` must be zero
    for NLOS links when no channel prior is available.
    """

    from_id: str
    to_id: str
    rii: float
    phi: Optional[float] = None
    distance: Optional[float] = None

    def __post_init__(self) -> None:
        if self.from_id == self.to_id:
            raise ValueError("a node cannot range against itself")
        if not math.isfinite(self.rii) or self.rii < 0.0:
            raise ValueError("rii must be finite and nonnegative")
        if self.phi is not None and not math.isfinite(self.phi):
            raise ValueError("phi override must be finite")
        if self.distance is not None and not (math.isfinite(self.distance) and self.distance > 0.0):
            raise ValueError("distance override must be finite and positive")


@dataclass(frozen=True)
class ChannelPriorBlocks:
    """Prior Fisher blocks over (d, kappa), kappa = (b_1, a_1, ..., b_L, a_L).

    No default prior family ships with the package; callers supply the
    blocks. The composite [[xi_dd, xi_dk], [xi_dk^T, xi_kk]] must be PSD.
    """

    xi_dd: float
    xi_dk: np.ndarray
    xi_kk: np.ndarray

    def __post_init__(self) -> None:
        xi_dk = np.array(self.xi_dk, dtype=float).reshape(-1)
        xi_kk = np.array(self.xi_kk, dtype=float)
        n = xi_dk.size
        if xi_kk.shape != (n, n) or n % 2 != 0:
            raise ValueError("xi_kk must be 2L x 2L matching xi_dk")
        composite = np.zeros((n + 1, n + 1))
        composite[0, 0] = self.xi_dd
        composite[0, 1:] = xi_dk
        composite[1:, 0] = xi_dk
        composite[1:, 1:] = 0.5 * (xi_kk + xi_kk.T)
        eigs = np.linalg.eigvalsh(composite)
        if eigs[0] < -PSD_TOL * max(float(np.trace(composite)), 0.0):
            raise ValueError("channel prior information must be PSD")
        xi_dk.flags.writeable = False
        xi_kk.flags.writeable = False
        object.__setattr__(self, "xi_dk", xi_dk)
        object.__setattr__(self, "xi_kk", xi_kk)

    @property
    def n_paths(self) -> int:
        return self.xi_dk.size // 2


def effective_bandwidth(w: WaveformModel) -> float:
    """RMS spectral width beta (Hz) of the pulse.

    beta^2 = int f^2 |S|^2 df / int |S|^2 df, evaluated in the time domain
    via Parseval: 4 pi^2 beta^2 = int s'(t)^2 dt / int s(t)^2 dt. Invariant
    under time shifts of the pulse.
    """
    deriv_energy = float(np.trapezoid(w.derivative**2, dx=w.dt))
    return math.sqrt(deriv_energy / w.energy) / (2.0 * math.pi)


def first_path_snr(w: WaveformModel, ch: MultipathChannel) -> float:
    """SNR of the first arrival: |alpha_1|^2 * pulse energy / N0."""
    n0 = 2.0 * w.n0_half
    return float(ch.amplitudes[0] ** 2) * w.energy / n0


def _observation_grid(w: WaveformModel, ch: MultipathChannel, pad: float) -> np.ndarray:
    lo = float(ch.delays.min()) + w.times[0] - pad
    hi = float(ch.delays.max()) + w.times[-1] + pad
    n = int(round((hi - lo) / w.dt)) + 1
    if n > _MAX_WINDOW_SAMPLES:
        raise ValueError(
            "delay spread places arrivals outside a tractable observation "
            f"window ({n} samples at dt={w.dt})"
        )
    return lo + w.dt * np.arange(n)


def psi_matrix(w: WaveformModel, ch: MultipathChannel) -> PsiMatrix:
    """Assemble the waveform Fisher matrix over (tau_l, alpha_l / c) pairs.

    Entries are 2/N0 times cross-correlations of the signal partials; the
    whole matrix is built as a weighted Gram product, so it is symmetric PSD
    by construction. Arrivals separated by more than the pulse support
    produce exactly zero cross blocks.
    """
    t = _observation_grid(w, ch, pad=4.0 * w.dt)
    n0 = 2.0 * w.n0_half
    l_paths = ch.n_paths
    features = np.empty((2 * l_paths, t.size))
    for l in range(l_paths):
        shifted = t - ch.delays[l]
        features[2 * l] = -ch.amplitudes[l] * w.derivative_at(shifted)  # d/d tau_l
        features[2 * l + 1] = w.c * w.sample_at(shifted)  # d/d (alpha_l / c)
    weights = np.full(t.size, w.dt)
    weights[0] = weights[-1] = 0.5 * w.dt
    b = features * np.sqrt(weights * (2.0 / n0))
    return PsiMatrix(array=b @ b.T, c=w.c, los=ch.los)


def path_overlap_chi(psi: PsiMatrix) -> float:
    """Path-overlap coefficient chi in [0, 1].

    With Psi partitioned as [[u^2, k^T], [k, Psi_rest]] around the first
    delay coordinate, chi = k^T Psi_rest^-1 k / u^2: the fraction of
    first-path delay information destroyed by overlapping later arrivals.
    Computing chi on the full channel agrees with computing it on the first
    contiguous cluster only.
    """
    if not psi.los:
        raise ValueError("the overlap coefficient is defined for LOS channels")
    arr = psi.array
    u2 = arr[0, 0]
    if u2 <= 0.0:
        raise DegenerateChannelError("first-path delay information is zero")
    k = arr[1:, 0]
    rest = arr[1:, 1:]
    eigs = np.linalg.eigvalsh(rest)
    if eigs[0] <= 1e-13 * max(eigs[-1], 0.0):
        raise DegenerateChannelError(
            "channel Fisher information is singular (coincident or "
            "indistinguishable paths)"
        )
    chi = float(k @ np.linalg.solve(rest, k)) / u2
    if chi < -_CHI_CLAMP_TOL or chi > 1.0 + _CHI_CLAMP_TOL:
        raise DegenerateChannelError(f"overlap coefficient {chi} outside [0, 1]")
    return min(max(chi, 0.0), 1.0)


def first_contiguous_cluster(w: WaveformModel, ch: MultipathChannel) -> MultipathChannel:
    """Restrict a channel to its first contiguous cluster of arrivals.

    Consecutive arrivals are chained into the cluster while their spacing is
    below the pulse support length (the interval holding 99.99% of the pulse
    energy); later arrivals carry no ranging information without a channel
    prior.
    """
    support = w.support_length
    keep = 1
    for l in range(1, ch.n_paths):
        if ch.delays[l] - ch.delays[l - 1] < support:
            keep += 1
        else:
            break
    return MultipathChannel(ch.delays[:keep], ch.amplitudes[:keep], los=ch.los)


def rii_no_prior(w: WaveformModel, ch: MultipathChannel) -> float:
    """Ranging information intensity without channel priors (1/m^2).

    0 for NLOS. For LOS, lambda = 8 pi^2 beta^2 (1 - chi) SNR1 / c^2
    evaluated on the first contiguous cluster (later arrivals contribute
    nothing).
    """
    if not ch.los:
        return 0.0
    cluster = first_contiguous_cluster(w, ch)
    psi = psi_matrix(w, cluster)
    chi = path_overlap_chi(psi)
    return float(psi.array[0, 0]) * (1.0 - chi) / w.c**2


def rii_no_prior_flat(w: WaveformModel, delays, amplitudes, sizes, los) -> np.ndarray:
    """``rii_no_prior`` of many channels in one batched pass, bit for bit,
    NaN where the batch leaves a channel unresolved.

    Channel k holds the next ``sizes[k]`` of the flat ``delays`` and
    ``amplitudes``, valid as ``MultipathChannel`` requires
    (``first_channel_fault``), and is LOS where ``los[k]``. The LOS channels
    are grouped by the size of their first contiguous cluster. A group's
    observation grids and interpolated features are built together, padded
    only to the longest grid in a chunk of grids within 2x of each other;
    each Psi is the Gram product of its link's own unpadded samples, and the
    overlap coefficients come from batched ``eigvalsh`` and ``solve``, so
    every value rounds as in ``rii_no_prior``. A channel the batch does not
    resolve (window over the sample cap, singular information, chi outside
    [0, 1], a non-finite value) reads NaN: ``rii_no_prior`` on it gives its
    value or raises its error.
    """
    los = np.asarray(los, dtype=bool)
    sizes = np.asarray(sizes, dtype=np.intp)
    rii = np.zeros(los.size)
    los_at = np.flatnonzero(los)
    if not los_at.size:
        return rii
    paths = np.repeat(los, sizes)
    delays = np.asarray(delays, dtype=float)[paths]
    amps = np.asarray(amplitudes, dtype=float)[paths]
    sizes = sizes[los_at]
    starts = np.cumsum(sizes) - sizes
    # first_contiguous_cluster: arrivals chain while their gap is below the support
    ends = np.ones(delays.size, dtype=bool)
    ends[:-1] = ~(np.diff(delays) < w.support_length)
    ends[starts + sizes - 1] = True
    ends = np.flatnonzero(ends)
    keep = ends[np.searchsorted(ends, starts)] - starts + 1
    # _observation_grid of each cluster
    pad = 4.0 * w.dt
    lo = delays[starts] + w.times[0] - pad
    hi = delays[starts + keep - 1] + w.times[-1] + pad
    n_grid = np.rint((hi - lo) / w.dt) + 1.0

    n0 = 2.0 * w.n0_half
    edge, inner = np.sqrt(np.array([0.5 * w.dt, w.dt]) * (2.0 / n0))
    window_ok = n_grid <= _MAX_WINDOW_SAMPLES  # False for NaN too
    rii[los_at[~window_ok]] = np.nan
    n_grid = np.where(window_ok, n_grid, 0).astype(np.int64)
    for size in np.unique(keep).tolist():
        group = np.flatnonzero((keep == size) & window_ok)
        group = group[np.argsort(n_grid[group], kind="stable")]
        lengths = n_grid[group].tolist()
        psi = np.empty((group.size, 2 * size, 2 * size))
        first = 0
        while first < group.size:
            # a chunk holds grids at most 2x its shortest, and at most _BATCH_SAMPLES samples
            last = first + 1
            while (
                last < group.size
                and lengths[last] <= 2 * lengths[first]
                and (last - first + 1) * lengths[last] <= _BATCH_SAMPLES
            ):
                last += 1
            chunk = group[first:last]
            n_max = lengths[last - 1]
            t = lo[chunk, None] + w.dt * np.arange(n_max)
            b = np.empty((chunk.size, 2 * size, n_max))
            for l in range(size):
                shifted = t - delays[starts[chunk] + l, None]
                b[:, 2 * l] = -amps[starts[chunk] + l, None] * w.derivative_at(shifted)
                b[:, 2 * l + 1] = w.c * w.sample_at(shifted)
            scale = np.full((chunk.size, n_max), inner)
            scale[:, 0] = edge
            scale[np.arange(chunk.size), n_grid[chunk] - 1] = edge
            b *= scale[:, None, :]
            for j, n in enumerate(lengths[first:last]):
                own = b[j, :, :n]
                np.matmul(own, own.T, out=psi[first + j])
            first = last
        psi = 0.5 * (psi + psi.transpose(0, 2, 1))  # PsiMatrix's symmetrization
        rii[los_at[group]] = _no_prior_from_psi(psi, w.c)
    return rii


def _no_prior_from_psi(psi: np.ndarray, c: float) -> np.ndarray:
    """``rii_no_prior``'s reduction of a stack of LOS Psi matrices, each as
    ``path_overlap_chi`` computes it; NaN where that raises or a value is
    not finite."""
    out = np.full(psi.shape[0], np.nan)
    u2 = psi[:, 0, 0].tolist()
    ok = np.flatnonzero(np.isfinite(psi).all(axis=(1, 2)) & (psi[:, 0, 0] > 0.0))
    rest = psi[ok, 1:, 1:]
    try:
        eigs = np.linalg.eigvalsh(rest)
        regular = eigs[:, 0] > 1e-13 * np.maximum(eigs[:, -1], 0.0)
        x = np.linalg.solve(rest[regular], psi[ok[regular], 1:, :1])[..., 0]
    except np.linalg.LinAlgError:
        return out
    c2 = c**2
    for j, x_j in zip(ok[regular].tolist(), x):
        # psi[j, 1:, 0] is strided as path_overlap_chi's k, so the dot rounds alike
        chi = float(psi[j, 1:, 0] @ x_j) / u2[j]
        if not -_CHI_CLAMP_TOL <= chi <= 1.0 + _CHI_CLAMP_TOL:
            continue
        value = u2[j] * (1.0 - min(max(chi, 0.0), 1.0)) / c2
        if math.isfinite(value):
            out[j] = value
    return out


def rii_with_channel_prior(psi: PsiMatrix, prior: ChannelPriorBlocks) -> float:
    """Ranging information intensity with prior channel knowledge (1/m^2).

    Reduces the composite waveform-plus-prior Fisher information over
    (d, kappa) onto the distance d:

        lambda = (1/c^2) [ l^T Psi l + c^2 xi_dd
                           - v^T (Psi + c^2 xi_kk)^-1 v ],
        v = Psi l + c^2 xi_dk,  l = (1, 0, 1, 0, ...).

    With zero prior blocks plus the known-LOS-bias limit this reproduces
    ``rii_no_prior``; nonzero bias priors re-enable NLOS contributions; an
    infinitely informative prior yields the perfectly-known-channel value
    l^T Psi l / c^2.
    """
    if prior.n_paths != psi.n_paths:
        raise ValueError(
            f"prior covers {prior.n_paths} paths but Psi has {psi.n_paths}"
        )
    arr = psi.array
    c2 = psi.c**2
    sel = np.zeros(arr.shape[0])
    sel[0::2] = 1.0
    inner = arr + c2 * prior.xi_kk
    v = arr @ sel + c2 * prior.xi_dk
    try:
        factor = cho_factor(0.5 * (inner + inner.T), lower=True)
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError(
            "composite channel information Psi + c^2 xi_kk is singular"
        ) from exc
    quad = float(v @ cho_solve(factor, v))
    lam = (float(sel @ arr @ sel) + c2 * prior.xi_dd - quad) / c2
    return max(lam, 0.0)


def known_los_bias_prior(psi: PsiMatrix) -> ChannelPriorBlocks:
    """Prior blocks expressing an exactly known first-path bias (LOS).

    The infinite Fisher information of the known bias is stood in for by
    t^2 = ``KNOWN_BIAS_INFO_FACTOR`` times the mean diagonal of Psi
    expressed in distance units; all other blocks are zero.
    """
    n = psi.array.shape[0]
    scale = float(np.trace(psi.array)) / (n * psi.c**2)
    xi_kk = np.zeros((n, n))
    xi_kk[0, 0] = KNOWN_BIAS_INFO_FACTOR * max(scale, 1.0 / psi.c**2)
    return ChannelPriorBlocks(xi_dd=0.0, xi_dk=np.zeros(n), xi_kk=xi_kk)


def rii_pathloss(
    d: float,
    b: float,
    z: float = 1.0,
    r0: float = 0.0,
    rmax: Optional[float] = None,
) -> float:
    """Path-loss ranging intensity z / d^(2b) on the annulus [r0, rmax].

    ``z`` is a fading draw (deterministic 1 by default); outside the annulus
    the intensity is zero. ``rmax=None`` skips the outer cutoff. A power
    d^(2b) that overflows or underflows to zero raises ``ValueError``.
    """
    if d <= 0.0:
        raise ValueError("distance must be positive")
    if b <= 0.0:
        raise ValueError("amplitude loss exponent must be positive")
    if z < 0.0:
        raise ValueError("fading draw must be nonnegative")
    if d < r0:
        return 0.0
    if rmax is not None and d > rmax:
        return 0.0
    try:
        return z / d ** (2.0 * b)
    except (OverflowError, ZeroDivisionError):
        power = f"{d!r}^{2.0 * b!r}"
        raise ValueError(f"path-loss power d^(2b) = {power} is out of float range") from None


def rii_pathloss_batch(d, b, z=1.0, r0=0.0, rmax=None) -> np.ndarray:
    """``rii_pathloss`` element by element, bit for bit.

    ``b``, ``z``, ``r0`` and ``rmax`` are scalars or arrays shaped like the
    distances ``d``; ``rmax`` None or infinite skips the outer cutoff. The
    annulus and argument checks run on arrays, but the power runs through
    Python's float ``pow`` (the C library's) one element at a time:
    ``np.power`` rounds differently on about 5% of inputs (0.08% for
    exponent 2.0). When an element fails (a check, or a power that
    overflows or underflows to zero), ``rii_pathloss`` runs on every
    element, so the first failing one raises exactly what a one-at-a-time
    loop raises.
    """
    d = np.asarray(d, dtype=float)
    b, z, r0, rmax = (
        np.broadcast_to(np.asarray(v, dtype=float), d.shape)
        for v in (b, z, r0, np.inf if rmax is None else rmax)
    )
    rii = np.zeros(d.shape)
    invalid = (d <= 0.0) | (b <= 0.0) | (z < 0.0)
    inside = np.flatnonzero(~(invalid | (d < r0) | (d > rmax)))
    try:
        power = np.fromiter(
            map(pow, d.flat[inside].tolist(), (2.0 * b.flat[inside]).tolist()),
            dtype=float,
            count=inside.size,
        )
    except OverflowError:
        power = None
    if invalid.any() or power is None or not power.all():
        args = (v.ravel().tolist() for v in (d, b, z, r0, rmax))
        return np.reshape([rii_pathloss(*a) for a in zip(*args)], d.shape)
    # a subnormal power overflows the quotient to inf, which the callers'
    # finite-intensity check reports with the link's path
    with np.errstate(over="ignore"):
        rii.flat[inside] = z.flat[inside] / power
    return rii
