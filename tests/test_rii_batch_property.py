"""Differential tests of the array intensity kernels against their scalar
references: ``rii_no_prior_flat`` against ``rii_no_prior`` (bit for bit
where the reference returns, NaN where it raises) and ``rii_pathloss_batch``
against ``rii_pathloss`` (bit for bit, failures included: the first failing
input raises the same error class and message), and
``first_channel_fault`` against ``MultipathChannel``."""

import math

import numpy as np
import pytest

from locbounds.ranging import (
    MultipathChannel,
    WaveformModel,
    first_channel_fault,
    gaussian_pulse,
    rii_no_prior,
    rii_no_prior_flat,
    rii_pathloss,
    rii_pathloss_batch,
    sinc_pulse,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _monocycle(width: float = 1e-9) -> WaveformModel:
    dt = width / 64.0
    t = np.arange(-128, 129) * dt
    x = t / (0.25 * width)
    return WaveformModel(samples=-x * np.exp(-0.5 * x * x), dt=dt, t0=float(t[0]))


PULSES = (_monocycle(), gaussian_pulse(1e-9), sinc_pulse(1e9, span_lobes=8))


def _outcomes(fn, inputs):
    """``[fn(x) for x in inputs]`` as an array, or the error it raises."""
    try:
        return np.array([fn(*x) for x in inputs], dtype=float)
    except (ValueError, ArithmeticError) as exc:
        return exc


def _assert_same(got_fn, want):
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as got:
            got_fn()
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
    else:
        got = got_fn()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def _channels(draw, pulse):
    """1-4 path channels whose gaps sit around the pulse support length
    (chained into the first cluster or not); now and then two delays
    coincide, the first amplitude is zero or the link is NLOS."""
    support = pulse.support_length
    n_paths = draw(st.integers(1, 4))
    gap = st.one_of(
        st.sampled_from([0.0, 0.999999, 1.0, 1.000001]),
        st.floats(0.3, 2.0),
        st.floats(0.3, 2.0),
    ).map(lambda g: g * support)
    gaps = draw(st.lists(gap, min_size=n_paths - 1, max_size=n_paths - 1))
    first = draw(st.floats(0.0, 1e-6))
    amplitude = st.floats(0.05, 1e3).flatmap(lambda a: st.sampled_from([a, -a]))
    amps = draw(st.lists(amplitude, min_size=n_paths, max_size=n_paths))
    if draw(st.integers(0, 9)) == 0:
        amps[0] = 0.0
    delays = first + np.concatenate([[0.0], np.cumsum(gaps)])
    return MultipathChannel(delays, amps, los=draw(st.integers(0, 9)) > 0)


@st.composite
def _waveform_batches(draw):
    pulse = draw(st.sampled_from(PULSES))
    return pulse, draw(st.lists(_channels(pulse), min_size=1, max_size=8))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(batch=_waveform_batches())
def test_waveform_batch_matches_rii_no_prior(batch):
    """The flat kernel gives ``rii_no_prior`` bit for bit where it returns
    and NaN where it raises, past a failing channel too (the config loader
    then runs the reference on the NaN channels, in link order, for the
    first one's error)."""
    pulse, channels = batch
    one = [_outcomes(lambda ch: rii_no_prior(pulse, ch), [(ch,)]) for ch in channels]
    want = np.concatenate(
        [np.full(1, np.nan) if isinstance(r, Exception) else r for r in one]
    )
    got = rii_no_prior_flat(
        pulse,
        np.concatenate([ch.delays for ch in channels]),
        np.concatenate([ch.amplitudes for ch in channels]),
        [ch.n_paths for ch in channels],
        [ch.los for ch in channels],
    )
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def _raw_channels(draw):
    """Delay and amplitude lists as a config gives them: nondecreasing
    delays with as many amplitudes, but now and then the lengths differ
    (or are 0), an entry is NaN or infinite, or two delays fall."""
    n = draw(st.integers(1, 4))
    delays = sorted(draw(st.lists(st.floats(0.0, 1e-7), min_size=n, max_size=n)))
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    fault = draw(st.integers(0, 9))
    if fault == 0:
        amps = amps[: draw(st.integers(0, n - 1))] if draw(st.booleans()) else amps + [1.0]
    elif fault == 1:
        column = delays if draw(st.booleans()) else amps
        column[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif fault == 2 and n > 1:
        delays.reverse()
    return delays, amps


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(channels=st.lists(_raw_channels(), min_size=1, max_size=6))
def test_channel_checks_match_multipath_channel(channels):
    want = None
    for k, (delays, amps) in enumerate(channels):
        try:
            MultipathChannel(delays, amps)
        except ValueError as exc:
            want = (k, str(exc))
            break
    got = first_channel_fault(
        np.array([d for delays, _ in channels for d in delays], dtype=float),
        np.array([a for _, amps in channels for a in amps], dtype=float),
        [len(delays) for delays, _ in channels],
        [len(amps) for _, amps in channels],
    )
    assert got == want


@st.composite
def _pathloss_batches(draw):
    """Distances on and around the annulus edges, b in {0.5, 1, 1.5, 2} and
    zero fading draws; in some batches one distance is invalid, or makes the
    power overflow or underflow."""
    r0 = draw(st.sampled_from([0.0, 0.5, 2.0]))
    rmax = draw(st.sampled_from([None, 10.0, 50.0]))
    edges = [r0 or 1.0, rmax or 1e3]
    distance = st.one_of(st.sampled_from(edges), st.floats(1e-3, 1e3))
    n = draw(st.integers(1, 12))
    d = draw(st.lists(distance, min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        d[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.0, -1.0, 1e-200, 1e200]))
    b = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n))
    z = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e3)), min_size=n, max_size=n))
    return d, b, z, r0, rmax


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(batch=_pathloss_batches())
def test_pathloss_batch_matches_rii_pathloss(batch):
    d, b, z, r0, rmax = batch
    want = _outcomes(rii_pathloss, [(di, bi, zi, r0, rmax) for di, bi, zi in zip(d, b, z)])
    _assert_same(lambda: rii_pathloss_batch(d, b, z=z, r0=r0, rmax=rmax), want)


def test_pathloss_batch_matches_libm_pow_where_numpy_power_does_not():
    """With numpy 2.4 on glibc, ``np.power`` and Python's float ``pow``
    disagree in the last bit on about 5% of these inputs for b = 1.5 or 2,
    and on 0.08% for b = 1 (exponent 2.0); the array rule follows ``pow``."""
    d = np.random.default_rng(3).uniform(0.1, 100.0, 20_000)
    for b in (1.0, 1.5, 2.0):
        want = np.array([rii_pathloss(x, b) for x in d.tolist()])
        assert np.array_equal(rii_pathloss_batch(d, b).view(np.int64), want.view(np.int64))
