"""Preamble construction, timing acquisition, and CFO estimation tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from zakotfs import sync
from zakotfs.sync import (
    Preamble,
    correct,
    detect_timing,
    estimate_cfo,
    kay_cfo,
    make_preamble,
    shape_preamble,
)
from zakotfs.waveform import AnalogSignal, PulseShape, phase_ramp
from zakotfs.zak import fast_len

RATE = 7.68e6
B = RATE / 4
Q = 4


def embed(template, offset, total, seed=None, noise=0.0):
    """Place a template at `offset` inside a zero or noisy buffer."""
    buf = np.zeros(total, dtype=complex)
    buf[offset:offset + template.size] = template
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        buf = buf + np.sqrt(noise / 2) * (
            rng.standard_normal(total) + 1j * rng.standard_normal(total))
    return AnalogSignal(samples=buf, rate=RATE, start=0)


def chip_train(pre, q=Q):
    """The zero-stuffed chips at q samples per chip, as a template with chip 0 at t = 0."""
    chips = np.zeros(pre.length * q, dtype=complex)
    chips[::q] = pre.samples
    return AnalogSignal(samples=chips, rate=RATE, start=0)


class TestMakePreamble:
    """Zadoff-Chu generation and its constraints."""

    def test_short_sequence_values(self):
        """Length 4, root 1: x[n] = exp(-j pi n^2 / 4) spelled out."""
        pre = make_preamble(length=4, root=1)
        expect = np.exp(-1j * np.pi * np.array([0, 1, 4, 9]) / 4)
        assert np.allclose(pre.samples, expect, atol=1e-15)

    def test_constant_modulus(self):
        pre = make_preamble()
        assert np.allclose(np.abs(pre.samples), 1.0, atol=1e-12)

    def test_periodic_autocorrelation_sidelobes(self):
        """Off-peak circular autocorrelation stays below 5% of the peak."""
        pre = make_preamble()
        spec = np.fft.fft(pre.samples)
        acorr = np.fft.ifft(spec * np.conj(spec))
        assert abs(acorr[0]) == pytest.approx(pre.length, rel=1e-9)
        assert np.max(np.abs(acorr[1:])) <= 0.05 * pre.length

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_preamble(length=255, root=25)

    def test_shared_factor_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            make_preamble(length=256, root=32)

    def test_defaults(self):
        pre = make_preamble()
        assert pre.length == 256
        assert pre.root == 25

    def test_value_is_length_and_root(self):
        """Equal (length, root) means equal and hash-equal, whatever the instance."""
        pre = make_preamble()
        assert pre == Preamble(256, 25) and hash(pre) == hash(Preamble(256, 25))
        assert pre != Preamble(256, 27)
        assert not pre.samples.flags.writeable
        assert pre.samples is pre.samples


class TestDetectTiming:
    """Normalized cross-correlation peak search."""

    def test_raw_template_exact_offset(self):
        template = chip_train(make_preamble())
        rx = embed(template.samples, 500, 4096)
        res = detect_timing(rx, template)
        assert res.start_index == 500
        assert res.detected
        assert res.peak_metric == pytest.approx(1.0, abs=1e-6)

    def test_shaped_template_reports_chip_zero(self):
        """With pulse shaping the index still lands on chip 0, not the tail."""
        pre = make_preamble()
        shape = PulseShape(family="rrc", beta=0.5, w1_span=16)
        shaped = shape_preamble(pre, shape, B, Q)
        offset = 777
        rx = embed(shaped.samples, offset, 6000)
        res = detect_timing(rx, shaped)
        assert res.start_index == offset + shape.reach() * Q

    def test_shift_equivariance(self):
        template = chip_train(make_preamble())
        a = detect_timing(embed(template.samples, 300, 4096), template)
        b = detect_timing(embed(template.samples, 300 + 123, 4096), template)
        assert b.start_index - a.start_index == 123

    def test_noise_only_buffer_rejected_by_threshold(self):
        template = chip_train(make_preamble())
        rng = np.random.default_rng(11)
        noise = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        rx = AnalogSignal(samples=noise, rate=RATE, start=0)
        res = detect_timing(rx, template, threshold=0.3)
        assert not res.detected
        assert res.peak_metric < 0.3

    def test_low_snr_timing(self):
        """At 0 dB chip SNR the peak stays within one oversample."""
        template = chip_train(make_preamble())
        hits = 0
        for trial in range(50):
            # Chip energy 1 spread over Q samples; noise_psd 1/Q gives 0 dB.
            rx = embed(template.samples, 1000, 6000, seed=trial, noise=1.0 / Q)
            res = detect_timing(rx, template)
            hits += abs(res.start_index - 1000) <= 1
        assert hits == 50

    def test_buffer_shorter_than_template_rejected(self):
        rx = AnalogSignal(samples=np.zeros(100), rate=RATE, start=0)
        with pytest.raises(ValueError, match="cannot hold"):
            detect_timing(rx, chip_train(make_preamble()))


def convolve_timing_oracle(rx, template):
    """detect_timing's metric with the window energies as a direct sum."""
    corr = fftconvolve(rx, np.conj(template[::-1]), mode="valid")
    power = np.convolve(np.abs(rx) ** 2, np.ones(template.size), mode="valid")
    peak_power = np.max(power)
    if peak_power <= 0.0:
        return 0, 0.0
    tnorm = np.sqrt(np.sum(np.abs(template) ** 2))
    metric = np.abs(corr) / (tnorm * np.sqrt(np.maximum(power, 1e-12 * peak_power)))
    lag = int(np.argmax(metric))
    return lag, float(metric[lag])


class TestTimingEnergyNormalizer:
    """The running-sum window energies against a direct convolution."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           total=st.integers(32, 400),
           offset=st.floats(0.0, 1.0),
           amp=st.floats(0.0, 4.0),
           scale=st.sampled_from([1e-6, 1.0, 1e6]),
           silences=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.25)),
                             max_size=3))
    def test_matches_convolution_oracle(self, seed, total, offset, amp, scale,
                                        silences):
        template = chip_train(make_preamble(length=16, root=1), q=2)
        chips = template.samples
        rng = np.random.default_rng(seed)
        buf = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        at = int(offset * (total - chips.size))
        buf[at:at + chips.size] += amp * chips
        for start, width in silences:
            lo = int(start * total)
            buf[lo:lo + int(width * total)] = 0.0
        buf *= scale
        res = detect_timing(AnalogSignal(samples=buf, rate=RATE, start=0), template)
        lag, peak = convolve_timing_oracle(buf, chips)
        assert res.start_index == lag
        assert res.peak_metric == pytest.approx(peak, rel=1e-9)

    def test_silent_buffer_is_not_detected(self):
        rx = AnalogSignal(samples=np.zeros(100), rate=RATE, start=0)
        res = detect_timing(rx, chip_train(make_preamble(length=16, root=1), q=2))
        assert not res.detected and res.peak_metric == 0.0


def running_sum_metric(rx, template):
    """detect_timing's metric over every lag, built out of place from a running sum.

    The correlation is circular over fast_len(rx.size) points, as there,
    and keeps the valid lags.
    """
    nfft = fast_len(rx.size)
    spectrum = np.fft.fft(rx, nfft) * np.fft.fft(np.conj(template[::-1]), nfft)
    corr = np.fft.ifft(spectrum, nfft)[template.size - 1:rx.size]
    energy = np.concatenate(([0.0], np.cumsum(np.abs(rx) ** 2)))
    power = energy[template.size:] - energy[:-template.size]
    tnorm = np.sqrt(np.sum(np.abs(template) ** 2))
    floor = 1e-12 * float(np.max(power))
    return np.abs(corr) / (tnorm * np.sqrt(np.maximum(power, floor)))


def running_sum_timing_oracle(rx, template):
    """detect_timing's lag and peak from the out-of-place metric."""
    metric = running_sum_metric(rx, template)
    lag = int(np.argmax(metric))
    return lag, float(metric[lag])


def even_preambles():
    """An even length up to 60 and a root coprime to it."""
    return st.integers(1, 30).flatmap(lambda h: st.tuples(
        st.just(2 * h),
        st.sampled_from([r for r in range(1, 2 * h) if math.gcd(r, 2 * h) == 1])))


class TestTimingMetricInPlace:
    """The in-place metric repeats the out-of-place one, correlation included, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), preamble=even_preambles(),
           q=st.integers(1, 5), extra=st.integers(0, 2700),
           shaped=st.booleans(), amp=st.floats(0.05, 4.0))
    def test_matches_out_of_place_metric(self, seed, preamble, q, extra, shaped, amp):
        pre = make_preamble(*preamble)
        shape = PulseShape(family="rrc", beta=0.5, w1_span=4)
        signal = shape_preamble(pre, shape, RATE / q, q) if shaped else chip_train(pre, q)
        template = signal.samples
        rng = np.random.default_rng(seed)
        total = template.size + extra
        buf = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        at = int(rng.integers(0, extra + 1))
        buf[at:at + template.size] += amp * template
        res = detect_timing(AnalogSignal(samples=buf, rate=RATE, start=0), signal)
        lag, peak = running_sum_timing_oracle(buf, template)
        core = shape.reach() * q if shaped else 0
        assert (res.start_index, res.peak_metric) == (lag + core, peak)


def short_template(shaped):
    """A 16-chip preamble at q = 2 as a template, its samples and its chip 0."""
    pre = make_preamble(length=16, root=1)
    if not shaped:
        signal = chip_train(pre, q=2)
        return signal, signal.samples, 0
    shape = PulseShape(family="rrc", beta=0.5, w1_span=4)
    signal = shape_preamble(pre, shape, RATE / 2, 2)
    return signal, signal.samples, shape.reach() * 2


class TestSearchBound:
    """With last_start, only chip-0 indices up to it are searched."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 300),
           shaped=st.booleans(), at=st.floats(0.0, 1.0),
           noise=st.sampled_from([0.01, 1.0, 10.0]), near=st.booleans(),
           delta=st.integers(-3, 3), anywhere=st.integers(-8, 400))
    @example(seed=127, extra=170, shaped=True, at=0.3125, noise=0.01, near=True,
             delta=-2, anywhere=0)
    def test_lock_is_the_best_start_within_the_bound(self, seed, extra, shaped, at,
                                                     noise, near, delta, anywhere):
        signal, template, core = short_template(shaped)
        offset = int(at * extra)
        rx = embed(template, offset, template.size + extra, seed=seed, noise=noise)
        # Half the bounds sit next to the embedded chip 0, where an
        # off-by-one shows; the rest fall anywhere, past the buffer too.
        last_start = offset + core + delta if near else anywhere
        res = detect_timing(rx, signal, last_start=last_start)
        if last_start < core:
            assert not res.detected and res.peak_metric == 0.0
            return
        assert res.start_index <= last_start
        # The oracle correlates the same head of the buffer, so its FFT
        # length and every rounding match.
        head = last_start - core + template.size
        metric = running_sum_metric(rx.samples[:head], template)
        lag = int(np.argmax(metric))
        assert (res.start_index, res.peak_metric) == (lag + core, metric[lag])
        # Nothing past the last window the bound admits, however loud,
        # reaches the lock or its energy floor.
        loud = rx.samples.copy()
        loud[head:] = 1e9 * np.random.default_rng(seed).standard_normal(loud[head:].size)
        again = detect_timing(AnalogSignal(samples=loud, rate=RATE, start=0), signal,
                              last_start=last_start)
        assert again == res

    @pytest.mark.parametrize("shaped", [False, True])
    def test_bound_is_inclusive(self, shaped):
        signal, template, core = short_template(shaped)
        rx = embed(template, 40, 200, seed=5, noise=1e-4)
        chip0 = 40 + core
        at = detect_timing(rx, signal, last_start=chip0)
        assert at.start_index == chip0 and at.detected
        before = detect_timing(rx, signal, last_start=chip0 - 1)
        assert before.start_index < chip0 and before.peak_metric < at.peak_metric

    def test_bound_before_chip_zero_of_any_lag_is_a_miss(self):
        signal, template, core = short_template(True)
        rx = embed(template, 0, 200)
        assert detect_timing(rx, signal, last_start=core).detected
        res = detect_timing(rx, signal, last_start=core - 1)
        assert not res.detected and res.peak_metric == 0.0


class TestKayCfo:
    """Weighted phase-increment frequency estimation."""

    def test_pure_tone_exact(self):
        n = np.arange(256)
        f = 1234.5
        x = np.exp(2j * np.pi * f * n / RATE)
        assert kay_cfo(x, RATE) == pytest.approx(f, abs=1e-6)

    def test_zero_frequency(self):
        assert kay_cfo(np.ones(64), RATE) == 0.0

    def test_amplitude_invariance(self):
        n = np.arange(128)
        x = np.exp(2j * np.pi * 0.01 * n)
        assert kay_cfo(7.3 * x, RATE) == pytest.approx(kay_cfo(x, RATE), abs=1e-9)

    def test_unbiased_over_frequency_grid(self):
        """Exactness holds across the unambiguous band, both signs."""
        n = np.arange(200)
        for frac in (-0.3, -0.05, 0.02, 0.25, 0.45):
            x = np.exp(2j * np.pi * frac * n)
            assert kay_cfo(x, 1.0) == pytest.approx(frac, abs=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="two samples"):
            kay_cfo(np.ones(1), RATE)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            kay_cfo(np.ones(8), 0.0)


class TestEstimateCfo:
    """Block-correlation CFO readout against the known template."""

    def _received(self, cfo, paths=None, noise=0.0, seed=0):
        """Shaped preamble through optional two-path fading plus CFO."""
        from zakotfs.channel import ImpairmentSpec, add_noise, apply_impairments, apply_paths
        pre = make_preamble()
        shape = PulseShape(family="rrc", beta=0.5, w1_span=16)
        shaped = shape_preamble(pre, shape, B, Q)
        pad = 256
        buf = np.zeros(shaped.samples.size + 2 * pad, dtype=complex)
        buf[pad:pad + shaped.samples.size] = shaped.samples
        sig = AnalogSignal(samples=buf, rate=RATE, start=shaped.start - pad)
        if paths:
            sig = apply_paths(sig, paths)
        rng = np.random.default_rng(seed) if noise > 0 else None
        sig = add_noise(apply_impairments(sig, ImpairmentSpec(eps0=cfo)), noise, rng)
        chip0 = pad + shape.reach() * Q
        return sig, shaped, chip0

    def test_single_path_noiseless(self):
        sig, shaped, chip0 = self._received(cfo=300.0)
        got = estimate_cfo(sig, shaped, Q, chip0)
        assert got == pytest.approx(300.0, abs=0.5)

    def test_two_path_echo_tolerated(self):
        """A strong echo must not drag the estimate off by a chip rate."""
        from zakotfs.channel import PathSpec
        paths = [PathSpec(gain=1.0, delay=0.0, doppler=0.0),
                 PathSpec(gain=0.7 * np.exp(0.4j), delay=2.0 / B, doppler=0.0)]
        sig, shaped, chip0 = self._received(cfo=300.0, paths=paths)
        got = estimate_cfo(sig, shaped, Q, chip0)
        # A strong echo leaves a bias of a few percent of one Doppler
        # bin (469 Hz here), far inside the correction budget.
        assert got == pytest.approx(300.0, abs=25.0)

    def test_noisy_estimate_tracks(self):
        """20 dB, 7.5 kHz offset: small mean relative error over trials."""
        errs = []
        for seed in range(20):
            sig, shaped, chip0 = self._received(
                cfo=7500.0, noise=0.01 * Q, seed=seed)
            got = estimate_cfo(sig, shaped, Q, chip0)
            errs.append(abs(got - 7500.0) / 7500.0)
        assert np.mean(errs) < 0.03

    def test_raw_template_variant(self):
        template = chip_train(make_preamble())
        rx = embed(template.samples, 100, 3000)
        t = (rx.start + np.arange(rx.samples.size)) / rx.rate
        rot = AnalogSignal(samples=rx.samples * np.exp(2j * np.pi * 500.0 * t),
                           rate=RATE, start=0)
        assert estimate_cfo(rot, template, Q, 100) == pytest.approx(500.0, abs=1.0)

    def test_window_bounds_checked(self):
        rx = AnalogSignal(samples=np.zeros(900), rate=RATE, start=0)
        with pytest.raises(ValueError, match="outside the buffer"):
            estimate_cfo(rx, chip_train(make_preamble()), Q, 100)

    def test_short_preamble_rejected(self):
        """Kay's estimator needs two block sums: 2 * CFO_BLOCK_CHIPS chips."""
        rx = AnalogSignal(samples=np.zeros(2048), rate=RATE, start=0)
        short = make_preamble(length=2 * sync.CFO_BLOCK_CHIPS - 2, root=1)
        with pytest.raises(ValueError, match="fewer than two CFO blocks"):
            estimate_cfo(rx, chip_train(short), Q, 0)
        enough = make_preamble(length=2 * sync.CFO_BLOCK_CHIPS, root=1)
        assert estimate_cfo(rx, chip_train(enough), Q, 0) == 0.0


class TestCorrect:
    """Trim plus derotation by an acquired start index and CFO."""

    def test_noop_sync_is_identity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        sig = AnalogSignal(samples=x, rate=RATE, start=0)
        out = correct(sig, 0, 0.0)
        assert np.array_equal(out.samples, sig.samples)

    def test_zero_offset_is_identity_on_any_grid(self):
        """A 0 Hz ramp is exactly 1 for any length, trim and time origin."""
        rng = np.random.default_rng(14)
        x = rng.standard_normal(1001) + 1j * rng.standard_normal(1001)
        sig = AnalogSignal(samples=x, rate=RATE, start=-37)
        out = correct(sig, 5, 0.0)
        assert out.samples.tobytes() == x[5:].tobytes()

    @settings(max_examples=80, deadline=None)
    @example(freq=0.0, n=1001, start=-37, phase=0.0)
    @given(freq=st.floats(-5e4, 5e4), n=st.integers(0, 30_000),
           start=st.integers(-40_000, 40_000),
           phase=st.floats(-np.pi, np.pi, exclude_max=True))
    def test_phase_ramp_matches_direct_exp(self, freq, n, start, phase):
        """The outer-product ramp is within a few ulp of the largest phase."""
        got = phase_ramp(freq, start, RATE, n, phase)
        want = np.exp(1j * (2 * np.pi * freq * ((start + np.arange(n)) / RATE) + phase))
        assert got.shape == (n,)
        ulp = np.finfo(float).eps * (
            1.0 + abs(phase) + 2 * np.pi * abs(freq) * max(abs(start), abs(start + n)) / RATE)
        assert np.max(np.abs(got - want), initial=0.0) <= 4 * ulp
        if freq == 0 and phase == 0:
            assert np.all(got == 1.0)

    def test_exact_undo_of_synthetic_impairment(self):
        """Correcting with the true offset and CFO restores the signal."""
        rng = np.random.default_rng(13)
        clean = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        shift, cfo = 37, 1700.0
        buf = np.concatenate([np.zeros(shift), clean])
        t = np.arange(buf.size) / RATE
        rx = AnalogSignal(samples=buf * np.exp(2j * np.pi * cfo * t),
                          rate=RATE, start=0)
        out = correct(rx, shift, cfo)
        assert np.max(np.abs(out.samples - clean)) < 1e-10

    def test_time_origin_advances(self):
        sig = AnalogSignal(samples=np.zeros(64), rate=RATE, start=-8)
        out = correct(sig, 8, 0.0)
        assert out.start == 0

    def test_partial_cfo_leaves_residual_ramp(self):
        n = np.arange(1024)
        rx = AnalogSignal(samples=np.exp(2j * np.pi * 1000.0 * n / RATE),
                          rate=RATE, start=0)
        out = correct(rx, 0, 600.0)
        assert kay_cfo(out.samples, RATE) == pytest.approx(400.0, abs=1e-3)

    def test_start_index_bounds(self):
        sig = AnalogSignal(samples=np.zeros(64), rate=RATE, start=0)
        with pytest.raises(ValueError, match="outside buffer"):
            correct(sig, 65, 0.0)
