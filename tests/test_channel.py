"""Doubly-dispersive channel tests: delays, Doppler, impairment folding."""

import numpy as np
import pytest
import scipy.fft

from zakotfs.channel import (
    ImpairmentSpec,
    PathSpec,
    add_noise,
    apply_impairments,
    apply_paths,
    fold_impairments,
)
from zakotfs.dd_frame import FrameParams, build_layout, map_bits, Constellation
from zakotfs.waveform import AnalogSignal, PulseShape, phase_ramp, synthesize
from zakotfs.zak import idzt

RATE = 7.68e6  # 4x oversampled 1.92 MHz


def band_limited_probe(n=4096, rate=RATE, seed=0):
    """Gaussian-tapered noise burst confined to 70% of the Nyquist band.

    The fold identity is a statement about continuous-time operators;
    the circular delay reproduces them exactly only while every spectral
    component, including its Doppler-shifted copies, stays away from the
    band edge and the envelope dies out before the buffer wraps.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = np.fft.fft(x)
    f = np.fft.fftfreq(n, 1.0 / rate)
    spec[np.abs(f) > 0.35 * rate] = 0.0
    x = np.fft.ifft(spec)
    t = np.arange(n)
    # Keep the envelope below 1e-13 at the buffer edges or its circular
    # wrap becomes the error floor of the delay operator.
    env = np.exp(-0.5 * ((t - n / 2) / (n / 16)) ** 2)
    return AnalogSignal(samples=x * env, rate=rate, start=0)


class TestSpecsValidation:
    """Constructor contracts on the channel description types."""

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            PathSpec(gain=1.0, delay=-1e-9, doppler=0.0)

    def test_nonfinite_gain_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PathSpec(gain=np.nan, delay=0.0, doppler=0.0)

    def test_impairment_dt_nonnegative(self):
        with pytest.raises(ValueError, match="dt"):
            ImpairmentSpec(dt=-1e-9)

    def test_impairment_phase_range(self):
        with pytest.raises(ValueError, match="phi"):
            ImpairmentSpec(phi=np.pi)
        assert ImpairmentSpec(phi=-np.pi).phi == -np.pi

    def test_negative_noise_rejected(self):
        """Neither the impairment spec nor its stage carries a noise level;
        add_noise is the one entry."""
        sig = AnalogSignal(samples=np.zeros(16), rate=RATE, start=0)
        with pytest.raises(TypeError, match="noise_psd"):
            ImpairmentSpec(noise_psd=-1.0)
        with pytest.raises(TypeError, match="noise_psd"):
            apply_impairments(sig, ImpairmentSpec(), noise_psd=0.0)


class TestApplyPaths:
    """Path superposition and the delay operator it is built on."""

    def test_single_unit_path_is_identity(self):
        sig = band_limited_probe(seed=1)
        out = apply_paths(sig, [PathSpec(gain=1.0, delay=0.0, doppler=0.0)])
        assert np.max(np.abs(out.samples - sig.samples)) < 1e-12

    def test_integer_delay_is_a_roll(self):
        sig = band_limited_probe(seed=2)
        d = 17
        out = apply_paths(sig, [PathSpec(gain=1.0, delay=d / RATE, doppler=0.0)])
        assert np.max(np.abs(out.samples - np.roll(sig.samples, d))) < 1e-12

    def test_fractional_delays_compose(self):
        """delay(a) then delay(b) equals delay(a + b) exactly."""
        sig = band_limited_probe(seed=3)
        a, b = 0.4 / RATE, 1.9 / RATE
        one = apply_paths(sig, [PathSpec(gain=1.0, delay=a + b, doppler=0.0)])
        two = apply_paths(apply_paths(sig, [PathSpec(gain=1.0, delay=a, doppler=0.0)]),
                          [PathSpec(gain=1.0, delay=b, doppler=0.0)])
        assert np.max(np.abs(one.samples - two.samples)) < 1e-12

    def test_delay_preserves_energy(self):
        sig = band_limited_probe(seed=4)
        out = apply_paths(sig, [PathSpec(gain=1.0, delay=0.7 / RATE, doppler=0.0)])
        assert np.sum(np.abs(out.samples) ** 2) == pytest.approx(
            np.sum(np.abs(sig.samples) ** 2), rel=1e-12)

    def test_doppler_phase_referenced_to_path_delay(self):
        """The Doppler ramp is exp(j 2 pi nu (t - tau)), not exp(j 2 pi nu t)."""
        n = 256
        x = np.zeros(n, dtype=complex)
        x[40] = 1.0
        sig = AnalogSignal(samples=x, rate=RATE, start=0)
        d, nu = 10, 3e3
        out = apply_paths(sig, [PathSpec(gain=1.0, delay=d / RATE, doppler=nu)])
        expect = np.exp(2j * np.pi * nu * (40 / RATE))
        assert out.samples[50] == pytest.approx(expect, abs=1e-12)

    def test_superposition(self):
        sig = band_limited_probe(seed=5)
        p1 = PathSpec(gain=0.8, delay=1.3 / RATE, doppler=2e3)
        p2 = PathSpec(gain=0.3j, delay=4.1 / RATE, doppler=-1e3)
        both = apply_paths(sig, [p1, p2])
        summed = apply_paths(sig, [p1]).samples + apply_paths(sig, [p2]).samples
        assert np.max(np.abs(both.samples - summed)) < 1e-12

    @pytest.mark.parametrize("delay, doppler", [
        (0, 0.0), (0, 2.5e3), (17, 0.0), (0, -1e3), (3.4, 0.0)])
    def test_identity_parts_match_ramp_and_roll(self, delay, doppler):
        """A zero shift or a zero Doppler skips its pass without moving a bit."""
        probe = band_limited_probe(seed=6)
        sig = AnalogSignal(samples=probe.samples, rate=RATE, start=-5)
        paths = [PathSpec(gain=0.8 - 0.3j, delay=delay / RATE, doppler=doppler),
                 PathSpec(gain=0.5, delay=3 / RATE, doppler=1e3)]
        out = apply_paths(sig, paths)
        n = sig.samples.size
        want = np.zeros(n, dtype=complex)
        for p in paths:
            shift = p.delay * RATE
            if shift == round(shift):
                shifted = np.roll(sig.samples, int(round(shift)))
            else:
                f = scipy.fft.fftfreq(n)
                shifted = scipy.fft.ifft(scipy.fft.fft(sig.samples)
                                         * np.exp(-2j * np.pi * f * shift))
            want += p.gain * shifted * phase_ramp(p.doppler, sig.start, RATE, n,
                                                 -2 * np.pi * p.doppler * p.delay)
        assert out.samples.tobytes() == want.tobytes()

    def test_delay_beyond_extent_rejected(self):
        sig = AnalogSignal(samples=np.zeros(64), rate=RATE, start=0)
        with pytest.raises(ValueError, match="exceeds the signal extent"):
            apply_paths(sig, [PathSpec(gain=1.0, delay=100 / RATE, doppler=0.0)])


class TestApplyImpairments:
    """The receiver-side dt / eps0 / phi stage, then add_noise on its output."""

    def test_all_zero_is_identity(self):
        sig = band_limited_probe(seed=6)
        out = apply_impairments(sig, ImpairmentSpec())
        assert np.max(np.abs(out.samples - sig.samples)) < 1e-14

    def test_phase_only(self):
        sig = band_limited_probe(seed=7)
        out = apply_impairments(sig, ImpairmentSpec(phi=0.7))
        assert np.max(np.abs(out.samples - sig.samples * np.exp(0.7j))) < 1e-12

    def test_cfo_ramp_uses_absolute_time(self):
        """eps0 rotates against the signal's own t axis, start included."""
        x = np.ones(128, dtype=complex)
        sig = AnalogSignal(samples=x, rate=RATE, start=-64)
        out = apply_impairments(sig, ImpairmentSpec(eps0=5e3))
        expect = np.exp(2j * np.pi * 5e3 * ((sig.start + np.arange(128)) / RATE))
        assert np.max(np.abs(out.samples - expect)) < 1e-12

    def test_noise_variance_calibrated(self):
        sig = AnalogSignal(samples=np.zeros(200_000), rate=RATE, start=0)
        rng = np.random.default_rng(8)
        out = add_noise(apply_impairments(sig, ImpairmentSpec()), 2.0, rng)
        var = np.mean(np.abs(out.samples) ** 2)
        assert var == pytest.approx(2.0, rel=0.03)
        # Circularly symmetric: half the power per quadrature.
        assert np.mean(out.samples.real ** 2) == pytest.approx(1.0, rel=0.05)

    def test_noise_needs_rng(self):
        sig = AnalogSignal(samples=np.zeros(16), rate=RATE, start=0)
        with pytest.raises(ValueError, match="rng"):
            add_noise(apply_impairments(sig, ImpairmentSpec()), 1.0, None)

    def test_negative_noise_rejected(self):
        sig = AnalogSignal(samples=np.zeros(16), rate=RATE, start=0)
        with pytest.raises(ValueError, match="noise_psd"):
            add_noise(apply_impairments(sig, ImpairmentSpec()), -1.0, None)


class TestAddNoise:
    """The one place a trial's receiver noise is drawn."""

    def test_draws_real_then_imaginary_parts(self):
        sig = band_limited_probe(n=64, seed=9)
        out = add_noise(sig, 0.5, np.random.default_rng(3))
        ref = np.random.default_rng(3)
        re, im = ref.standard_normal(64), ref.standard_normal(64)
        assert np.array_equal(out.samples, sig.samples + np.sqrt(0.25) * (re + 1j * im))
        assert (out.rate, out.start) == (sig.rate, sig.start)

    def test_zero_noise_draws_nothing(self):
        sig = band_limited_probe(n=64, seed=9)
        rng = np.random.default_rng(3)
        assert add_noise(sig, 0.0, rng) is sig
        assert rng.standard_normal() == np.random.default_rng(3).standard_normal()

    @pytest.mark.parametrize("noise_psd", [-1.0, float("nan")])
    def test_bad_noise_level_rejected(self, noise_psd):
        sig = AnalogSignal(samples=np.zeros(16), rate=RATE, start=0)
        with pytest.raises(ValueError, match="noise_psd"):
            add_noise(sig, noise_psd, np.random.default_rng(0))


class TestFoldImpairments:
    """Folding dt / eps0 / phi into the path set."""

    def test_folded_parameters(self):
        """Each folded path follows the closed-form gain and shifts."""
        imp = ImpairmentSpec(dt=0.5e-6, eps0=700.0, phi=0.4)
        p = PathSpec(gain=0.9 - 0.2j, delay=1e-6, doppler=1.5e3)
        (f,) = fold_impairments((p,), imp)
        assert f.delay == pytest.approx(p.delay + imp.dt)
        assert f.doppler == pytest.approx(p.doppler + imp.eps0)
        expect_gain = p.gain * np.exp(
            1j * (2 * np.pi * imp.eps0 * (p.delay + imp.dt) + imp.phi))
        assert f.gain == pytest.approx(expect_gain, abs=1e-15)

    def test_identity_fold(self):
        p = PathSpec(gain=1.0, delay=1e-6, doppler=2e3)
        assert fold_impairments((p,), ImpairmentSpec()) == (p,)

    @pytest.mark.parametrize("seed", range(5))
    def test_fold_equivalence_on_band_limited_probe(self, seed):
        """apply(folded) matches impairments after apply(paths) to 1e-9."""
        rng = np.random.default_rng(100 + seed)
        n_paths = rng.integers(1, 4)
        paths = tuple(
            PathSpec(
                gain=complex(rng.standard_normal(), rng.standard_normal()),
                delay=rng.uniform(0.0, 1.5e-6),
                doppler=rng.uniform(-2e3, 2e3),
            )
            for _ in range(n_paths)
        )
        imp = ImpairmentSpec(dt=rng.uniform(0.0, 0.5e-6),
                             eps0=rng.uniform(-1e3, 1e3),
                             phi=rng.uniform(-np.pi, np.pi * 0.99))
        sig = band_limited_probe(seed=seed)
        direct = apply_impairments(apply_paths(sig, paths), imp)
        folded = apply_paths(sig, fold_impairments(paths, imp))
        scale = np.max(np.abs(direct.samples))
        assert np.max(np.abs(direct.samples - folded.samples)) / scale < 1e-9

    def _frame_signal(self, shape):
        params = FrameParams(m=32, n=32, nu_p=30e3)
        layout = build_layout(params, tau_max=2.0 / params.b, dt_margin=0.0)
        const = Constellation(4)
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, size=layout.n_data_cells * const.bits_per_symbol)
        grid = map_bits(bits, const, layout, pilot_amp=8.0)
        return synthesize(idzt(grid), shape, params.b, 4)

    @pytest.mark.parametrize("family,span,bound", [
        ("rrc", 16, 2e-5),
        ("sinc", 16, 5e-2),
    ])
    def test_fold_residual_floor_on_shaped_frames(self, family, span, bound):
        """Truncated-tap frames hold small out-of-band energy, so the
        fold identity on them bottoms out at a family-dependent floor."""
        sig = self._frame_signal(PulseShape(family=family, beta=0.5, w1_span=span))
        paths = (PathSpec(gain=0.8, delay=0.6e-6, doppler=500.0),)
        imp = ImpairmentSpec(dt=0.2e-6, eps0=300.0, phi=0.5)
        direct = apply_impairments(apply_paths(sig, paths), imp)
        folded = apply_paths(sig, fold_impairments(paths, imp))
        scale = np.max(np.abs(direct.samples))
        assert np.max(np.abs(direct.samples - folded.samples)) / scale < bound
