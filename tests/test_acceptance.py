"""End-to-end acceptance checks for the transceiver at its reference scale.

Each class pins one externally visible guarantee: transform fidelity,
the delay-Doppler input-output model, impairment folding, estimator
accuracy, loopback integrity, operating-point error rates, the pulse
shaping trend, synchronization quality, and run determinism.  The
tolerances here are contractual; loosening them is not an option.
"""

import time

import numpy as np
import pytest

from zakotfs.channel import (
    ImpairmentSpec,
    PathSpec,
    add_noise,
    apply_impairments,
    apply_paths,
    fold_impairments,
)
from zakotfs.config import config_from_dict
from zakotfs.dd_frame import Constellation, FrameParams, build_layout, map_bits
from zakotfs.estimation import SupportRegion, estimate, predict_io
from zakotfs.runner import run_trial, sweep
from zakotfs.sync import detect_timing, kay_cfo, make_preamble
from zakotfs.waveform import (
    AnalogSignal,
    PulseShape,
    matched_filter,
    sample_and_periodize,
    synthesize,
)
from zakotfs.zak import dzt, idzt

NU_P = 30e3
Q = 4


# =====================================================================
# Shared helpers
# =====================================================================

def naive_idzt(values):
    """Literal double-sum inverse transform, the independent reference."""
    m, n = values.shape
    out = np.zeros(m * n, dtype=complex)
    for q in range(m * n):
        k, blk = q % m, q // m
        acc = 0.0 + 0.0j
        for l in range(n):
            acc += values[k, l] * np.exp(2j * np.pi * blk * l / n)
        out[q] = acc / np.sqrt(n)
    return out


def naive_dzt(samples, m, n):
    """Literal double-sum forward transform."""
    out = np.zeros((m, n), dtype=complex)
    for k in range(m):
        for l in range(n):
            acc = 0.0 + 0.0j
            for blk in range(n):
                acc += samples[k + blk * m] * np.exp(-2j * np.pi * blk * l / n)
            out[k, l] = acc / np.sqrt(n)
    return out


def make_layout(m, n, c_bins, margin_bins=0.0):
    p = FrameParams(m=m, n=n, nu_p=NU_P)
    return p, build_layout(p, tau_max=c_bins / p.b, dt_margin=margin_bins / p.b)


def pilot_frame(layout, pilot_amp=8.0):
    v = np.zeros((layout.m, layout.n), dtype=complex)
    v[layout.k_p, layout.l_p] = pilot_amp
    return v


def run_chain(grid, params, shape, paths=(), imp=None, noise_psd=0.0, rng=None):
    """Transmit, fade, impair, matched-filter, and fold back to the grid."""
    sig = synthesize(idzt(grid), shape, params.b, Q)
    if paths:
        sig = apply_paths(sig, paths)
    if imp is not None or noise_psd > 0.0:
        sig = add_noise(apply_impairments(sig, imp or ImpairmentSpec()),
                        noise_psd, rng)
    return dzt(sample_and_periodize(matched_filter(sig, shape, params), params),
               params.m, params.n)


def core_power(sig, params):
    """Mean power over the frame core, excluding the filter tails."""
    i0 = -sig.start
    core = sig.samples[i0:i0 + params.m * params.n * Q]
    return float(np.mean(np.abs(core) ** 2))


def band_limited_probe(n=4096, rate=7.68e6, seed=0):
    """Gaussian-tapered noise burst confined to 70% of the Nyquist band.

    Folding is a statement about continuous-time operators; the circular
    delay reproduces them exactly only while every spectral component,
    Doppler-shifted copies included, stays away from the band edge and
    the envelope dies out before the buffer wraps.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = np.fft.fft(x)
    f = np.fft.fftfreq(n, 1.0 / rate)
    spec[np.abs(f) > 0.35 * rate] = 0.0
    x = np.fft.ifft(spec)
    t = np.arange(n)
    env = np.exp(-0.5 * ((t - n / 2) / (n / 16)) ** 2)
    return AnalogSignal(samples=x * env, rate=rate, start=0)


def experiment(**overrides):
    """The reference two-path 64x64 experiment as a config mapping."""
    raw = {
        "config_version": 1,
        "frame": {"m": 64, "n": 64, "tau_p_s": 1 / NU_P, "nu_p_hz": NU_P,
                  "pilot_amp": 8.0},
        "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
        "shape": {"family": "rrc", "beta": 0.5, "w1_span": 16,
                  "oversampling": Q},
        "channel": {"paths": [
            {"delay_bins": 0, "doppler_bins": 0, "gain_db": 0.0},
            {"delay_bins": 2, "doppler_bins": 1, "gain_db": -3.0,
             "phase_deg": 40.0},
        ]},
        "run": {"constellation": 4, "snr_db": [25], "trials": 100,
                "base_seed": 2024, "support": "C2"},
    }
    for section, vals in overrides.items():
        raw[section].update(vals)
    return raw


# =====================================================================
# 1. Transform pair: inversion, energy, and the direct-sum reference
# =====================================================================

class TestTransformFidelity:
    """The fast transform pair is unitary and matches the literal sums."""

    def test_thousand_grid_round_trip_and_parseval(self):
        """1000 random grids across four geometries, inside 10 seconds."""
        t_start = time.monotonic()
        rng = np.random.default_rng(1)
        for m, n in [(2, 2), (4, 8), (8, 4), (64, 64)]:
            for _ in range(250):
                v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                sig = idzt(v)
                back = dzt(sig, m, n)
                scale = np.max(np.abs(v))
                assert np.max(np.abs(back - v)) / scale < 1e-10
                sample_energy = np.sum(np.abs(sig) ** 2)
                assert sample_energy == pytest.approx(np.sum(np.abs(v) ** 2), rel=1e-10)
        assert time.monotonic() - t_start < 10.0

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 8), (8, 4)])
    def test_small_grids_match_the_direct_sums(self, m, n):
        """FFT path equals the double loop to 1e-12 on every small size."""
        rng = np.random.default_rng(m * 31 + n)
        for _ in range(5):
            v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            fast = idzt(v)
            assert np.max(np.abs(fast - naive_idzt(v))) < 1e-12
            s = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
            fwd = dzt(s, m, n)
            assert np.max(np.abs(fwd - naive_dzt(s, m, n))) < 1e-12


# =====================================================================
# 2. Delay-Doppler input-output model against the sampled chain
# =====================================================================

class TestPredictionOracle:
    """Taps calibrated from a pilot frame predict an independent data frame.

    The prediction runs entirely in the delay-Doppler domain; the truth
    it must match is the full synthesize/fade/filter/sample chain.
    """

    def _calibrated_error(self, family, path):
        p, lay = make_layout(8, 8, c_bins=1.5)
        sup = SupportRegion.from_layout(lay, "C2")
        shape = PulseShape(family=family, beta=0.5, w1_span=None)
        y_pilot = run_chain(pilot_frame(lay), p, shape, paths=(path,))
        h = estimate(y_pilot, sup, 8.0)
        const = Constellation(4)
        rng = np.random.default_rng(42)
        bits = rng.integers(0, 2, size=lay.n_data_cells * const.bits_per_symbol)
        frame = map_bits(bits, const, lay, pilot_amp=8.0)
        y_true = run_chain(frame, p, shape, paths=(path,))
        y_pred = predict_io(frame, h)
        return np.linalg.norm(y_pred - y_true) / np.linalg.norm(y_true)

    def test_smooth_shaping_over_the_on_bin_grid(self):
        """Raised-cosine shaping: every on-bin (delay, Doppler) pair
        inside the support is predicted within 5e-3, inside a minute."""
        t_start = time.monotonic()
        p = FrameParams(m=8, n=8, nu_p=NU_P)
        worst = 0.0
        for k0 in range(3):
            for l0 in range(-3, 4):
                path = PathSpec(gain=0.9 * np.exp(0.3j), delay=k0 / p.b,
                                doppler=l0 * p.doppler_bin_hz)
                err = self._calibrated_error("rrc", path)
                worst = max(worst, err)
        assert worst < 5e-3
        assert time.monotonic() - t_start < 60.0

    def test_flat_shaping_on_delay_paths(self):
        """Flat-band shaping concentrates on-bin delays onto single taps,
        so the prediction tightens to 1e-3."""
        p = FrameParams(m=8, n=8, nu_p=NU_P)
        for k0 in range(3):
            path = PathSpec(gain=0.9 * np.exp(0.3j), delay=k0 / p.b,
                            doppler=0.0)
            assert self._calibrated_error("sinc", path) < 1e-3


# =====================================================================
# 3. Impairments fold into equivalent channel paths
# =====================================================================

class TestImpairmentFoldEquivalence:
    """Receiver offsets act exactly like extra path delay/Doppler/phase."""

    def test_randomized_folds_match_sample_wise(self):
        """Twenty random draws of paths and offsets, 1e-9 sample-wise,
        inside 30 seconds."""
        t_start = time.monotonic()
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            paths = tuple(
                PathSpec(
                    gain=complex(rng.standard_normal(), rng.standard_normal()),
                    delay=rng.uniform(0.0, 1.5e-6),
                    doppler=rng.uniform(-2e3, 2e3),
                )
                for _ in range(rng.integers(1, 4))
            )
            imp = ImpairmentSpec(dt=rng.uniform(0.0, 0.5e-6),
                                 eps0=rng.uniform(-1e3, 1e3),
                                 phi=rng.uniform(-np.pi, np.pi * 0.99))
            sig = band_limited_probe(seed=seed)
            direct = apply_impairments(apply_paths(sig, paths), imp)
            folded = apply_paths(sig, fold_impairments(paths, imp))
            scale = np.max(np.abs(direct.samples))
            assert np.max(np.abs(direct.samples - folded.samples)) / scale < 1e-9
        assert time.monotonic() - t_start < 30.0


# =====================================================================
# 4. Pilot readout lands on the true path bin
# =====================================================================

class TestEstimatorBinAccuracy:
    """The largest estimated tap sits at the physical path's (k, l)."""

    def _setup(self):
        p, lay = make_layout(64, 64, c_bins=2.5)
        sup = SupportRegion.from_layout(lay, "C1")
        shape = PulseShape(family="rrc", beta=0.5, w1_span=16)
        return p, lay, sup, shape

    def _draw(self, rng):
        k0 = int(rng.integers(0, 3))
        l0 = int(rng.integers(-8, 9))
        gain = np.exp(1j * rng.uniform(-np.pi, np.pi))
        return k0, l0, gain

    def test_noiseless_peak_is_exact_a_hundred_times(self):
        p, lay, sup, shape = self._setup()
        rng = np.random.default_rng(404)
        for _ in range(100):
            k0, l0, gain = self._draw(rng)
            path = PathSpec(gain=gain, delay=k0 / p.b,
                            doppler=l0 * p.doppler_bin_hz)
            y = run_chain(pilot_frame(lay), p, shape, paths=(path,))
            assert estimate(y, sup, 8.0).peak() == (k0, l0)

    def test_at_25_db_at_least_99_of_100(self):
        p, lay, sup, shape = self._setup()
        rng = np.random.default_rng(505)
        hits = 0
        for trial in range(100):
            k0, l0, gain = self._draw(rng)
            path = PathSpec(gain=gain, delay=k0 / p.b,
                            doppler=l0 * p.doppler_bin_hz)
            sig = synthesize(idzt(pilot_frame(lay)), shape, p.b, Q)
            sig = apply_paths(sig, (path,))
            noise_psd = core_power(sig, p) / 10 ** 2.5
            noise_rng = np.random.default_rng(9000 + trial)
            sig = add_noise(apply_impairments(sig, ImpairmentSpec()),
                            noise_psd, noise_rng)
            y = dzt(sample_and_periodize(matched_filter(sig, shape, p), p), p.m, p.n)
            hits += estimate(y, sup, 8.0).peak() == (k0, l0)
        assert hits >= 99


# =====================================================================
# 5. Residual offsets shift the estimated peak by whole bins
# =====================================================================

class TestResidualImpairmentSignatures:
    """Uncorrected CFO and timing read as clean bin shifts at the pilot."""

    def _peak(self, imp):
        p, lay = make_layout(64, 64, c_bins=1.5, margin_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C2")
        shape = PulseShape(family="rrc", beta=0.5, w1_span=None)
        path = PathSpec(gain=1.0, delay=0.0, doppler=0.0)
        y = run_chain(pilot_frame(lay), p, shape, paths=(path,), imp=imp)
        h = estimate(y, sup, 8.0)
        assert sup.contains(*h.peak())
        return h.peak()

    def test_clean_reference_peaks_at_the_origin(self):
        assert self._peak(None) == (0, 0)

    def test_one_bin_carrier_offset_moves_one_doppler_bin(self):
        """468.75 Hz is exactly one Doppler bin on this geometry."""
        assert self._peak(ImpairmentSpec(eps0=468.75)) == (0, 1)

    def test_one_bin_timing_offset_moves_one_delay_bin(self):
        p = FrameParams(m=64, n=64, nu_p=NU_P)
        assert self._peak(ImpairmentSpec(dt=1.0 / p.b)) == (1, 0)

    def test_combined_offsets_move_diagonally_and_stay_in_support(self):
        p = FrameParams(m=64, n=64, nu_p=NU_P)
        imp = ImpairmentSpec(dt=1.0 / p.b, eps0=468.75)
        assert self._peak(imp) == (1, 1)


# =====================================================================
# 6. Noiseless loopback is bit-exact
# =====================================================================

class TestNoiselessLoopback:
    """An identity channel with no noise must decode with zero errors."""

    @pytest.mark.parametrize("family", ["rrc", "sinc"])
    @pytest.mark.parametrize("order", [4, 16])
    def test_zero_bit_errors(self, family, order):
        raw = experiment(
            layout={"tau_max_bins": 1.0, "dt_margin_bins": 0.0},
            shape={"family": family, "w1_span": None},
            channel={"paths": [{"delay_bins": 0}]},
            run={"constellation": order, "snr_db": [None], "trials": 1,
                 "support": "C1"},
        )
        cfg = config_from_dict(raw)
        report = run_trial(cfg, 0)
        assert report.bit_errors == 0
        bits_per_symbol = 2 if order == 4 else 4
        assert report.bits_sent == cfg.layout().n_data_cells * bits_per_symbol


# =====================================================================
# 7. Error rate at the reference operating point
# =====================================================================

class TestOperatingPointBer:
    """Two-path channel at 25 dB with synchronized CFO correction."""

    def _ber(self, order):
        # Time-domain correction leaves sub-Hz residual CFO, so the
        # narrow C1 support applies; the wide C2 rows would read the
        # channel-spread data energy next to the guard band as taps.
        raw = experiment(
            channel={"cfo_hz": 200.0},
            run={"constellation": order, "trials": 100, "workers": 4,
                 "sync": True, "cfo_correction": "time_domain",
                 "support": "C1"},
        )
        curve, _ = sweep(config_from_dict(raw), emit=False)
        point = curve.points[0]
        assert point.trials == 100
        return point.ber

    def test_qpsk_stays_under_one_percent(self):
        assert self._ber(4) < 1e-2

    def test_16qam_stays_under_five_percent(self):
        assert self._ber(16) < 5e-2


# =====================================================================
# 8. Smooth shaping never loses to flat shaping
# =====================================================================

class TestShapingTrend:
    """Paired sweeps: raised-cosine BER <= flat-band BER at every point.

    Seeding depends only on trial indices, so both families decode the
    same bit draws and the comparison is paired, not merely matched.
    """

    def test_paired_sweeps_order_correctly(self):
        t_start = time.monotonic()
        snrs = [10, 15, 20, 25]
        for order in (4, 16):
            curves = {}
            for family in ("rrc", "sinc"):
                raw = experiment(
                    shape={"family": family},
                    run={"constellation": order, "snr_db": snrs,
                         "trials": 50, "workers": 4, "support": "C1"},
                )
                curve, _ = sweep(config_from_dict(raw), emit=False)
                curves[family] = curve.points
            for smooth, flat in zip(curves["rrc"], curves["sinc"]):
                assert smooth.snr_db == flat.snr_db
                assert smooth.ber <= flat.ber
        assert time.monotonic() - t_start < 600.0


# =====================================================================
# 9. Acquisition: timing, carrier estimation, and false locks
# =====================================================================

class TestSynchronizationQuality:
    """Preamble timing at 0 dB, tone frequency at 20 dB, and silence."""

    def test_timing_within_one_oversample_in_99_percent(self):
        pre = make_preamble(length=256, root=25)
        chips = np.zeros(pre.length * Q, dtype=complex)
        chips[::Q] = pre.samples
        hits = 0
        for trial in range(200):
            rng = np.random.default_rng(trial)
            buf = np.zeros(6000, dtype=complex)
            buf[1000:1000 + chips.size] = chips
            # Chip energy 1 spread over Q samples; noise 1/Q is 0 dB.
            buf = buf + np.sqrt(1.0 / (2 * Q)) * (
                rng.standard_normal(6000) + 1j * rng.standard_normal(6000))
            res = detect_timing(AnalogSignal(samples=buf, rate=7.68e6, start=0),
                                AnalogSignal(samples=chips, rate=7.68e6, start=0))
            hits += abs(res.start_index - 1000) <= 1
        assert hits >= 198

    def test_tone_frequency_error_under_one_percent_at_20_db(self):
        rate = 7.68e6
        f0 = 7.5e3
        t = np.arange(1024) / rate
        errors = []
        for trial in range(200):
            rng = np.random.default_rng(700 + trial)
            tone = np.exp(2j * np.pi * f0 * t)
            tone = tone + np.sqrt(0.01 / 2) * (
                rng.standard_normal(t.size) + 1j * rng.standard_normal(t.size))
            errors.append(abs(kay_cfo(tone, rate) - f0) / f0)
        assert np.mean(errors) < 0.01

    def test_no_false_locks_on_noise_in_a_thousand_trials(self):
        pre = make_preamble(length=256, root=25)
        locks = 0
        for trial in range(1000):
            rng = np.random.default_rng(5000 + trial)
            noise = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
            sig = AnalogSignal(samples=noise, rate=7.68e6, start=0)
            locks += detect_timing(
                sig, AnalogSignal(samples=np.kron(pre.samples, np.eye(Q)[0]), rate=7.68e6,
                                  start=0), threshold=0.3).detected
        assert locks == 0


# =====================================================================
# 10. Byte-level determinism across runs and worker counts
# =====================================================================

class TestRunDeterminism:
    """The same experiment yields identical output files every time."""

    def _outputs(self, tmp_path, tag, workers):
        sub = tmp_path / tag
        sub.mkdir()
        raw = {
            "config_version": 1,
            "frame": {"m": 16, "n": 16, "tau_p_s": 1 / NU_P, "nu_p_hz": NU_P,
                      "pilot_amp": 8.0},
            "layout": {"tau_max_bins": 1.5, "dt_margin_bins": 0.0},
            "shape": {"family": "rrc", "beta": 0.5, "w1_span": 16,
                      "oversampling": Q},
            "channel": {"paths": [
                {"delay_bins": 0},
                {"delay_bins": 1, "doppler_bins": 1, "gain_db": -3.0},
            ]},
            "run": {"constellation": 4, "snr_db": [10, 20], "trials": 8,
                    "base_seed": 7, "workers": workers},
            "output": {
                "csv": str(sub / "ber.csv"),
                "curve_svg": str(sub / "ber.svg"),
                "constellation_prefix": str(sub / "const_"),
            },
        }
        sweep(config_from_dict(raw), emit=True)
        return {p.name: p.read_bytes() for p in sub.iterdir()}

    def test_identical_bytes_across_runs_and_worker_counts(self, tmp_path):
        first = self._outputs(tmp_path, "run1_w1", workers=1)
        assert set(first) == {"ber.csv", "ber.svg",
                              "const_snr_10dB.svg", "const_snr_20dB.svg"}
        assert self._outputs(tmp_path, "run2_w1", workers=1) == first
        assert self._outputs(tmp_path, "w4", workers=4) == first
        assert self._outputs(tmp_path, "w8", workers=8) == first
