"""Pulse shaping chain tests: filter formulas, windows, and loopbacks."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from zakotfs import waveform
from zakotfs.dd_frame import FrameParams
from zakotfs.waveform import (
    AnalogSignal,
    PulseShape,
    matched_filter,
    rrc_w1,
    rrc_w2,
    sample_and_periodize,
    shape_symbols,
    synthesize,
)
from zakotfs.zak import dzt, fast_len, idzt

B = 1.92e6
T_P = 64 / B  # one Doppler period for an m=64 grid at 30 kHz


def loopback_error(m, n, shape, q=4, seed=0):
    """Relative grid error through synthesize -> matched filter -> fold."""
    params = FrameParams(m=m, n=n, nu_p=B / m)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    analog = synthesize(idzt(g), shape, params.b, q)
    y = dzt(sample_and_periodize(matched_filter(analog, shape, params), params), m, n)
    return np.linalg.norm(y - g) / np.linalg.norm(g)


def full_rate_shaping(symbols, shape, q):
    """Oracle for shape_symbols: the zero-stuffed train convolved at rate q*B."""
    span_q = shape.w1_span * q
    train = np.zeros((symbols.size + 2 * shape.w1_span) * q, dtype=np.complex128)
    train[span_q:span_q + symbols.size * q:q] = symbols
    return fftconvolve(train, shape.w1_taps(B, q), mode="same")


def full_rate_correlation(x, shape, q):
    """Oracle for the decimating correlator: every sample of the matched correlation."""
    taps = shape.w1_taps(B, q)
    return fftconvolve(x, np.conj(taps[::-1]) / (q * B), mode="same")


def row_loop_correlation(x, shape, q, first):
    """The decimating correlator with its branch spectra added in an explicit row loop."""
    n = x.size
    count = -(-(n - first) // q)
    if count <= 0:
        return np.zeros(0, dtype=np.complex128)
    span_q = shape.w1_span * q
    lead = (q - 1 - first - span_q) % q
    lag = (first + span_q + lead) // q
    rows = -(-(lead + n) // q)
    padded = np.zeros(rows * q, dtype=np.complex128)
    padded[lead:lead + n] = x
    nfft = fast_len(rows + 2 * shape.w1_span)
    phases = np.zeros((q, nfft), dtype=np.complex128)
    phases[:, :rows] = padded.reshape(rows, q).T
    spectra = np.fft.fft(phases, axis=-1) * waveform._phase_spectra(shape, B, q, True, nfft)
    summed = spectra[0].copy()
    for row in spectra[1:]:
        summed += row
    return np.fft.ifft(summed)[lag:lag + count]


def times(sig):
    """The instant of each sample of an AnalogSignal: (start + i)/rate."""
    return (sig.start + np.arange(sig.samples.size)) / sig.rate


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestRrcW1:
    """Closed-form checks on the root-raised-cosine delay filter."""

    def test_peak_value(self):
        beta = 0.5
        assert rrc_w1(0.0, B, beta) == pytest.approx(1 + beta * (4 / np.pi - 1))

    def test_singularity_matches_nearby_limit(self):
        """The patched value at t = 1/(4 beta B) continues the curve."""
        beta = 0.3
        t_star = 1 / (4 * beta * B)
        patched = rrc_w1(t_star, B, beta)
        nearby = rrc_w1(t_star * (1 + 1e-6), B, beta)
        assert patched == pytest.approx(nearby, rel=1e-4)

    def test_even_symmetry(self):
        t = np.linspace(1e-7, 8 / B, 50)
        assert np.allclose(rrc_w1(t, B, 0.4), rrc_w1(-t, B, 0.4), atol=1e-12)

    def test_vector_matches_scalar(self):
        t = np.array([0.0, 0.3 / B, 1.7 / B])
        vec = rrc_w1(t, B, 0.5)
        assert vec[1] == pytest.approx(rrc_w1(0.3 / B, B, 0.5))

    def test_beta_range_enforced(self):
        with pytest.raises(ValueError, match="beta"):
            rrc_w1(0.0, B, 0.0)
        with pytest.raises(ValueError, match="beta"):
            rrc_w1(0.0, B, 1.5)


class TestRrcW2:
    """The Doppler-axis window and its raised-cosine complement."""

    def test_peak_and_flat_region(self):
        beta = 0.5
        assert rrc_w2(0.0, T_P, beta) == pytest.approx(1 / np.sqrt(T_P))
        flat_edge = (1 - beta) * T_P / 2
        assert rrc_w2(0.99 * flat_edge, T_P, beta) == pytest.approx(1 / np.sqrt(T_P))

    def test_support_ends(self):
        beta = 0.5
        t_out = (1 + beta) * T_P / 2 * 1.01
        assert rrc_w2(t_out, T_P, beta) == 0.0
        assert rrc_w2(-t_out, T_P, beta) == 0.0

    def test_raised_cosine_complement(self):
        """|w2(t)|^2 + |w2(T - t)|^2 = 1/T across the taper band."""
        beta = 0.4
        t = np.linspace((1 - beta) * T_P / 2, (1 + beta) * T_P / 2, 33)
        total = rrc_w2(t, T_P, beta) ** 2 + rrc_w2(T_P - t, T_P, beta) ** 2
        assert np.allclose(total, 1 / T_P, rtol=1e-10)

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="t_period"):
            rrc_w2(0.0, 0.0, 0.5)

    @pytest.mark.parametrize("beta", [0.0, 1.5])
    def test_beta_range_enforced(self, beta):
        with pytest.raises(ValueError, match=f"beta must be in \\(0, 1\\], got {beta}"):
            rrc_w2(0.0, T_P, beta)


class TestPulseShape:
    """Parameter validation, tap normalization, and the spectrum form."""

    def test_family_checked(self):
        with pytest.raises(ValueError, match="family"):
            PulseShape(family="gaussian")

    def test_rrc_beta_checked(self):
        with pytest.raises(ValueError, match="beta"):
            PulseShape(family="rrc", beta=0.0)

    def test_span_minimum(self):
        with pytest.raises(ValueError, match="w1_span"):
            PulseShape(w1_span=1)

    def test_taps_unit_energy(self):
        for fam in ("rrc", "sinc"):
            sh = PulseShape(family=fam, beta=0.5, w1_span=16)
            taps = sh.w1_taps(B, 4)
            assert taps.size == 2 * 16 * 4 + 1
            assert np.sum(np.abs(taps) ** 2) / (4 * B) == pytest.approx(1.0, rel=1e-12)

    def test_exact_mode_has_no_taps(self):
        sh = PulseShape(family="rrc", beta=0.5, w1_span=None)
        assert sh.exact
        assert sh.tail_fraction(B, 4) == 0.0
        with pytest.raises(ValueError, match="no tap form"):
            sh.w1_taps(B, 4)

    def test_rrc_tail_shrinks_with_span(self):
        a = PulseShape(family="rrc", beta=0.5, w1_span=8).tail_fraction(B, 4)
        b = PulseShape(family="rrc", beta=0.5, w1_span=16).tail_fraction(B, 4)
        assert b < a

    def test_gain_unit_energy(self):
        """The closed-form spectrum integrates to unit filter energy."""
        f = (np.arange(-8192, 8192) + 0.5) * (B / 4096)  # midpoint grid
        for fam, beta in (("sinc", 0.5), ("rrc", 0.35)):
            g = PulseShape(family=fam, beta=beta).w1_gain(f, B)
            energy = np.sum(np.abs(g) ** 2) * (B / 4096)
            assert energy == pytest.approx(1.0, abs=1e-3)

    def test_sinc_brick_band_is_half_open(self):
        """The Nyquist line is carried once, on the positive edge only."""
        sh = PulseShape(family="sinc")
        edges = sh.w1_gain(np.array([-B / 2, B / 2]), B)
        assert edges[0] == 0.0
        assert edges[1] > 0.0


class TestPolyphase:
    """Truncated shaping at the symbol rate against full-rate oracles."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(["rrc", "sinc"]),
           beta=st.floats(0.1, 1.0), span=st.integers(2, 16), q=st.integers(2, 5),
           symbols=st.integers(1, 120), n=st.integers(1, 700), first=st.integers(0, 4))
    def test_matches_full_rate_oracle(self, seed, family, beta, span, q, symbols, n, first):
        assume(first < q)
        shape = PulseShape(family=family, beta=beta, w1_span=span)
        rng = np.random.default_rng(seed)
        s = rng.standard_normal(symbols) + 1j * rng.standard_normal(symbols)
        up = shape_symbols(s, shape, B, q)
        assert up.size == (symbols + 2 * span) * q
        assert relative_error(up, full_rate_shaping(s, shape, q)) <= 1e-12
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        down = waveform._correlate_decimate(x, shape, B, q, first)
        want = full_rate_correlation(x, shape, q)[first::q]
        assert down.size == want.size
        if want.size:
            assert relative_error(down, want) <= 1e-12

    @pytest.mark.parametrize("family", ["rrc", "sinc"])
    @pytest.mark.parametrize("correlate", [False, True])
    def test_readme_filter_matches_fftconvolve(self, family, correlate):
        """Span 16 at q = 4 over a few thousand samples, as the README link runs it."""
        shape = PulseShape(family=family, w1_span=16)
        q = 4
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        if correlate:
            for first in range(q):
                got = waveform._correlate_decimate(x, shape, B, q, first)
                want = full_rate_correlation(x, shape, q)[first::q]
                assert relative_error(got, want) <= 1e-12
        else:
            s = x[:1250]
            assert relative_error(shape_symbols(s, shape, B, q),
                                  full_rate_shaping(s, shape, q)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(2, 8),
           span=st.integers(2, 16), n=st.integers(1, 4000), first=st.integers(0, 7),
           family=st.sampled_from(["rrc", "sinc"]))
    @example(seed=0, q=4, span=16, n=26143, first=0, family="rrc")  # README, (4, 6600)
    def test_correlator_sums_branches_in_row_order(self, seed, q, span, n, first, family):
        """The correlator's bits equal those of adding the branch spectra row by row.

        numpy.fft returns Fortran-ordered transforms of strided rows, and
        a sum over axis 0 of such an array moves the last bit; the phase
        rows are built C-contiguous so the plain sum keeps the row order.
        """
        first %= q
        shape = PulseShape(family=family, w1_span=span)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = waveform._correlate_decimate(x, shape, B, q, first)
        assert got.tobytes() == row_loop_correlation(x, shape, q, first).tobytes()

    def test_matches_manual_convolution(self):
        sh = PulseShape(family="rrc", beta=0.5, w1_span=4)
        q = 2
        taps = sh.w1_taps(B, q)
        rng = np.random.default_rng(6)
        s = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        train = np.zeros((32 + 8) * q, dtype=np.complex128)
        train[8:8 + 32 * q:q] = s
        manual = np.convolve(train, taps, mode="same")
        assert np.max(np.abs(shape_symbols(s, sh, B, q) - manual)) < 1e-9
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        manual = np.convolve(x, np.conj(taps[::-1]) / (q * B), mode="same")
        got = waveform._correlate_decimate(x, sh, B, q, 1)
        assert np.max(np.abs(got - manual[1::q])) < 1e-9 / B

    @pytest.mark.parametrize("family", ["rrc", "sinc"])
    def test_symbol_rate_window_keeps_its_bits(self, family):
        """The transmit window synthesize takes from _window_at at rate B is
        _tx_window on arange(q_lo, q_hi) / B, bit for bit, so the truncated
        branch's bursts keep their bytes."""
        params = FrameParams(m=64, n=64, nu_p=30e3)
        mn, b = params.m * params.n, params.b
        shape = PulseShape(family=family, beta=0.5, w1_span=16)
        ext = int(np.ceil(shape.beta * mn / 2)) + 1 if family == "rrc" else 24
        q_lo, q_hi = -ext, mn + ext
        got = waveform._window_at(shape, q_lo, b, q_hi - q_lo, params.t, 24 / b)
        want = waveform._tx_window(shape, np.arange(q_lo, q_hi) / b, params.t, 24 / b)
        assert got.tobytes() == want.tobytes()


class TestLoopback:
    """Transmit -> matched filter -> fold with no channel in between."""

    def test_rrc_taps_close(self):
        err = loopback_error(8, 8, PulseShape(family="rrc", beta=0.5, w1_span=16))
        assert err < 1e-3

    def test_rrc_exact_is_lossless(self):
        err = loopback_error(8, 8, PulseShape(family="rrc", beta=0.5, w1_span=None))
        assert err < 1e-12

    def test_sinc_exact_is_lossless(self):
        err = loopback_error(8, 8, PulseShape(family="sinc", w1_span=None))
        assert err < 1e-12

    def test_sinc_taps_truncation_floor(self):
        # The sinc tail decays like 1/t, so a truncated realization keeps
        # a visible self-interference floor that a wider span barely moves.
        err = loopback_error(8, 8, PulseShape(family="sinc", w1_span=16))
        assert err < 0.12
        rrc = loopback_error(8, 8, PulseShape(family="rrc", beta=0.5, w1_span=16))
        assert rrc < err

    def test_short_sinc_span_rejected(self):
        sh = PulseShape(family="sinc", w1_span=8)
        params = FrameParams(m=8, n=8, nu_p=B / 8)
        g = np.ones((8, 8), dtype=complex)
        with pytest.raises(ValueError, match="tap energy"):
            synthesize(idzt(g), sh, params.b, 4)

    def test_loopback_preserves_energy(self):
        m = n = 8
        params = FrameParams(m=m, n=n, nu_p=B / m)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        sh = PulseShape(family="rrc", beta=0.5, w1_span=None)
        a = synthesize(idzt(g), sh, params.b, 4)
        y = dzt(sample_and_periodize(matched_filter(a, sh, params), params), m, n)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(g) ** 2), rel=1e-12)


class TestAnalogSignal:
    """Container semantics for the oversampled signal."""

    def test_times_axis(self):
        s = AnalogSignal(samples=np.zeros(4), rate=2.0, start=-2)
        assert np.allclose(times(s), [-1.0, -0.5, 0.0, 0.5])

    def test_rate_positive(self):
        with pytest.raises(ValueError, match="rate"):
            AnalogSignal(samples=np.zeros(4), rate=0.0)

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_rate_finite(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            AnalogSignal(samples=np.zeros(4), rate=rate)

    def test_samples_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            AnalogSignal(samples=np.zeros((2, 2)), rate=1.0)

    def test_constructor_copies(self):
        x = np.zeros(4, dtype=np.complex128)
        s = AnalogSignal(samples=x, rate=1.0)
        x[0] = 1.0
        assert s.samples[0] == 0.0
        assert not s.samples.flags.writeable

    def test_adopt_shares_and_freezes(self):
        x = np.arange(4, dtype=np.complex128)
        s = AnalogSignal.adopt(x, rate=2.0, start=-2)
        assert s.samples is x
        assert not x.flags.writeable
        assert (s.rate, s.start) == (2.0, -2)

    def test_adopt_checks(self):
        with pytest.raises(ValueError, match="complex128"):
            AnalogSignal.adopt(np.zeros(4), rate=1.0)
        with pytest.raises(ValueError, match="complex128"):
            AnalogSignal.adopt(np.zeros((2, 2), dtype=np.complex128), rate=1.0)
        with pytest.raises(ValueError, match="rate"):
            AnalogSignal.adopt(np.zeros(4, dtype=np.complex128), rate=0.0)


class TestSamplingAlignment:
    """Rate and time-origin checks on the receive side."""

    def setup_method(self):
        self.params = FrameParams(m=8, n=8, nu_p=B / 8)

    def test_non_integer_rate_rejected(self):
        bad = AnalogSignal(samples=np.zeros(700), rate=2.5 * B, start=0)
        with pytest.raises(ValueError, match="integer multiple"):
            sample_and_periodize(bad, self.params)

    def test_non_integer_start_rejected(self):
        """A signal cannot sit off its own sample grid."""
        for start in (0.3, 3.0):
            with pytest.raises(ValueError, match="integer sample index"):
                AnalogSignal(samples=np.zeros(700), rate=4 * B, start=start)
            with pytest.raises(ValueError, match="integer sample index"):
                AnalogSignal.adopt(np.zeros(700, dtype=np.complex128), rate=4 * B,
                                   start=start)

    def test_short_signal_rejected(self):
        short = AnalogSignal(samples=np.zeros(32), rate=4 * B, start=0)
        with pytest.raises(ValueError, match="frame period"):
            sample_and_periodize(short, self.params)

    def test_oversampling_floor_on_synthesize(self):
        g = np.ones((8, 8), dtype=complex)
        with pytest.raises(ValueError, match="at least 2"):
            synthesize(idzt(g), PulseShape(), B, 1)

    def test_symbol_rate_accepted(self):
        """q = 1: the rate-B output of matched_filter folds as it is."""
        x = np.arange(80, dtype=np.complex128)
        sig = AnalogSignal(samples=x, rate=B, start=-8)
        folded = sample_and_periodize(sig, self.params)
        want = np.zeros(64, dtype=np.complex128)
        np.add.at(want, np.arange(-8, 72) % 64, x)
        assert np.array_equal(folded, want)

    def test_symbol_rate_still_checks_rate(self):
        with pytest.raises(ValueError, match="integer multiple"):
            sample_and_periodize(AnalogSignal(samples=np.zeros(80), rate=1.5 * B),
                                 self.params)

    def test_matched_filter_needs_oversampled_input(self):
        sig = AnalogSignal(samples=np.zeros(80), rate=B, start=0)
        with pytest.raises(ValueError, match="integer multiple >= 2"):
            matched_filter(sig, PulseShape(), self.params)

    @pytest.mark.parametrize("span", [16, None])
    @pytest.mark.parametrize("lead", [0, 3, 37])
    def test_matched_filter_output_on_symbol_grid(self, span, lead):
        """Rate B, start on the symbol grid, values the full-rate picks."""
        q = 4
        shape = PulseShape(family="rrc", beta=0.5, w1_span=span)
        rng = np.random.default_rng(lead)
        n = 64 * q + 200
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sig = AnalogSignal(samples=x, rate=q * B, start=-lead)
        out = matched_filter(sig, shape, self.params)
        assert out.rate == B
        assert isinstance(out.start, int)
        if span is None:
            assert (out.start, out.samples.size) == (0, 64)
            return
        first = lead % q
        window = waveform._window_at(shape, sig.start, sig.rate, n, self.params.t, 0.0)
        want = (full_rate_correlation(x, shape, q) * np.conj(window))[first::q]
        assert out.start * q == first - lead
        assert out.samples.size == want.size
        assert relative_error(out.samples, want) <= 1e-12

    @pytest.mark.parametrize("span", [16, None])
    def test_buffer_cut_before_the_last_symbol_instant_rejected(self, span):
        """Both shaping branches need symbol instants 0 .. MN-1 in the buffer.

        The same cut, 100 samples short of instant MN-1, raises on both; a
        buffer that ends at that instant decodes on both."""
        q = 4
        shape = PulseShape(family="rrc", beta=0.5, w1_span=span)
        rng = np.random.default_rng(9)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        tx = synthesize(idzt(g), shape, B, q)
        last = 63 * q - tx.start

        def decode(stop):
            sig = AnalogSignal(samples=tx.samples[:stop], rate=tx.rate, start=tx.start)
            return sample_and_periodize(matched_filter(sig, shape, self.params),
                                        self.params)

        assert decode(last + 1).size == 64
        with pytest.raises(ValueError, match="does not cover the frame period"):
            decode(last - 100)


def frame_params(m, n):
    return FrameParams(m=m, n=n, nu_p=B / m)


class TestScatterFreeFolds:
    """The reshape-and-sum folds against the np.add.at scatter they replace.

    Both add each slot's samples in ascending sample order, so they agree
    bit for bit, however many periods the signal spans."""

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(1, 5),
           dims=st.sampled_from([(2, 2), (4, 2), (8, 8)]),
           lead=st.integers(0, 300), extra=st.integers(0, 300))
    def test_sample_and_periodize_matches_scatter(self, seed, q, dims, lead, extra):
        params = frame_params(*dims)
        mn = params.m * params.n
        n = lead + (mn - 1) * q + 1 + extra
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sig = AnalogSignal(samples=x, rate=q * B, start=-lead)
        got = sample_and_periodize(sig, params)
        sym = np.arange(-(lead // q), (n - 1 - lead) // q + 1)
        want = np.zeros(mn, dtype=np.complex128)
        np.add.at(want, np.mod(sym, mn), x[lead + sym * q])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(2, 4),
           family=st.sampled_from(["rrc", "sinc"]),
           lead=st.integers(0, 200), periods=st.integers(1, 4))
    def test_exact_matched_filter_matches_scatter(self, seed, q, family, lead,
                                                  periods):
        params = frame_params(4, 4)
        shape = PulseShape(family=family, beta=0.5, w1_span=None)
        period = params.m * params.n * q
        rng = np.random.default_rng(seed)
        # The buffer holds symbol instants 0 .. MN-1, as matched_filter
        # requires, and runs on for up to `periods` more frame periods.
        n = lead + period - q + 1 + int(rng.integers(0, periods * period))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sig = AnalogSignal(samples=x, rate=q * B, start=-lead)
        got = matched_filter(sig, shape, params)
        window = waveform._window_at(shape, sig.start, sig.rate, n, params.t, 0.0)
        folded = np.zeros(period, dtype=np.complex128)
        np.add.at(folded, waveform._fold_slots(n, -lead, period), x * np.conj(window))
        want = waveform._exact_filter(folded, shape, B, q, correlate=True)[::q]
        assert got.samples.tobytes() == want.tobytes()
