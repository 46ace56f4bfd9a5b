"""Effective-channel estimation, prediction, and MMSE equalization tests."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zakotfs import _lapack, estimation, runner
from zakotfs.config import config_from_dict
from zakotfs.channel import ImpairmentSpec, PathSpec, apply_impairments, apply_paths
from zakotfs.dd_frame import (Constellation, FrameParams, build_layout, demap_symbols,
                               map_bits)
from zakotfs.estimation import (
    EffectiveChannelEstimate,
    SolverDivergence,
    SupportRegion,
    dd_noise_var,
    equalize_taps,
    estimate,
    guard_noise_var,
    manual_taps,
    predict_io,
)
from zakotfs.waveform import PulseShape, matched_filter, sample_and_periodize, synthesize
from zakotfs.zak import dzt, idzt

NU_P = 30e3


def make_layout(m=64, n=64, c_bins=3.0, margin_bins=0.0):
    p = FrameParams(m=m, n=n, nu_p=NU_P)
    return p, build_layout(p, tau_max=c_bins / p.b, dt_margin=margin_bins / p.b)


def pilot_frame(layout, pilot_amp=8.0):
    """A frame with zeroed data cells, pilot only."""
    v = np.zeros((layout.m, layout.n), dtype=complex)
    v[layout.k_p, layout.l_p] = pilot_amp
    return v


def twisted_convolution(s_dd, h):
    """Oracle for predict_io: the twisted convolution taken tap by tap on
    the grid, reading each support cell of h.block directly.

    y[k, l] = sum over taps (k', l') of
        h[k', l'] * s_ext[k - k', l - l'] * exp(j*2*pi*(k - k')*l'/(M*N))
    where s_ext[k + M, l] = s[k, l] * exp(j*2*pi*l/N) is the
    quasi-periodic extension."""
    m, n = s_dd.shape
    kk = np.arange(m)[:, None]
    ll = np.arange(n)[None, :]
    out = np.zeros((m, n), dtype=np.complex128)
    for i, k in enumerate(h.support.delay_taps()):
        for j, l in enumerate(h.support.doppler_taps()):
            val = h.block[i, j]
            if val == 0:
                continue
            dk = kk - k
            dl = ll - l
            wrap = np.exp(2j * np.pi * (dk // m) * dl / n)
            twist = np.exp(2j * np.pi * dk * l / (m * n))
            out += val * s_dd[dk % m, dl % n] * wrap * twist
    return out


def tap(h, k, l):
    """The tap at signed (k, l): its row and column in h.block."""
    i = h.support.delay_taps().tolist().index(k)
    j = h.support.doppler_taps().tolist().index(l)
    return h.block[i, j]


def dense_io_matrix(h):
    """Oracle matrix H with vec(twisted_convolution(s, h)) = H @ vec(s),
    one column per unit grid, row-major over (delay, Doppler)."""
    m, n = h.support.m, h.support.n
    return np.stack([twisted_convolution(e.reshape(m, n), h).ravel()
                     for e in np.eye(m * n)], axis=1)


def dense_mmse(y, h, noise_var):
    """Oracle x = H^H (H H^H + noise_var I)^{-1} y by a dense solve."""
    hd = dense_io_matrix(h)
    gram = hd @ hd.conj().T + noise_var * np.eye(hd.shape[0])
    return (hd.conj().T @ np.linalg.solve(gram, y.ravel())).reshape(y.shape)


@st.composite
def supports(draw):
    """Random even grid with N >= 2 and a delay range on it."""
    m = 2 * draw(st.integers(1, 8))
    n = draw(st.sampled_from([2, 4, 8]))
    k_lo = draw(st.integers(0, m - 1))
    k_hi = draw(st.integers(k_lo + 1, m))
    return SupportRegion(k_lo=k_lo, k_hi=k_hi, m=m, n=n)


def run_chain(grid, params, shape, q, paths=(), imp=None):
    """Transmit, fade, impair, matched-filter, fold back to the grid."""
    sig = synthesize(idzt(grid), shape, params.b, q)
    if paths:
        sig = apply_paths(sig, paths)
    if imp is not None:
        sig = apply_impairments(sig, imp)
    return dzt(sample_and_periodize(matched_filter(sig, shape, params), params),
               params.m, params.n)


class TestSupportRegion:
    """Support construction from the frame layout."""

    def test_c1_spans_inner_guard(self):
        _, lay = make_layout(c_bins=3.0)
        s = SupportRegion.from_layout(lay, "C1")
        assert (s.k_lo, s.k_hi) == (lay.kappa2, lay.kappa3)
        assert list(s.delay_taps()) == [-1, 0, 1, 2, 3]

    def test_c2_spans_full_guard(self):
        _, lay = make_layout(c_bins=3.0)
        s = SupportRegion.from_layout(lay, "C2")
        assert (s.k_lo, s.k_hi) == (lay.kappa1, lay.kappa4)
        assert list(s.delay_taps()) == [-4, -3, -2, -1, 0, 1, 2, 3]

    def test_c1_inside_c2(self):
        _, lay = make_layout(c_bins=2.0)
        c1 = SupportRegion.from_layout(lay, "C1")
        c2 = SupportRegion.from_layout(lay, "C2")
        assert c2.k_lo <= c1.k_lo and c1.k_hi <= c2.k_hi

    def test_doppler_is_full_signed_range(self):
        _, lay = make_layout()
        s = SupportRegion.from_layout(lay, "C1")
        taps = s.doppler_taps()
        assert taps[0] == -32 and taps[-1] == 31

    def test_size_and_contains(self):
        _, lay = make_layout(c_bins=3.0)
        s = SupportRegion.from_layout(lay, "C1")
        assert s.delay_taps().size * s.doppler_taps().size == 5 * 64
        assert s.contains(-1, 0) and s.contains(2, 31)
        assert s.contains(3, 0)
        assert not s.contains(4, 0)
        assert not s.contains(0, 32)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_contains_exactly_the_listed_taps(self, n):
        s = SupportRegion(k_lo=2, k_hi=5, m=8, n=n)
        ks, ls = s.delay_taps(), s.doppler_taps()
        for k in ks:
            for l in ls:
                assert s.contains(int(k), int(l))
        assert not s.contains(int(ks[0]) - 1, int(ls[0]))
        assert not s.contains(int(ks[-1]) + 1, int(ls[0]))
        assert not s.contains(int(ks[0]), int(ls[0]) - 1)
        assert not s.contains(int(ks[0]), int(ls[-1]) + 1)

    def test_unknown_kind_rejected(self):
        _, lay = make_layout()
        with pytest.raises(ValueError, match="kind"):
            SupportRegion.from_layout(lay, "C3")

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError, match="delay range"):
            SupportRegion(k_lo=5, k_hi=5, m=8, n=8)


class TestEstimate:
    """Reading taps off the received pilot neighbourhood."""

    def test_reads_with_pilot_phase_removed(self):
        """y[k_p + k, l_p + l] maps to h[k, l] * exp(+j pi l / N) / A."""
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        amp = 4.0
        v = np.zeros((16, 8), dtype=complex)
        v[lay.k_p + 1, (lay.l_p + 2) % 8] = 0.5 - 0.25j
        h = estimate(v, sup, amp)
        got = tap(h, 1, 2)
        expect = (0.5 - 0.25j) * np.exp(-1j * np.pi * 2 / 8) / amp
        assert got == pytest.approx(expect, abs=1e-14)

    def test_outside_support_is_zero(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        rng = np.random.default_rng(0)
        y = rng.standard_normal((16, 8))
        h = estimate(y, sup, 1.0)
        # The block holds the support's taps and nothing else.
        assert h.block.shape == (sup.k_hi - sup.k_lo, 8)
        held = {(int(k), int(l)) for k, l, _ in h.tap_items()}
        assert held == {(k, l) for k in range(-8, 8) for l in range(-4, 4)
                        if sup.contains(k, l)}

    def test_pilot_only_loopback_identity(self):
        """With no channel the estimate is a clean unit tap at (0, 0)."""
        p, lay = make_layout(m=16, n=16, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C2")
        y = run_chain(pilot_frame(lay), p, PulseShape(family="sinc", w1_span=None), 4)
        h = estimate(y, sup, 8.0)
        assert h.peak() == (0, 0)
        assert tap(h, 0, 0) == pytest.approx(1.0, abs=1e-9)
        assert np.sum(np.abs(h.block) ** 2) - abs(tap(h, 0, 0)) ** 2 < 1e-3

    def test_integer_path_lands_on_its_bins(self):
        """A one-path channel at integer (delay, Doppler) peaks there."""
        p, lay = make_layout(m=16, n=16, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        path = PathSpec(gain=0.8, delay=1 / p.b, doppler=2 * p.doppler_bin_hz)
        y = run_chain(pilot_frame(lay), p, PulseShape(family="sinc", w1_span=None),
                      4, paths=(path,))
        h = estimate(y, sup, 8.0)
        assert h.peak() == (1, 2)
        assert abs(tap(h, 1, 2)) == pytest.approx(0.8, rel=1e-6)

    @pytest.mark.parametrize("kind", ["C1", "C2"])
    @pytest.mark.parametrize("m, n", [(16, 8), (64, 64)])
    def test_matches_row_loop(self, kind, m, n):
        """One row slice gives the per-row loop's taps bit for bit."""
        _, lay = make_layout(m=m, n=n, c_bins=2.0, margin_bins=1.0)
        sup = SupportRegion.from_layout(lay, kind)
        rng = np.random.default_rng(m + n)
        y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        got = estimate(y, sup, 8.0).block
        want = np.zeros((sup.k_hi - sup.k_lo, n), dtype=np.complex128)
        ls = sup.doppler_taps()
        phase = np.exp(-1j * np.pi * ls / n)
        for i, k_abs in enumerate(range(sup.k_lo, sup.k_hi)):
            want[i] = y[k_abs, (ls + n // 2) % n] * phase / 8.0
        assert got.tobytes() == want.tobytes()

    def test_pilot_amp_positive(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        y = np.zeros((16, 8))
        with pytest.raises(ValueError, match="pilot_amp"):
            estimate(y, sup, 0.0)

    def test_support_grid_must_match(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion(k_lo=3, k_hi=5, m=8, n=8)
        y = np.zeros((16, 8))
        with pytest.raises(ValueError, match="different grid"):
            estimate(y, sup, 1.0)


class TestManualTapsAndEstimate:
    """The direct tap container used by tests and the selftest."""

    def test_tap_items_covers_support(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0}, sup)
        assert sum(1 for _ in h.tap_items()) == (sup.k_hi - sup.k_lo) * sup.n

    def test_peak_finds_planted_tap(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C2")
        h = manual_taps({(0, 0): 0.4, (-2, 3): 0.9j}, sup)
        assert h.peak() == (-2, 3)

    @staticmethod
    def loop_peak(h):
        """First largest magnitude in tap_items order."""
        best, at = -1.0, (0, 0)
        for k, l, val in h.tap_items():
            if abs(val) > best:
                best, at = abs(val), (k, l)
        return at

    @pytest.mark.parametrize("seed", range(6))
    def test_peak_matches_tap_loop(self, seed):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C2" if seed % 2 else "C1")
        rng = np.random.default_rng(seed)
        y = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        h = estimate(y, sup, 1.0)
        assert h.peak() == self.loop_peak(h)

    def test_peak_tie_takes_first_signed_tap(self):
        """Equal magnitudes: the lowest signed delay, then signed Doppler, wins."""
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C2")
        h = manual_taps({(1, -4): 0.9, (-2, 3): -0.9, (-2, -1): 0.9j}, sup)
        assert h.peak() == self.loop_peak(h) == (-2, -1)
        assert all(type(i) is int for i in h.peak())

    def test_out_of_support_tap_rejected(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        with pytest.raises(ValueError, match="outside the support"):
            manual_taps({(5, 0): 1.0}, sup)

    def test_grid_size_mismatch_rejected(self):
        sup = SupportRegion(k_lo=3, k_hi=5, m=8, n=8)
        for shape in ((4, 4), (8, 8), (2, 4), (2, 8, 1), (16,)):
            with pytest.raises(ValueError, match="shape"):
                EffectiveChannelEstimate(block=np.zeros(shape), support=sup)
        assert EffectiveChannelEstimate(block=np.zeros((2, 8)), support=sup).block.shape == (2, 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan),
                                     complex(1, np.inf)])
    def test_nonfinite_tap_rejected(self, bad):
        sup = SupportRegion(k_lo=3, k_hi=5, m=8, n=8)
        block = np.zeros((2, 8), dtype=np.complex128)
        block[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            EffectiveChannelEstimate(block=block, support=sup)
        with pytest.raises(ValueError, match="finite"):
            manual_taps({(0, 0): 1.0, (-1, 2): bad}, sup)

    def test_block_is_a_read_only_copy(self):
        sup = SupportRegion(k_lo=3, k_hi=5, m=8, n=8)
        block = np.ones((2, 8))
        h = EffectiveChannelEstimate(block=block, support=sup)
        block[0, 0] = 5.0
        assert h.block.dtype == np.complex128 and h.block[0, 0] == 1.0
        for est in (h, manual_taps({(0, 1): 0.5}, sup)):
            with pytest.raises(ValueError, match="read-only"):
                est.block[0, 0] = 2.0


class TestPredictIo:
    """The twisted convolution against independent references."""

    def naive_predict(self, s, h):
        """Literal scalar-loop twisted convolution over the support.

        The frame continues quasi-periodically off its grid:
        s[k + M, l] = exp(j 2 pi l / N) s[k, l], plain-periodic in l.
        """
        m, n = s.shape
        out = np.zeros((m, n), dtype=complex)
        for k in range(m):
            for l in range(n):
                acc = 0.0 + 0.0j
                for kp, lp, val in h.tap_items():
                    if val == 0:
                        continue
                    kk, ll = k - kp, l - lp
                    s_ext = np.exp(2j * np.pi * (kk // m) * ll / n) * s[kk % m, ll % n]
                    acc += val * s_ext * np.exp(2j * np.pi * kk * lp / (m * n))
                out[k, l] = acc
        return out

    def test_identity_tap_is_identity(self):
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        rng = np.random.default_rng(1)
        s = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = manual_taps({(0, 0): 1.0}, sup)
        y = predict_io(s, h)
        assert np.max(np.abs(y - s)) < 1e-14

    def test_single_tap_shift_phase_by_hand(self):
        """One tap moves the pilot and twists it by exp(j 2 pi k_p l0 / MN)."""
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C2")
        amp = 3.0
        s = pilot_frame(lay, pilot_amp=amp)
        g = 0.7 - 0.1j
        h = manual_taps({(1, 2): g}, sup)
        y = predict_io(s, h)
        expect = g * amp * np.exp(2j * np.pi * lay.k_p * 2 / 64)
        assert y[lay.k_p + 1, lay.l_p + 2] == pytest.approx(expect, abs=1e-13)

    @pytest.mark.parametrize("m,n", [(8, 8), (8, 4), (16, 8)])
    def test_matches_naive_double_sum(self, m, n):
        p = FrameParams(m=m, n=n, nu_p=NU_P)
        lay = build_layout(p, tau_max=1.0 / p.b, dt_margin=0.0)
        sup = SupportRegion.from_layout(lay, "C2")
        rng = np.random.default_rng(m + n)
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        entries = {}
        for k in sup.delay_taps():
            for l in sup.doppler_taps():
                if rng.uniform() < 0.3:
                    entries[(int(k), int(l))] = complex(rng.standard_normal(),
                                                        rng.standard_normal())
        h = manual_taps(entries, sup)
        fast = predict_io(s, h)
        slow = self.naive_predict(s, h)
        assert np.max(np.abs(fast - slow)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(sup=supports(), seed=st.integers(0, 2 ** 32 - 1),
           density=st.floats(0.05, 0.6))
    @example(sup=SupportRegion(0, 16, 16, 8), seed=3, density=0.3)
    @example(sup=SupportRegion(1, 2, 2, 2), seed=4, density=0.6)
    def test_matches_oracle_on_random_supports(self, sup, seed, density):
        """The time-domain operator is the tap-by-tap twisted convolution."""
        m, n = sup.m, sup.n
        rng = np.random.default_rng(seed)
        entries = {(int(k), int(l)): complex(rng.standard_normal(), rng.standard_normal())
                   for k in sup.delay_taps() for l in sup.doppler_taps()
                   if rng.random() < density}
        h = manual_taps(entries, sup)
        s = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        want = twisted_convolution(s, h)
        got = predict_io(s, h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)

    @settings(max_examples=60, deadline=None)
    @given(sup=supports(), seed=st.integers(0, 2 ** 32 - 1))
    @example(sup=SupportRegion(0, 16, 16, 8), seed=3)
    def test_matches_roll_gather_form(self, sup, seed):
        """predict_io gives, byte for byte, the per-delay rolls gathered
        along the time axis and summed over the delays in order."""
        rng = np.random.default_rng(seed)
        entries = {(int(k), int(l)): complex(rng.standard_normal(), rng.standard_normal())
                   for k in sup.delay_taps() for l in sup.doppler_taps()
                   if rng.random() < 0.5}
        h = manual_taps(entries, sup)
        s = rng.standard_normal((sup.m, sup.n)) + 1j * rng.standard_normal((sup.m, sup.n))
        x = idzt(s)
        mn = x.size
        gather = (np.arange(mn) - sup.delay_taps()[:, None]) % mn
        profiles = estimation._delay_gain_profiles(h)
        y = np.take_along_axis(profiles * x, gather, axis=-1).sum(axis=0)
        assert predict_io(s, h).tobytes() == dzt(y, sup.m, sup.n).tobytes()

    def test_grid_mismatch_rejected(self):
        """Taps on a 16x8 support cannot act on an 8x8 frame."""
        sup = SupportRegion(k_lo=7, k_hi=10, m=16, n=8)
        h = manual_taps({(0, 0): 1.0, (1, 2): 0.5j}, sup)
        s = np.ones((8, 8), dtype=complex)
        with pytest.raises(ValueError, match="tap support and grid dimensions disagree"):
            predict_io(s, h)

    def _calibrated_error(self, path):
        """Taps read from a pilot frame, then used to predict a data frame."""
        p, lay = make_layout(m=8, n=8, c_bins=1.5)
        sup = SupportRegion.from_layout(lay, "C2")
        shape = PulseShape(family="rrc", beta=0.5, w1_span=None)
        y_pilot = run_chain(pilot_frame(lay), p, shape, 4, paths=(path,))
        h = estimate(y_pilot, sup, 8.0)
        const = Constellation(4)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=lay.n_data_cells * const.bits_per_symbol)
        frame = map_bits(bits, const, lay, pilot_amp=8.0)
        y_true = run_chain(frame, p, shape, 4, paths=(path,))
        y_pred = predict_io(frame, h)
        return np.linalg.norm(y_pred - y_true) / np.linalg.norm(y_true)

    def test_calibrated_prediction_matches_the_chain(self):
        """On-bin paths are predicted to a fraction of a percent."""
        p = FrameParams(m=8, n=8, nu_p=NU_P)
        path = PathSpec(gain=0.9 * np.exp(0.3j), delay=1.0 / p.b,
                        doppler=2 * p.doppler_bin_hz)
        assert self._calibrated_error(path) < 5e-3

    def test_fractional_delay_leaks_past_the_support(self):
        """Off-bin delays spread slowly decaying interpolation tails
        beyond any finite support, so the error floor is far higher."""
        p = FrameParams(m=8, n=8, nu_p=NU_P)
        path = PathSpec(gain=0.9 * np.exp(0.3j), delay=1.3 / p.b, doppler=0.0)
        err = self._calibrated_error(path)
        assert 1e-3 < err < 0.15


class TestMmseEqualize:
    """The MMSE equalizer against closed forms and its error contract."""

    def test_identity_channel_noiseless(self):
        _, lay = make_layout(m=16, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C2")
        rng = np.random.default_rng(5)
        y = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
        x = equalize_taps(y, manual_taps({(0, 0): 1.0}, sup), 0.0)
        assert np.max(np.abs(x - y)) < 1e-10

    def test_diagonal_channel_closed_form(self):
        """Zero-delay taps act in time as one gain g[t] = sum_l h_l
        exp(j 2 pi l t / MN), so x = conj(g) y / (|g|^2 + noise_var) there."""
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        rng = np.random.default_rng(6)
        gains = {int(l): complex(rng.standard_normal(), rng.standard_normal())
                 for l in sup.doppler_taps()}
        h = manual_taps({(0, l): g for l, g in gains.items()}, sup)
        t = np.arange(64)
        g = sum(v * np.exp(2j * np.pi * l * t / 64) for l, v in gains.items())
        y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        var = 0.3
        x = equalize_taps(y, h, var)
        expect = dzt(np.conj(g) * idzt(y) / (np.abs(g) ** 2 + var), 8, 8)
        assert np.max(np.abs(x - expect)) < 1e-10

    def test_noiseless_two_tap_channel_inverts(self):
        """y built by the oracle matrix, not by predict_io itself."""
        _, lay = make_layout(m=8, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0, (1, -2): 0.4j}, sup)
        rng = np.random.default_rng(7)
        s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = (dense_io_matrix(h) @ s).reshape(8, 8)
        x = equalize_taps(y, h, 0.0)
        assert np.max(np.abs(x.ravel() - s)) < 1e-9

    def test_heavy_noise_shrinks_output(self):
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        rng = np.random.default_rng(8)
        y = rng.standard_normal((8, 8))
        x = equalize_taps(y, manual_taps({(0, 0): 1.0}, sup), 1e9)
        assert np.linalg.norm(x) < 1e-6 * np.linalg.norm(y)

    def test_singular_system_raises_divergence(self):
        """Rank-deficient taps without regularization: the operators below
        annihilate a constant, an alternating or a single-sample time
        sequence, so H H^H has a null direction."""
        _, lay = make_layout(m=16, n=16, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        y = np.ones((16, 16))
        for entries in ({(0, 0): 1.0, (1, 0): -1.0},
                        {(0, 0): 1.0, (1, 0): 1.0},
                        {(0, 0): 1.0, (0, 1): -1.0},
                        {(-1, 0): 0.5, (0, 0): 1.0, (1, 0): 0.5}):
            h = manual_taps(entries, sup)
            with pytest.raises(SolverDivergence, match="singular"):
                equalize_taps(y, h, 0.0)
            assert np.all(np.isfinite(equalize_taps(y, h, 1e-3)))

    def test_negative_noise_rejected(self):
        sup = SupportRegion(k_lo=2, k_hi=3, m=4, n=4)
        y = np.zeros((4, 4))
        with pytest.raises(ValueError, match="noise_var"):
            equalize_taps(y, manual_taps({(0, 0): 1.0}, sup), -1.0)

    def test_shape_mismatch_rejected(self):
        sup = SupportRegion(k_lo=2, k_hi=3, m=4, n=4)
        y = np.zeros((6, 6))
        with pytest.raises(ValueError, match="disagree"):
            equalize_taps(y, manual_taps({(0, 0): 1.0}, sup), 0.0)


def gather_normal_band(profiles, noise_var, delays):
    """_normal_band as it was built from per-offset gather maps: the
    (rows, mn) profile products of each offset gathered back onto the ring
    by flat index and summed over rows, then scattered one offset at a
    time into the Fortran-ordered band."""
    d_count, mn = profiles.shape
    span = d_count - 1
    u = 2 * span
    d = np.array(delays)
    t = np.arange(mn)
    pos = estimation._ring_fold(mn)
    entries, dests = [], []
    for off in range(span + 1):
        rows = d_count - off
        gather = (t - d[:rows, None]) % mn + mn * np.arange(rows)[:, None]
        p, q = pos, pos[(t + off) % mn]
        row, col = np.minimum(p, q), np.maximum(p, q)
        prod = profiles[:d_count - off] * np.conj(profiles[off:])
        entry = np.take(prod, gather).sum(axis=0)
        np.conjugate(entry, out=entry, where=p > q)
        entries.append(entry)
        dests.append((u + row - col) + (u + 1) * col)
    seed = estimation._ZERO_SEED * (np.max(entries[0].real) + noise_var)
    band = np.full((2 * d_count - 1, mn), seed, dtype=np.complex128, order="F")
    flat = band.reshape(-1, order="F")
    for dest, entry in zip(dests, entries):
        flat[dest] = entry
    band[-1] += noise_var
    return band


class TestEqualizeTaps:
    """The banded tap-driven solve against the dense oracle.

    Both solve the same regularized normal equations; the tap form
    assembles them as a folded band from per-delay circular shifts under
    time-varying gains, so it must agree to rounding on any support."""

    def _random_estimate(self, sup, seed, density=0.3):
        rng = np.random.default_rng(seed)
        entries = {(0, 0): 1.0}
        for k in sup.delay_taps():
            for l in sup.doppler_taps():
                if rng.random() < density:
                    entries[(int(k), int(l))] = 0.2 * complex(
                        rng.standard_normal(), rng.standard_normal())
        return manual_taps(entries, sup)

    def test_batched_profiles_match_row_loop(self):
        """One 2-D inverse FFT gives the per-delay-row profiles bit for bit."""
        _, lay = make_layout(m=16, n=16, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C2")
        h = self._random_estimate(sup, seed=5, density=0.6)
        mn = sup.m * sup.n
        profiles = estimation._delay_gain_profiles(h)
        dopplers = sup.doppler_taps()
        assert np.array_equal(estimation._maps(sup).delays, sup.delay_taps())
        for row, got in zip(h.block, profiles, strict=True):
            spec = np.zeros(mn, dtype=np.complex128)
            spec[dopplers % mn] = row
            assert np.array_equal(got, mn * np.fft.ifft(spec))

    def test_maps_hold_the_rolls(self):
        """One memo serves H (shifts d) and H^H (shifts -d)."""
        sup = SupportRegion(k_lo=2, k_hi=8, m=8, n=8)
        maps, mn = estimation._maps(sup), 64
        assert maps.delays.tolist() == [-2, -1, 0, 1, 2, 3]
        z = np.arange(mn) + 1j
        for r, d in enumerate(maps.delays):
            assert np.array_equal(z[maps.roll[r, :mn] - r * mn], np.roll(z, d))
            assert np.array_equal(z[maps.adjoint[r]], np.roll(z, -d))

    @settings(max_examples=80, deadline=None)
    @given(span=st.integers(0, 4), mn=st.sampled_from([9, 16, 50, 256, 4096, 8192]),
           first=st.integers(-4, 4), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-6, 1e6),
           noise_var=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)))
    # The benchmark bands: delays -1..3 on the 64x64 ring and on the 16x16 one.
    @example(span=4, mn=4096, first=-1, seed=0, scale=1.0, noise_var=0.0)
    @example(span=4, mn=4096, first=-1, seed=1, scale=1.0, noise_var=3e-3)
    @example(span=4, mn=256, first=-1, seed=2, scale=1.0, noise_var=0.1)
    def test_rolled_band_matches_gather_band(self, span, mn, first, seed, scale, noise_var):
        """Products of slices of one rolled array give the gather version's
        band byte for byte, also where the products pass numpy's 256 KiB
        in-place threshold (five 4,096-sample rows) and the factors swap.
        The ring is an MN x 1 grid, whose delays reach (MN - 1) // 2."""
        assume(first + span <= (mn - 1) // 2)
        sup = SupportRegion(k_lo=mn // 2 + first, k_hi=mn // 2 + first + span + 1, m=mn, n=1)
        rng = np.random.default_rng(seed)
        profiles = scale * (rng.standard_normal((span + 1, mn))
                            + 1j * rng.standard_normal((span + 1, mn)))
        got = estimation._normal_band(profiles, noise_var, estimation._maps(sup))
        want = gather_normal_band(profiles, noise_var, sup.delay_taps())
        assert got.flags.f_contiguous
        assert got.shape == want.shape
        assert got.tobytes(order="A") == want.tobytes(order="A")

    @pytest.mark.parametrize("m,n,c_bins,kind", [
        (8, 8, 1.5, "C2"),
        (16, 8, 2.0, "C1"),
        (16, 16, 2.0, "C2"),
    ])
    def test_matches_matrix_path(self, m, n, c_bins, kind):
        _, lay = make_layout(m=m, n=n, c_bins=c_bins)
        sup = SupportRegion.from_layout(lay, kind)
        h = self._random_estimate(sup, seed=m * 10 + n)
        rng = np.random.default_rng(3)
        y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        via_matrix = dense_mmse(y, h, 0.05)
        via_solver = equalize_taps(y, h, 0.05)
        scale = np.max(np.abs(via_matrix))
        assert np.max(np.abs(via_solver - via_matrix)) / scale < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(sup=supports(), seed=st.integers(0, 2 ** 32 - 1),
           noise_var=st.floats(1e-3, 10.0))
    @example(sup=SupportRegion(0, 2, 2, 2), seed=0, noise_var=1e-3)
    @example(sup=SupportRegion(0, 16, 16, 2), seed=1, noise_var=1e-3)
    def test_band_layout_matches_oracle(self, sup, seed, noise_var):
        """Random grids down to N = 2, where a support over the whole
        delay axis brings the folded band closest to aliasing around the
        ring."""
        m, n = sup.m, sup.n
        span = sup.k_hi - sup.k_lo - 1
        assert 2 * span < m * n
        rng = np.random.default_rng(seed)
        entries = {(int(k), int(l)): complex(rng.standard_normal(), rng.standard_normal())
                   for k in sup.delay_taps() for l in sup.doppler_taps()
                   if rng.random() < 0.5}
        h = manual_taps(entries, sup)
        y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        want = dense_mmse(y, h, noise_var)
        got = equalize_taps(y, h, noise_var)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @staticmethod
    def _two_call_solve(y, h, noise_var):
        """equalize_taps with the band solved by cholesky_banded, then
        cho_solve_banded: the zpbtrf and zpbtrs calls zpbsv makes in one."""
        maps = estimation._maps(h.support)
        profiles = estimation._delay_gain_profiles(h)
        s = idzt(y)
        band = estimation._normal_band(profiles, noise_var, maps)
        folded = np.empty_like(s)
        folded[maps.pos] = s
        factor = scipy.linalg.cholesky_banded(band, check_finite=False)
        z = scipy.linalg.cho_solve_banded((factor, False), folded, check_finite=False)[maps.pos]
        return dzt((np.conj(profiles) * z[maps.adjoint]).sum(axis=0), *y.shape)

    @settings(max_examples=60, deadline=None)
    @given(sup=supports(), seed=st.integers(0, 2 ** 32 - 1),
           noise_var=st.floats(1e-3, 10.0))
    @example(sup=SupportRegion(0, 16, 16, 2), seed=1, noise_var=1e-3)
    def test_one_call_solve_matches_two_calls(self, sup, seed, noise_var):
        """One zpbsv call returns the two-call solution bit for bit."""
        rng = np.random.default_rng(seed)
        entries = {(int(k), int(l)): complex(rng.standard_normal(), rng.standard_normal())
                   for k in sup.delay_taps() for l in sup.doppler_taps()
                   if rng.random() < 0.5}
        h = manual_taps(entries, sup)
        y = rng.standard_normal((sup.m, sup.n)) + 1j * rng.standard_normal((sup.m, sup.n))
        got = equalize_taps(y, h, noise_var)
        want = self._two_call_solve(y, h, noise_var)
        assert got.tobytes() == want.tobytes()

    def test_failed_factorization_raises_divergence(self):
        """Zero taps without noise give an all-zero band: zpbtrf itself
        stops at the first pivot, before any pivot floor is read, and the
        caller sees SolverDivergence rather than a LAPACK error."""
        _, lay = make_layout(m=8, n=4, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({}, sup)
        profiles = estimation._delay_gain_profiles(h)
        band = estimation._normal_band(profiles, 0.0, estimation._maps(sup))
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cholesky_banded(band)
        assert _lapack.zpbsv(band, np.ones(32, dtype=complex)) == 1
        y = np.ones((8, 4))
        with pytest.raises(SolverDivergence, match="singular"):
            equalize_taps(y, h, 0.0)

    def test_lapack_failure_code_is_divergence(self, monkeypatch):
        """A nonzero info fails the solve even when the factor's pivots look sound."""
        assert estimation.zpbsv is _lapack.zpbsv

        def failing(band, rhs):
            assert _lapack.zpbsv(band, rhs) == 0
            return 3
        monkeypatch.setattr(estimation, "zpbsv", failing)
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        h = manual_taps({(0, 0): 1.0}, SupportRegion.from_layout(lay, "C1"))
        with pytest.raises(SolverDivergence, match="singular"):
            equalize_taps(np.ones((8, 8)), h, 0.1)

    def test_noiseless_two_tap_channel_inverts(self):
        _, lay = make_layout(m=8, n=8, c_bins=2.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0, (1, -2): 0.4j}, sup)
        rng = np.random.default_rng(17)
        s = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = predict_io(s, h)
        x = equalize_taps(y, h, 0.0)
        assert np.max(np.abs(x - s)) < 1e-9

    def test_identity_taps_pass_through(self):
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0}, sup)
        rng = np.random.default_rng(18)
        y = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        x = equalize_taps(y, h, 0.0)
        assert np.max(np.abs(x - y)) < 1e-10

    def test_all_zero_taps_without_noise_diverge(self):
        _, lay = make_layout(m=4, n=4, c_bins=0.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({}, sup)
        y = np.ones((4, 4))
        with pytest.raises(SolverDivergence, match="singular"):
            equalize_taps(y, h, 0.0)

    def test_negative_noise_rejected(self):
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0}, sup)
        with pytest.raises(ValueError, match="noise_var"):
            equalize_taps(np.zeros((8, 8)), h, -0.5)

    def test_grid_mismatch_rejected(self):
        _, lay = make_layout(m=8, n=8, c_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0}, sup)
        with pytest.raises(ValueError, match="disagree"):
            equalize_taps(np.zeros((4, 4)), h, 0.0)

    def test_overflowing_taps_raise_divergence(self):
        """Taps read off with a vanishing pilot amplitude overflow the band;
        the solution that is not finite is a failure, not a frame."""
        _, lay = make_layout(m=16, n=16, c_bins=2.0, margin_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        rng = np.random.default_rng(1)
        y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = estimate(y, sup, 1e-160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergence, match="not finite"):
                equalize_taps(y, h, 1e-3)

    def test_delay_span_wider_than_half_the_ring_rejected(self):
        """With N = 1 a full delay support would fold the band onto itself,
        so no such support is built."""
        with pytest.raises(ValueError, match="delay span 3 is too wide for a ring of 4"):
            SupportRegion(k_lo=0, k_hi=4, m=4, n=1)


# The README quick-start experiment at its lowest SNR point.
README_10DB = {
    "config_version": 1,
    "frame": {"m": 64, "n": 64, "tau_p_s": 1 / NU_P, "nu_p_hz": NU_P,
              "pilot_amp": 8.0},
    "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
    "shape": {"family": "rrc", "beta": 0.5, "w1_span": 16, "oversampling": 4},
    "channel": {"paths": [
        {"delay_bins": 0, "doppler_bins": 0, "gain_db": 0.0},
        {"delay_bins": 2, "doppler_bins": 1, "gain_db": -3.0, "phase_deg": 40.0},
    ], "cfo_hz": 200.0},
    "run": {"constellation": 4, "snr_db": [10], "trials": 1, "base_seed": 2024,
            "support": "C1", "sync": True, "cfo_correction": "time_domain"},
}


@pytest.fixture(scope="module")
def readme_10db_system():
    """(y_dd, taps, noise_var) that the README link hands the equalizer."""
    seen = []
    real = runner.equalize_taps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "equalize_taps",
                   lambda y, h, nv: seen.append((y, h, nv)) or real(y, h, nv))
        runner.run_trial(config_from_dict(README_10DB), 0, 0)
    return seen[0]


class TestGridEntryChecks:
    """Every function that takes a DD grid refuses one of another shape."""

    @staticmethod
    def _calls():
        _, lay = make_layout(m=16, n=8, c_bins=2.0, margin_bins=1.0)
        sup = SupportRegion.from_layout(lay, "C1")
        h = manual_taps({(0, 0): 1.0}, sup)
        return {
            "demap_symbols": lambda g: demap_symbols(g, lay, Constellation(4)),
            "estimate": lambda g: estimate(g, sup, 1.0),
            "predict_io": lambda g: predict_io(g, h),
            "equalize_taps": lambda g: equalize_taps(g, h, 0.1),
            "guard_noise_var": lambda g: guard_noise_var(g, lay, sup),
        }

    @pytest.mark.parametrize("name", ["demap_symbols", "estimate", "predict_io",
                                      "equalize_taps", "guard_noise_var"])
    @pytest.mark.parametrize("bad", ["1-D", "transposed"])
    def test_grid_of_another_shape_rejected(self, name, bad):
        call = self._calls()[name]
        grid = np.ones((16, 8), dtype=complex)
        call(grid)
        with pytest.raises(ValueError, match="disagree|different grid"):
            call(grid.ravel() if bad == "1-D" else grid.T)


class TestBandZeroSeed:
    """Seeded structural zeros keep the band factor free of subnormals."""

    def test_readme_factor_has_no_subnormal(self, readme_10db_system):
        y, h, noise_var = readme_10db_system
        profiles = estimation._delay_gain_profiles(h)
        band = estimation._normal_band(profiles, noise_var, estimation._maps(h.support))
        factor = scipy.linalg.cholesky_banded(band, check_finite=False)
        parts = np.abs(np.concatenate([factor.real.ravel(), factor.imag.ravel()]))
        assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))

    def test_solution_bits_match_unseeded_band(self, readme_10db_system, monkeypatch):
        y, h, noise_var = readme_10db_system
        got = equalize_taps(y, h, noise_var)
        monkeypatch.setattr(estimation, "_ZERO_SEED", 0.0)
        want = equalize_taps(y, h, noise_var)
        assert got.tobytes() == want.tobytes()


class TestNoiseCalibration:
    """Noise variance bookkeeping on the DD grid."""

    def test_dd_noise_var_scale(self):
        assert dd_noise_var(2.0, 4, 1.92e6) == pytest.approx(2.0 / (4 * 1.92e6))

    def test_guard_cells_measure_noise(self):
        _, lay = make_layout(c_bins=3.0)
        sup = SupportRegion.from_layout(lay, "C1")
        rng = np.random.default_rng(10)
        var = 0.25
        noise = np.sqrt(var / 2) * (rng.standard_normal((64, 64))
                                    + 1j * rng.standard_normal((64, 64)))
        got = guard_noise_var(noise, lay, sup)
        assert got == pytest.approx(var, rel=0.25)

    @pytest.mark.parametrize("pilot_row", [True, False])
    @pytest.mark.parametrize("m, n, c_bins, margin", [
        (64, 64, 3.0, 0.0), (16, 8, 2.0, 1.0), (32, 16, 2.5, 1.0)])
    def test_mask_matches_cell_list(self, m, n, c_bins, margin, pilot_row):
        """The boolean mask reads the listed guard cells, in the same order.

        A support that stops short of the pilot row leaves the pilot cell
        itself as the one cell to skip in that row."""
        _, lay = make_layout(m=m, n=n, c_bins=c_bins, margin_bins=margin)
        sup = SupportRegion.from_layout(lay, "C1")
        if not pilot_row:
            sup = SupportRegion(k_lo=sup.k_lo, k_hi=lay.k_p, m=m, n=n)
        rng = np.random.default_rng(m * n)
        y = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        cells = [(k, l)
                 for k in range(lay.kappa1, lay.kappa4)
                 for l in range(lay.n)
                 if not (k == lay.k_p and l == lay.l_p)
                 and not sup.k_lo <= k < sup.k_hi]
        vals = np.array([y[k, l] for k, l in cells])
        assert guard_noise_var(y, lay, sup) == float(np.mean(np.abs(vals) ** 2))

    def test_c2_support_leaves_no_probe_cells(self):
        _, lay = make_layout(c_bins=3.0)
        sup = SupportRegion.from_layout(lay, "C2")
        y = np.zeros((64, 64))
        with pytest.raises(ValueError, match="noise-only"):
            guard_noise_var(y, lay, sup)


class TestImpairmentSignatures:
    """How uncorrected CFO and timing offsets read on the estimate."""

    def _estimate_for(self, imp, kind="C2"):
        p, lay = make_layout(m=16, n=16, c_bins=1.0, margin_bins=1.0)
        sup = SupportRegion.from_layout(lay, kind)
        y = run_chain(pilot_frame(lay), p, PulseShape(family="rrc", beta=0.5, w1_span=None),
                      4, paths=(PathSpec(gain=1.0, delay=0.0, doppler=0.0),), imp=imp)
        return estimate(y, sup, 8.0), p

    def test_cfo_of_one_doppler_bin_moves_the_peak(self):
        h0, p = self._estimate_for(None)
        h1, _ = self._estimate_for(ImpairmentSpec(eps0=p.doppler_bin_hz))
        k0, l0 = h0.peak()
        assert (k0, l0) == (0, 0)
        assert h1.peak() == (k0, l0 + 1)

    def test_timing_offset_of_one_bin_moves_the_peak(self):
        h0, p = self._estimate_for(None)
        h1, _ = self._estimate_for(ImpairmentSpec(dt=1.0 / p.b))
        k0, l0 = h0.peak()
        assert h1.peak() == (k0 + 1, l0)

    def test_combined_offsets_stay_inside_c2(self):
        _, p = self._estimate_for(None)
        imp = ImpairmentSpec(dt=0.6 / p.b, eps0=0.5 * p.doppler_bin_hz)
        h, _ = self._estimate_for(imp)
        k, l = h.peak()
        assert h.support.contains(k, l)
