"""Unit tests for the discrete Zak transform pair and the grid types."""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zakotfs.zak import dzt, fast_len, frozen_complex, idzt, memo


def naive_idzt(values):
    """Direct double-sum IDZT, the reference the fast path must match."""
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
    """Direct double-sum DZT."""
    out = np.zeros((m, n), dtype=complex)
    for k in range(m):
        for l in range(n):
            acc = 0.0 + 0.0j
            for blk in range(n):
                acc += samples[k + blk * m] * np.exp(-2j * np.pi * blk * l / n)
            out[k, l] = acc / np.sqrt(n)
    return out


def extend(grid, k, l):
    """Quasi-periodic extension of a grid to arbitrary integer (k, l).

    extend(g, k + n*M, l) == exp(j 2 pi n l / N) * extend(g, k, l) and the
    grid is plain-periodic along Doppler.
    """
    values = np.asarray(grid)
    m, n = values.shape
    phase = np.exp(2j * np.pi * (k // m) * l / n)
    return complex(phase * values[k % m, l % n])


def random_grid(m, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return v


class TestAgainstDirectSum:
    """The FFT implementation must agree with the literal double sum."""

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (8, 4), (4, 8), (8, 8)])
    def test_idzt_matches_naive(self, m, n):
        """Fast IDZT equals the direct sum to near machine precision."""
        g = random_grid(m, n, seed=m * 100 + n)
        fast = idzt(g)
        slow = naive_idzt(g)
        assert np.max(np.abs(fast - slow)) < 1e-12

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 4), (8, 4), (4, 8), (8, 8)])
    def test_dzt_matches_naive(self, m, n):
        """Fast DZT equals the direct sum to near machine precision."""
        rng = np.random.default_rng(m * 7 + n)
        s = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        fast = dzt(s, m, n)
        slow = naive_dzt(s, m, n)
        assert np.max(np.abs(fast - slow)) < 1e-12

    def test_sample_ordering_is_delay_major(self):
        """Sample q = k + n*M carries delay bin k of Doppler block n."""
        g = np.zeros((4, 4), dtype=complex)
        g[2, 0] = 1.0  # flat across Doppler blocks after the inverse DFT
        s = idzt(g)
        expect = np.zeros(16, dtype=complex)
        expect[2::4] = 1.0 / 2.0  # 1/sqrt(N)
        assert np.allclose(s, expect, atol=1e-14)


class TestRoundTripAndUnitarity:
    """dzt inverts idzt and both preserve energy."""

    @pytest.mark.parametrize("m,n", [(2, 2), (4, 8), (8, 4), (16, 16), (64, 64)])
    def test_round_trip(self, m, n):
        """dzt(idzt(g)) returns the original grid."""
        g = random_grid(m, n, seed=5)
        back = dzt(idzt(g), m, n)
        assert np.max(np.abs(back - g)) < 1e-12

    @pytest.mark.parametrize("m,n", [(4, 4), (16, 8), (64, 64)])
    def test_parseval(self, m, n):
        """Grid energy equals sample energy on both legs."""
        g = random_grid(m, n, seed=11)
        s = idzt(g)
        assert np.sum(np.abs(s) ** 2) == pytest.approx(np.sum(np.abs(g) ** 2), rel=1e-12)
        y = dzt(s, m, n)
        assert np.sum(np.abs(y) ** 2) == pytest.approx(np.sum(np.abs(g) ** 2), rel=1e-12)

    def test_linearity(self):
        """The transform of a weighted sum is the weighted sum of transforms."""
        a = random_grid(8, 8, seed=1)
        b = random_grid(8, 8, seed=2)
        combo = 2.0 * a - 1j * b
        lhs = idzt(combo)
        rhs = 2.0 * idzt(a) - 1j * idzt(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


even_sizes = st.integers(1, 16).map(lambda h: 2 * h)


def zak_at(samples, m, n, k, l):
    """Direct DZT sum at any integer (k, l), reading samples MN-periodically."""
    blk = np.arange(n)
    picked = samples[(k + blk * m) % (m * n)]
    return complex(np.sum(picked * np.exp(-2j * np.pi * blk * l / n)) / np.sqrt(n))


class TestTransformProperties:
    """Round trip, unitarity and quasi-periodicity on random even M x N."""

    @settings(max_examples=60, deadline=None)
    @given(m=even_sizes, n=even_sizes, seed=st.integers(0, 2 ** 32 - 1))
    def test_round_trip_both_ways(self, m, n, seed):
        g = random_grid(m, n, seed)
        assert np.allclose(dzt(idzt(g), m, n), g, rtol=0, atol=1e-12)
        s = idzt(random_grid(m, n, seed + 1))
        assert np.allclose(idzt(dzt(s, m, n)), s, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(m=even_sizes, n=even_sizes, seed=st.integers(0, 2 ** 32 - 1))
    def test_unitary(self, m, n, seed):
        """Inner products, not only energies, survive the transform."""
        a = random_grid(m, n, seed)
        b = random_grid(m, n, seed + 1)
        grid_inner = np.vdot(a, b)
        time_inner = np.vdot(idzt(a), idzt(b))
        assert abs(time_inner - grid_inner) <= 1e-12 * m * n
        assert idzt(a).size == m * n

    @settings(max_examples=60, deadline=None)
    @given(m=even_sizes, n=even_sizes, seed=st.integers(0, 2 ** 32 - 1),
           k=st.integers(-100, 100), l=st.integers(-100, 100))
    def test_quasi_periodic(self, m, n, seed, k, l):
        """The direct sum off the fundamental cell equals extend() of the fast DZT."""
        s = idzt(random_grid(m, n, seed))
        z = dzt(s, m, n)
        assert abs(zak_at(s, m, n, k, l) - extend(z, k, l)) < 1e-10
        wrap = np.exp(2j * np.pi * l / n)
        assert abs(extend(z, k + m, l) - wrap * extend(z, k, l)) < 1e-10
        assert abs(extend(z, k, l + n) - extend(z, k, l)) < 1e-10


class TestKnownGrids:
    """Hand-checkable transforms of structured grids."""

    def test_pilot_impulse_becomes_comb(self):
        """A single cell at (k0, 0) spreads into a comb on rows k0 mod M."""
        m, n = 8, 8
        g = np.zeros((m, n), dtype=complex)
        g[3, 0] = 1.0
        s = idzt(g)
        comb = np.zeros(m * n, dtype=complex)
        comb[3::m] = 1.0 / np.sqrt(n)
        assert np.allclose(s, comb, atol=1e-14)

    def test_single_doppler_tone(self):
        """A cell at (k0, l0) gives a phase-rotating comb."""
        m, n = 4, 8
        g = np.zeros((m, n), dtype=complex)
        g[1, 3] = 2.0
        s = idzt(g)
        for blk in range(n):
            expect = 2.0 * np.exp(2j * np.pi * blk * 3 / n) / np.sqrt(n)
            assert s[1 + blk * m] == pytest.approx(expect, abs=1e-14)
            # Other delay bins in the block stay empty.
            assert abs(s[0 + blk * m]) < 1e-14

    def test_constant_samples_concentrate_at_zero_doppler(self):
        """An all-ones sequence has energy only in the l = 0 column."""
        m, n = 8, 4
        y = dzt(np.ones(m * n), m, n)
        assert np.allclose(y[:, 0], np.sqrt(n), atol=1e-13)
        assert np.max(np.abs(y[:, 1:])) < 1e-13


class TestQuasiPeriodicExtension:
    """extend() continues the grid beyond the fundamental window."""

    def test_identity_inside_window(self):
        g = random_grid(4, 6, seed=3)
        for k in range(4):
            for l in range(6):
                assert extend(g, k, l) == pytest.approx(complex(g[k, l]))

    def test_delay_wrap_gains_phase(self):
        """extend(k + M, l) picks up exp(j 2 pi l / N)."""
        g = random_grid(4, 6, seed=4)
        for l in range(6):
            expect = np.exp(2j * np.pi * l / 6) * g[1, l]
            assert extend(g, 1 + 4, l) == pytest.approx(complex(expect), abs=1e-14)

    def test_doppler_axis_plain_periodic(self):
        g = random_grid(4, 6, seed=5)
        assert extend(g, 2, 3 + 6) == pytest.approx(extend(g, 2, 3))
        assert extend(g, 2, 3 - 6) == pytest.approx(extend(g, 2, 3))

    def test_negative_delay_wrap(self):
        """Going one window down conjugates the wrap phase."""
        g = random_grid(4, 6, seed=6)
        for l in range(6):
            expect = np.exp(-2j * np.pi * l / 6) * g[3, l]
            assert extend(g, 3 - 4, l) == pytest.approx(complex(expect), abs=1e-14)

    def test_consistency_with_time_shift(self):
        """A one-sample circular delay reads out at the extended index k - 1."""
        m, n = 4, 4
        g = random_grid(m, n, seed=7)
        s = idzt(g)
        shifted = dzt(np.roll(s, 1), m, n)
        for k in range(m):
            for l in range(n):
                assert shifted[k, l] == pytest.approx(
                    extend(g, k - 1, l), abs=1e-12)


class TestTypesAndValidation:
    """dzt's shape and length checks."""

    def test_dzt_bare_array_needs_shape(self):
        with pytest.raises(TypeError, match="'m' and 'n'"):
            dzt(np.ones(16))

    def test_dzt_bare_array_size_mismatch(self):
        with pytest.raises(ValueError, match="expected 16 samples"):
            dzt(np.ones(12), 4, 4)


class _Pair(NamedTuple):
    values: np.ndarray
    scale: float


class TestMemo:
    """zak.memo: an lru_cache whose cached results are read-only."""

    def test_freezes_arrays_nested_in_tuples_and_named_tuples(self):
        @memo(maxsize=2)
        def build(n):
            return np.arange(n), (np.ones(n), _Pair(np.zeros(n), 0.5)), n, "label"

        flat, (inner, pair), count, label = build(3)
        for arr in (flat, inner, pair.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert type(pair) is _Pair and pair.scale == 0.5
        assert (count, label) == (3, "label")

    def test_bare_array_and_scalar_results(self):
        arr = memo(maxsize=1)(np.eye)(2)
        assert not arr.flags.writeable
        assert memo(maxsize=1)(abs)(-2) == 2

    def test_hits_share_one_result_until_cleared(self):
        calls = []

        @memo(maxsize=2)
        def build(n):
            """Doc of the builder."""
            calls.append(n)
            return np.arange(n)

        first = build(4)
        assert build(4) is first and calls == [4]
        assert build.cache_info().maxsize == 2
        build.cache_clear()
        assert build(4) is not first and calls == [4, 4]
        fresh = build.__wrapped__(4)
        assert np.array_equal(fresh, first) and not fresh.flags.writeable
        assert (build.__name__, build.__doc__) == ("build", "Doc of the builder.")

    def test_hit_path_is_lru_cache_itself(self):
        """No Python wrapper sits in front of the cache lookup."""
        assert type(memo(maxsize=1)(abs)) is type(lru_cache(maxsize=1)(abs))


class TestFrozenComplex:
    def test_read_only_complex_copy(self):
        source = np.arange(3)
        out = frozen_complex(source)
        assert out.dtype == np.complex128 and not out.flags.writeable
        assert np.array_equal(out, source)
        source[0] = 7
        assert out[0] == 0 and source.flags.writeable


def same_bits(a, b):
    """Equal shape, dtype and bytes, whatever the memory layouts."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _strided(x):
    """The (rows, size) batch as the transposed view _correlate_decimate transforms."""
    rows, size = x.shape
    return x.reshape(-1).reshape(size, rows).T


# Every FFT call form in the package, through front end xp (numpy.fft or
# scipy.fft), on a (rows, size) batch x with `pad` zeros of padding.
FFT_FORMS = {
    "1-D": lambda xp, x, pad: (xp.fft(x[0]), xp.ifft(x[0])),
    "1-D padded": lambda xp, x, pad: (xp.fft(x[0], fast_len(x.shape[1] + pad)),
                                      xp.ifft(x[0], x.shape[1] + pad)),
    "batch C-contiguous": lambda xp, x, pad: (xp.fft(x, x.shape[1] + pad, axis=-1),
                                              xp.ifft(x, axis=-1)),
    "batch transposed view, padded": lambda xp, x, pad: (
        xp.fft(_strided(x), x.shape[1] + pad, axis=-1),
        xp.fft(_strided(x)[::-1], x.shape[1] + pad, axis=-1),
        xp.ifft(np.asfortranarray(x), axis=-1)),
    "2-D": lambda xp, x, pad: (xp.fft(x, axis=0), xp.ifft(x, axis=1),
                               xp.ifft(x.T, axis=1)),
    "fftfreq": lambda xp, x, pad: (xp.fftfreq(x.shape[1]),
                                   xp.fftfreq(x.shape[1], d=1.0 / (x.shape[0] * 1.92e6))),
}


class TestFftFrontEnd:
    """numpy.fft, the package's front end, returns scipy.fft's bits on every form it uses."""

    def test_fast_len_is_scipys_complex_next_fast_len(self):
        for n in range(1, 65_537):
            assert fast_len(n) == scipy.fft.next_fast_len(n, False), n

    @pytest.mark.parametrize("n", [0, -3])
    def test_fast_len_rejects_empty_lengths(self, n):
        with pytest.raises(ValueError, match="positive"):
            fast_len(n)

    @pytest.mark.parametrize("form", FFT_FORMS)
    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 8), size=st.integers(1, 2048), pad=st.integers(0, 512),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(rows=4, size=6537, pad=63, seed=0)    # README correlator: (4, 6600)
    @example(rows=1, size=5342, pad=1192, seed=1)  # README detect_timing: 6534
    @example(rows=5, size=4096, pad=0, seed=2)     # README gain profiles
    @example(rows=16, size=16, pad=0, seed=3)      # small-frame DZT
    def test_same_bits_as_scipy(self, form, rows, size, pad, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
        ours, theirs = FFT_FORMS[form](np.fft, x, pad), FFT_FORMS[form](scipy.fft, x, pad)
        for a, b in zip(ours, theirs, strict=True):
            assert same_bits(a, b)
