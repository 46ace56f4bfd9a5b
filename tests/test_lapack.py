"""The zpbsv binding to numpy's LAPACK: scipy's bits, argument checks before
any foreign call, and the scipy fallback where no symbol resolves."""

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zakotfs import _lapack
from zakotfs.dd_frame import FrameParams, build_layout
from zakotfs.estimation import SolverDivergence, SupportRegion, equalize_taps, manual_taps


def random_band(n, kd, seed, definite):
    """A random Hermitian band in LAPACK's lower layout, and a right-hand side.

    A definite band's diagonal exceeds 2*kd times its largest off-diagonal
    entry, so every row is strictly dominant; an indefinite one has a
    diagonal of either sign.
    """
    rng = np.random.default_rng(seed)
    band = np.asfortranarray(rng.standard_normal((kd + 1, n))
                             + 1j * rng.standard_normal((kd + 1, n)))
    if definite:
        band[0] = (2 * kd * np.abs(band[1:]).max(initial=0.0) + 1
                   + np.abs(rng.standard_normal(n)))
    else:
        band[0] = rng.standard_normal(n)
    return band, rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.fixture
def numpy_symbol():
    if _lapack._foreign() is None:
        pytest.skip("numpy's LAPACK exports no known zpbsv name")


@pytest.mark.usefixtures("numpy_symbol")
class TestScipyBits:
    """numpy's zpbsv returns scipy's factor, solution and info bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 512), kd=st.integers(0, 8),
           seed=st.integers(0, 2 ** 32 - 1), definite=st.booleans())
    @example(n=1, kd=0, seed=0, definite=True)
    @example(n=1, kd=8, seed=1, definite=True)
    @example(n=512, kd=8, seed=2, definite=True)
    @example(n=512, kd=8, seed=3, definite=False)
    def test_same_bits_as_scipy(self, n, kd, seed, definite):
        band, rhs = random_band(n, kd, seed, definite)
        ours_band, ours_rhs = band.copy(order="F"), rhs.copy()
        info = _lapack.zpbsv(ours_band, ours_rhs)
        factor, x, want_info = scipy.linalg.lapack.zpbsv(band, rhs, lower=1)
        assert info == want_info
        if definite:
            assert info == 0
        assert ours_band.tobytes(order="F") == factor.tobytes(order="F")
        assert ours_rhs.tobytes() == x.tobytes()


def _read_only(a):
    a.setflags(write=False)
    return a


# Each entry turns the well-formed (band, rhs) pair of a 6-column band with
# kd = 2 into a malformed one.
MALFORMED = {
    "band-complex64": lambda b, r: (b.astype(np.complex64, order="F"), r),
    "band-float": lambda b, r: (b.real.copy(order="F"), r),
    "band-big-endian": lambda b, r: (b.astype(">c16", order="F"), r),
    "band-c-order": lambda b, r: (np.ascontiguousarray(b), r),
    "band-strided": lambda b, r: (np.asfortranarray(np.repeat(b, 2, axis=1))[:, ::2], r),
    "band-read-only": lambda b, r: (_read_only(b), r),
    "band-1d": lambda b, r: (b[-1].copy(), r),
    "band-3d": lambda b, r: (np.asfortranarray(b[None]), r),
    "band-no-rows": lambda b, r: (np.zeros((0, 6), complex, order="F"), r),
    "band-no-columns": lambda b, r: (np.zeros((3, 0), complex, order="F"),
                                     np.zeros(0, complex)),
    "band-list": lambda b, r: (b.tolist(), r),
    "rhs-complex64": lambda b, r: (b, r.astype(np.complex64)),
    "rhs-float": lambda b, r: (b, r.real.copy()),
    "rhs-big-endian": lambda b, r: (b, r.astype(">c16")),
    "rhs-short": lambda b, r: (b, r[:-1].copy()),
    "rhs-long": lambda b, r: (b, np.append(r, 0)),
    "rhs-column": lambda b, r: (b, r[:, None].copy()),
    "rhs-strided": lambda b, r: (b, np.repeat(r, 2)[::2]),
    "rhs-read-only": lambda b, r: (b, _read_only(r)),
    "rhs-list": lambda b, r: (b, r.tolist()),
}


class TestArguments:
    """The binding checks its arguments before it calls into LAPACK."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        monkeypatch.setattr(_lapack, "_foreign", lambda: lambda *args: seen.append(args))
        return seen

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_argument_raises_before_the_call(self, calls, name):
        band, rhs = MALFORMED[name](*random_band(6, 2, 0, True))
        with pytest.raises(ValueError):
            _lapack.zpbsv(band, rhs)
        assert calls == []

    def test_well_formed_arguments_reach_the_call(self, calls):
        band, rhs = random_band(6, 2, 0, True)
        assert _lapack.zpbsv(band, rhs) == 0
        (uplo, n, kd, nrhs, ab, ldab, b, ldb, info, uplo_len), = calls
        assert (uplo, uplo_len) == (b"L", 1)
        assert [v.value for v in (n, kd, nrhs, ldab, ldb, info)] == [6, 2, 1, 3, 6, 0]
        assert (ab, b) == (band.ctypes.data, rhs.ctypes.data)


def equalizer_system(seed=5):
    """A 16x16 received grid and random taps on its C2 support."""
    p = FrameParams(m=16, n=16, nu_p=30e3)
    sup = SupportRegion.from_layout(build_layout(p, 2.5 / p.b, 1.0 / p.b), "C2")
    rng = np.random.default_rng(seed)
    h = manual_taps({(int(k), int(l)): complex(*rng.standard_normal(2))
                     for k in sup.delay_taps() for l in sup.doppler_taps()
                     if rng.random() < 0.3}, sup)
    y = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    return y, h


class TestScipyFallback:
    """Where no symbol resolves, scipy's zpbsv does the same solve."""

    @pytest.fixture
    def no_symbol(self, monkeypatch):
        monkeypatch.setattr(_lapack, "_SYMBOLS", ("no_such_zpbsv_",))
        _lapack._foreign.cache_clear()
        yield
        monkeypatch.undo()
        _lapack._foreign.cache_clear()

    def test_equalizer_returns_the_same_bytes(self, request):
        y, h = equalizer_system()
        want = equalize_taps(y, h, 0.05)
        request.getfixturevalue("no_symbol")
        assert _lapack._foreign() is None
        got = equalize_taps(y, h, 0.05)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.usefixtures("no_symbol")
    def test_failed_factorization_still_diverges(self):
        y, h = equalizer_system()
        with pytest.raises(SolverDivergence, match="singular"):
            equalize_taps(y, manual_taps({}, h.support), 0.0)

    @pytest.mark.usefixtures("no_symbol")
    def test_solves_in_place(self):
        band, rhs = random_band(40, 3, 9, True)
        factor, x, _ = scipy.linalg.lapack.zpbsv(band, rhs, lower=1)
        assert _lapack.zpbsv(band, rhs) == 0
        assert band.tobytes(order="F") == factor.tobytes(order="F")
        assert rhs.tobytes() == x.tobytes()
