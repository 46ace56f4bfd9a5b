"""Effective-channel estimation from the embedded pilot and the
delay-Doppler input-output prediction built on it.

The receiver reads the channel off the guard neighbourhood of the pilot
cell, keeps taps only inside a declared support region, and inverts the
operator those taps define by an exact banded MMSE solve.  The taps
form one block with a row per delay tap and a column per Doppler tap,
both signed and ascending: delay k relative to the pilot row M/2, and
Doppler l in [-N/2, N/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._lapack import zpbsv
from .dd_frame import FrameLayout
from .zak import dzt, frozen_complex, idzt, memo

# The support regions from_layout can build; see SupportRegion.
SUPPORT_KINDS = ("C1", "C2")


@dataclass(frozen=True)
class SupportRegion:
    """Delay-Doppler index set assumed to hold every effective-channel tap.

    Absolute delay bins [k_lo, k_hi) by the full signed Doppler range.
    from_layout's 'C1' covers [kappa2, kappa3), the rows k_p - 1 .. k_p +
    reach that the physical paths alone reach; 'C2' covers [kappa1,
    kappa4), the whole guard, whose timing margin also absorbs uncorrected
    timing and CFO leakage.
    """

    k_lo: int
    k_hi: int
    m: int
    n: int

    def __post_init__(self):
        if not 0 <= self.k_lo < self.k_hi <= self.m:
            raise ValueError(
                f"delay range [{self.k_lo}, {self.k_hi}) does not fit a "
                f"grid with {self.m} delay bins"
            )
        # The equalizer's ring band needs a ring wider than two spans.
        span = self.k_hi - self.k_lo - 1
        if 2 * span >= self.m * self.n:
            raise ValueError(f"delay span {span} is too wide for a ring of "
                             f"{self.m * self.n} samples")

    @classmethod
    def from_layout(cls, layout: FrameLayout, kind: str) -> "SupportRegion":
        if kind not in SUPPORT_KINDS:
            raise ValueError(f"unknown support kind {kind!r}")
        lo, hi = ((layout.kappa2, layout.kappa3) if kind == "C1"
                  else (layout.kappa1, layout.kappa4))
        return cls(k_lo=lo, k_hi=hi, m=layout.m, n=layout.n)

    def delay_taps(self) -> np.ndarray:
        """Signed delay tap indices (absolute bin minus M/2)."""
        return np.arange(self.k_lo, self.k_hi) - self.m // 2

    def doppler_taps(self) -> np.ndarray:
        """Signed Doppler tap indices, -N/2 .. N/2-1."""
        return np.arange(self.n) - self.n // 2

    def contains(self, k: int, l: int) -> bool:
        """Membership in delay_taps() x doppler_taps(), signed indices."""
        return (self.k_lo - self.m // 2 <= k < self.k_hi - self.m // 2
                and -(self.n // 2) <= l < self.n - self.n // 2)


@dataclass(frozen=True)
class EffectiveChannelEstimate:
    """DD channel taps plus the support they were read on.

    block is read-only, finite and complex: block[i, j] is the tap at
    signed delay support.delay_taps()[i] and signed Doppler
    support.doppler_taps()[j].
    """

    block: np.ndarray
    support: SupportRegion

    def __post_init__(self):
        block = np.asarray(self.block)
        want = (self.support.k_hi - self.support.k_lo, self.support.n)
        if block.shape != want:
            raise ValueError(f"tap block has shape {block.shape}, its support "
                             f"wants {want}")
        if not np.all(np.isfinite(block)):
            raise ValueError("channel taps must be finite")
        object.__setattr__(self, "block", frozen_complex(block))

    def tap_items(self):
        """Yield (k, l, value) over the support with signed indices."""
        maps = _maps(self.support)
        ks, ls = maps.delays, maps.dopplers
        yield from zip(ks.repeat(ls.size), np.tile(ls, ks.size), self.block.ravel())

    def peak(self) -> tuple[int, int]:
        """Signed (k, l) of the largest-magnitude tap.

        Ties go to the first in tap_items order: signed delay, then
        signed Doppler, both ascending.
        """
        maps = _maps(self.support)
        i, j = np.unravel_index(np.argmax(np.abs(self.block)), self.block.shape)
        return int(maps.delays[i]), int(maps.dopplers[j])


def estimate(y_dd: np.ndarray, support: SupportRegion,
             pilot_amp: float) -> EffectiveChannelEstimate:
    """Read the effective channel from the received pilot neighbourhood.

    h[k, l] = y_dd[k + M/2, l + N/2] * exp(-j*pi*l/N) / pilot_amp over
    the support, so the block is the received rows [k_lo, k_hi) times
    exp(-j*pi*l/N) / pilot_amp.  The phase factor removes the transmit
    twist the pilot position imprints on every echo; every FrameLayout
    puts the pilot at (M/2, N/2).
    """
    if pilot_amp <= 0:
        raise ValueError("pilot_amp must be positive")
    if y_dd.shape != (support.m, support.n):
        raise ValueError("support was built for a different grid size")
    block = y_dd[support.k_lo:support.k_hi] * _maps(support).phase / pilot_amp
    return EffectiveChannelEstimate(block=block, support=support)


def manual_taps(entries: dict[tuple[int, int], complex],
                support: SupportRegion) -> EffectiveChannelEstimate:
    """Build an estimate directly from {(k, l): gain} signed tap entries."""
    block = np.zeros((support.k_hi - support.k_lo, support.n), dtype=np.complex128)
    for (k, l), g in entries.items():
        if not support.contains(k, l):
            raise ValueError(f"tap ({k}, {l}) falls outside the support")
        block[k + support.m // 2 - support.k_lo, l + support.n // 2] = g
    return EffectiveChannelEstimate(block=block, support=support)


def predict_io(s_dd: np.ndarray, h: EffectiveChannelEstimate) -> np.ndarray:
    """Twisted convolution of the channel taps with the extended frame.

    y[k, l] = sum over taps (k', l') of
        h[k', l'] * s_ext[k - k', l - l'] * exp(j*2*pi*(k - k')*l'/(M*N))
    with s_ext the quasi-periodic extension, so the output is itself
    quasi-periodic.  It is applied in time as the H that equalize_taps
    inverts: dzt(sum_d roll(g_d * idzt(s), d)) over the gain profiles.
    """
    if s_dd.shape != (h.support.m, h.support.n):
        raise ValueError("tap support and grid dimensions disagree")
    x = idzt(s_dd)
    # The roll map's first MN columns are H's shifts, one row per delay.
    y = np.take(_delay_gain_profiles(h) * x, _maps(h.support).roll[:, :x.size]).sum(axis=0)
    return dzt(y, *s_dd.shape)


class SolverDivergence(RuntimeError):
    """equalize_taps found no finite solution.

    Its regularized normal matrix H H^H + noise_var I is singular, which
    only an unregularized solve (noise_var = 0) on rank-deficient taps
    meets, or the solve overflowed on taps too large for the float range.
    """


def _delay_gain_profiles(h: EffectiveChannelEstimate) -> np.ndarray:
    """Per-delay time-varying gains of the tap operator.

    A DD tap (k', l') acts on the time sequence as a circular shift by
    k' under a modulation at l'/(MN); summing one delay row over its
    Doppler column therefore yields a diagonal gain profile for that
    shift, sampled exactly by a zero-padded inverse DFT.  Row r is the
    profile of delay _maps(h.support).delays[r].
    """
    mn = h.support.m * h.support.n
    spec = np.zeros((h.block.shape[0], mn), dtype=np.complex128)
    spec[:, _maps(h.support).spectrum_cols] = h.block
    return mn * np.fft.ifft(spec, axis=-1)


class _Maps(NamedTuple):
    """Index maps of a support's tap operator; the arrays are read-only."""

    delays: np.ndarray    # signed delay taps
    dopplers: np.ndarray  # signed Doppler taps
    phase: np.ndarray     # exp(-j*pi*l/N) over the signed Doppler taps
    spectrum_cols: np.ndarray  # dopplers % MN, the gain profiles' DFT bins
    roll: np.ndarray      # (D, MN + span) flat gather into the (D, MN) profiles
    band: np.ndarray      # (MN, 2*span + 1) flat gather of the band's columns
    adjoint: np.ndarray   # (D, MN): row r holds (t + delays[r]) mod MN


@memo(maxsize=8)
def _maps(support: SupportRegion) -> _Maps:
    """The support's index maps on its length-MN ring, built once per process.

    Row r of the roll map reads profile r rolled by delays[r], which is H's
    shift, and runs span samples past the ring's end, so that every
    offset's products in _normal_band are slices of one gathered array.
    The fold puts ring sample t at band position min(2t, 2(MN-1-t) + 1),
    so samples within ring distance d, across the wrap-around too, sit
    within 2d positions.  Row j of band reads column j of the folded lower
    band, as LAPACK stores it, from _normal_band's [entries | conj(entries)
    | seed], taking the conjugate where the entry's first sample folds
    first.  Row r of adjoint is np.roll(z, -delays[r]) as a gather, H^H's
    shift.
    """
    mn = support.m * support.n
    d, ls = support.delay_taps(), support.doppler_taps()
    span = d.size - 1
    t = np.arange(mn)
    pos = np.minimum(2 * t, 2 * (mn - 1 - t) + 1)
    # Band positions of the ring pairs (t, t + off), one row per offset.
    q = pos[(t + np.arange(span + 1)[:, None]) % mn]
    col = np.minimum(pos, q)
    size = (span + 1) * mn
    band = np.full((mn, 2 * span + 1), 2 * size)
    band[col, np.maximum(pos, q) - col] = np.arange(size).reshape(q.shape) + size * (pos < q)
    return _Maps(delays=d, dopplers=ls, phase=np.exp(-1j * np.pi * ls / support.n),
                 spectrum_cols=ls % mn,
                 roll=(np.arange(mn + span) - d[:, None]) % mn + mn * np.arange(d.size)[:, None],
                 band=band, adjoint=(t + d[:, None]) % mn)


# Relative value of the band's structural zeros: 2**-300 sits about 250
# binary orders below the diagonal's rounding level, and its square is
# still a normal float for any diagonal above about 1e-63.
_ZERO_SEED = 2.0 ** -300


def _normal_band(profiles: np.ndarray, noise_var: float, maps: _Maps) -> np.ndarray:
    """Lower band storage of the folded H H^H + noise_var I.

    H v = sum_d roll(g_d * v, d), so entry (t, t+off) of H H^H is
    sum_d g_d[t-d] conj(g_{d+off}[t-d]) over the contiguous delays, and
    only ring offsets up to span = max(delays) - min(delays) are nonzero.
    With the profiles rolled by their delays, g_{d+off}[t-d] is row
    d + off of the rolled array at t + off, so each offset multiplies two
    slices of it.  The fold of _maps turns that ring band into a plain
    band of half-width 2*span, gathered by maps.band into the lower
    layout LAPACK's zpbsv reads, in Fortran order, diagonal in row 0.

    The fold interleaves two chains that couple only at the ring's ends,
    so the Cholesky fill between them decays geometrically.  Started from
    exact zeros it decays into the subnormal range, which x86 computes
    slowly; the band's structural zeros therefore start at _ZERO_SEED
    times the largest diagonal entry, where the fill levels off as normal
    numbers too small to move any rounding.
    """
    d_count, mn = profiles.shape
    rolled = np.take(profiles, maps.roll)
    entries = np.empty((d_count, mn), dtype=np.complex128)
    for off, entry in enumerate(entries):
        # Kept as one expression: numpy may multiply a large temporary in
        # place with the factors swapped, and complex products round by
        # operand order, so hoisting the conjugate would move the last bit.
        prod = rolled[:d_count - off, :mn] * np.conj(rolled[off:, off:off + mn])
        np.sum(prod, axis=0, out=entry)
    del rolled, prod
    entries[0] += noise_var
    seed = _ZERO_SEED * np.max(entries[0].real)
    return np.take(np.concatenate((entries, np.conj(entries), [[seed]]), axis=None), maps.band).T


def _overflow(noise_var: float) -> SolverDivergence:
    return SolverDivergence(f"equalized frame is not finite (noise_var={noise_var:g}); "
                            "the taps overflow the solve")


def equalize_taps(y_dd: np.ndarray, h: EffectiveChannelEstimate,
                  noise_var: float) -> np.ndarray:
    """Linear MMSE inversion x = H^H (H H^H + noise_var I)^{-1} y.

    H is the twisted convolution of predict_io, applied in the time
    domain, where each supported delay is one circular shift under a
    time-varying gain.  The normal matrix is then a ring band that the
    fold of _maps turns into a plain band, solved exactly by a banded
    Cholesky factorization in O(MN * span^2) for a delay span of span
    bins.  Raises SolverDivergence when that matrix is singular, or when
    the band or the solution is not finite.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    if y_dd.shape != (h.support.m, h.support.n):
        raise ValueError("tap support and grid dimensions disagree")
    maps = _maps(h.support)
    profiles = _delay_gain_profiles(h)
    y = idzt(y_dd)
    band = _normal_band(profiles, noise_var, maps)
    # _maps's fold: first half forward at even positions, second half backward at odd.
    half = (y.size + 1) // 2
    folded = np.empty_like(y)
    folded[0::2], folded[1::2] = y[:half], y[half:][::-1]
    # Rounding leaves a null direction a pivot near eps rather than zero, so
    # pivots are judged against the largest diagonal entry, not against 0.
    floor = y.size * np.finfo(float).eps * np.max(band[0].real)
    if not np.isfinite(floor):
        raise _overflow(noise_var)
    # One LAPACK call, in place: zpbtrf factors the band, zpbtrs solves
    # with the factor, and folded becomes the folded solution.
    info = zpbsv(band, folded)
    if info != 0 or np.min(band[0].real) ** 2 <= floor:
        raise SolverDivergence(
            "regularized normal matrix H H^H + noise_var I is singular "
            f"(noise_var={noise_var:g}); the taps do not determine the frame")
    z = np.concatenate((folded[0::2], folded[1::2][::-1]))
    # H^H z = sum_d conj(g_d) * roll(z, -d), the rows summed in order.
    x = dzt((np.conj(profiles) * z[maps.adjoint]).sum(axis=0), *y_dd.shape)
    if not np.isfinite(x).all():
        raise _overflow(noise_var)
    return x


def dd_noise_var(noise_psd: float, q: int, b: float) -> float:
    """Per-cell DD noise variance after matched filtering and the DZT.

    Channel noise enters with per-sample variance noise_psd at rate q*B;
    the unit-energy matched filter scales it by 1/(q*B) and the unitary
    transform keeps it there.
    """
    return noise_psd / (q * b)


def guard_noise_var(y_dd: np.ndarray, layout: FrameLayout,
                    support: SupportRegion) -> float:
    """Estimate noise variance from guard cells outside the support."""
    if y_dd.shape != (layout.m, layout.n):
        raise ValueError("layout and grid dimensions disagree")
    guard = np.zeros((layout.m, layout.n), dtype=bool)
    guard[layout.kappa1:layout.kappa4] = True
    guard[support.k_lo:support.k_hi] = False
    guard[layout.k_p, layout.l_p] = False
    if not guard.any():
        raise ValueError("support covers every guard cell; no noise-only "
                         "region is left to measure")
    # A boolean mask reads the cells row by row, delay then Doppler.
    return float(np.mean(np.abs(y_dd[guard]) ** 2))
