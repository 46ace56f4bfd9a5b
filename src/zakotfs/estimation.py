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
from .zak import DDGrid, dzt_values, frozen_complex, idzt_samples, memo


@dataclass(frozen=True)
class SupportRegion:
    """Delay-Doppler index set assumed to hold every effective-channel tap.

    kind 'C1' covers [kappa2, kappa3) in absolute delay bins, the span of
    the physical paths alone; 'C2' covers [kappa1, kappa4), one widened
    margin that also absorbs uncorrected timing and CFO leakage.  Doppler
    is always the full signed range.
    """

    kind: str
    k_lo: int
    k_hi: int
    m: int
    n: int

    def __post_init__(self):
        if self.kind not in ("C1", "C2"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if not 0 <= self.k_lo < self.k_hi <= self.m:
            raise ValueError(
                f"delay range [{self.k_lo}, {self.k_hi}) does not fit a "
                f"grid with {self.m} delay bins"
            )

    @classmethod
    def from_layout(cls, layout: FrameLayout, kind: str) -> "SupportRegion":
        # An unknown kind is rejected by __post_init__.
        lo, hi = ((layout.kappa2, layout.kappa3) if kind == "C1"
                  else (layout.kappa1, layout.kappa4))
        return cls(kind=kind, k_lo=lo, k_hi=hi, m=layout.m, n=layout.n)

    @property
    def size(self) -> int:
        return (self.k_hi - self.k_lo) * self.n

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


class _ReadOff(NamedTuple):
    """Index maps of a support's pilot read-off; the arrays are read-only."""

    delays: np.ndarray      # signed delay taps
    dopplers: np.ndarray    # signed Doppler taps
    phase: np.ndarray       # exp(-j*pi*l/N) over the signed Doppler taps
    spectrum_cols: np.ndarray  # dopplers % MN, the gain profiles' DFT bins


@memo(maxsize=8)
def _readoff(support: SupportRegion) -> _ReadOff:
    """The support's read-off index maps, built once per process."""
    ls = support.doppler_taps()
    return _ReadOff(delays=support.delay_taps(), dopplers=ls,
                    phase=np.exp(-1j * np.pi * ls / support.n),
                    spectrum_cols=ls % (support.m * support.n))


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
        maps = _readoff(self.support)
        ks, ls = maps.delays, maps.dopplers
        yield from zip(ks.repeat(ls.size), np.tile(ls, ks.size), self.block.ravel())

    def peak(self) -> tuple[int, int]:
        """Signed (k, l) of the largest-magnitude tap.

        Ties go to the first in tap_items order: signed delay, then
        signed Doppler, both ascending.
        """
        maps = _readoff(self.support)
        i, j = np.unravel_index(np.argmax(np.abs(self.block)), self.block.shape)
        return int(maps.delays[i]), int(maps.dopplers[j])


def estimate(y_dd: DDGrid, layout: FrameLayout, support: SupportRegion,
             pilot_amp: float) -> EffectiveChannelEstimate:
    """Read the effective channel from the received pilot neighbourhood.

    h[k, l] = y_dd[k + M/2, l + N/2] * exp(-j*pi*l/N) / pilot_amp over
    the support, so the block is the received rows [k_lo, k_hi) times
    exp(-j*pi*l/N) / pilot_amp.  The phase factor removes the transmit
    twist the pilot position imprints on every echo.
    """
    if pilot_amp <= 0:
        raise ValueError("pilot_amp must be positive")
    m, n = y_dd.m, y_dd.n
    if layout.k_p != m // 2 or layout.l_p != n // 2:
        raise ValueError("estimation assumes the pilot sits at (M/2, N/2)")
    if support.m != m or support.n != n:
        raise ValueError("support was built for a different grid size")
    block = y_dd.values[support.k_lo:support.k_hi] * _readoff(support).phase / pilot_amp
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


def predict_io(s_dd: DDGrid, h: EffectiveChannelEstimate) -> DDGrid:
    """Twisted convolution of the channel taps with the extended frame.

    y[k, l] = sum over taps (k', l') of
        h[k', l'] * s_ext[k - k', l - l'] * exp(j*2*pi*(k - k')*l'/(M*N))
    with s_ext the quasi-periodic extension, so the output is itself
    quasi-periodic.  It is applied in time as the H that equalize_taps
    inverts: dzt(sum_d roll(g_d * idzt(s), d)) over the gain profiles.
    """
    if (s_dd.m, s_dd.n) != (h.support.m, h.support.n):
        raise ValueError("tap support and grid dimensions disagree")
    delays, profiles = _delay_gain_profiles(h)
    x = idzt_samples(s_dd.values)
    gather = _roll_gather(tuple(delays.tolist()), x.size)
    y = np.take_along_axis(profiles * x, gather, axis=-1).sum(axis=0)
    return DDGrid(values=dzt_values(y, s_dd.m, s_dd.n))


class SolverDivergence(RuntimeError):
    """The regularized normal matrix H H^H + noise_var I is singular.

    Only an unregularized solve (noise_var = 0) on taps whose operator is
    rank deficient gets here: its banded Cholesky factorization meets a
    pivot that is not positive to working precision.
    """


def _delay_gain_profiles(h: EffectiveChannelEstimate) -> tuple[np.ndarray, np.ndarray]:
    """Per-delay time-varying gains of the tap operator.

    A DD tap (k', l') acts on the time sequence as a circular shift by
    k' under a modulation at l'/(MN); summing one delay row over its
    Doppler column therefore yields a diagonal gain profile for that
    shift, sampled exactly by a zero-padded inverse DFT.
    """
    mn = h.support.m * h.support.n
    maps = _readoff(h.support)
    spec = np.zeros((maps.delays.size, mn), dtype=np.complex128)
    spec[:, maps.spectrum_cols] = h.block
    return maps.delays, mn * np.fft.ifft(spec, axis=-1)


def _ring_fold(mn: int) -> np.ndarray:
    """Band position of each sample of a length-mn ring.

    Sample i goes to 2i in the first half and to 2(mn-1-i)+1 in the
    second, so the two ends interleave: samples within ring distance d,
    across the wrap-around included, sit within 2d positions.
    """
    i = np.arange(mn)
    return np.where(2 * i < mn, 2 * i, 2 * (mn - 1 - i) + 1)


class _BandPlan(NamedTuple):
    """Index maps of _normal_band; the arrays are read-only."""

    pos: np.ndarray   # band position of each ring sample, _ring_fold
    roll: np.ndarray  # (D, mn + span) flat gather into the (D, mn) profiles
    dest: np.ndarray  # (span + 1, mn) flat band destinations, per offset
    conj: np.ndarray  # (span + 1, mn) mask of the entries stored conjugated


@memo(maxsize=8)
def _band_plan(delays: tuple[int, ...], mn: int) -> _BandPlan:
    """Index maps of _normal_band for contiguous delays on a length-mn ring.

    Row r of the roll map reads profile r rolled by delays[r] and runs
    span samples past the ring's end, so that every offset's products
    are slices of one gathered array.  For each offset off = 0..span,
    dest and conj hold the flat destinations in the (2*span + 1, mn)
    band stored column by column, as LAPACK reads it, and the entries
    stored conjugated.
    """
    span = len(delays) - 1
    if 2 * span >= mn:
        raise ValueError(f"delay span {span} is too wide for a ring of "
                         f"{mn} samples")
    u = 2 * span
    d = np.array(delays)
    t = np.arange(mn)
    roll = (np.arange(mn + span) - d[:, None]) % mn + mn * np.arange(d.size)[:, None]
    pos = _ring_fold(mn)
    # Band positions of the ring pairs (t, t + off), one row per offset.
    q = pos[(t + np.arange(span + 1)[:, None]) % mn]
    row, col = np.minimum(pos, q), np.maximum(pos, q)
    return _BandPlan(pos=pos, roll=roll, dest=(u + row - col) + (u + 1) * col,
                     conj=pos > q)


@memo(maxsize=16)
def _roll_gather(shifts: tuple[int, ...], mn: int) -> np.ndarray:
    """Row i holds (t - shifts[i]) mod mn: np.roll(z, shifts[i]) as a gather."""
    return (np.arange(mn) - np.array(shifts)[:, None]) % mn


# Relative value of the band's structural zeros: 2**-300 sits about 250
# binary orders below the diagonal's rounding level, and its square is
# still a normal float for any diagonal above about 1e-63.
_ZERO_SEED = 2.0 ** -300


def _normal_band(profiles: np.ndarray, noise_var: float, plan: _BandPlan) -> np.ndarray:
    """Upper band storage of the folded H H^H + noise_var I.

    H v = sum_d roll(g_d * v, d), so entry (t, t+off) of H H^H is
    sum_d g_d[t-d] conj(g_{d+off}[t-d]) over the contiguous delays, and
    only ring offsets up to span = max(delays) - min(delays) are nonzero.
    With the profiles rolled by their delays, g_{d+off}[t-d] is row
    d + off of the rolled array at t + off, so each offset multiplies two
    slices of it.  Folding by _ring_fold turns that ring band into a
    plain band of half-width 2*span, returned in the upper layout
    LAPACK's zpbsv reads, in Fortran order; plan is _band_plan's.

    The fold interleaves two chains that couple only at the ring's ends,
    so the Cholesky fill between them decays geometrically.  Started from
    exact zeros it decays into the subnormal range, which x86 computes
    slowly; the band's structural zeros therefore start at _ZERO_SEED
    times the largest diagonal entry, where the fill levels off as normal
    numbers too small to move any rounding.
    """
    d_count, mn = profiles.shape
    rolled = np.take(profiles, plan.roll)
    entries = np.empty(plan.dest.shape, dtype=np.complex128)
    for off, entry in enumerate(entries):
        # Kept as one expression: numpy may multiply a large temporary in
        # place with the factors swapped, and complex products round by
        # operand order, so hoisting the conjugate would move the last bit.
        prod = rolled[:d_count - off, :mn] * np.conj(rolled[off:, off:off + mn])
        np.sum(prod, axis=0, out=entry)
    del rolled, prod
    np.conjugate(entries, out=entries, where=plan.conj)
    seed = _ZERO_SEED * (np.max(entries[0].real) + noise_var)
    band = np.full((2 * d_count - 1, mn), seed, dtype=np.complex128, order="F")
    band.reshape(-1, order="F")[plan.dest] = entries
    band[-1] += noise_var
    return band


def equalize_taps(y_dd: DDGrid, h: EffectiveChannelEstimate,
                  noise_var: float) -> DDGrid:
    """Linear MMSE inversion x = H^H (H H^H + noise_var I)^{-1} y.

    H is the twisted convolution of predict_io, applied in the time
    domain, where each supported delay is one circular shift under a
    time-varying gain.  The normal matrix is then a ring band that
    _ring_fold turns into a plain band, solved exactly by a banded
    Cholesky factorization in O(MN * span^2) for a delay span of span
    bins.  Raises SolverDivergence when that matrix is singular.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be nonnegative")
    if (y_dd.m, y_dd.n) != (h.support.m, h.support.n):
        raise ValueError("tap support and grid dimensions disagree")
    delays, profiles = _delay_gain_profiles(h)
    y = idzt_samples(y_dd.values)
    plan = _band_plan(tuple(delays.tolist()), y.size)
    band = _normal_band(profiles, noise_var, plan)
    y_folded = np.empty_like(y)
    y_folded[plan.pos] = y
    # Rounding leaves a null direction a pivot near eps rather than zero, so
    # pivots are judged against the largest diagonal entry, not against 0.
    floor = y.size * np.finfo(float).eps * np.max(band[-1].real)
    # One LAPACK call, in place: zpbtrf factors the band, zpbtrs solves
    # with the factor, and y_folded becomes the folded solution.
    info = zpbsv(band, y_folded)
    if info != 0 or np.min(band[-1].real) ** 2 <= floor:
        raise SolverDivergence(
            "regularized normal matrix H H^H + noise_var I is singular "
            f"(noise_var={noise_var:g}); the taps do not determine the frame")
    z = y_folded[plan.pos]
    # H^H z = sum_d conj(g_d) * roll(z, -d), the rows summed in order.
    x = (np.conj(profiles) * z[_roll_gather(tuple((-delays).tolist()), y.size)]).sum(axis=0)
    return DDGrid(values=dzt_values(x, y_dd.m, y_dd.n))


def dd_noise_var(noise_psd: float, q: int, b: float) -> float:
    """Per-cell DD noise variance after matched filtering and the DZT.

    Channel noise enters with per-sample variance noise_psd at rate q*B;
    the unit-energy matched filter scales it by 1/(q*B) and the unitary
    transform keeps it there.
    """
    return noise_psd / (q * b)


def guard_noise_var(y_dd: DDGrid, layout: FrameLayout,
                    support: SupportRegion) -> float:
    """Estimate noise variance from guard cells outside the support."""
    guard = np.zeros((layout.m, layout.n), dtype=bool)
    guard[layout.kappa1:layout.kappa4] = True
    guard[support.k_lo:support.k_hi] = False
    guard[layout.k_p, layout.l_p] = False
    if not guard.any():
        raise ValueError("support covers every guard cell; no noise-only "
                         "region is left to measure")
    # A boolean mask reads the cells row by row, delay then Doppler.
    return float(np.mean(np.abs(y_dd.values[guard]) ** 2))
