"""Burst acquisition: ZC preamble, correlation timing, Kay's CFO estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .waveform import AnalogSignal, PulseShape, phase_ramp, shape_symbols
from .zak import fast_len, memo

__all__ = [
    "Preamble",
    "SyncResult",
    "make_preamble",
    "shape_preamble",
    "detect_timing",
    "kay_cfo",
    "estimate_cfo",
    "correct",
]

DEFAULT_LENGTH = 256
DEFAULT_ROOT = 25
DEFAULT_THRESHOLD = 0.3
CFO_BLOCK_CHIPS = 16


@dataclass(frozen=True)
class Preamble:
    """Zadoff-Chu chips at the symbol rate, a value given by (length, root)."""

    length: int
    root: int

    def __post_init__(self) -> None:
        if self.length < 2 or self.length % 2 != 0:
            raise ValueError(f"preamble length must be even and >= 2, got {self.length}")
        if math.gcd(self.root, self.length) != 1:
            raise ValueError(f"root {self.root} shares a factor with length {self.length}")

    @cached_property
    def samples(self) -> np.ndarray:
        """The chips, read-only."""
        n = np.arange(self.length)
        s = np.exp(-1j * np.pi * self.root * n ** 2 / self.length)
        s.setflags(write=False)
        return s


@dataclass(frozen=True)
class SyncResult:
    """Timing/CFO acquisition outcome at the oversampled rate.

    start_index points at the first sample of the preamble core (chip 0)
    inside the searched buffer; detected reflects the threshold test at
    the correlation peak.
    """

    start_index: int
    cfo_hat: float
    peak_metric: float
    detected: bool = True


def make_preamble(length: int = DEFAULT_LENGTH, root: int = DEFAULT_ROOT) -> Preamble:
    """Even-length Zadoff-Chu sequence x[n] = exp(-j pi u n^2 / N)."""
    return Preamble(length=length, root=root)


def shape_preamble(pre: Preamble, shape: PulseShape, b: float, q: int) -> AnalogSignal:
    """Pulse-shape the chips at rate q*B.

    The returned signal places chip j at grid index j*q, t = j/B; the
    leading and trailing filter tails are kept, so start is -reach*q,
    reach = shape.reach(), and chip 0 is sample -start.  This doubles as
    the transmit burst segment and the matched template of detect_timing
    and estimate_cfo.
    """
    return AnalogSignal.adopt(shape_symbols(pre.samples, shape, b, q), rate=q * b,
                              start=-shape.reach() * q)


@memo(maxsize=8)
def _template_spectrum(template: AnalogSignal, nfft: int) -> tuple[np.ndarray, float]:
    """nfft-point spectrum of the time-reversed conjugate template, and its root energy."""
    samples = template.samples
    return (np.fft.fft(np.conj(samples[::-1]), nfft),
            float(np.sqrt(np.sum(np.abs(samples) ** 2))))


def detect_timing(rx: AnalogSignal, template: AnalogSignal,
                  threshold: float = DEFAULT_THRESHOLD,
                  last_start: int | None = None) -> SyncResult:
    """Locate the preamble by normalized sliding cross-correlation.

    template is the preamble as sent, on rx's sample grid, with chip 0
    at its grid index 0, which is sample -template.start: shape_preamble's
    output, or a bare chip train with start = 0.  peak_metric is
    |<rx_window, template>| normalized by both energies, so it lives in
    [0, 1] and the threshold separates a lock from noise.  cfo_hat is
    left at zero; see estimate_cfo.

    last_start, when given, is the latest chip-0 index the caller will
    accept: only the head of the buffer that such a lock reads is
    correlated, and the energy floor is taken over that head alone.  A
    bound that admits no lag is a miss (detected False), not an error.
    """
    core_offset = -template.start
    k = template.samples.size
    if rx.samples.size < k:
        raise ValueError(
            f"buffer of {rx.samples.size} samples cannot hold a "
            f"{k}-sample preamble"
        )
    miss = SyncResult(start_index=core_offset, cfo_hat=0.0, peak_metric=0.0,
                      detected=False)
    samples = rx.samples
    if last_start is not None:
        samples = samples[:max(last_start - core_offset + k, 0)]
    if samples.size < k:
        return miss

    # Only the valid lags k - 1 .. n - 1 are kept, and a circular correlation
    # over any length >= n gives them: its wrap-around lands below k - 1.
    n = samples.size
    nfft = fast_len(n)
    template_spectrum, tnorm = _template_spectrum(template, nfft)
    spectrum = np.fft.fft(samples, nfft) * template_spectrum
    corr = np.fft.ifft(spectrum, nfft)[k - 1:n]
    # Window energies as differences of a running sum, O(n) for any length.
    # The metric is built in place, in the order of
    # |corr| / (tnorm * sqrt(max(power, floor))).
    energy = np.empty(n + 1)
    energy[0] = 0.0
    sq = np.abs(samples)
    np.square(sq, out=sq)
    np.cumsum(sq, out=energy[1:])
    power = energy[k:] - energy[:-k]
    peak_power = float(np.max(power))
    if peak_power <= 0.0:
        # Dead buffer: nothing to lock onto.
        return miss
    # Exactly silent stretches leave only FFT rounding noise in corr; a
    # relative power floor keeps that noise from masquerading as a peak.
    floor = 1e-12 * peak_power
    np.maximum(power, floor, out=power)
    np.sqrt(power, out=power)
    power *= tnorm
    metric = np.abs(corr)
    metric /= power

    lag = int(np.argmax(metric))
    peak = float(metric[lag])
    return SyncResult(
        start_index=lag + core_offset,
        cfo_hat=0.0,
        peak_metric=peak,
        detected=peak >= threshold,
    )


def kay_cfo(rx_preamble: np.ndarray, rate: float) -> float:
    """Kay's weighted phase-increment frequency estimate, in Hz.

    The parabolic window w[n] ~ 1 - ((n - L/2)/(L/2))^2 over the L-1
    phase differences is renormalized to sum to one, which makes the
    estimator exact on a pure tone within the unambiguous band.
    """
    x = np.asarray(rx_preamble, dtype=np.complex128)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("Kay's estimator needs at least two samples")
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    dphi = np.angle(x[1:] * np.conj(x[:-1]))
    return float(rate / (2 * np.pi) * np.sum(_kay_window(x.size) * dphi))


@memo(maxsize=8)
def _kay_window(length: int) -> np.ndarray:
    """Kay's normalized parabolic window over length - 1 phase differences."""
    n = np.arange(1, length)
    w = 1.0 - ((n - length / 2) / (length / 2)) ** 2
    w = np.maximum(w, 0.0)
    w /= np.sum(w)
    return w


def estimate_cfo(rx: AnalogSignal, template: AnalogSignal, q: int,
                 start_index: int) -> float:
    """CFO from the located preamble, by Kay's estimator on block sums.

    The received core is correlated against the template one block of
    CFO_BLOCK_CHIPS chips at a time; each partial correlation collapses
    to one phasor rotating at the carrier offset.  Echo paths barely
    register in these sums (a delayed copy of the sequence beats against
    the template as a fast chirp that a block integrates away), where a
    sample-by-sample product would hand Kay's estimator a strong
    interfering ramp.  The template is detect_timing's, at q samples
    per chip; its core, chip 0 up to the trailing filter tail, must hold
    two blocks.  start_index must point at chip 0, as detect_timing
    reports it.
    """
    chip0 = -template.start
    core = template.samples[chip0:template.samples.size - chip0]
    if core.size < 2 * CFO_BLOCK_CHIPS * q:
        raise ValueError(f"a {core.size // q}-chip preamble holds fewer than two CFO blocks")
    lo = start_index
    hi = start_index + core.size
    if lo < 0 or hi > rx.samples.size:
        raise ValueError("preamble window falls outside the buffer")
    derotated = rx.samples[lo:hi] * np.conj(core)
    width = CFO_BLOCK_CHIPS * q
    blocks = derotated.size // width
    sums = derotated[:blocks * width].reshape(blocks, width).sum(axis=1)
    return kay_cfo(sums, rx.rate / width)


def correct(rx: AnalogSignal, offset: int, cfo_hz: float) -> AnalogSignal:
    """Relabel rx's time axis for a lock offset samples late; undo cfo_hz.

    The samples keep their place in the buffer and start becomes
    rx.start - offset, so the sample at the lock takes the nominal one's
    grid index; any integer offset, early (negative) or late, is a valid
    move.  The derotation references rx's own time axis, so running
    correct with the true (offset, CFO) of a synthetic impairment
    restores the original samples to a few ulp, and exactly when cfo_hz
    is 0.
    """
    ramp = phase_ramp(-cfo_hz, rx.start, rx.rate, rx.samples.size, 0.0)
    out = np.multiply(rx.samples, ramp, out=ramp)
    return AnalogSignal.adopt(out, rate=rx.rate, start=rx.start - offset)
