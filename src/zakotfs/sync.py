"""Burst acquisition: ZC preamble, correlation timing, Kay's CFO estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .waveform import AnalogSignal, PulseShape, shape_symbols
from .zak import memo

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
DEFAULT_GAP = 64
CFO_BLOCK_CHIPS = 16


@dataclass(frozen=True)
class Preamble:
    """Zadoff-Chu chips at the symbol rate; the acquisition memos key on (length, root)."""

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


@memo(maxsize=8)
def shape_preamble(pre: Preamble, shape: PulseShape, b: float, q: int) -> AnalogSignal:
    """Pulse-shape the chips at rate q*B, once per process and key.

    The returned signal places chip j at t = j/B; the leading and
    trailing filter tails are kept, so t0 is negative by the filter
    reach.  This doubles as the transmit burst segment and the matched
    template for detect_timing.
    """
    return AnalogSignal.adopt(shape_symbols(pre.samples, shape, b, q), rate=q * b,
                              t0=-shape.reach() / b)


@memo(maxsize=8)
def _reference(pre: Preamble, shape: PulseShape | None, b: float,
               q: int) -> tuple[np.ndarray, int, float]:
    """Matched reference at rate q*B: its samples, chip 0's index, its root energy.

    With a shape this is the pulse-shaped preamble that shape_preamble
    transmits, filter tails included; without one, the raw zero-stuffed
    chip train, which starts at chip 0.
    """
    if shape is None:
        samples = np.zeros(pre.length * q, dtype=np.complex128)
        samples[::q] = pre.samples
        chip0 = 0
    else:
        samples, chip0 = shape_preamble(pre, shape, b, q).samples, shape.reach() * q
    return samples, chip0, np.sqrt(np.sum(np.abs(samples) ** 2))


@memo(maxsize=8)
def _template_spectrum(pre: Preamble, shape: PulseShape | None, b: float, q: int,
                       nfft: int) -> np.ndarray:
    """nfft-point spectrum of the time-reversed conjugate reference."""
    template = _reference(pre, shape, b, q)[0]
    return scipy.fft.fft(np.conj(template[::-1]), nfft)


def detect_timing(rx: AnalogSignal, preamble: Preamble, q: int,
                  shape: PulseShape | None = None,
                  threshold: float = DEFAULT_THRESHOLD,
                  last_start: int | None = None) -> SyncResult:
    """Locate the preamble by normalized sliding cross-correlation.

    With a shape, the template is the pulse-shaped preamble (matched to
    what shape_preamble transmits); without one, the raw zero-stuffed
    chip train.  peak_metric is |<rx_window, template>| normalized by
    both energies, so it lives in [0, 1] and the threshold separates a
    lock from noise.  cfo_hat is left at zero; see estimate_cfo.

    last_start, when given, is the latest chip-0 index the caller will
    accept: only the head of the buffer that such a lock reads is
    correlated, and the energy floor is taken over that head alone.  A
    bound that admits no lag is a miss (detected False), not an error.
    """
    if q < 1:
        raise ValueError("oversampling factor must be >= 1")
    b = rx.rate / q
    template, core_offset, tnorm = _reference(preamble, shape, b, q)
    if rx.samples.size < template.size:
        raise ValueError(
            f"buffer of {rx.samples.size} samples cannot hold a "
            f"{template.size}-sample preamble"
        )
    samples = rx.samples
    if last_start is not None:
        samples = samples[:max(last_start - core_offset + template.size, 0)]
    if samples.size < template.size:
        return SyncResult(start_index=core_offset, cfo_hat=0.0,
                          peak_metric=0.0, detected=False)

    # scipy.signal.fftconvolve(samples, conj(template[::-1]), 'valid'), bit
    # for bit: the same transform length, arithmetic and operand order.
    n, k = samples.size, template.size
    nfft = scipy.fft.next_fast_len(n + k - 1, False)
    spectrum = scipy.fft.fft(samples, nfft) * _template_spectrum(preamble, shape, b, q, nfft)
    corr = scipy.fft.ifft(spectrum, nfft)[k - 1:n]
    # Window energies as differences of a running sum, O(n) for any length.
    # The metric is built in place, in the order of
    # |corr| / (tnorm * sqrt(max(power, floor))).
    energy = np.empty(samples.size + 1)
    energy[0] = 0.0
    sq = np.abs(samples)
    np.square(sq, out=sq)
    np.cumsum(sq, out=energy[1:])
    power = energy[template.size:] - energy[:-template.size]
    peak_power = float(np.max(power))
    if peak_power <= 0.0:
        # Dead buffer: nothing to lock onto.
        return SyncResult(start_index=core_offset, cfo_hat=0.0,
                          peak_metric=0.0, detected=False)
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
    if rate <= 0:
        raise ValueError("rate must be positive")
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


def estimate_cfo(rx: AnalogSignal, preamble: Preamble, q: int,
                 start_index: int, shape: PulseShape | None = None) -> float:
    """CFO from the located preamble, by Kay's estimator on block sums.

    The received core is correlated against the template one block of
    CFO_BLOCK_CHIPS chips at a time; each partial correlation collapses
    to one phasor rotating at the carrier offset.  Echo paths barely
    register in these sums (a delayed copy of the sequence beats against
    the template as a fast chirp that a block integrates away), where a
    sample-by-sample product would hand Kay's estimator a strong
    interfering ramp.  The preamble must hold two blocks.
    start_index must point at chip 0, as detect_timing reports it.
    """
    if preamble.length < 2 * CFO_BLOCK_CHIPS:
        raise ValueError(f"a {preamble.length}-chip preamble holds fewer than two CFO blocks")
    reference, chip0, _ = _reference(preamble, shape, rx.rate / q, q)
    template = reference[chip0:chip0 + preamble.length * q]
    lo = start_index
    hi = start_index + template.size
    if lo < 0 or hi > rx.samples.size:
        raise ValueError("preamble window falls outside the buffer")
    derotated = rx.samples[lo:hi] * np.conj(template)
    width = CFO_BLOCK_CHIPS * q
    blocks = derotated.size // width
    sums = derotated[:blocks * width].reshape(blocks, width).sum(axis=1)
    return kay_cfo(sums, rx.rate / width)


def _derotation(freq: float, t0: float, rate: float, n: int) -> np.ndarray:
    """exp(-2j*pi*freq*(t0 + i/rate)) for i < n, from 2*ceil(sqrt(n)) exponentials.

    Sample i = r*k + c is the product of a coarse phasor at t0 + r*k/rate
    and a fine one at c/rate, so the outer product of the two short ramps,
    read row by row, is the whole ramp.  Each factor is within a rounding
    of its exponential, so the product is within a few ulp of the direct
    exp; with freq = 0 both factors, and so the ramp, are exactly 1.
    """
    k = math.isqrt(max(n - 1, 0)) + 1
    rows = -(-n // k)
    coarse = np.exp(-2j * np.pi * freq * (t0 + np.arange(rows) * k / rate))
    fine = np.exp(-2j * np.pi * freq * (np.arange(k) / rate))
    return np.multiply.outer(coarse, fine).reshape(-1)[:n]


def correct(rx: AnalogSignal, sync: SyncResult) -> AnalogSignal:
    """Trim to the estimated start and undo the estimated carrier ramp.

    The derotation references the buffer's own time axis, so running
    correct with the true (offset, CFO) of a synthetic impairment
    restores the original samples to a few ulp, and exactly when the
    offset is 0 Hz.
    """
    if not 0 <= sync.start_index <= rx.samples.size:
        raise ValueError(
            f"start index {sync.start_index} outside buffer of {rx.samples.size}"
        )
    trimmed = rx.samples[sync.start_index:]
    t0 = rx.t0 + sync.start_index / rx.rate
    ramp = _derotation(sync.cfo_hat, t0, rx.rate, trimmed.size)
    out = np.multiply(trimmed, ramp, out=ramp)
    return AnalogSignal.adopt(out, rate=rx.rate, t0=t0)
