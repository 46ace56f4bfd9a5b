"""Pulse shaping and the analog transmit / matched-filter receive chain.

The transmit waveform is built from one MN-periodic symbol stream: the
stream is periodically extended, windowed along time by the family's
Doppler-shaping window, placed on an oversampled impulse grid, and
convolved with the delay-shaping filter w1,

    s(t) = sum_q s[q] V(q/B) w1(t - q/B),

where V is the unit-peak window.  The receiver correlates with w1 at
the symbol instants q/B, applies the conjugate window and folds the
result into one MN period.  Window pairs are chosen so the folded
cascade of the clean chain is the identity:

* 'rrc': w1 is a root-raised-cosine in time and V a root-raised-cosine
  taper in the other domain; shifted copies of |V|^2 spaced T sum to 1,
  so the folded tapers reassemble the frame exactly.
* 'sinc': w1(t) = sinc(Bt) with a flat transmit window stretched past
  the frame by a guard margin and a one-period rectangular receive
  window, which keeps the received core in the periodic steady state
  for any channel delay up to the margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .dd_frame import FrameParams
from .zak import DTSignal, frozen_complex, memo

__all__ = [
    "PulseShape",
    "ShapeError",
    "AnalogSignal",
    "rrc_w1",
    "rrc_w2",
    "shape_symbols",
    "synthesize",
    "matched_filter",
    "sample_and_periodize",
]

# Width of the guard band around the removable singularities of rrc_w1,
# in units of B*t; inside it the analytic limits are used.
_SINGULARITY_EPS = 1e-8


def rrc_w1(t: np.ndarray | float, b: float, beta: float) -> np.ndarray | float:
    """Root-raised-cosine delay filter evaluated at time t (seconds).

    Peak value is 1 + beta*(4/pi - 1) at t = 0; the removable
    singularities at |t| = 1/(4 beta B) use their analytic limits.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    scalar = np.isscalar(t)
    x = np.asarray(t, dtype=float) * b  # time in symbol units
    out = np.empty_like(x)
    at_zero = np.abs(x) < _SINGULARITY_EPS
    at_edge = np.abs(np.abs(x) - 1.0 / (4 * beta)) < _SINGULARITY_EPS
    regular = ~(at_zero | at_edge)
    with np.errstate(invalid="ignore", divide="ignore"):
        xr = np.where(regular, x, 1.0)
        num = np.sin(np.pi * xr * (1 - beta)) + 4 * beta * xr * np.cos(np.pi * xr * (1 + beta))
        den = np.pi * xr * (1 - (4 * beta * xr) ** 2)
        out = np.where(regular, num / den, 0.0)
    out = np.where(at_zero, 1 + beta * (4 / np.pi - 1), out)
    edge = (beta / np.sqrt(2)) * (
        (1 + 2 / np.pi) * np.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * np.cos(np.pi / (4 * beta))
    )
    out = np.where(at_edge, edge, out)
    return float(out) if scalar else out


def rrc_w2(t: np.ndarray | float, t_period: float, beta: float) -> np.ndarray | float:
    """Root-raised-cosine Doppler window, peak 1/sqrt(T), support (1+beta)T."""
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if t_period <= 0:
        raise ValueError("t_period must be positive")
    scalar = np.isscalar(t)
    at = np.abs(np.asarray(t, dtype=float))
    t1 = (1 - beta) * t_period / 2
    t2 = (1 + beta) * t_period / 2
    flat = at <= t1
    taper = (at > t1) & (at <= t2)
    arg = np.pi / (beta * t_period) * (at - t1)
    out = np.where(flat, 1.0 / np.sqrt(t_period), 0.0)
    out = np.where(taper, np.sqrt(np.clip(1 + np.cos(arg), 0.0, None) / (2 * t_period)), out)
    return float(out) if scalar else out


@dataclass(frozen=True)
class AnalogSignal:
    """Oversampled baseband signal with an explicit time origin.

    samples[i] is the value at t = t0 + i/rate; t0 is always an integer
    number of sample periods so decimation grids stay aligned.
    """

    samples: np.ndarray
    rate: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        s = frozen_complex(self.samples)
        if s.ndim != 1:
            raise ValueError("AnalogSignal samples must be 1-D")
        object.__setattr__(self, "samples", s)
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @classmethod
    def adopt(cls, samples: np.ndarray, rate: float, t0: float = 0.0) -> "AnalogSignal":
        """Wrap a 1-D complex128 array the caller just allocated, without a copy.

        The array is made read-only in place, so the caller must not keep
        writing to it; the constructor copies instead.
        """
        if samples.dtype != np.complex128 or samples.ndim != 1:
            raise ValueError("adopt needs a 1-D complex128 array")
        if rate <= 0:
            raise ValueError("rate must be positive")
        samples.setflags(write=False)
        sig = object.__new__(cls)
        object.__setattr__(sig, "samples", samples)
        object.__setattr__(sig, "rate", rate)
        object.__setattr__(sig, "t0", t0)
        return sig

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.rate


class ShapeError(ValueError):
    """A PulseShape parameter out of range; `field` names the parameter."""

    def __init__(self, field: str, message: str):
        super().__init__(field, message)
        self.field = field

    def __str__(self) -> str:
        return self.args[1]


@dataclass(frozen=True)
class PulseShape:
    """Filter family and truncation used by the shaping chain.

    w1_span is the one-sided truncation of the delay filter in units of
    1/B; None selects the non-truncated realization, where shaping is
    done by multiplying with the filter's closed-form spectrum instead
    of convolving with sampled taps.  The transmit guard margin for the
    'sinc' family defaults follow the span (see synthesize).
    """

    family: str = "rrc"
    beta: float = 0.5
    w1_span: int | None = 16

    def __post_init__(self) -> None:
        if self.family not in ("rrc", "sinc"):
            raise ShapeError("family", f"unknown pulse family {self.family!r}")
        if self.family == "rrc" and not 0 < self.beta <= 1:
            raise ShapeError("beta", f"beta must be in (0, 1] for rrc, got {self.beta}")
        if self.w1_span is not None and self.w1_span < 2:
            raise ShapeError("w1_span", "w1_span must be at least 2 symbol periods")

    @property
    def exact(self) -> bool:
        return self.w1_span is None

    def reach(self) -> int:
        """Symbol periods the filter meaningfully extends to one side."""
        return 64 if self.exact else self.w1_span

    def w1_taps(self, b: float, q: int) -> np.ndarray:
        """Unit-energy sampled delay filter at rate q*B, length 2*span*q + 1."""
        if self.exact:
            raise ValueError("the non-truncated realization has no tap form")
        return _sampled_taps(self, float(b), int(q))

    def w1_gain(self, f: np.ndarray, b: float) -> np.ndarray:
        """Closed-form filter spectrum, unit-energy normalized.

        The brick band is half-open, (-B/2, B/2]: the Nyquist line is
        carried once, on the positive edge, so filtering and matched
        filtering compose to unit gain there instead of splitting the
        line across both edges and losing half of it.
        """
        tiny = 1e-9 * b
        if self.family == "sinc":
            mag = ((f > -b / 2 + tiny) & (f <= b / 2 + tiny)).astype(float)
        else:
            af = np.abs(f)
            lo = (1 - self.beta) * b / 2
            hi = (1 + self.beta) * b / 2
            mag = np.zeros_like(af)
            mag[af <= lo] = 1.0
            mid = (af > lo) & (af < hi)
            mag[mid] = np.sqrt(0.5 * (1 + np.cos(np.pi * (af[mid] - lo) / (self.beta * b))))
        return mag / np.sqrt(b)

    def tail_fraction(self, b: float, q: int) -> float:
        """Energy fraction of the outermost symbol period of the taps."""
        if self.exact:
            return 0.0
        taps = self.w1_taps(b, q)
        total = np.sum(np.abs(taps) ** 2)
        edge = np.sum(np.abs(taps[: q]) ** 2) + np.sum(np.abs(taps[-q:]) ** 2)
        return float(edge / total)

    def check_truncation(self, b: float, q: int) -> None:
        """Reject a span whose clipped filter tails hold too much energy."""
        tail = self.tail_fraction(b, q)
        if tail > _TAIL_LIMIT:
            raise ShapeError("w1_span", f"w1_span={self.w1_span} leaves {tail:.2e} of "
                             "the tap energy in the outer period; increase the span")


@memo(maxsize=16)
def _sampled_taps(shape: PulseShape, b: float, q: int) -> np.ndarray:
    m = np.arange(-shape.w1_span * q, shape.w1_span * q + 1)
    t = m / (q * b)
    if shape.family == "rrc":
        taps = rrc_w1(t, b, shape.beta).astype(np.complex128)
    else:
        taps = np.sinc(b * t).astype(np.complex128)
    taps /= np.sqrt(np.sum(np.abs(taps) ** 2) / (q * b))
    return taps


@memo(maxsize=16)
def _w1_spectrum(shape: PulseShape, n: int, b: float, q: int,
                 correlate: bool) -> np.ndarray:
    f = scipy.fft.fftfreq(n, d=1.0 / (q * b))
    gain = shape.w1_gain(f, b)
    return gain if correlate else q * b * gain


@memo(maxsize=16)
def _phase_spectra(shape: PulseShape, b: float, q: int, correlate: bool,
                   nfft: int) -> np.ndarray:
    """(q, nfft) spectra of the polyphase branches of the truncated filter.

    Branch r holds every q-th tap from tap r, a filter of ceil(k/q) taps at
    the symbol rate.  Row r is branch r of the taps, or, for the matched
    correlator (the reversed conjugate taps over q*B), branch q-1-r, the
    one that buffer phase r meets in _correlate_decimate.
    """
    taps = _sampled_taps(shape, b, q)
    kernel = np.conj(taps[::-1]) / (q * b) if correlate else taps
    width = -(-kernel.size // q)
    padded = np.zeros(width * q, dtype=np.complex128)
    padded[:kernel.size] = kernel
    branches = padded.reshape(width, q).T
    return scipy.fft.fft(branches[::-1] if correlate else branches, nfft, axis=-1)


# A shaped frame whose truncated filter tails still hold more than this
# fraction of the tap energy in the outermost period is rejected.  The
# sinc tail only decays like 1/t, so the bar is set where a span-16
# truncation still passes while a span of a few symbols does not.
_TAIL_LIMIT = 1e-3


def _exact_filter(x: np.ndarray, shape: PulseShape, b: float, q: int,
                  correlate: bool = False) -> np.ndarray:
    """Run the non-truncated delay filter (or its matched correlator) at rate q*B.

    Multiplying by the closed-form spectrum acts circularly, so the
    buffer needs zero padding well past the frame.  The correlator
    variant folds in the 1/(q*B) matched-filter scale.
    """
    return scipy.fft.ifft(scipy.fft.fft(x) * _w1_spectrum(shape, x.size, b, q, correlate))


def shape_symbols(symbols: np.ndarray, shape: PulseShape, b: float,
                  q: int) -> np.ndarray:
    """Pulse-shape a finite symbol sequence at rate q*B, filter tails included.

    With symbol j at t = j/B, sample i sits at t = i/(q*B) - reach/B, for
    (len(symbols) + 2*reach)*q samples, reach = shape.reach().  Truncated
    shapes run the q polyphase branches of the taps at the symbol rate:
    sample p*q + r is branch r convolved with the symbols, at p.  The
    non-truncated realization filters the zero-stuffed train circularly.
    """
    reach = shape.reach()
    if shape.exact:
        train = np.zeros((symbols.size + 2 * reach) * q, dtype=np.complex128)
        train[reach * q:(reach + symbols.size) * q:q] = symbols
        return _exact_filter(train, shape, b, q)
    full = symbols.size + 2 * reach
    nfft = scipy.fft.next_fast_len(full, False)
    branches = scipy.fft.ifft(scipy.fft.fft(symbols, nfft)
                              * _phase_spectra(shape, float(b), int(q), False, nfft),
                              axis=-1)
    return branches[:, :full].T.reshape(-1)


def _correlate_decimate(x: np.ndarray, shape: PulseShape, b: float, q: int,
                        first: int) -> np.ndarray:
    """Truncated matched correlator output at samples first, first+q, ... of x.

    Sample i of the full-rate correlation is sum_m x[m] c[i + span*q - m],
    c the reversed conjugate taps over q*B (a 'same' convolution).  Only
    the kept samples are computed: x is split into its q phases after a
    few leading zeros that give every phase the same lag, each phase is
    convolved with its branch of c at the symbol rate, and the branch
    outputs are summed in the frequency domain before one inverse FFT.
    """
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
    nfft = scipy.fft.next_fast_len(rows + 2 * shape.w1_span, False)
    spectra = _phase_spectra(shape, float(b), int(q), True, nfft)
    summed = (scipy.fft.fft(padded.reshape(rows, q).T, nfft, axis=-1) * spectra).sum(axis=0)
    return scipy.fft.ifft(summed)[lag:lag + count]


# Brick-window edges sit exactly on sample instants; comparisons are
# nudged by a sliver of the period so float rounding in the time axis
# cannot move a boundary sample to the wrong side.
_EDGE_EPS = 1e-9


def _tx_window(shape: PulseShape, t: np.ndarray, t_period: float,
               margin_s: float) -> np.ndarray:
    """Unit-peak window V; with margin_s = 0 it is also the receive window."""
    if shape.family == "rrc":
        return np.sqrt(t_period) * rrc_w2(t - t_period / 2, t_period, shape.beta)
    lo = -margin_s - _EDGE_EPS * t_period
    hi = t_period + margin_s - _EDGE_EPS * t_period
    return ((t >= lo) & (t < hi)).astype(float)


@memo(maxsize=16)
def _window_at(shape: PulseShape, t0: float, rate: float, n: int,
               t_period: float, margin_s: float) -> np.ndarray:
    """_tx_window on the n sample instants t0 + i/rate."""
    return _tx_window(shape, t0 + np.arange(n) / rate, t_period, margin_s)


@memo(maxsize=16)
def _symbol_window(shape: PulseShape, q_lo: int, q_hi: int, b: float,
                   t_period: float, margin_s: float) -> np.ndarray:
    """_tx_window on the symbol instants q/B for q in [q_lo, q_hi)."""
    return _tx_window(shape, np.arange(q_lo, q_hi) / b, t_period, margin_s)


@memo(maxsize=16)
def _fold_slots(n: int, start: int, period: int) -> np.ndarray:
    """Slot (i + start) mod period of each of n samples."""
    return np.mod(np.arange(n) + start, period)


def _fold(x: np.ndarray, start: int, period: int) -> np.ndarray:
    """Sum x[i] into slot (i + start) mod period, in the order of i.

    x is laid into a zero-led buffer at offset start mod period and its
    rows of one period are summed top to bottom, so every slot adds its
    samples in the same order, and to the same bits, as
    np.add.at(zeros(period), _fold_slots(x.size, start, period), x).
    """
    lead = start % period
    rows = -(-(lead + x.size) // period)
    buf = np.zeros(rows * period, dtype=np.complex128)
    buf[lead:lead + x.size] = x
    return buf.reshape(rows, period).sum(axis=0)


def _sample_grid(sig: AnalogSignal, b: float, q_min: int) -> tuple[int, int]:
    """Oversampling factor q = rate/B (at least q_min) and the index of t = 0."""
    q = int(round(sig.rate / b))
    if abs(sig.rate - q * b) > 1e-6 * b or q < q_min:
        raise ValueError(f"rate {sig.rate} is not an integer multiple >= {q_min} "
                         f"of B={b}")
    i_zero = -sig.t0 * sig.rate
    if abs(i_zero - round(i_zero)) > 1e-6:
        raise ValueError("signal time origin is not aligned to the sample grid")
    return q, int(round(i_zero))


def _first_instant(i_zero: int, q: int, n: int, mn: int) -> int:
    """Least j with 0 <= i_zero + j*q < n; raises unless j = 0 .. mn-1 all qualify."""
    if i_zero < 0 or n - 1 - i_zero < (mn - 1) * q:
        raise ValueError("signal does not cover the frame period")
    return -(i_zero // q)


def synthesize(dt: DTSignal, shape: PulseShape, q: int,
               margin: int | None = None) -> AnalogSignal:
    """Shape one frame into the analog domain at rate q*B.

    The frame core occupies t in [0, T).  The symbol stream is extended
    MN-periodically under the transmit window; `margin` (in symbol
    periods, 'sinc' family only) sets how far the flat window reaches
    past the core so delayed copies at the receiver stay in the periodic
    steady state.  Needs dt.rate set to B.
    """
    if dt.rate is None:
        raise ValueError("DTSignal.rate must carry the symbol rate B")
    if q < 2:
        raise ValueError("oversampling q must be at least 2")
    b = dt.rate
    mn = dt.m * dt.n
    t_period = mn / b
    if margin is None:
        margin = shape.reach() + 8
    shape.check_truncation(b, q)

    if shape.family == "rrc":
        # Window support is [-beta*T/2, T + beta*T/2).
        ext = int(np.ceil(shape.beta * mn / 2)) + 1
    else:
        ext = int(margin)
    q_lo, q_hi = -ext, mn + ext
    span_q = shape.reach() * q
    t0 = (q_lo * q - span_q) / (q * b)
    n_out = (q_hi - q_lo - 1) * q + 2 * span_q + 1

    if shape.exact:
        # Periodic steady state first: exact trigonometric interpolation
        # of the symbol sequence on the q-grid, then the window cuts it.
        period = np.zeros(mn * q, dtype=np.complex128)
        period[::q] = dt.samples
        core = _exact_filter(period, shape, b, q)
        slots = _fold_slots(n_out, q_lo * q - span_q, mn * q)
        window = _window_at(shape, t0, q * b, n_out, t_period, margin / b)
        return AnalogSignal.adopt(core[slots] * window, rate=q * b, t0=t0)

    window = _symbol_window(shape, q_lo, q_hi, b, t_period, margin / b)
    vals = dt.samples[_fold_slots(q_hi - q_lo, q_lo, mn)] * window
    return AnalogSignal.adopt(shape_symbols(vals, shape, b, q)[:n_out],
                              rate=q * b, t0=t0)


def matched_filter(r: AnalogSignal, shape: PulseShape, params: FrameParams) -> AnalogSignal:
    """Correlate with w1 and apply the conjugate receive window, at the symbol rate.

    The input is sampled at q*B, q >= 2, and its time axis must already
    place the frame core at [0, T).  The output is at rate B, on the
    symbol instants j/B: these are the only samples the receiver keeps.
    Truncated shapes return every symbol instant the buffer covers,
    computed by a polyphase decimating correlator.  The non-truncated
    realization instead windows first, folds the result into one frame
    period, and correlates circularly there, where the periodic content
    sits exactly on the transform bins; its output is the single period
    starting at t = 0.  Like sample_and_periodize, it needs every symbol
    instant 0 .. MN-1 in the buffer.
    """
    b = params.b
    q, i_zero = _sample_grid(r, b, 2)
    # A timing trim shortens the buffer, so the length is part of the key.
    window = _window_at(shape, r.t0, r.rate, r.samples.size, params.t, 0.0)
    if shape.exact:
        _first_instant(i_zero, q, r.samples.size, params.m * params.n)
        folded = _fold(r.samples * np.conj(window), -i_zero, params.m * params.n * q)
        z = _exact_filter(folded, shape, b, q, correlate=True)
        return AnalogSignal.adopt(z[::q], rate=b, t0=0.0)
    first = i_zero % q
    z = _correlate_decimate(r.samples, shape, b, q, first)
    return AnalogSignal.adopt(z * np.conj(window[first::q]), rate=b,
                              t0=-(i_zero // q) / b)


def sample_and_periodize(y: AnalogSignal, params: FrameParams) -> DTSignal:
    """Sample the filtered signal at q/B and fold into one MN period.

    y may be at any integer multiple q >= 1 of B, such as the rate-B
    output of matched_filter.  Everything the receive window kept is
    folded additively modulo MN symbols, so tapered frame edges
    reassemble and any content beyond one period aliases back onto the
    core.
    """
    mn = params.m * params.n
    q, i_zero = _sample_grid(y, params.b, 1)
    q_min = _first_instant(i_zero, q, y.samples.size, mn)
    picked = y.samples[i_zero % q::q]
    return DTSignal(samples=_fold(picked, q_min, mn), m=params.m, n=params.n,
                    rate=params.b)
