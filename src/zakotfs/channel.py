"""Doubly-dispersive channel with receiver-side impairments.

The physical channel is a sum of discrete paths,

    r(t) = sum_i h_i s(t - tau_i) exp(j 2 pi nu_i (t - tau_i)),

followed by a receiver impairment stage that delays by dt and rotates by
a carrier offset eps0 (absolute Hz) and a constant phase phi, and then by
complex white Gaussian noise z, which add_noise draws:

    r~(t) = r(t - dt) exp(j (2 pi eps0 t + phi)) + z(t).

The impairment stage is algebraically equivalent to folding dt, eps0 and
phi into the path set (fold_impairments), which the tests use as a
ground-truth oracle.

Fractional delays are applied as an exact circular phase ramp in the
frequency domain.  That keeps cascaded delays exactly composable (the
fold equivalence holds to arithmetic precision) and preserves energy;
callers must leave enough zero padding that the circular wrap of filter
tails lands in silence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .waveform import AnalogSignal, phase_ramp
from .zak import memo

__all__ = [
    "PathSpec",
    "ImpairmentSpec",
    "apply_paths",
    "apply_impairments",
    "add_noise",
    "fold_impairments",
]


@dataclass(frozen=True)
class PathSpec:
    """One propagation path: complex gain, delay (s), Doppler shift (Hz)."""

    gain: complex
    delay: float
    doppler: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.gain) or not np.isfinite(self.delay) or not np.isfinite(self.doppler):
            raise ValueError("path parameters must be finite")
        if self.delay < 0:
            raise ValueError(f"path delay must be non-negative, got {self.delay}")


@dataclass(frozen=True)
class ImpairmentSpec:
    """Receiver-side timing offset dt (s), carrier offset eps0 (Hz), phase phi."""

    dt: float = 0.0
    eps0: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dt", "eps0", "phi"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.dt < 0:
            raise ValueError("dt must be non-negative")
        if not -np.pi <= self.phi < np.pi:
            raise ValueError(f"phi must lie in [-pi, pi), got {self.phi}")


def _delay_samples(x: np.ndarray, shift: float) -> np.ndarray:
    """Circular delay by `shift` samples, exact for any real shift.

    A zero shift returns x itself, so callers must not write to the result.
    """
    if abs(shift - round(shift)) < 1e-12:
        whole = int(round(shift))
        return np.roll(x, whole) if whole else x
    f = np.fft.fftfreq(x.size)
    return np.fft.ifft(np.fft.fft(x) * np.exp(-2j * np.pi * f * shift))


# A config's Doppler and carrier ramps are the same on every trial.
_ramp = memo(maxsize=16)(phase_ramp)


def apply_paths(sig: AnalogSignal, paths: tuple[PathSpec, ...] | list[PathSpec]) -> AnalogSignal:
    """Superpose all propagation paths onto the signal.

    Length-preserving; delays wrap circularly, so the caller's padding
    must exceed the largest delay plus the shaped signal's tails.
    """
    n = sig.samples.size
    for p in paths:
        if p.delay * sig.rate > n:
            raise ValueError(f"path delay {p.delay}s exceeds the signal extent")
    out = np.zeros(n, dtype=np.complex128)
    for p in paths:
        shifted = _delay_samples(sig.samples, p.delay * sig.rate)
        if p.doppler == 0:
            # The ramp is exactly 1 here, so skipping it changes no bit.
            out += p.gain * shifted
        else:
            out += p.gain * shifted * _ramp(p.doppler, sig.start, sig.rate, n,
                                            -2 * np.pi * p.doppler * p.delay)
    return AnalogSignal.adopt(out, rate=sig.rate, start=sig.start)


def apply_impairments(sig: AnalogSignal, imp: ImpairmentSpec) -> AnalogSignal:
    """Apply the timing, carrier and phase impairments; add_noise adds the noise."""
    x = _delay_samples(sig.samples, imp.dt * sig.rate)
    x = x * _ramp(imp.eps0, sig.start, sig.rate, x.size, imp.phi)
    return AnalogSignal.adopt(x, rate=sig.rate, start=sig.start)


def add_noise(sig: AnalogSignal, noise_psd: float,
              rng: np.random.Generator | None) -> AnalogSignal:
    """Add complex white Gaussian noise of per-sample variance noise_psd.

    Draws all real parts, then all imaginary parts; noise_psd = 0 draws nothing.
    """
    if not noise_psd >= 0:
        raise ValueError("noise_psd must be non-negative")
    if noise_psd == 0:
        return sig
    if rng is None:
        raise ValueError("noise injection needs an explicit rng")
    n = sig.samples.size
    z = np.empty(n, dtype=np.complex128)
    z.real = rng.standard_normal(n)
    z.imag = rng.standard_normal(n)
    z *= np.sqrt(noise_psd / 2)
    z += sig.samples
    return AnalogSignal.adopt(z, rate=sig.rate, start=sig.start)


def fold_impairments(paths: tuple[PathSpec, ...] | list[PathSpec],
                     imp: ImpairmentSpec) -> tuple[PathSpec, ...]:
    """Absorb dt/eps0/phi into the path set.

    Each path (h, tau, nu) becomes
    (h * exp(j (2 pi eps0 (tau + dt) + phi)), tau + dt, nu + eps0),
    and apply_paths on the folded set matches apply_paths followed by
    the noiseless impairment stage.
    """
    folded = []
    for p in paths:
        gain = p.gain * np.exp(1j * (2 * np.pi * imp.eps0 * (p.delay + imp.dt) + imp.phi))
        folded.append(PathSpec(gain=gain, delay=p.delay + imp.dt, doppler=p.doppler + imp.eps0))
    return tuple(folded)
