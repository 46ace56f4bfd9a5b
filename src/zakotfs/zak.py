"""Discrete Zak transforms between time and delay-Doppler domains.

A frame lives on an M x N delay-Doppler grid: M delay bins spaced 1/B and
N Doppler bins spaced nu_p/N.  The inverse discrete Zak transform (IDZT)
turns a grid into one period of an MN-periodic time sequence,

    s[k + nM] = (1/sqrt(N)) * sum_l s_dd[k, l] * exp(+j 2 pi n l / N),

and the forward transform (DZT) inverts it,

    y_dd[k, l] = (1/sqrt(N)) * sum_n y[k + nM] * exp(-j 2 pi n l / N).

Both are unitary, so energy is preserved exactly.  Off the fundamental
M x N window the grid continues quasi-periodically:

    s_dd[k + nM, l + mN] = exp(j 2 pi n l / N) * s_dd[k, l].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

__all__ = ["DDGrid", "DTSignal", "idzt", "dzt", "idzt_samples", "dzt_values",
           "fast_len", "frozen_complex", "memo"]


def frozen_complex(values: np.ndarray) -> np.ndarray:
    """A read-only complex128 copy of values."""
    out = np.array(values, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


def _freeze(value):
    """Make every ndarray in value, or nested in its tuples, read-only in place."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    return value


def memo(maxsize: int):
    """lru_cache for builders of per-process constants that every caller shares.

    Every ndarray in a result, or in its (named) tuples, is made read-only
    before it is cached.  Hits are plain lru_cache lookups.
    """
    def decorate(build):
        @wraps(build)
        def frozen(*args, **kwargs):
            return _freeze(build(*args, **kwargs))
        return lru_cache(maxsize=maxsize)(frozen)
    return decorate


@memo(maxsize=64)
def fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n, a length the FFT takes fast.

    It is scipy.fft.next_fast_len(n, False); every zero-padded transform
    in the package is sized by it.
    """
    if n < 1:
        raise ValueError(f"transform length must be positive, got {n}")
    size = n
    while True:
        rest = size
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return size
        size += 1


@dataclass(frozen=True)
class DDGrid:
    """Immutable M x N complex delay-Doppler grid.

    Index order is [delay, Doppler]: values[k, l] is delay bin k in
    [0, M) and Doppler bin l in [0, N).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError(f"DDGrid wants a 2-D array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("DDGrid entries must be finite")
        object.__setattr__(self, "values", frozen_complex(v))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class DTSignal:
    """One period of an MN-periodic discrete-time sequence at rate B."""

    samples: np.ndarray
    m: int
    n: int
    rate: float | None = None

    def __post_init__(self) -> None:
        s = np.asarray(self.samples)
        if s.ndim != 1:
            raise ValueError("DTSignal samples must be 1-D")
        if s.size != self.m * self.n:
            raise ValueError(
                f"expected {self.m * self.n} samples for an {self.m}x{self.n} frame, got {s.size}"
            )
        if not np.all(np.isfinite(s)):
            raise ValueError("DTSignal samples must be finite")
        object.__setattr__(self, "samples", frozen_complex(s))


def idzt_samples(values: np.ndarray) -> np.ndarray:
    """The IDZT of an M x N array as a bare length-MN array, unvalidated.

    Sample q = k + n*M carries delay bin k in Doppler block n.
    """
    n = values.shape[1]
    # For each delay bin k the n-axis is an inverse DFT of the Doppler row.
    blocks = np.sqrt(n) * np.fft.ifft(values, axis=1)  # [k, n]
    return blocks.T.reshape(-1)  # q = k + n*M ordering


def dzt_values(samples: np.ndarray, m: int, n: int) -> np.ndarray:
    """The DZT of a length-MN array as a bare M x N array, unvalidated."""
    blocks = samples.reshape(n, m)  # [n, k]
    return (np.fft.fft(blocks, axis=0) / np.sqrt(n)).T  # [k, l]


def idzt(grid: DDGrid | np.ndarray, rate: float | None = None) -> DTSignal:
    """Inverse discrete Zak transform: delay-Doppler grid to time samples.

    Returns the fundamental period s[q], q = 0..MN-1, laid out so that
    sample q = k + n*M carries delay bin k in Doppler block n.
    """
    values = grid.values if isinstance(grid, DDGrid) else np.asarray(grid, dtype=np.complex128)
    m, n = values.shape
    return DTSignal(samples=idzt_samples(values), m=m, n=n, rate=rate)


def dzt(sig: DTSignal | np.ndarray, m: int | None = None,
        n: int | None = None) -> DDGrid:
    """Discrete Zak transform: one MN-period of time samples to the grid."""
    if isinstance(sig, DTSignal):
        samples, m, n = sig.samples, sig.m, sig.n
    else:
        if m is None or n is None:
            raise ValueError("dzt on a bare array needs explicit m and n")
        samples = np.asarray(sig, dtype=np.complex128)
        if samples.size != m * n:
            raise ValueError(f"expected {m * n} samples, got {samples.size}")
    return DDGrid(values=dzt_values(samples, m, n))
