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
import scipy.fft

__all__ = ["DDGrid", "DTSignal", "idzt", "dzt", "idzt_samples", "dzt_values",
           "extend", "frozen_complex", "memo"]

# Role tags for DDGrid; purely informational but kept on the type so a
# received grid is never silently fed where transmit symbols are expected.
ROLE_SYMBOLS = "symbols"
ROLE_RECEIVED = "received"
ROLE_CHANNEL = "channel"
_ROLES = (ROLE_SYMBOLS, ROLE_RECEIVED, ROLE_CHANNEL)


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


@dataclass(frozen=True)
class DDGrid:
    """Immutable M x N complex delay-Doppler grid.

    Index order is [delay, Doppler]: values[k, l] is delay bin k in
    [0, M) and Doppler bin l in [0, N).
    """

    values: np.ndarray
    role: str = ROLE_SYMBOLS

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError(f"DDGrid wants a 2-D array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("DDGrid entries must be finite")
        if self.role not in _ROLES:
            raise ValueError(f"unknown DDGrid role {self.role!r}")
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
    blocks = np.sqrt(n) * scipy.fft.ifft(values, axis=1)  # [k, n]
    return blocks.T.reshape(-1)  # q = k + n*M ordering


def dzt_values(samples: np.ndarray, m: int, n: int) -> np.ndarray:
    """The DZT of a length-MN array as a bare M x N array, unvalidated."""
    blocks = samples.reshape(n, m)  # [n, k]
    return (scipy.fft.fft(blocks, axis=0) / np.sqrt(n)).T  # [k, l]


def idzt(grid: DDGrid | np.ndarray, rate: float | None = None) -> DTSignal:
    """Inverse discrete Zak transform: delay-Doppler grid to time samples.

    Returns the fundamental period s[q], q = 0..MN-1, laid out so that
    sample q = k + n*M carries delay bin k in Doppler block n.
    """
    values = grid.values if isinstance(grid, DDGrid) else np.asarray(grid, dtype=np.complex128)
    m, n = values.shape
    return DTSignal(samples=idzt_samples(values), m=m, n=n, rate=rate)


def dzt(sig: DTSignal | np.ndarray, m: int | None = None, n: int | None = None,
        role: str = ROLE_RECEIVED) -> DDGrid:
    """Discrete Zak transform: one MN-period of time samples to the grid."""
    if isinstance(sig, DTSignal):
        samples, m, n = sig.samples, sig.m, sig.n
    else:
        if m is None or n is None:
            raise ValueError("dzt on a bare array needs explicit m and n")
        samples = np.asarray(sig, dtype=np.complex128)
        if samples.size != m * n:
            raise ValueError(f"expected {m * n} samples, got {samples.size}")
    return DDGrid(values=dzt_values(samples, m, n), role=role)


def extend(grid: DDGrid | np.ndarray, k: int, l: int) -> complex:
    """Quasi-periodic extension of a grid to arbitrary integer (k, l).

    extend(g, k + n*M, l) == exp(j 2 pi n l / N) * extend(g, k, l) and the
    grid is plain-periodic along Doppler.
    """
    values = grid.values if isinstance(grid, DDGrid) else np.asarray(grid)
    m, n = values.shape
    wraps = k // m
    phase = np.exp(2j * np.pi * wraps * l / n)
    return complex(phase * values[k % m, l % n])
