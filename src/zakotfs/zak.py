"""Discrete Zak transforms between time and delay-Doppler domains.

A frame lives on an M x N delay-Doppler grid: M delay bins spaced 1/B and
N Doppler bins spaced nu_p/N, held as an (M, N) complex array indexed
[delay, Doppler].  The inverse discrete Zak transform (IDZT) turns a
grid into one period of an MN-periodic time sequence,

    s[k + nM] = (1/sqrt(N)) * sum_l s_dd[k, l] * exp(+j 2 pi n l / N),

and the forward transform (DZT) inverts it,

    y_dd[k, l] = (1/sqrt(N)) * sum_n y[k + nM] * exp(-j 2 pi n l / N).

Both are unitary, so energy is preserved exactly.  Off the fundamental
M x N window the grid continues quasi-periodically:

    s_dd[k + nM, l + mN] = exp(j 2 pi n l / N) * s_dd[k, l].
"""

from __future__ import annotations

from functools import lru_cache, wraps

import numpy as np

__all__ = ["idzt", "dzt", "fast_len", "frozen_complex", "memo"]


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


def idzt(values: np.ndarray) -> np.ndarray:
    """Inverse discrete Zak transform of an M x N array: one MN period.

    Sample q = k + n*M carries delay bin k in Doppler block n.
    """
    n = values.shape[1]
    # For each delay bin k the n-axis is an inverse DFT of the Doppler row.
    blocks = np.sqrt(n) * np.fft.ifft(values, axis=1)  # [k, n]
    return blocks.T.reshape(-1)  # q = k + n*M ordering


def dzt(samples: np.ndarray, m: int, n: int) -> np.ndarray:
    """Discrete Zak transform of one MN period of samples: an M x N array."""
    if samples.size != m * n:
        raise ValueError(f"expected {m * n} samples, got {samples.size}")
    blocks = samples.reshape(n, m)  # [n, k]
    return (np.fft.fft(blocks, axis=0) / np.sqrt(n)).T  # [k, l]
