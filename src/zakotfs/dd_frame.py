"""Delay-Doppler frame geometry, pilot/guard layout, and QAM mapping.

A frame reserves one pilot cell at the grid centre (k_p, l_p), a guard
span of delay bins around it wide enough to absorb the channel delay
spread plus a timing margin, and fills every remaining cell with Gray
QAM data symbols.  The guard span occupies all N Doppler bins because
the pilot response is read out across the full Doppler axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FrameParams",
    "FrameLayout",
    "build_layout",
    "Constellation",
    "map_bits",
    "demap_symbols",
]

# Guard ceilings operate on exact products like B * (k / B); nudge by this
# much before ceil() so representation noise cannot bump the bin count.
_CEIL_EPS = 1e-9


@dataclass(frozen=True)
class FrameParams:
    """Grid dimensions and the delay-Doppler period of the frame.

    m delay bins spaced 1/B, n Doppler bins spaced nu_p/n, with
    B = m * nu_p and frame duration T = n * tau_p, tau_p = 1/nu_p.
    """

    m: int
    n: int
    nu_p: float

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2 or self.m % 2 or self.n % 2:
            raise ValueError(f"m and n must be even and >= 2, got {self.m}x{self.n}")
        if not 0 < self.nu_p < math.inf:
            raise ValueError(f"nu_p must be positive and finite, got {self.nu_p}")

    @property
    def tau_p(self) -> float:
        """Delay period tau_p = 1/nu_p in seconds."""
        return 1.0 / self.nu_p

    @property
    def b(self) -> float:
        """Occupied bandwidth B = m * nu_p in Hz."""
        return self.m * self.nu_p

    @property
    def t(self) -> float:
        """Frame duration T = n * tau_p in seconds."""
        return self.n * self.tau_p

    @property
    def doppler_bin_hz(self) -> float:
        return self.nu_p / self.n


@dataclass(frozen=True)
class FrameLayout:
    """Cell bookkeeping for one frame.

    The pilot sits at (k_p, l_p) = (m/2, n/2).  reach is the delay spread
    of the physical paths in bins, guard the guard half-width, which adds
    the timing margin to it.  kappa1..kappa4 are absolute delay-bin edges:
    [kappa1, kappa4) is the non-data (pilot plus guard) delay span and
    [kappa2, kappa3) the rows k_p - 1 .. k_p + reach that the paths alone
    reach, both across all Doppler bins.
    """

    m: int
    n: int
    reach: int
    guard: int

    def __post_init__(self) -> None:
        if not 0 <= self.reach <= self.guard <= self.m // 2 - 2:
            raise ValueError(
                f"a delay reach of {self.reach} and guard of {self.guard} bins "
                f"cannot be guarded on an m={self.m} grid"
            )

    @property
    def k_p(self) -> int:
        return self.m // 2

    @property
    def l_p(self) -> int:
        return self.n // 2

    @property
    def kappa1(self) -> int:
        return self.k_p - 1 - self.guard

    @property
    def kappa2(self) -> int:
        return self.k_p - 1

    @property
    def kappa3(self) -> int:
        return self.k_p + self.reach + 1

    @property
    def kappa4(self) -> int:
        return self.k_p + 1 + self.guard

    @cached_property
    def data_rows(self) -> np.ndarray:
        """The delay bins outside the guard span, ascending, read-only."""
        rows = np.r_[:self.kappa1, self.kappa4:self.m]
        rows.setflags(write=False)
        return rows

    @property
    def n_data_cells(self) -> int:
        return self.data_rows.size * self.n


def build_layout(params: FrameParams, tau_max: float, dt_margin: float) -> FrameLayout:
    """Place pilot and guards for a channel with delay spread tau_max.

    The paths reach ceil(B * tau_max) delay bins past the pilot; the guard
    half-width is ceil(B * (tau_max + dt_margin)) delay bins, where
    dt_margin budgets for residual timing error on top of that spread.
    """
    if tau_max < 0 or dt_margin < 0:
        raise ValueError("tau_max and dt_margin must be non-negative")
    b = params.b
    return FrameLayout(m=params.m, n=params.n,
                       reach=math.ceil(b * tau_max - _CEIL_EPS),
                       guard=math.ceil(b * (tau_max + dt_margin) - _CEIL_EPS))


def _gray_levels(bits: int) -> np.ndarray:
    """Amplitude levels indexed by a `bits`-wide label, Gray-ordered."""
    n_lev = 1 << bits
    # Level i (ascending amplitude) gets label gray(i); invert that map.
    levels = np.empty(n_lev)
    for i in range(n_lev):
        levels[i ^ (i >> 1)] = 2 * i - (n_lev - 1)
    return levels


@dataclass(frozen=True)
class Constellation:
    """Gray-labelled square QAM with unit mean symbol energy.

    points[i] is the symbol whose bit label is the integer i read MSB
    first; the first half of the label selects the I level and the second
    half the Q level, each through a reflected Gray code.
    """

    order: int

    def __post_init__(self) -> None:
        if self.order not in (4, 16):
            raise ValueError(f"unsupported constellation order {self.order}")

    @cached_property
    def points(self) -> np.ndarray:
        """The order symbols indexed by bit label, read-only."""
        half = self.order.bit_length() // 2  # bits per axis; order is 4 or 16
        levels = _gray_levels(half)
        n_axis = 1 << half
        pts = np.empty(self.order, dtype=np.complex128)
        for i_label in range(n_axis):
            for q_label in range(n_axis):
                pts[(i_label << half) | q_label] = levels[i_label] + 1j * levels[q_label]
        pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
        pts.setflags(write=False)
        return pts

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits)
        k = self.bits_per_symbol
        if bits.size % k:
            raise ValueError(f"bit count {bits.size} is not a multiple of {k}")
        if bits.size and not ((bits == 0) | (bits == 1)).all():
            raise ValueError("bits must be 0 or 1")
        weights = 1 << np.arange(k)[::-1]
        labels = bits.reshape(-1, k).astype(np.int64).dot(weights)
        return self.points[labels]

    @cached_property
    def _axis_decisions(self) -> tuple[tuple[float, ...], np.ndarray]:
        """Cuts on one axis, and the label bits of the level each count selects.

        A coordinate x decides for ascending level sum(x >= cut).  Each cut
        is the floating-point midpoint of two neighbouring levels, nudged up
        one ulp where the midpoint belongs to the lower level: nearer to it
        in exact arithmetic, or equidistant with the smaller label.
        """
        half = self.bits_per_symbol // 2
        by_label = self.points[::1 << half].real
        labels = np.argsort(by_label)
        levels = by_label[labels].tolist()
        cuts = []
        for a, b, la, lb in zip(levels, levels[1:], labels, labels[1:]):
            mid = (a + b) / 2
            up = b - mid < mid - a or (b - mid == mid - a and lb < la)
            cuts.append(mid if up else math.nextafter(mid, math.inf))
        bits = ((labels[:, None] >> np.arange(half)[::-1]) & 1).astype(np.uint8)
        bits.setflags(write=False)
        return tuple(cuts), bits

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        """Hard minimum-distance decisions back to bits.

        On the square grid the nearest point is the nearest level on each
        axis, so each real and imaginary part is compared with the level
        midpoints.  Ties break toward the smallest bit label.
        """
        cuts, bits = self._axis_decisions
        x = np.ascontiguousarray(symbols, dtype=np.complex128).reshape(-1)
        x = x.view(np.float64)  # re, im, re, im, ...: I bits then Q bits
        level = np.zeros(x.size, dtype=np.uint8)
        for cut in cuts:
            level += x >= cut
        return bits[level].reshape(-1)


def map_bits(bits: np.ndarray, constellation: Constellation, layout: FrameLayout,
             pilot_amp: float) -> np.ndarray:
    """Assemble an (M, N) transmit grid: data symbols, pilot amplitude, zero guards."""
    if pilot_amp <= 0:
        raise ValueError("pilot_amp must be positive")
    bits = np.asarray(bits)
    need = layout.n_data_cells * constellation.bits_per_symbol
    if bits.size != need:
        raise ValueError(f"layout carries {need} bits per frame, got {bits.size}")
    symbols = constellation.modulate(bits)
    values = np.zeros((layout.m, layout.n), dtype=np.complex128)
    rows = layout.data_rows
    values[rows, :] = symbols.reshape(rows.size, layout.n)
    values[layout.k_p, layout.l_p] = pilot_amp
    return values


def demap_symbols(grid: np.ndarray, layout: FrameLayout,
                  constellation: Constellation) -> np.ndarray:
    """Hard-decision bits from the data cells of an equalized (M, N) grid."""
    if grid.shape != (layout.m, layout.n):
        raise ValueError("layout and grid dimensions disagree")
    return constellation.demodulate(grid[layout.data_rows, :].reshape(-1))
