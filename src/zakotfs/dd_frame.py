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

from .zak import DDGrid, frozen_complex

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
    B = m * nu_p and frame duration T = n * tau_p.  The periods must
    satisfy tau_p * nu_p = 1.
    """

    m: int
    n: int
    nu_p: float
    tau_p: float

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 2 or self.m % 2 or self.n % 2:
            raise ValueError(f"m and n must be even and >= 2, got {self.m}x{self.n}")
        if self.nu_p <= 0 or self.tau_p <= 0:
            raise ValueError("nu_p and tau_p must be positive")
        if abs(self.nu_p * self.tau_p - 1.0) > 1e-12:
            raise ValueError(
                f"tau_p * nu_p must equal 1, got {self.nu_p * self.tau_p!r}"
            )

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

    kappa1..kappa4 are absolute delay-bin edges: [kappa1, kappa4) is the
    non-data (pilot plus guard) delay span, [kappa2, kappa3) the inner
    span a matched-timing receiver reads, both across all Doppler bins.
    """

    m: int
    n: int
    k_p: int
    l_p: int
    kappa1: int
    kappa2: int
    kappa3: int
    kappa4: int

    def __post_init__(self) -> None:
        if not (0 <= self.kappa1 <= self.kappa2 < self.kappa3 <= self.kappa4 <= self.m):
            raise ValueError(
                f"guard edges out of order: {(self.kappa1, self.kappa2, self.kappa3, self.kappa4)}"
            )
        if not (self.kappa1 <= self.k_p < self.kappa4):
            raise ValueError("pilot delay bin must sit inside the guard span")

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

    The guard half-width is ceil(B * (tau_max + dt_margin)) delay bins;
    dt_margin budgets for residual timing error on top of the physical
    delay spread.
    """
    if tau_max < 0 or dt_margin < 0:
        raise ValueError("tau_max and dt_margin must be non-negative")
    m, n = params.m, params.n
    spread = params.b * (tau_max + dt_margin)
    c = math.ceil(spread - _CEIL_EPS) if spread > 0 else 0
    if c > m // 2 - 2:
        raise ValueError(
            f"delay spread of {spread:.2f} bins cannot be guarded on an m={m} grid"
        )
    k_p = math.ceil(m / 2)
    l_p = math.ceil(n / 2)
    layout = FrameLayout(
        m=m,
        n=n,
        k_p=k_p,
        l_p=l_p,
        kappa1=k_p - 1 - c,
        kappa2=k_p - 1,
        kappa3=k_p + c,
        kappa4=k_p + 1 + c,
    )
    if layout.n_data_cells == 0:
        raise ValueError("guard span swallows the whole delay axis; no data cells remain")
    return layout


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
    points: np.ndarray

    def __post_init__(self) -> None:
        if self.order not in (4, 16):
            raise ValueError(f"unsupported constellation order {self.order}")
        pts = frozen_complex(self.points)
        if pts.shape != (self.order,):
            raise ValueError("points array does not match the constellation order")
        object.__setattr__(self, "points", pts)

    @classmethod
    def qam(cls, order: int) -> "Constellation":
        if order not in (4, 16):
            raise ValueError(f"unsupported constellation order {order}")
        half = order.bit_length() // 2  # bits per axis; order is 4 or 16
        levels = _gray_levels(half)
        n_axis = 1 << half
        pts = np.empty(order, dtype=np.complex128)
        for i_label in range(n_axis):
            for q_label in range(n_axis):
                pts[(i_label << half) | q_label] = levels[i_label] + 1j * levels[q_label]
        pts /= np.sqrt(np.mean(np.abs(pts) ** 2))
        return cls(order=order, points=pts)

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
        grid = (by_label[:, None] + 1j * by_label[None, :]).reshape(-1)
        # Neighbours of the sorted levels, not np.unique, which would load
        # numpy.ma into every process on its first trial.
        ascending = np.sort(by_label)
        if (not np.array_equal(self.points, grid)
                or np.any(ascending[1:] == ascending[:-1])):
            raise ValueError("per-axis decisions need a square grid of distinct "
                             "levels shared by both axes")
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
             pilot_amp: float) -> DDGrid:
    """Assemble a transmit grid: data symbols, pilot amplitude, zero guards."""
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
    return DDGrid(values=values)


def demap_symbols(grid: DDGrid | np.ndarray, layout: FrameLayout,
                  constellation: Constellation) -> np.ndarray:
    """Hard-decision bits from the data cells of an equalized grid."""
    values = grid.values if isinstance(grid, DDGrid) else np.asarray(grid)
    return constellation.demodulate(values[layout.data_rows, :].reshape(-1))
