"""Frame geometry, guard placement, and Gray QAM mapping tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zakotfs.dd_frame import (
    Constellation,
    FrameLayout,
    FrameParams,
    build_layout,
    demap_symbols,
    map_bits,
)
from zakotfs.estimation import SupportRegion

NU_P = 30e3
TAU_P = 1.0 / NU_P


def params(m=64, n=64):
    return FrameParams(m=m, n=n, nu_p=NU_P)


def data_cells(lay):
    """Data cells in the deterministic (row-major) mapping order."""
    return [(int(k), l) for k in lay.data_rows for l in range(lay.n)]


def cell_kind(lay, k, l):
    if (k, l) == (lay.k_p, lay.l_p):
        return "pilot"
    if lay.kappa1 <= k < lay.kappa4:
        return "guard"
    return "data"


# =====================================================================
# Frame parameters
# =====================================================================

class TestFrameParams:
    """Dimension bookkeeping and its validation."""

    def test_derived_quantities(self):
        p = params(64, 48)
        assert p.b == pytest.approx(64 * NU_P)
        assert p.t == pytest.approx(48 * TAU_P)
        assert p.doppler_bin_hz == pytest.approx(NU_P / 48)

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError, match="even"):
            FrameParams(m=63, n=64, nu_p=NU_P)
        with pytest.raises(ValueError, match="even"):
            FrameParams(m=64, n=7, nu_p=NU_P)

    def test_positive_periods_required(self):
        with pytest.raises(ValueError, match="positive"):
            FrameParams(m=64, n=64, nu_p=-NU_P)

    @pytest.mark.parametrize("nu_p", [math.nan, math.inf])
    def test_finite_periods_required(self, nu_p):
        with pytest.raises(ValueError, match="nu_p must be positive and finite"):
            FrameParams(m=64, n=64, nu_p=nu_p)


# =====================================================================
# Pilot and guard layout
# =====================================================================

class TestBuildLayout:
    """Guard edges as a function of the channel delay budget."""

    def test_zero_spread_layout(self):
        """With no delay spread the guard is the minimal three-bin slab."""
        lay = build_layout(params(), tau_max=0.0, dt_margin=0.0)
        assert (lay.k_p, lay.l_p) == (32, 32)
        assert (lay.kappa1, lay.kappa2, lay.kappa3, lay.kappa4) == (31, 31, 33, 33)

    def test_fractional_spread_rounds_up(self):
        """2.5 delay bins of spread widen the guard by c = 3 on each side."""
        p = params()
        lay = build_layout(p, tau_max=2.5 / p.b, dt_margin=0.0)
        assert (lay.kappa1, lay.kappa2, lay.kappa3, lay.kappa4) == (28, 31, 36, 36)

    def test_margin_adds_to_spread(self):
        """tau_max and dt_margin contribute to the same guard budget."""
        p = params()
        a = build_layout(p, tau_max=2.5 / p.b, dt_margin=0.0)
        b = build_layout(p, tau_max=1.5 / p.b, dt_margin=1.0 / p.b)
        assert (a.kappa1, a.kappa4) == (b.kappa1, b.kappa4)

    def test_exact_bin_count_does_not_round_up(self):
        """A spread of exactly 2 bins must give c = 2, not 3."""
        p = params()
        lay = build_layout(p, tau_max=2.0 / p.b, dt_margin=0.0)
        assert lay.kappa4 - lay.kappa1 == 2 * 2 + 2

    def test_small_grid_limit(self):
        """m = 8 holds at most c = 2 of guard half-width."""
        p = params(8, 8)
        lay = build_layout(p, tau_max=2.0 / p.b, dt_margin=0.0)
        assert (lay.kappa1, lay.kappa4) == (1, 7)
        with pytest.raises(ValueError, match="cannot be guarded"):
            build_layout(p, tau_max=3.0 / p.b, dt_margin=0.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_layout(params(), tau_max=-1e-6, dt_margin=0.0)

    def test_reach_beyond_guard_rejected(self):
        with pytest.raises(ValueError, match="cannot be guarded"):
            FrameLayout(m=16, n=8, reach=2, guard=1)
        with pytest.raises(ValueError, match="cannot be guarded"):
            FrameLayout(m=16, n=8, reach=-1, guard=1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), half=st.integers(2, 64), n=st.integers(1, 32),
           q=st.integers(1, 8), q_margin=st.integers(1, 8))
    def test_supports_nest_and_cover_every_path_row(self, data, half, n, q,
                                                    q_margin):
        """Delays and margins on 1/q-bin grids, up to the widest guard m holds.

        A path at d <= tau_max bins lands on row k_p + ceil(d); C1 holds
        that row and the pilot row, C1 sits inside C2, C2 is the guard
        span, and row 0 stays data.
        """
        m, room = 2 * half, half - 2
        steps = data.draw(st.integers(0, q * room))
        tau_bins = Fraction(steps, q)
        margin_top = math.floor(q_margin * (room - tau_bins))
        margin_bins = Fraction(data.draw(st.integers(0, margin_top)), q_margin)
        p = params(m, 2 * n)
        lay = build_layout(p, tau_max=float(tau_bins) / p.b,
                           dt_margin=float(margin_bins) / p.b)
        c1 = SupportRegion.from_layout(lay, "C1")
        c2 = SupportRegion.from_layout(lay, "C2")
        rows = set(range(c1.k_lo, c1.k_hi))
        assert lay.k_p in rows
        for j in range(steps + 1):
            assert lay.k_p + math.ceil(Fraction(j, q)) in rows
        assert rows <= set(range(c2.k_lo, c2.k_hi))
        assert set(range(c2.k_lo, c2.k_hi)) == set(range(m)) - set(lay.data_rows)
        assert lay.kappa1 <= lay.kappa2 < lay.kappa3 <= lay.kappa4
        assert lay.n_data_cells > 0 and lay.data_rows[0] == 0


class TestFrameLayout:
    """Cell classification against the guard edges."""

    def test_cell_kinds(self):
        p = params()
        lay = build_layout(p, tau_max=2.5 / p.b, dt_margin=0.0)
        assert cell_kind(lay, 32, 32) == "pilot"
        assert cell_kind(lay, 32, 0) == "guard"
        assert cell_kind(lay, 28, 5) == "guard"
        assert cell_kind(lay, 35, 5) == "guard"
        assert cell_kind(lay, 27, 5) == "data"
        assert cell_kind(lay, 36, 5) == "data"

    def test_data_cell_count(self):
        p = params()
        lay = build_layout(p, tau_max=2.5 / p.b, dt_margin=0.0)
        guard_rows = lay.kappa4 - lay.kappa1
        assert lay.n_data_cells == (64 - guard_rows) * 64
        assert len(data_cells(lay)) == lay.n_data_cells

    def test_data_rows_skip_guard_span(self):
        lay = build_layout(params(), tau_max=0.0, dt_margin=0.0)
        rows = lay.data_rows
        assert 31 not in rows and 32 not in rows
        assert 30 in rows and 33 in rows
        want = [k for k in range(lay.m) if not lay.kappa1 <= k < lay.kappa4]
        assert rows.dtype.kind == "i" and rows.tolist() == want
        assert not rows.flags.writeable


# =====================================================================
# QAM constellations
# =====================================================================

def distance_oracle(c, symbols):
    """Minimum-distance decisions over every point; argmin keeps the first tie."""
    symbols = np.asarray(symbols, dtype=np.complex128).reshape(-1)
    labels = np.argmin(np.abs(symbols[:, None] - c.points[None, :]) ** 2, axis=1)
    shifts = np.arange(c.bits_per_symbol)[::-1]
    return ((labels[:, None] >> shifts[None, :]) & 1).astype(np.uint8).reshape(-1)


class TestConstellation:
    """Gray-labelled square QAM properties."""

    def test_qpsk_points(self):
        c = Constellation(4)
        expect = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        got = {complex(round(p.real * np.sqrt(2)), round(p.imag * np.sqrt(2)))
               for p in c.points}
        assert got == expect

    def test_16qam_levels(self):
        c = Constellation(16)
        scaled = c.points * np.sqrt(10)
        levels = sorted(set(np.round(scaled.real).astype(int)))
        assert levels == [-3, -1, 1, 3]

    @pytest.mark.parametrize("order", [4, 16])
    def test_unit_mean_energy(self, order):
        c = Constellation(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("order", [4, 16])
    def test_gray_adjacency(self, order):
        """Nearest-neighbour symbols differ in exactly one bit."""
        c = Constellation(order)
        pts = c.points
        d = np.abs(pts[:, None] - pts[None, :])
        d_min = np.min(d[d > 1e-12])
        for i in range(order):
            for j in range(order):
                if i != j and d[i, j] < d_min * 1.001:
                    assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("order", [4, 16])
    def test_modulate_demodulate_round_trip(self, order):
        c = Constellation(order)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=50 * c.bits_per_symbol)
        assert np.array_equal(c.demodulate(c.modulate(bits)), bits)

    def test_demodulate_is_nearest_neighbour(self):
        c = Constellation(16)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=400)
        sym = c.modulate(bits)
        # Perturb by less than half the minimum distance: decisions hold.
        noisy = sym + 0.15 * (rng.standard_normal(100) * (1 + 1j)) / np.sqrt(10)
        assert np.array_equal(c.demodulate(noisy), bits)

    @pytest.mark.parametrize("order", [4, 16])
    def test_axis_decisions_match_distance_oracle(self, order):
        """Random symbols, every level, every midpoint and both zeros, per axis."""
        c = Constellation(order)
        rng = np.random.default_rng(order)
        noisy = 0.8 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
        levels = np.unique(c.points.real)
        coords = np.concatenate([levels, (levels[:-1] + levels[1:]) / 2,
                                 [0.0, -0.0, 2.0, -2.0]])
        re, im = np.meshgrid(coords, coords)
        edges = np.empty(re.size, dtype=complex)
        edges.real, edges.imag = re.ravel(), im.ravel()
        assert np.signbit(edges.real).sum() > levels.size * coords.size
        for symbols in (noisy, edges):
            assert np.array_equal(c.demodulate(symbols), distance_oracle(c, symbols))

    def test_bits_per_symbol(self):
        assert Constellation(4).bits_per_symbol == 2
        assert Constellation(16).bits_per_symbol == 4

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="order"):
            Constellation(8)

    def test_modulate_rejects_ragged_bits(self):
        with pytest.raises(ValueError, match="multiple"):
            Constellation(4).modulate(np.zeros(3, dtype=int))

    def test_modulate_rejects_nonbinary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Constellation(4).modulate(np.array([0, 2]))

    @pytest.mark.parametrize("bad", [[0.5, 1.0], [-1, 0], [np.nan, 0.0]])
    def test_modulate_rejects_other_values(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            Constellation(4).modulate(np.array(bad))

    def test_modulate_accepts_any_zero_one_dtype(self):
        c = Constellation(4)
        want = c.modulate(np.array([0, 1, 1, 0]))
        for bits in ([False, True, True, False], [0.0, 1.0, 1.0, 0.0]):
            assert np.array_equal(c.modulate(np.array(bits)), want)


# =====================================================================
# Bit mapping onto the frame
# =====================================================================

class TestFrameMapping:
    """map_bits / demap_symbols round trips and placement."""

    def setup_method(self):
        p = params(16, 8)
        self.layout = build_layout(p, tau_max=1.0 / p.b, dt_margin=0.0)
        self.const = Constellation(4)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        nbits = self.layout.n_data_cells * self.const.bits_per_symbol
        bits = rng.integers(0, 2, size=nbits)
        grid = map_bits(bits, self.const, self.layout, pilot_amp=6.0)
        assert np.array_equal(demap_symbols(grid, self.layout, self.const), bits)

    def test_pilot_and_guard_placement(self):
        nbits = self.layout.n_data_cells * self.const.bits_per_symbol
        grid = map_bits(np.zeros(nbits, dtype=int), self.const, self.layout,
                        pilot_amp=6.0)
        assert grid[self.layout.k_p, self.layout.l_p] == 6.0
        for k in range(self.layout.kappa1, self.layout.kappa4):
            for l in range(self.layout.n):
                if (k, l) != (self.layout.k_p, self.layout.l_p):
                    assert grid[k, l] == 0.0

    def test_mapping_order_is_row_major(self):
        """The first symbol lands on the first listed data cell."""
        nbits = self.layout.n_data_cells * self.const.bits_per_symbol
        bits = np.zeros(nbits, dtype=int)
        bits[:2] = [0, 1]
        grid = map_bits(bits, self.const, self.layout, pilot_amp=1.0)
        k0, l0 = data_cells(self.layout)[0]
        assert grid[k0, l0] == pytest.approx(self.const.modulate([0, 1])[0])

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError, match="bits per frame"):
            map_bits(np.zeros(10, dtype=int), self.const, self.layout, pilot_amp=1.0)

    def test_pilot_amp_must_be_positive(self):
        nbits = self.layout.n_data_cells * self.const.bits_per_symbol
        with pytest.raises(ValueError, match="pilot_amp"):
            map_bits(np.zeros(nbits, dtype=int), self.const, self.layout,
                     pilot_amp=0.0)
