"""Frame geometry, guard placement, and Gray QAM mapping tests."""

import numpy as np
import pytest

from zakotfs.dd_frame import (
    Constellation,
    FrameLayout,
    FrameParams,
    build_layout,
    demap_symbols,
    map_bits,
)

NU_P = 30e3
TAU_P = 1.0 / NU_P


def params(m=64, n=64):
    return FrameParams(m=m, n=n, nu_p=NU_P, tau_p=TAU_P)


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
            FrameParams(m=63, n=64, nu_p=NU_P, tau_p=TAU_P)
        with pytest.raises(ValueError, match="even"):
            FrameParams(m=64, n=7, nu_p=NU_P, tau_p=TAU_P)

    def test_period_product_must_be_one(self):
        with pytest.raises(ValueError, match="tau_p \\* nu_p"):
            FrameParams(m=64, n=64, nu_p=NU_P, tau_p=TAU_P * 1.001)

    def test_positive_periods_required(self):
        with pytest.raises(ValueError, match="positive"):
            FrameParams(m=64, n=64, nu_p=-NU_P, tau_p=-TAU_P)


# =====================================================================
# Pilot and guard layout
# =====================================================================

class TestBuildLayout:
    """Guard edges as a function of the channel delay budget."""

    def test_zero_spread_layout(self):
        """With no delay spread the guard is the minimal three-bin slab."""
        lay = build_layout(params(), tau_max=0.0, dt_margin=0.0)
        assert (lay.k_p, lay.l_p) == (32, 32)
        assert (lay.kappa1, lay.kappa2, lay.kappa3, lay.kappa4) == (31, 31, 32, 33)

    def test_fractional_spread_rounds_up(self):
        """2.5 delay bins of spread widen the guard by c = 3 on each side."""
        p = params()
        lay = build_layout(p, tau_max=2.5 / p.b, dt_margin=0.0)
        assert (lay.kappa1, lay.kappa2, lay.kappa3, lay.kappa4) == (28, 31, 35, 36)

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

    def test_edge_ordering_enforced(self):
        with pytest.raises(ValueError, match="out of order"):
            FrameLayout(m=8, n=8, k_p=4, l_p=4,
                        kappa1=5, kappa2=4, kappa3=5, kappa4=6)

    def test_pilot_must_sit_in_guard(self):
        with pytest.raises(ValueError, match="pilot delay bin"):
            FrameLayout(m=8, n=8, k_p=1, l_p=4,
                        kappa1=3, kappa2=3, kappa3=4, kappa4=5)


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
        c = Constellation.qam(4)
        expect = {(1 + 1j), (1 - 1j), (-1 + 1j), (-1 - 1j)}
        got = {complex(round(p.real * np.sqrt(2)), round(p.imag * np.sqrt(2)))
               for p in c.points}
        assert got == expect

    def test_16qam_levels(self):
        c = Constellation.qam(16)
        scaled = c.points * np.sqrt(10)
        levels = sorted(set(np.round(scaled.real).astype(int)))
        assert levels == [-3, -1, 1, 3]

    @pytest.mark.parametrize("order", [4, 16])
    def test_unit_mean_energy(self, order):
        c = Constellation.qam(order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("order", [4, 16])
    def test_gray_adjacency(self, order):
        """Nearest-neighbour symbols differ in exactly one bit."""
        c = Constellation.qam(order)
        pts = c.points
        d = np.abs(pts[:, None] - pts[None, :])
        d_min = np.min(d[d > 1e-12])
        for i in range(order):
            for j in range(order):
                if i != j and d[i, j] < d_min * 1.001:
                    assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("order", [4, 16])
    def test_modulate_demodulate_round_trip(self, order):
        c = Constellation.qam(order)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=50 * c.bits_per_symbol)
        assert np.array_equal(c.demodulate(c.modulate(bits)), bits)

    def test_demodulate_is_nearest_neighbour(self):
        c = Constellation.qam(16)
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, size=400)
        sym = c.modulate(bits)
        # Perturb by less than half the minimum distance: decisions hold.
        noisy = sym + 0.15 * (rng.standard_normal(100) * (1 + 1j)) / np.sqrt(10)
        assert np.array_equal(c.demodulate(noisy), bits)

    @pytest.mark.parametrize("order", [4, 16])
    def test_axis_decisions_match_distance_oracle(self, order):
        """Random symbols, every level, every midpoint and both zeros, per axis."""
        c = Constellation.qam(order)
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

    def test_points_off_a_square_grid_are_not_demodulated(self):
        tilted = Constellation(order=4, points=Constellation.qam(4).points
                               * np.exp(0.25j * np.pi))
        with pytest.raises(ValueError, match="square grid"):
            tilted.demodulate(tilted.points)

    @pytest.mark.parametrize("by_label", [
        [1.0, 1.0],                  # four equal points
        [0.0, -0.0],                 # levels equal as numbers, apart in sign
        [-3.0, 1.0, 1.0, 3.0],       # 16 points on a grid with a repeated level
    ])
    def test_repeated_levels_are_not_demodulated(self, by_label):
        """A square grid whose axis repeats a level has no per-axis decision."""
        levels = np.array(by_label)
        points = (levels[:, None] + 1j * levels[None, :]).reshape(-1)
        c = Constellation(order=points.size, points=points)
        with pytest.raises(ValueError, match="square grid"):
            c.demodulate(points)

    def test_bits_per_symbol(self):
        assert Constellation.qam(4).bits_per_symbol == 2
        assert Constellation.qam(16).bits_per_symbol == 4

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="order"):
            Constellation.qam(8)

    def test_modulate_rejects_ragged_bits(self):
        with pytest.raises(ValueError, match="multiple"):
            Constellation.qam(4).modulate(np.zeros(3, dtype=int))

    def test_modulate_rejects_nonbinary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Constellation.qam(4).modulate(np.array([0, 2]))

    @pytest.mark.parametrize("bad", [[0.5, 1.0], [-1, 0], [np.nan, 0.0]])
    def test_modulate_rejects_other_values(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            Constellation.qam(4).modulate(np.array(bad))

    def test_modulate_accepts_any_zero_one_dtype(self):
        c = Constellation.qam(4)
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
        self.const = Constellation.qam(4)

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
        assert grid.values[self.layout.k_p, self.layout.l_p] == 6.0
        for k in range(self.layout.kappa1, self.layout.kappa4):
            for l in range(self.layout.n):
                if (k, l) != (self.layout.k_p, self.layout.l_p):
                    assert grid.values[k, l] == 0.0

    def test_mapping_order_is_row_major(self):
        """The first symbol lands on the first listed data cell."""
        nbits = self.layout.n_data_cells * self.const.bits_per_symbol
        bits = np.zeros(nbits, dtype=int)
        bits[:2] = [0, 1]
        grid = map_bits(bits, self.const, self.layout, pilot_amp=1.0)
        k0, l0 = data_cells(self.layout)[0]
        assert grid.values[k0, l0] == pytest.approx(self.const.modulate([0, 1])[0])

    def test_wrong_bit_count_rejected(self):
        with pytest.raises(ValueError, match="bits per frame"):
            map_bits(np.zeros(10, dtype=int), self.const, self.layout, pilot_amp=1.0)

    def test_pilot_amp_must_be_positive(self):
        nbits = self.layout.n_data_cells * self.const.bits_per_symbol
        with pytest.raises(ValueError, match="pilot_amp"):
            map_bits(np.zeros(nbits, dtype=int), self.const, self.layout,
                     pilot_amp=0.0)
