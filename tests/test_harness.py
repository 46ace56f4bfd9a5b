"""Configuration, IQ files, SVG output, the trial runner, and the CLI."""

import concurrent.futures
import copy
import dataclasses
import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from zakotfs import channel, estimation, runner, svg, sync, waveform
from zakotfs.cli import main
from zakotfs.config import MAX_WORKERS, ConfigError, config_from_dict, load_config
from zakotfs.iqfile import IqFormatError, read_iq, read_iq_header, write_iq
from zakotfs.runner import BerCurve, BerPoint, TrialReport, run_trial, sweep
from zakotfs.waveform import AnalogSignal
from zakotfs.zak import fast_len


NAN, INF = float("nan"), float("inf")


def tiny_config_dict(**run_overrides):
    """A fast noiseless loopback setup on an 8x8 grid."""
    raw = {
        "config_version": 1,
        "frame": {"m": 8, "n": 8, "tau_p_s": 1 / 30e3, "nu_p_hz": 30e3,
                  "pilot_amp": 8.0},
        "layout": {"tau_max_bins": 1.5, "dt_margin_bins": 0.0},
        "shape": {"family": "rrc", "beta": 0.5, "w1_span": None,
                  "oversampling": 4},
        "channel": {"paths": [{"delay_bins": 0}]},
        "run": {"constellation": 4, "snr_db": [None], "trials": 1,
                "base_seed": 11},
    }
    raw["run"].update(run_overrides)
    return raw


# ---------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------

class TestConfigFromDict:
    """Strict schema validation of the experiment mapping."""

    def test_minimal_config_builds(self):
        cfg = config_from_dict(tiny_config_dict())
        assert cfg.params.m == 8
        assert cfg.snr_db == (np.inf,)
        assert cfg.workers == 1
        assert cfg.support_kind == "C1"
        assert not cfg.sync_enabled
        assert cfg.layout().k_p == 4
        assert cfg.constellation().order == 4

    def test_version_required(self):
        raw = tiny_config_dict()
        raw["config_version"] = 2
        with pytest.raises(ConfigError, match="config_version"):
            config_from_dict(raw)

    def test_unknown_top_level_key(self):
        raw = tiny_config_dict()
        raw["extra"] = {}
        with pytest.raises(ConfigError, match="unknown keys: extra"):
            config_from_dict(raw)

    def test_unknown_frame_key(self):
        raw = tiny_config_dict()
        raw["frame"]["bandwidth"] = 1.0
        with pytest.raises(ConfigError, match="frame"):
            config_from_dict(raw)

    def test_period_product_checked(self):
        raw = tiny_config_dict()
        raw["frame"]["tau_p_s"] = 1 / 29e3
        with pytest.raises(ConfigError, match="tau_p \\* nu_p"):
            config_from_dict(raw)

    def test_error_carries_field_name(self):
        raw = tiny_config_dict()
        del raw["frame"]["m"]
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field_name == "frame.m"
        assert "frame.m" in str(info.value)

    def test_bool_is_not_an_integer(self):
        raw = tiny_config_dict(trials=True)
        with pytest.raises(ConfigError, match="run.trials"):
            config_from_dict(raw)

    @pytest.mark.parametrize("section, key, value, message", [
        ("run", "trials", 2.0, "run.trials: expected an integer, got 2.0"),
        ("run", "trials", 0, "run.trials: must be >= 1, got 0"),
        ("run", "trials", 2 ** 32 + 1, f"run.trials: must be <= {2 ** 32}, got {2 ** 32 + 1}"),
        ("frame", "m", None, "frame.m: value is missing"),
        ("frame", "pilot_amp", "8", "frame.pilot_amp: expected a number, got '8'"),
        ("frame", "pilot_amp", False, "frame.pilot_amp: expected a number, got False"),
        ("layout", "tau_max_bins", -0.5, "layout.tau_max_bins: must be >= 0.0, got -0.5"),
    ])
    def test_number_messages(self, section, key, value, message):
        raw = tiny_config_dict()
        if value is None:
            del raw[section][key]
        else:
            raw[section][key] = value
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value", [
        ("sync.threshold", NAN),
        ("layout.dt_margin_bins", NAN),
        ("layout.dt_margin_bins", INF),
        ("layout.tau_max_bins", NAN),
        ("layout.tau_max_bins", INF),
        ("layout.tau_max_bins", 10 ** 400),
        ("frame.pilot_amp", INF),
        ("frame.nu_p_hz", NAN),
        *[(f"channel.paths[0].{key}", value)
          for key in ("delay_bins", "doppler_bins", "gain_db", "phase_deg")
          for value in (NAN, INF, -INF)],
        ("channel.paths[0].gain_db", 4000),     # 10 ** 200 squares to inf
        ("channel.paths[0].gain_db", -4000),    # 10 ** -200 squares to 0
        ("channel.paths[0].gain_db", 1e4),      # 10 ** 500.0 overflows
    ])
    def test_unusable_number_rejected(self, field, value):
        """NaN passes every bound check and the infinities overflow, so
        each is refused when the config is read, on its own field."""
        raw = tiny_config_dict()
        where, key = field.rsplit(".", 1)
        if where == "channel.paths[0]":
            raw["channel"]["paths"][0][key] = value
        else:
            raw.setdefault(where, {})[key] = value
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field_name == field

    @pytest.mark.parametrize("section, key, value", [
        ("frame", "nu_p_hz", 0),
        ("frame", "nu_p_hz", -3e4),
        ("channel", "phase_rad", 4.0),
        ("channel", "phase_rad", -4.0),
    ])
    def test_field_name(self, section, key, value):
        """The error names the field that is wrong, not a neighbour of it."""
        raw = tiny_config_dict()
        raw[section][key] = value
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field_name == f"{section}.{key}"

    def test_timing_offset_that_overflows_in_seconds(self):
        raw = tiny_config_dict()
        del raw["frame"]["tau_p_s"]
        raw["frame"]["nu_p_hz"] = 1e-300
        raw["channel"]["timing_offset_bins"] = 1e10
        with pytest.raises(ConfigError, match="dt must be finite") as info:
            config_from_dict(raw)
        assert info.value.field_name == "channel.timing_offset_bins"

    def test_delay_period_is_optional(self):
        """nu_p_hz alone fixes the frame; tau_p_s, when written, only cross-checks it."""
        raw = tiny_config_dict()
        del raw["frame"]["tau_p_s"]
        assert config_from_dict(raw) == config_from_dict(tiny_config_dict())
        # A zero Doppler period is refused on its own field, not divided by.
        raw["frame"]["nu_p_hz"] = 0
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field_name == "frame.nu_p_hz"

    @pytest.mark.parametrize("tau_p", [0, -1 / 30e3])
    def test_non_positive_delay_period_fails_the_product(self, tau_p):
        raw = tiny_config_dict()
        raw["frame"]["tau_p_s"] = tau_p
        with pytest.raises(ConfigError, match="tau_p \\* nu_p") as info:
            config_from_dict(raw)
        assert info.value.field_name == "frame.tau_p_s"

    def test_impairment_keys_build_the_spec(self):
        """Timing offset in delay bins becomes seconds; phase passes through in radians."""
        raw = tiny_config_dict()
        raw["channel"].update(cfo_hz=150.0, timing_offset_bins=2.5, phase_rad=-3.0)
        cfg = config_from_dict(raw)
        assert cfg.impairments == channel.ImpairmentSpec(
            dt=2.5 / cfg.params.b, eps0=150.0, phi=-3.0)

    def test_snr_list_required(self):
        raw = tiny_config_dict(snr_db=[])
        with pytest.raises(ConfigError, match="run.snr_db"):
            config_from_dict(raw)

    def test_null_snr_means_noiseless(self):
        cfg = config_from_dict(tiny_config_dict(snr_db=[None, 20]))
        assert cfg.snr_db == (np.inf, 20.0)

    def test_inf_snr_means_noiseless(self):
        cfg = config_from_dict(tiny_config_dict(snr_db=[20, float("inf")]))
        assert cfg.snr_db == (20.0, np.inf)

    def test_snr_limits_accepted(self):
        cfg = config_from_dict(tiny_config_dict(snr_db=[-1541, 1541.25]))
        assert cfg.snr_db == (-1541.0, 1541.25)

    @pytest.mark.parametrize("snr_db", [
        [float("nan")],
        [float("-inf")],
        [4000],                  # 10 ** 400.0 overflows
        [-4000],                 # 10 ** -400.0 underflows to 0
        [20, 1541.3],
        [10 ** 400],             # no float holds it
        [10, 20, 10],
        [None, float("inf")],    # both mean noiseless
        [0, -0.0],
        [10, 10.000001],         # both print as 10
    ], ids=["nan", "-inf", "overflow", "underflow", "past-limit", "huge-int",
            "duplicate", "duplicate-noiseless", "duplicate-zero", "same-label"])
    def test_bad_snr_point_rejected(self, snr_db):
        with pytest.raises(ConfigError) as info:
            config_from_dict(tiny_config_dict(snr_db=snr_db))
        assert info.value.field_name == f"run.snr_db[{len(snr_db) - 1}]"

    def test_path_delay_within_layout_budget(self):
        raw = tiny_config_dict()
        raw["channel"]["paths"] = [{"delay_bins": 2.0}]
        with pytest.raises(ConfigError, match="tau_max_bins"):
            config_from_dict(raw)

    def test_path_doppler_within_band(self):
        raw = tiny_config_dict()
        raw["channel"]["paths"] = [{"delay_bins": 0, "doppler_bins": 5}]
        with pytest.raises(ConfigError, match="doppler_bins"):
            config_from_dict(raw)

    def test_gains_normalized_by_default(self):
        raw = tiny_config_dict()
        raw["channel"]["paths"] = [{"delay_bins": 0, "gain_db": 0.0},
                                   {"delay_bins": 1, "gain_db": -3.0,
                                    "phase_deg": 90.0}]
        cfg = config_from_dict(raw)
        total = sum(abs(p.gain) ** 2 for p in cfg.paths)
        assert total == pytest.approx(1.0, rel=1e-12)
        assert cfg.paths[1].gain.real == pytest.approx(0.0, abs=1e-12)

    def test_normalize_power_is_refused(self):
        """The noise follows the received power, so a gain scale is no knob."""
        raw = tiny_config_dict()
        raw["channel"]["normalize_power"] = False
        with pytest.raises(ConfigError, match="^channel: unknown keys: normalize_power$"):
            config_from_dict(raw)

    def test_doppler_bins_convert_to_hz(self):
        raw = tiny_config_dict()
        raw["channel"]["paths"] = [{"delay_bins": 0, "doppler_bins": 2}]
        cfg = config_from_dict(raw)
        assert cfg.paths[0].doppler == pytest.approx(2 * 30e3 / 8)

    def test_bad_support_choice(self):
        raw = tiny_config_dict(support="C9")
        with pytest.raises(ConfigError, match="run.support"):
            config_from_dict(raw)

    def test_bad_cfo_mode(self):
        raw = tiny_config_dict(cfo_correction="frequency_domain")
        with pytest.raises(ConfigError, match="run.cfo_correction"):
            config_from_dict(raw)

    def test_stream_key_fields_fit_their_words(self):
        """A trial's stream key is base_seed and a word holding 32 bits of the index."""
        assert config_from_dict(tiny_config_dict(trials=2 ** 32)).trials == 2 ** 32
        with pytest.raises(ConfigError, match="run.trials"):
            config_from_dict(tiny_config_dict(trials=2 ** 32 + 1))
        cfg = config_from_dict(tiny_config_dict(base_seed=2 ** 64 - 1))
        assert run_trial(cfg, 0).seed_key == (2 ** 64 - 1, 0)
        with pytest.raises(ConfigError, match="run.base_seed"):
            config_from_dict(tiny_config_dict(base_seed=2 ** 64))

    def test_worker_count_is_bounded(self):
        """sweep starts its workers at once, so a config may ask for at most
        MAX_WORKERS of them."""
        assert config_from_dict(tiny_config_dict(workers=MAX_WORKERS)).workers == MAX_WORKERS
        for workers in (MAX_WORKERS + 1, 100000):
            with pytest.raises(ConfigError, match="run.workers"):
                config_from_dict(tiny_config_dict(workers=workers))

    def test_layout_too_wide_for_grid(self):
        raw = tiny_config_dict()
        raw["layout"]["tau_max_bins"] = 4.0
        with pytest.raises(ConfigError, match="layout"):
            config_from_dict(raw)

    @pytest.mark.parametrize("shape, field", [
        ({"oversampling": 1}, "shape.oversampling"),
        ({"family": "sinc", "w1_span": 8}, "shape.w1_span"),
        ({"w1_span": 2}, "shape.w1_span"),
        ({"beta": 0}, "shape.beta"),
        ({"w1_span": 1}, "shape.w1_span"),
    ])
    def test_shape_problems_fail_at_config_time(self, shape, field):
        raw = tiny_config_dict()
        raw["shape"].update(shape)
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.field_name == field

    def test_sync_section_defaults(self):
        cfg = config_from_dict(tiny_config_dict())
        assert cfg.preamble_length == 256
        assert cfg.preamble_root == 25
        assert cfg.gap_symbols == 64
        assert cfg.sync_threshold == 0.3

    def test_sync_root_coprimality_checked(self):
        raw = tiny_config_dict()
        raw["sync"] = {"preamble_length": 256, "preamble_root": 32}
        with pytest.raises(ConfigError, match="preamble_root"):
            config_from_dict(raw)

    def test_short_preamble_allowed_without_time_domain_cfo(self):
        """Only time_domain correction runs Kay's estimator on CFO blocks."""
        raw = tiny_config_dict(sync=True, cfo_correction="channel_folded")
        raw["sync"] = {"preamble_length": 16, "preamble_root": 1}
        assert config_from_dict(raw).preamble_length == 16

    def test_short_preamble_allowed_without_sync(self):
        """With sync off no preamble is sent and no offset is estimated;
        turning sync on brings the two-block rule back."""
        raw = tiny_config_dict(cfo_correction="time_domain")
        raw["sync"] = {"preamble_length": 16}
        assert config_from_dict(raw).preamble_length == 16
        raw["run"]["sync"] = True
        with pytest.raises(ConfigError, match="needs at least 32 chips") as info:
            config_from_dict(raw)
        assert info.value.field_name == "sync.preamble_length"

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict([1, 2, 3])


class TestLoadConfig:
    """YAML file loading and its failure modes."""

    def test_round_trip_through_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(tiny_config_dict()))
        cfg = load_config(str(path))
        assert cfg.params.m == 8

    @staticmethod
    def _load_with(tmp_path, section, key, scalar):
        """load_config on tiny_config_dict with section.key written as `scalar`."""
        raw = tiny_config_dict()
        raw[section][key] = "SCALAR_HERE"
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw).replace("SCALAR_HERE", scalar))
        return load_config(str(path))

    @pytest.mark.parametrize("scalar, value", [
        ("1e-20", 1e-20), ("1E+3", 1e3), ("-2.5e3", -2.5e3), (".5e1", 5.0),
        ("1.0e5", 1e5),
    ])
    def test_exponent_floats(self, tmp_path, scalar, value):
        """YAML 1.2 floats need no decimal point and no exponent sign."""
        cfg = self._load_with(tmp_path, "channel", "cfo_hz", scalar)
        assert cfg.impairments.eps0 == value

    def test_tiny_pilot_in_exponent_form_loads(self, tmp_path):
        assert self._load_with(tmp_path, "frame", "pilot_amp", "1e-20").pilot_amp == 1e-20

    @pytest.mark.parametrize("scalar", ['"8"', "'1e5'"])
    def test_quoted_numbers_refused(self, tmp_path, scalar):
        with pytest.raises(ConfigError) as info:
            self._load_with(tmp_path, "frame", "pilot_amp", scalar)
        assert info.value.field_name == "frame.pilot_amp"
        assert "expected a number" in str(info.value)

    def test_infinity_and_nan_unchanged(self, tmp_path):
        assert self._load_with(tmp_path, "run", "snr_db", "[.inf, 20]").snr_db == (INF, 20.0)
        for scalar in (".inf", "-.inf", ".nan"):
            with pytest.raises(ConfigError, match="must be finite"):
                self._load_with(tmp_path, "channel", "cfo_hz", scalar)

    def test_safe_loader_untouched(self):
        assert yaml.safe_load("v: 1e-20") == {"v": "1e-20"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml_syntax(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("frame: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(str(path))


# ---------------------------------------------------------------------
# IQ files
# ---------------------------------------------------------------------

class TestIqFiles:
    """Binary capture round trips and corruption handling."""

    def _signal(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return AnalogSignal(samples=x, rate=7.68e6, start=0)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cap.iq")
        sig = self._signal()
        write_iq(path, sig)
        back = read_iq(path)
        assert back.rate == sig.rate
        assert back.samples.size == sig.samples.size
        # float32 storage quantizes at about 1e-7 relative.
        assert np.max(np.abs(back.samples - sig.samples)) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                          min_size=2, max_size=200).filter(lambda v: len(v) % 2 == 0),
           rate=st.floats(1.0, 1e10))
    def test_round_trip_is_exact_on_float32_values(self, parts, rate):
        """Samples that float32 holds exactly come back bit for bit."""
        x = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cap.iq")
            write_iq(path, AnalogSignal(samples=x, rate=rate, start=0))
            back = read_iq(path)
            assert read_iq_header(path).count == x.size
        assert back.rate == rate and back.start == 0
        assert np.array_equal(back.samples, x)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 500),
           scale=st.sampled_from([1e-20, 1e-3, 1.0, 1e6, 1e20]))
    def test_round_trip_rounds_to_float32(self, seed, n, scale):
        """Double-precision samples come back as their nearest float32 values."""
        rng = np.random.default_rng(seed)
        x = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cap.iq")
            write_iq(path, AnalogSignal(samples=x, rate=7.68e6, start=0))
            back = read_iq(path)
        assert np.array_equal(back.samples, x.astype(np.complex64))

    def test_header_fields(self, tmp_path):
        path = str(tmp_path / "cap.iq")
        write_iq(path, self._signal(n=123))
        h = read_iq_header(path)
        assert h.version == 1
        assert h.rate == 7.68e6
        assert h.count == 123
        assert os.path.getsize(path) == 32 + 8 * 123

    def test_time_origin_not_stored(self, tmp_path):
        path = str(tmp_path / "cap.iq")
        sig = AnalogSignal(samples=np.ones(8), rate=1e6, start=-4)
        write_iq(path, sig)
        assert read_iq(path).start == 0

    def test_truncated_body(self, tmp_path):
        path = str(tmp_path / "cap.iq")
        write_iq(path, self._signal(n=100))
        with open(path, "r+b") as f:
            f.truncate(32 + 8 * 60)
        for read in (read_iq, read_iq_header):
            with pytest.raises(IqFormatError,
                               match="promises 100 samples, body holds 60 "):
                read(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "cap.iq")
        write_iq(path, self._signal(n=10))
        with open(path, "r+b") as f:
            f.write(b"JUNK")
        with pytest.raises(IqFormatError, match="magic"):
            read_iq_header(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "cap.iq")
        write_iq(path, self._signal(n=10))
        with open(path, "r+b") as f:
            f.seek(4)
            f.write(b"\x63\x00")
        with pytest.raises(IqFormatError, match="version 99"):
            read_iq_header(path)

    def test_short_header(self, tmp_path):
        path = tmp_path / "stub.iq"
        path.write_bytes(b"ZOIQ")
        with pytest.raises(IqFormatError, match="header"):
            read_iq_header(str(path))


# ---------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------

class TestSvg:
    """Deterministic plain-text chart generation."""

    def test_line_chart_structure(self):
        out = svg.line_chart("rrc 4-QAM", [(10.0, 1e-2, 1e-3), (15.0, 1e-3, 1e-4)],
                             title="BER")
        assert out.startswith("<svg")
        assert out.endswith("\n")
        assert "rrc 4-QAM" in out
        assert "BER" in out

    def test_line_chart_deterministic(self):
        points = [(0.0, 0.5, 0.01), (5.0, 0.1, 0.01)]
        assert svg.line_chart("s", points) == svg.line_chart("s", points)

    def test_zero_ber_handled(self):
        """A zero value cannot sit on a log axis; it must still render."""
        out = svg.line_chart("s", [(0.0, 1e-2, 0.0), (5.0, 0.0, 0.0)])
        assert "<svg" in out
        assert "inf" not in out and "nan" not in out

    def test_line_chart_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            svg.line_chart("s", [])

    def test_scatter_structure_and_determinism(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        ref = np.array([1 + 1j, -1 - 1j]) / np.sqrt(2)
        a = svg.scatter_chart(pts, title="IQ", reference=ref)
        b = svg.scatter_chart(pts, title="IQ", reference=ref)
        assert a == b
        assert a.startswith("<svg")

    def test_scatter_matches_point_loop(self):
        """The vectorized coordinates give the bytes of a per-point loop."""
        rng = np.random.default_rng(2)
        pts = 0.8 * (rng.standard_normal(500) + 1j * rng.standard_normal(500))
        limit = 1.2 * max(max(abs(p.real), abs(p.imag)) for p in pts)
        side, margin = 420, 30
        plot = side - 2 * margin
        circles = []
        for p in pts:
            cx = margin + (p.real + limit) / (2 * limit) * plot
            cy = margin + (limit - p.imag) / (2 * limit) * plot
            circles.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
                           'r="1.5" fill="#1b6ca8" fill-opacity="0.5"/>')
        lines = svg.scatter_chart(pts).split("\n")
        assert [ln for ln in lines if ln.startswith("<circle")] == circles

    def test_scatter_caps_point_count(self):
        pts = np.ones(10_000, dtype=complex)
        out = svg.scatter_chart(pts)
        assert out.count("<circle") <= 8192 + 16

    def test_scatter_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to plot"):
            svg.scatter_chart(np.array([]))


# ---------------------------------------------------------------------
# Trial runner and sweep
# ---------------------------------------------------------------------

class TestRunTrial:
    """Single end-to-end trials."""

    def test_noiseless_loopback_is_error_free(self):
        cfg = config_from_dict(tiny_config_dict())
        report = run_trial(cfg, 0)
        assert report.bit_errors == 0
        assert report.bits_sent == cfg.layout().n_data_cells * 2
        assert not report.sync_failed

    def test_trial_is_deterministic(self):
        cfg = config_from_dict(tiny_config_dict(snr_db=[12]))
        a = run_trial(cfg, 3, snr_index=0)
        b = run_trial(cfg, 3, snr_index=0)
        assert a.bit_errors == b.bit_errors
        assert np.array_equal(a.symbols, b.symbols)

    def test_trials_draw_distinct_data(self):
        cfg = config_from_dict(tiny_config_dict())
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 1)
        assert not np.array_equal(a.symbols, b.symbols)

    @pytest.mark.parametrize("snr_index, trial_index", [
        (0, 2 ** 32), (0, -1), (-1, 0), (2 ** 32, 0)])
    def test_stream_indices_must_fit_32_bits(self, snr_index, trial_index):
        """An index past 32 bits would alias another trial's Philox stream."""
        cfg = config_from_dict(tiny_config_dict())
        with pytest.raises(ValueError, match="outside"):
            runner._trial_rng(cfg, snr_index, trial_index)

    def test_stream_keys_are_distinct_at_the_edges(self):
        cfg = config_from_dict(tiny_config_dict())
        keys = {runner._trial_rng(cfg, si, ti)[1]
                for si, ti in ((0, 0), (0, 1), (0, 2 ** 32 - 1), (1, 0))}
        assert len(keys) == 4

    def test_same_bits_across_shapes(self):
        """Seeding depends only on indices, so pulse families are paired."""
        raw = tiny_config_dict(snr_db=[15])
        a = run_trial(config_from_dict(raw), 2)
        raw["shape"]["family"] = "sinc"
        b = run_trial(config_from_dict(raw), 2)
        assert a.seed_key == b.seed_key

    def test_failed_sync_counts_all_bits(self):
        """An impossible threshold, set past config validation, forces the no-lock path."""
        cfg = config_from_dict(tiny_config_dict(sync=True))
        report = run_trial(dataclasses.replace(cfg, sync_threshold=1.01), 0)
        assert report.sync_failed
        assert report.bit_errors > 0.3 * report.bits_sent

    def test_failed_sync_report_keeps_its_burst(self):
        cfg = config_from_dict(tiny_config_dict(sync=True))
        locked = run_trial(cfg, 0)
        failed = run_trial(dataclasses.replace(cfg, sync_threshold=1.01), 0)
        assert failed.sync_failed and not locked.sync_failed
        assert np.array_equal(failed.tx.samples, locked.tx.samples)
        assert failed.tx.start == locked.tx.start

    def test_sync_mode_noiseless_still_clean(self):
        cfg = config_from_dict(tiny_config_dict(sync=True))
        report = run_trial(cfg, 0)
        assert not report.sync_failed
        assert report.bit_errors == 0

    def test_offset_locks_where_the_frame_fits(self):
        """At 500 Hz the whole-buffer correlation peaks on a preamble sidelobe
        164 samples late, past the last start that leaves room for the frame;
        the bounded search locks on time and decodes the frame.
        """
        raw = linked_config_dict(16)
        raw["channel"]["cfo_hz"] = 500.0
        report = run_trial(config_from_dict(raw), 0)
        on_time = run_trial(config_from_dict(linked_config_dict(16)), 0)
        assert not report.sync_failed
        assert report.sync.start_index == on_time.sync.start_index
        assert report.bit_errors == 0

    def test_folded_receiver_counts(self):
        """channel_folded CFO handling on a 16x16 sync link with a 200 Hz offset:
        every burst locks, and the error counts are pinned per SNR point."""
        cfg = config_from_dict({
            "config_version": 1,
            "frame": {"m": 16, "n": 16, "nu_p_hz": 30e3, "pilot_amp": 8.0},
            "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
            "shape": {"family": "rrc", "beta": 0.5, "w1_span": 16, "oversampling": 4},
            "channel": {"paths": [{"delay_bins": 0},
                                  {"delay_bins": 2, "doppler_bins": 1, "gain_db": -3}],
                        "cfo_hz": 200.0},
            "run": {"constellation": 4, "snr_db": [5, 15, 25], "trials": 4,
                    "base_seed": 2024, "sync": True, "cfo_correction": "channel_folded"},
        })
        reports = [[run_trial(cfg, t, si) for t in range(4)] for si in range(3)]
        assert all(r.sync.detected and r.sync.cfo_hat == 0.0
                   for row in reports for r in row)
        assert [sum(r.bits_sent for r in row) for row in reports] == [768] * 3
        assert [sum(r.bit_errors for r in row) for row in reports] == [4, 0, 0]

    @pytest.mark.parametrize("span", [None, 16])
    def test_search_bound_is_the_last_start_that_holds_the_frame(self, span,
                                                                 monkeypatch):
        """Trimming at the bound keeps the last symbol instant; one more does not."""
        cfg = config_from_dict(linked_config_dict(span))
        seen = {}

        def spy(rx, *args, last_start=None, **kwargs):
            seen.update(rx=rx, last_start=last_start)
            return sync.detect_timing(rx, *args, last_start=last_start, **kwargs)
        monkeypatch.setattr(runner, "detect_timing", spy)
        run_trial(cfg, 0)
        rx = seen["rx"]
        chip0_nominal = -runner._plan(cfg).template.start
        shift = seen["last_start"] - chip0_nominal
        mn = cfg.params.m * cfg.params.n
        # The trimmed buffer keeps rx's time axis, as run_trial's does.
        last_symbol = (mn - 1) * cfg.q - rx.start
        assert last_symbol < rx.samples.size - shift
        assert not last_symbol < rx.samples.size - (shift + 1)

        def decode_window(trim):
            trimmed = sync.correct(rx, trim, 0.0)
            kept = AnalogSignal(samples=trimmed.samples, rate=rx.rate, start=rx.start)
            return waveform.sample_and_periodize(
                waveform.matched_filter(kept, cfg.shape, cfg.params), cfg.params)

        assert decode_window(shift).size == mn
        with pytest.raises(ValueError, match="does not cover the frame period"):
            decode_window(shift + 1)

    def test_report_validates_error_count(self):
        with pytest.raises(ValueError, match="more bit errors"):
            TrialReport(snr_db=10.0, seed_key=(0, 0),
                        bit_errors=5, bits_sent=4, symbols=np.zeros(1),
                        taps=None, sync=None,
                        tx=AnalogSignal(samples=np.zeros(1), rate=1.0))


def clear_memos():
    """Empty every per-process memo of the link chain."""
    for module in (runner, sync, waveform, channel, estimation):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def linked_config_dict(span):
    """Sync, a carrier offset and a Doppler echo, so every memo is used."""
    raw = tiny_config_dict(sync=True, snr_db=[20])
    raw["shape"]["w1_span"] = span
    raw["channel"] = {"paths": [{"delay_bins": 0},
                                {"delay_bins": 1, "doppler_bins": 1, "gain_db": -3}],
                      "cfo_hz": 300.0}
    return raw


def same_value(a, b):
    """Equal arrays, or equal nested tuples of arrays."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(same_value(x, y) for x, y in zip(a, b)))
    return np.array_equal(a, b)


def same_report(a, b):
    return (a.bit_errors == b.bit_errors and a.bits_sent == b.bits_sent
            and np.array_equal(a.symbols, b.symbols)
            and np.array_equal(a.tx.samples, b.tx.samples) and a.tx.start == b.tx.start
            and a.sync == b.sync)


class TestMemos:
    """Per-config state is built once per process and never goes stale."""

    CHANGES = {
        "cfo": lambda raw: raw["channel"].update(cfo_hz=400.0),
        "doppler": lambda raw: raw["channel"]["paths"][1].update(doppler_bins=-1),
        "family": lambda raw: raw["shape"].update(family="sinc"),
        # Same window extent as beta 0.5, so only the shape tells them apart.
        "beta": lambda raw: raw["shape"].update(beta=0.48),
    }

    @pytest.mark.parametrize("span", [None, 16])
    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_cache_keys_are_complete(self, span, change):
        """A config differing in one field gets its own state, not a stale one."""
        base = linked_config_dict(span)
        other = copy.deepcopy(base)
        self.CHANGES[change](other)
        clear_memos()
        first = run_trial(config_from_dict(base), 0)
        warm = run_trial(config_from_dict(other), 0)
        clear_memos()
        cold = run_trial(config_from_dict(other), 0)
        assert not same_report(first, cold)
        assert same_report(warm, cold)

    @staticmethod
    def _memo_calls():
        """Memo name -> (memo, args, args differing in one named argument[, item]).

        A trailing item index compares that item of a tuple result alone.
        """
        cfg = config_from_dict(linked_config_dict(16))
        b, q = cfg.params.b, cfg.q
        plan = runner._plan(cfg)
        other_root = sync.shape_preamble(
            sync.make_preamble(cfg.preamble_length, cfg.preamble_root + 2), cfg.shape, b, q)
        k = plan.template.samples.size
        nfft, wider = (fast_len(n + k - 1) for n in (400, 700))
        phases = (cfg.shape, b, q, False, 128)
        ramp = (500.0, -3, q * b, 64, 0.1)
        window = (cfg.shape, -4, b, 72, cfg.params.t, 0.0)
        c1, c2 = (estimation.SupportRegion.from_layout(plan.layout, kind)
                  for kind in ("C1", "C2"))
        return {
            "fold_slots.start": (waveform._fold_slots, (64, -3, 16), (64, 5, 16)),
            "phase_spectra.correlate": (waveform._phase_spectra, phases,
                                        phases[:3] + (True, 128)),
            "phase_spectra.nfft": (waveform._phase_spectra, phases,
                                   phases[:4] + (160,)),
            "reference.root": (sync._template_spectrum, (plan.template, nfft),
                               (other_root, nfft), 0),
            "template_norm.root": (sync._template_spectrum, (plan.template, nfft),
                                   (other_root, nfft), 1),
            "template_spectrum.nfft": (sync._template_spectrum, (plan.template, nfft),
                                       (plan.template, wider)),
            "ramp.start": (channel._ramp, ramp, ramp[:1] + (5,) + ramp[2:]),
            "ramp.phase": (channel._ramp, ramp, ramp[:4] + (0.2,)),
            "window_at.start": (waveform._window_at, window,
                                window[:1] + (-20,) + window[2:]),
            "window_at.rate": (waveform._window_at, window,
                               window[:2] + (q * b,) + window[3:]),
            "maps.kind": (estimation._maps, (c1,), (c2,)),
            "maps.grid": (estimation._maps, (c1,), (dataclasses.replace(c1, n=c1.n // 2),)),
            "kay_window.length": (sync._kay_window, (16,), (17,)),
        }

    @pytest.mark.parametrize("name", [
        "fold_slots.start", "phase_spectra.correlate", "phase_spectra.nfft",
        "reference.root", "template_norm.root", "template_spectrum.nfft",
        "ramp.start", "ramp.phase", "window_at.start", "window_at.rate", "maps.kind",
        "maps.grid", "kay_window.length"])
    def test_memo_keys_are_complete(self, name):
        """Two calls differing in one argument each get their own result."""
        memo, first, second, *item = self._memo_calls()[name]

        def pick(result):
            return result[item[0]] if item else result

        memo.cache_clear()
        assert same_value(pick(memo(*first)), pick(memo.__wrapped__(*first)))
        assert same_value(pick(memo(*second)), pick(memo.__wrapped__(*second)))
        assert not same_value(pick(memo(*first)), pick(memo(*second)))

    def _cached_arrays(self):
        cfg = config_from_dict(linked_config_dict(16))
        b, q = cfg.params.b, cfg.q
        plan = runner._plan(cfg)
        exact = waveform.PulseShape(w1_span=None)
        nfft = fast_len(400 + plan.template.samples.size - 1)
        return {
            "layout.data_rows": plan.layout.data_rows,
            "plan.template": plan.template.samples,
            "preamble.samples": sync.make_preamble(cfg.preamble_length,
                                                   cfg.preamble_root).samples,
            "w1_taps": cfg.shape.w1_taps(b, q),
            "w1_spectrum": waveform._w1_spectrum(exact, 64, b, q, False),
            "window_at": waveform._window_at(cfg.shape, -20, q * b, 64, cfg.params.t, 0.0),
            "window_at.symbol_rate": waveform._window_at(cfg.shape, -4, b, 72,
                                                         cfg.params.t, 0.0),
            "fold_slots": waveform._fold_slots(64, -3, 16),
            "ramp.doppler": channel._ramp(500.0, 0, q * b, 64, -2 * np.pi * 500.0 * 1e-6),
            "ramp.carrier": channel._ramp(300.0, 0, q * b, 64, 0.1),
            "phase_spectra": waveform._phase_spectra(cfg.shape, b, q, False, 128),
            "phase_spectra.correlate": waveform._phase_spectra(cfg.shape, b, q, True, 128),
            "template_spectrum": sync._template_spectrum(plan.template, nfft)[0],
            "kay_window": sync._kay_window(16),
            **{f"maps.{field}": arr for field, arr in
               estimation._maps(plan.support)._asdict().items()},
        }

    def test_cached_arrays_are_read_only(self):
        for name, arr in self._cached_arrays().items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    @staticmethod
    def _templates_used(cfg, monkeypatch):
        """The template each of one trial's burst, timing and CFO steps got."""
        seen = {}

        def spy(name, original, at):
            def wrapped(*args, **kwargs):
                seen[name] = args[at]
                return original(*args, **kwargs)
            monkeypatch.setattr(runner, name, wrapped)
        spy("_compose_burst", runner._compose_burst, 2)
        spy("detect_timing", runner.detect_timing, 1)
        spy("estimate_cfo", runner.estimate_cfo, 1)
        report = run_trial(cfg, 0)
        assert not report.sync_failed
        return seen

    def test_preamble_is_shaped_once(self, monkeypatch):
        """The receiver correlates against the very template the burst was composed from."""
        cfg = config_from_dict(linked_config_dict(None))
        clear_memos()
        seen = self._templates_used(cfg, monkeypatch)
        template = runner._plan(cfg).template
        assert sorted(seen) == ["_compose_burst", "detect_timing", "estimate_cfo"]
        assert all(t is template for t in seen.values())
        # Its spectrum and root energy are computed once, not once per trial.
        run_trial(cfg, 1)
        assert sync._template_spectrum.cache_info().misses == 1

    def test_preamble_is_shaped_once_when_the_rate_rounds(self, monkeypatch):
        """One template and one b, even where q * b / q is not b."""
        raw = linked_config_dict(None)
        raw["frame"].update(m=16, n=16, nu_p_hz=30000.1, tau_p_s=1 / 30000.1)
        raw["shape"]["oversampling"] = 3
        cfg = config_from_dict(raw)
        assert cfg.q * cfg.params.b / cfg.q != cfg.params.b
        clear_memos()
        seen = self._templates_used(cfg, monkeypatch)
        template = runner._plan(cfg).template
        assert all(t is template for t in seen.values()) and len(seen) == 3
        assert template.rate == cfg.q * cfg.params.b

    def test_plan_is_built_once(self, monkeypatch):
        cfg = config_from_dict(linked_config_dict(None))
        shaped = []
        original = runner.shape_preamble

        def counting(*args, **kwargs):
            shaped.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(runner, "shape_preamble", counting)
        runner._plan.cache_clear()
        for t in range(5):
            run_trial(cfg, t)
        assert len(shaped) == 1


# The README quick-start experiment at one SNR point.
README_CONFIG = {
    "config_version": 1,
    "frame": {"m": 64, "n": 64, "nu_p_hz": 30e3, "pilot_amp": 8.0},
    "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
    "shape": {"family": "rrc", "beta": 0.5, "w1_span": 16, "oversampling": 4},
    "channel": {"paths": [
        {"delay_bins": 0, "doppler_bins": 0, "gain_db": 0.0},
        {"delay_bins": 2, "doppler_bins": 1, "gain_db": -3.0, "phase_deg": 40.0},
    ], "cfo_hz": 200.0},
    "run": {"constellation": 4, "snr_db": [10], "trials": 10, "base_seed": 2024,
            "support": "C1", "sync": True, "cfo_correction": "time_domain",
            "workers": 1},
}


def test_readme_quick_start_config():
    """The README's exp.yaml builds and is the experiment README_CONFIG runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```yaml\n# exp.yaml\n", 1)[1].split("```", 1)[0]
    raw = yaml.safe_load(block)
    config_from_dict(raw)
    for section in ("frame", "layout", "shape", "channel"):
        assert raw[section] == README_CONFIG[section], section
    # README_CONFIG runs one of the README's SNR points, fewer trials, serially.
    per_point = ("snr_db", "trials", "workers")
    assert ({k: v for k, v in raw["run"].items() if k not in per_point}
            == {k: v for k, v in README_CONFIG["run"].items() if k not in per_point})
    assert set(README_CONFIG["run"]["snr_db"]) <= set(raw["run"]["snr_db"])


@pytest.mark.parametrize("sync_on", [True, False])
@pytest.mark.parametrize("tau_max_bins", [0, 1, 1.5, 2, 2.5])
def test_layout_without_margin_reads_the_last_path_row(tau_max_bins, sync_on):
    """With no timing margin, C1 still holds a path at tau_max_bins.

    C1's top edge once came from the guard width, which counts the
    margin, so a margin of 0 left the paths' last delay row outside it.
    """
    raw = copy.deepcopy(README_CONFIG)
    raw["layout"] = {"tau_max_bins": tau_max_bins}
    raw["channel"]["paths"][1]["delay_bins"] = tau_max_bins
    raw["run"].update(snr_db=[None], sync=sync_on)
    assert run_trial(config_from_dict(raw), 0).bit_errors == 0


@pytest.mark.parametrize("span", [16, None])
@pytest.mark.parametrize("bins", [1, 7])
@pytest.mark.parametrize("phase_rad", [1.0, -3.0])
def test_timing_offset_and_phase_are_absorbed(span, bins, phase_rad):
    """A receiver timing offset moves the preamble lock by q samples per
    delay bin, and a noiseless frame with it and a phase still decodes."""
    raw = copy.deepcopy(README_CONFIG)
    raw["frame"].update(m=16, n=16)
    raw["shape"]["w1_span"] = span
    raw["run"]["snr_db"] = [None]
    on_time = config_from_dict(raw)
    raw["channel"].update(timing_offset_bins=bins, phase_rad=phase_rad)
    cfg = config_from_dict(raw)
    for t in range(3):
        report = run_trial(cfg, t)
        assert report.bit_errors == 0
        assert report.sync.start_index == (run_trial(on_time, t).sync.start_index
                                           + cfg.q * bins)


class TestHeapPolicy:
    """Trial temporaries come from a heap that stays resident between trials."""

    def test_warm_trials_take_no_page_faults(self):
        if not runner._keep_heap():
            pytest.skip("no glibc mallopt")
        import resource
        cfg = config_from_dict(README_CONFIG)
        sweep(cfg, emit=False)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        sweep(cfg, emit=False)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / cfg.trials < 10

    @pytest.mark.parametrize("lib", [
        type("NoMallopt", (), {}),
        type("RefusingMallopt", (), {"mallopt": staticmethod(lambda *args: 0)}),
    ], ids=["missing", "refused"])
    def test_sweep_runs_the_same_without_mallopt(self, monkeypatch, lib):
        import ctypes
        cfg = config_from_dict(README_CONFIG)
        want = sweep(cfg, emit=False)[0].to_csv()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib())
        assert runner._keep_heap() is False
        clear_memos()
        assert sweep(cfg, emit=False)[0].to_csv() == want


class TestSweep:
    """Aggregation across the trial grid."""

    def _cfg(self, tmp_path, **run_overrides):
        raw = tiny_config_dict(**run_overrides)
        raw["output"] = {
            "csv": str(tmp_path / "ber.csv"),
            "curve_svg": str(tmp_path / "ber.svg"),
            "constellation_prefix": str(tmp_path / "const_"),
        }
        return config_from_dict(raw)

    def test_curve_shape_and_counts(self, tmp_path):
        cfg = self._cfg(tmp_path, snr_db=[None, 30], trials=2)
        curve, scatters = sweep(cfg, emit=False)
        assert len(curve.points) == 2
        assert curve.points[0].trials == 2
        bits_per_frame = cfg.layout().n_data_cells * 2
        assert curve.points[0].bits == 2 * bits_per_frame
        assert set(scatters) == {np.inf, 30.0}

    def test_noiseless_point_is_exactly_zero(self, tmp_path):
        cfg = self._cfg(tmp_path, trials=2)
        curve, _ = sweep(cfg, emit=False)
        assert curve.points[0].ber == 0.0
        assert curve.points[0].errors == 0

    def test_emit_writes_all_outputs(self, tmp_path):
        cfg = self._cfg(tmp_path, snr_db=[None, 25], trials=1)
        sweep(cfg, emit=True)
        assert (tmp_path / "ber.csv").exists()
        assert (tmp_path / "ber.svg").exists()  # one finite SNR point
        assert (tmp_path / "const_snr_25dB.svg").exists()
        assert (tmp_path / "const_snr_infdB.svg").exists()

    def test_csv_format(self, tmp_path):
        cfg = self._cfg(tmp_path, snr_db=[18], trials=1)
        curve, _ = sweep(cfg, emit=False)
        lines = curve.to_csv().splitlines()
        assert lines[0] == "snr_db,ber,ci95,trials,errors,bits"
        fields = lines[1].split(",")
        assert fields[0] == "18"
        assert "e" in fields[1]  # scientific notation
        assert fields[3] == "1"

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        """21 jobs go out one at a time to two and to three workers."""
        outputs = {}
        for workers in (1, 2, 3):
            sub = tmp_path / f"w{workers}"
            sub.mkdir()
            cfg = self._cfg(sub, snr_db=[10, 20, 30], trials=7, workers=workers)
            sweep(cfg, emit=True)
            outputs[workers] = {
                p.name: p.read_bytes() for p in sub.iterdir()
            }
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.parametrize("snr_db, trials, workers, pool_size, chunk", [
        # A forked pool starts every worker at once, so never more than jobs.
        ([20], 2, 8, 2, 1),
        # About sixteen chunks per worker: 66 // 32 and 100 // 48 jobs.
        ([None, 20], 33, 2, 2, 2),
        ([None, 20], 50, 3, 3, 2),
    ])
    def test_pool_is_sized_to_the_jobs(self, tmp_path, monkeypatch, snr_db, trials,
                                       workers, pool_size, chunk):
        """The pool stand-in runs the jobs in this process and starts none."""
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                seen.append(chunksize)
                return map(fn, *iterables)

        # sweep imports the pool from concurrent.futures when it needs one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = self._cfg(tmp_path, snr_db=snr_db, trials=trials, workers=workers)
        curve, scatters = sweep(cfg, emit=False)
        assert seen == [pool_size, chunk]
        serial, serial_scatters = sweep(dataclasses.replace(cfg, workers=1), emit=False)
        assert curve == serial
        assert all(np.array_equal(scatters[s], serial_scatters[s]) for s in serial_scatters)

    def test_offset_sweep_counts_no_sync_failure(self, tmp_path, monkeypatch):
        """Every frame of the 500 Hz sweep of TestRunTrial locks and is decoded."""
        raw = linked_config_dict(16)
        raw["channel"]["cfo_hz"] = 500.0
        raw["run"]["trials"] = 8
        raw["output"] = {"csv": str(tmp_path / "ber.csv"),
                         "curve_svg": str(tmp_path / "ber.svg"),
                         "constellation_prefix": str(tmp_path / "const_")}
        cfg = config_from_dict(raw)
        reports = []

        def recording(*args):
            reports.append(run_trial(*args))
            return reports[-1]
        monkeypatch.setattr(runner, "run_trial", recording)
        curve, _ = sweep(cfg, emit=True)
        assert len(reports) == 8
        assert not any(r.sync_failed for r in reports)
        assert curve.points[0].errors == sum(r.bit_errors for r in reports)
        assert (tmp_path / "ber.csv").exists()

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="outside"):
            BerCurve(points=(BerPoint(snr_db=0, ber=1.5, ci95=0,
                                      trials=1, errors=1, bits=1),))


class TestWriteOutputs:
    """Where write_outputs puts each file, in what order, and how it fails."""

    def _raw(self, csv, curve_svg, prefix, **run_overrides):
        raw = tiny_config_dict(**run_overrides)
        raw["output"] = {"csv": str(csv), "curve_svg": str(curve_svg),
                         "constellation_prefix": str(prefix)}
        return raw

    def _write(self, raw):
        cfg = config_from_dict(raw)
        return runner.write_outputs(cfg, *sweep(cfg, emit=False))

    def test_missing_parents_are_made_and_files_listed_in_write_order(self, tmp_path):
        written = self._write(self._raw(
            tmp_path / "a" / "b" / "ber.csv", tmp_path / "c" / "d" / "ber.svg",
            tmp_path / "e" / "f" / "const_", snr_db=[None, 25]))
        assert written == [str(tmp_path / "a" / "b" / "ber.csv"),
                           str(tmp_path / "c" / "d" / "ber.svg"),
                           str(tmp_path / "e" / "f" / "const_snr_25dB.svg"),
                           str(tmp_path / "e" / "f" / "const_snr_infdB.svg")]
        assert all(Path(p).stat().st_size > 0 for p in written)

    def test_noiseless_sweep_writes_no_curve(self, tmp_path):
        written = self._write(self._raw(tmp_path / "ber.csv", tmp_path / "ber.svg",
                                        tmp_path / "const_"))
        assert written == [str(tmp_path / "ber.csv"), str(tmp_path / "const_snr_infdB.svg")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ber.csv",
                                                              "const_snr_infdB.svg"]

    @pytest.mark.parametrize("under", ["", "sub/"])
    def test_path_under_a_file_fails_and_names_it(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        raw = self._raw(tmp_path / "ber.csv", tmp_path / "ber.svg",
                        f"{blocker}/{under}const_", snr_db=[25])
        with pytest.raises(RuntimeError, match=f"cannot write output {blocker}.*"
                           r"\(scatter SVG at 25 dB\)"):
            self._write(raw)
        # Every directory is made before any file is written.
        assert not (tmp_path / "ber.csv").exists()
        assert not (tmp_path / "ber.svg").exists()
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["sweep", "--config", str(path)]) == 2
        assert f"error: cannot write output {blocker}" in capsys.readouterr().err


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestOutputBytes:
    """The CSV and chart bytes, pinned by digest so a refactor cannot move them."""

    def test_sweep_outputs(self, tmp_path):
        """16x16 truncated rrc with sync; 15 dB has zero errors, an open marker."""
        raw = {
            "config_version": 1,
            "frame": {"m": 16, "n": 16, "tau_p_s": 1 / 30e3, "nu_p_hz": 30e3,
                      "pilot_amp": 8.0},
            "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
            "shape": {"family": "rrc", "beta": 0.5, "w1_span": 16, "oversampling": 4},
            "channel": {"paths": [{"delay_bins": 0},
                                  {"delay_bins": 2, "doppler_bins": 1, "gain_db": -3}],
                        "cfo_hz": 200.0},
            "run": {"constellation": 4, "snr_db": [5, 15], "trials": 2,
                    "base_seed": 2024, "sync": True, "workers": 1},
            "output": {"csv": str(tmp_path / "ber.csv"),
                       "curve_svg": str(tmp_path / "ber.svg"),
                       "constellation_prefix": str(tmp_path / "const_")},
        }
        sweep(config_from_dict(raw), emit=True)
        digests = {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}
        assert digests == {
            "ber.csv": "09f8e7ef06305175f8c92db8d18c7d19a533071130dc527960c3c9af703006e7",
            "ber.svg": "ec57f51298969ffe46dd89185b978d1b67767b47aa7e1afcbaa5100115355d23",
            "const_snr_5dB.svg":
                "096e5d8572f7a48a504c02e7fa8583bf256b9ee1f1541c04bcd6167ee92fbd0d",
            "const_snr_15dB.svg":
                "698264cb4a475b6e934d5eebe03d6334c07be6519aeea8880f11d1e1176bd6ae",
        }

    EVERY_RAMP_DIGESTS = {
        "channel_folded": {
            "ber.csv": "db3c5f87a510ffe6f529ab9525f296582fd249d34ac4763ad93a6088218e6333",
            "ber.svg": "a3becb7f885bdf37c53f4df1703a4ab65ddd61a81358713f0623a89cade4df8a",
            "const_snr_5dB.svg":
                "cae781d174dff26bc68e6b97ecf3c62997d81648059954840eaccc440cb5bf5d",
            "const_snr_25dB.svg":
                "ca946c432b7e6f0dba661db1cf3c7ffda50360272e789b07bc2efab62c3f59e9",
        },
        "time_domain": {
            "ber.csv": "d4ed663ec38e01a1d8be7ea25c95aa525205af552cb793a5ebbfd3397b9b12fc",
            "ber.svg": "12338b46a1eaf02f2c075ec50e4bc897c1887b45293b2450465bb1cf3796e7e8",
            "const_snr_5dB.svg":
                "74ffcef2f3307bc1ef6cd3d7686756f35f7ea59d65ce644cec88a8f152bb836c",
            "const_snr_25dB.svg":
                "3ba0a8bac00552ef2926f3478381fbd61460bd500581469f9275fa42c3fa67a2",
        },
    }

    @staticmethod
    def _ramp_link_outputs(tmp_path, span=16, **run_overrides):
        """A Doppler path, a carrier offset and phase, and a timing offset of
        1.2 samples on a 16x16 frame; the sweep's output digests by name."""
        raw = {
            "config_version": 1,
            "frame": {"m": 16, "n": 16, "nu_p_hz": 30e3, "pilot_amp": 8.0},
            "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
            "shape": {"family": "rrc", "beta": 0.5, "w1_span": span, "oversampling": 4},
            "channel": {"paths": [{"delay_bins": 0},
                                  {"delay_bins": 2, "doppler_bins": 1, "gain_db": -3}],
                        "cfo_hz": 200.0, "phase_rad": 0.7, "timing_offset_bins": 0.3},
            "run": {"constellation": 4, "snr_db": [5, 25], "trials": 2,
                    "base_seed": 2024, "workers": 1, **run_overrides},
            "output": {"csv": str(tmp_path / "ber.csv"),
                       "curve_svg": str(tmp_path / "ber.svg"),
                       "constellation_prefix": str(tmp_path / "const_")},
        }
        sweep(config_from_dict(raw), emit=True)
        return {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()}

    @pytest.mark.parametrize("mode", sorted(EVERY_RAMP_DIGESTS))
    def test_every_ramp_outputs(self, tmp_path, mode):
        """Every phase ramp and the fractional delay feed the bytes."""
        assert (self._ramp_link_outputs(tmp_path, sync=True, cfo_correction=mode)
                == self.EVERY_RAMP_DIGESTS[mode])

    NO_PREAMBLE_DIGESTS = {
        16: {
            "ber.csv": "d4ed663ec38e01a1d8be7ea25c95aa525205af552cb793a5ebbfd3397b9b12fc",
            "ber.svg": "12338b46a1eaf02f2c075ec50e4bc897c1887b45293b2450465bb1cf3796e7e8",
            "const_snr_5dB.svg":
                "7d5f4c8c98da9de61ef543f94cb2961e0829be8556ffa3672edf711cd9710d72",
            "const_snr_25dB.svg":
                "23519e84be78d7a117f2659c071b89d421e975b43a7655cfc20aa34162c9010e",
        },
        None: {
            "ber.csv": "ac5e43b09b98cdb4c351e6d86b47dd3a1a8e6de0ac25ea1e9fe25a6a296058e1",
            "ber.svg": "5148e1b7ef50fdf79fc7fc5ba5168d9a4ef884d7a5971e91074a7397d73b1c12",
            "const_snr_5dB.svg":
                "d4cb43974c0290dc39d6470bc208607dd08e8bdea2627e533c6dce332c927c96",
            "const_snr_25dB.svg":
                "d51d2894766b3e1fbbfa8d19d088d6fad1df5488066f2a361f3dadb062f8ea08",
        },
    }

    @pytest.mark.parametrize("span", [16, None])
    def test_no_preamble_outputs(self, tmp_path, span):
        """Sync off: the burst is the frame alone, and the receiver decodes
        through the carrier offset, phase and timing offset uncorrected."""
        assert self._ramp_link_outputs(tmp_path, span) == self.NO_PREAMBLE_DIGESTS[span]

    def test_line_chart_with_a_zero_ber_point(self):
        out = svg.line_chart("s", [(0.0, 1e-2, 1e-3), (5.0, 0.0, 0.0)], title="BER")
        assert sha256(out.encode()) == (
            "ccaa569b40aea397d499e40f9ddfae3e01e4b0ca14aece2911724660aaab4e8d")

    def test_line_chart_of_one_snr_point(self):
        out = svg.line_chart("s", [(10.0, 3e-3, 1e-3)])
        assert sha256(out.encode()) == (
            "64721ca8095ca67e5795dd45fe0a2efb0fb914a61f6ef85bf6e7b0aadb282413")


# ---------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------

class TestCli:
    """Exit codes and file side effects of the console entry point."""

    def _write_config(self, tmp_path, raw=None):
        path = tmp_path / "exp.yaml"
        raw = raw or tiny_config_dict()
        raw.setdefault("output", {})
        raw["output"] = {
            "csv": str(tmp_path / "ber.csv"),
            "curve_svg": str(tmp_path / "ber.svg"),
            "constellation_prefix": str(tmp_path / "const_"),
        }
        path.write_text(yaml.safe_dump(raw))
        return str(path)

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok - ") == 4

    def test_sweep_writes_and_prints_csv(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        assert main(["sweep", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("snr_db,ber")
        assert (tmp_path / "ber.csv").exists()

    def test_bad_config_exits_one(self, tmp_path, capsys):
        raw = tiny_config_dict()
        raw["run"]["support"] = "C7"
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["sweep", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_shape_problem_exits_one(self, tmp_path, capsys):
        for shape, field in (({"family": "sinc", "w1_span": 8}, "shape.w1_span"),
                             ({"beta": 0}, "shape.beta")):
            raw = tiny_config_dict()
            raw["shape"].update(shape)
            path = self._write_config(tmp_path, raw)
            assert main(["sweep", "--config", path]) == 1
            assert field in capsys.readouterr().err

    @pytest.mark.parametrize("section, field", [
        ({"preamble_length": 255, "preamble_root": 1}, "sync.preamble_length"),
        ({"preamble_length": 16}, "sync.preamble_length"),
        ({"preamble_length": 2}, "sync.preamble_length"),
        ({"threshold": 5.0}, "sync.threshold"),
    ])
    def test_sync_problem_exits_one_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                     section, field):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(runner, "run_trial", no_trial)
        raw = tiny_config_dict(sync=True)
        raw["sync"] = section
        path = self._write_config(tmp_path, raw)
        assert main(["sweep", "--config", path]) == 1
        assert f"config error: {field}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--workers", "0"], "--workers"),
        (["sweep", "--workers", "-2"], "--workers"),
        (["trial", "--index", "0", "--snr-index", "5"], "--snr-index"),
        (["trial", "--index", "0", "--snr-index", "-1"], "--snr-index"),
        (["trial", "--index", "-1"], "--index"),
        (["trial", "--index", str(2 ** 32)], "--index"),
        (["sweep", "--workers", str(MAX_WORKERS + 1)], "--workers"),
    ])
    def test_bad_flag_exits_one_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                 argv, flag):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(runner, "run_trial", no_trial)
        monkeypatch.setattr("zakotfs.cli.run_trial", no_trial)
        path = self._write_config(tmp_path)
        assert main(argv[:1] + ["--config", path] + argv[1:]) == 1
        assert f"config error: {flag}: must lie in" in capsys.readouterr().err

    def test_too_many_workers_exit_one_before_any_pool(self, tmp_path, capsys,
                                                       monkeypatch):
        """workers: 100000 fails when the config is read; a pool stand-in
        that refuses to start shows that no process is forked."""
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        path = self._write_config(tmp_path, tiny_config_dict(workers=100000))
        assert main(["sweep", "--config", path]) == 1
        assert f"config error: run.workers: must be <= {MAX_WORKERS}" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", [float("nan"), float("-inf"), 4000, 12])
    def test_bad_snr_exits_one_before_any_trial(self, tmp_path, capsys, monkeypatch, snr):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(runner, "run_trial", no_trial)
        path = self._write_config(tmp_path, tiny_config_dict(snr_db=[12, snr]))
        assert main(["sweep", "--config", path]) == 1
        assert "config error: run.snr_db[1]" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "no.yaml")]) == 1

    def test_trial_dump_produces_readable_files(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path)
        dump = tmp_path / "dump"
        assert main(["trial", "--config", cfg_path, "--index", "0",
                     "--dump-dir", str(dump)]) == 0
        iq = dump / "tx_trial0.iq"
        assert iq.exists()
        sig = read_iq(str(iq))
        report = run_trial(load_config(cfg_path), 0)
        assert np.array_equal(sig.samples, report.tx.samples.astype(np.complex64))
        rows = (dump / "taps_trial0.csv").read_text().splitlines()
        assert rows[0] == "delay_bin,doppler_bin,re,im"
        # One row per support cell: signed delay, then signed Doppler.
        h = report.taps
        m, n = h.support.m, h.support.n
        want = []
        for i, k in enumerate(range(h.support.k_lo - m // 2, h.support.k_hi - m // 2)):
            for j, l in enumerate(range(-(n // 2), n - n // 2)):
                v = h.block[i, j]
                want.append(f"{k},{l},{v.real:.9e},{v.imag:.9e}")
        assert len(want) == h.block.size
        assert rows[1:] == want
        assert (dump / "constellation_trial0.svg").exists()

    def test_iq_info_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cap.iq")
        write_iq(path, AnalogSignal(samples=np.ones(17), rate=2e6, start=0))
        assert main(["iq-info", path]) == 0
        out = capsys.readouterr().out
        assert "samples: 17" in out
        assert "rate_hz: 2e+06" in out

    def test_iq_info_garbage_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.iq"
        path.write_bytes(b"not an iq file at all, just text padding....")
        assert main(["iq-info", str(path)]) == 2

    def test_iq_info_truncated_capture_exits_two(self, tmp_path, capsys):
        """A body shorter than the header's count fails as read_iq does."""
        path = str(tmp_path / "cap.iq")
        write_iq(path, AnalogSignal(samples=np.ones(100), rate=2e6, start=0))
        with open(path, "r+b") as f:
            f.truncate(32 + 8 * 10)
        assert main(["iq-info", path]) == 2
        captured = capsys.readouterr()
        assert "samples:" not in captured.out
        assert "header promises 100 samples, body holds 10" in captured.err

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
