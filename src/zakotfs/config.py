"""Experiment configuration: YAML schema, strict validation, built objects."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import ImpairmentSpec, PathSpec
from .dd_frame import Constellation, FrameLayout, FrameParams, build_layout
from .sync import (CFO_BLOCK_CHIPS, DEFAULT_GAP, DEFAULT_LENGTH, DEFAULT_ROOT,
                   DEFAULT_THRESHOLD, Preamble)
from .waveform import PulseShape, ShapeError

__all__ = ["ConfigError", "ExperimentConfig", "config_from_dict", "load_config"]

CONFIG_VERSION = 1
# A trial's stream key is two 64-bit words: base_seed and (snr_index << 32) | trial.
MAX_TRIALS = 2 ** 32

SUPPORT_KINDS = ("C1", "C2")
CFO_MODES = ("time_domain", "channel_folded")


class ConfigError(ValueError):
    """Invalid experiment configuration, with the offending field named."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _section(raw: dict, name: str, required: bool = True) -> dict:
    value = raw.get(name)
    if value is None:
        if required:
            raise ConfigError(name, "section is missing")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, "section must be a mapping")
    return dict(value)


def _check_unknown(d: dict, allowed: set[str], section: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(section, f"unknown keys: {', '.join(extra)}")


def _get_number(d: dict, section: str, key: str, default=None, minimum=None, maximum=None):
    if key not in d:
        if default is None:
            raise ConfigError(f"{section}.{key}", "value is missing")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{section}.{key}", f"expected a number, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{section}.{key}", f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{section}.{key}", f"must be <= {maximum}, got {v}")
    return float(v)


def _get_int(d: dict, section: str, key: str, default=None, minimum=None,
             maximum=None) -> int:
    if key not in d:
        if default is None:
            raise ConfigError(f"{section}.{key}", "value is missing")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{section}.{key}", f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{section}.{key}", f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{section}.{key}", f"must be <= {maximum}, got {v}")
    return v


def _get_bool(d: dict, section: str, key: str, default: bool) -> bool:
    v = d.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(f"{section}.{key}", f"expected true/false, got {v!r}")
    return v


def _get_choice(d: dict, section: str, key: str, choices, default=None) -> str:
    v = d.get(key, default)
    if v not in choices:
        raise ConfigError(f"{section}.{key}",
                          f"must be one of {', '.join(choices)}, got {v!r}")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, with sub-configs already constructed."""

    params: FrameParams
    pilot_amp: float
    tau_max: float
    dt_margin: float
    shape: PulseShape
    q: int
    paths: tuple[PathSpec, ...]
    impairments: ImpairmentSpec
    constellation_order: int
    snr_db: tuple[float, ...]
    trials: int
    base_seed: int
    support_kind: str
    sync_enabled: bool
    cfo_mode: str
    workers: int
    preamble_length: int
    preamble_root: int
    gap_symbols: int
    sync_threshold: float
    out_csv: str
    out_curve_svg: str
    out_constellation_prefix: str

    def layout(self) -> FrameLayout:
        return build_layout(self.params, self.tau_max, self.dt_margin)

    def constellation(self) -> Constellation:
        return Constellation.qam(self.constellation_order)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed mapping and build the experiment configuration."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a mapping")
    _check_unknown(raw, {"config_version", "frame", "layout", "shape", "channel",
                         "run", "sync", "output"}, "config")
    version = raw.get("config_version")
    if version != CONFIG_VERSION:
        raise ConfigError("config_version",
                          f"expected {CONFIG_VERSION}, got {version!r}")

    frame = _section(raw, "frame")
    _check_unknown(frame, {"m", "n", "tau_p_s", "nu_p_hz", "pilot_amp"}, "frame")
    m = _get_int(frame, "frame", "m", minimum=2)
    n = _get_int(frame, "frame", "n", minimum=2)
    tau_p = _get_number(frame, "frame", "tau_p_s")
    nu_p = _get_number(frame, "frame", "nu_p_hz")
    if tau_p <= 0 or nu_p <= 0:
        raise ConfigError("frame.tau_p_s", "periods must be positive")
    if abs(tau_p * nu_p - 1.0) > 1e-6:
        raise ConfigError(
            "frame.tau_p_s",
            f"delay and Doppler periods must satisfy tau_p * nu_p = 1, "
            f"got {tau_p * nu_p:.9g}",
        )
    pilot_amp = _get_number(frame, "frame", "pilot_amp", default=8.0)
    if pilot_amp <= 0:
        raise ConfigError("frame.pilot_amp", "must be positive")
    try:
        # The Doppler period is authoritative; the written delay period
        # only cross-checks it, so rounding in the file cannot trip the
        # exact reciprocal relation downstream.
        params = FrameParams(m=m, n=n, nu_p=nu_p, tau_p=1.0 / nu_p)
    except ValueError as e:
        raise ConfigError("frame", str(e)) from e
    b = params.b

    lay = _section(raw, "layout")
    _check_unknown(lay, {"tau_max_bins", "dt_margin_bins"}, "layout")
    tau_max_bins = _get_number(lay, "layout", "tau_max_bins", minimum=0.0)
    dt_margin_bins = _get_number(lay, "layout", "dt_margin_bins",
                                 default=0.0, minimum=0.0)
    tau_max = tau_max_bins / b
    dt_margin = dt_margin_bins / b
    try:
        build_layout(params, tau_max, dt_margin)
    except ValueError as e:
        raise ConfigError("layout", str(e)) from e

    sh = _section(raw, "shape")
    _check_unknown(sh, {"family", "beta", "w1_span", "oversampling"}, "shape")
    family = _get_choice(sh, "shape", "family", ("rrc", "sinc"), default="rrc")
    beta = _get_number(sh, "shape", "beta", default=0.5)
    if "w1_span" in sh and sh["w1_span"] is None:
        span = None
    else:
        span = _get_int(sh, "shape", "w1_span", default=16, minimum=1)
    q = _get_int(sh, "shape", "oversampling", default=4, minimum=2)
    try:
        shape = PulseShape(family=family, beta=beta, w1_span=span)
        shape.check_truncation(b, q)
    except ShapeError as e:
        raise ConfigError(f"shape.{e.field}", str(e)) from e

    ch = _section(raw, "channel")
    _check_unknown(ch, {"paths", "normalize_power", "cfo_hz",
                        "timing_offset_bins", "phase_rad"}, "channel")
    raw_paths = ch.get("paths")
    if not isinstance(raw_paths, list) or not raw_paths:
        raise ConfigError("channel.paths", "need a nonempty list of paths")
    gains = []
    delays = []
    dopplers = []
    for i, p in enumerate(raw_paths):
        where = f"channel.paths[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(where, "each path must be a mapping")
        _check_unknown(p, {"delay_bins", "doppler_bins", "gain_db", "phase_deg"},
                       where)
        d_bins = _get_number(p, where, "delay_bins", minimum=0.0)
        v_bins = _get_number(p, where, "doppler_bins", default=0.0)
        g_db = _get_number(p, where, "gain_db", default=0.0)
        ph = _get_number(p, where, "phase_deg", default=0.0)
        if d_bins > tau_max_bins + 1e-9:
            raise ConfigError(f"{where}.delay_bins",
                              f"exceeds layout.tau_max_bins={tau_max_bins}")
        if abs(v_bins) > n / 2:
            raise ConfigError(f"{where}.doppler_bins",
                              f"outside the representable band (+-{n // 2})")
        gains.append(10 ** (g_db / 20) * np.exp(1j * np.deg2rad(ph)))
        delays.append(d_bins / b)
        dopplers.append(v_bins * nu_p / n)
    if _get_bool(ch, "channel", "normalize_power", default=True):
        scale = math.sqrt(sum(abs(g) ** 2 for g in gains))
        gains = [g / scale for g in gains]
    paths = tuple(PathSpec(gain=g, delay=d, doppler=v)
                  for g, d, v in zip(gains, delays, dopplers))
    cfo = _get_number(ch, "channel", "cfo_hz", default=0.0)
    dt_bins = _get_number(ch, "channel", "timing_offset_bins",
                          default=0.0, minimum=0.0)
    phi = _get_number(ch, "channel", "phase_rad", default=0.0)
    try:
        impairments = ImpairmentSpec(dt=dt_bins / b, eps0=cfo, phi=phi)
    except ValueError as e:
        raise ConfigError("channel", str(e)) from e

    run = _section(raw, "run")
    _check_unknown(run, {"constellation", "snr_db", "trials", "base_seed",
                         "support", "sync", "cfo_correction", "workers"}, "run")
    order = _get_int(run, "run", "constellation", default=4, minimum=2)
    try:
        Constellation.qam(order)
    except ValueError as e:
        raise ConfigError("run.constellation", str(e)) from e
    raw_snr = run.get("snr_db")
    if not isinstance(raw_snr, list) or not raw_snr:
        raise ConfigError("run.snr_db", "need a nonempty list of SNR points")
    snr_db = []
    for i, s in enumerate(raw_snr):
        if s is None:
            snr_db.append(math.inf)
        elif isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ConfigError(f"run.snr_db[{i}]", f"expected a number, got {s!r}")
        else:
            snr_db.append(float(s))
    trials = _get_int(run, "run", "trials", default=1, minimum=1, maximum=MAX_TRIALS)
    base_seed = _get_int(run, "run", "base_seed", default=0, minimum=0, maximum=2 ** 64 - 1)
    support = _get_choice(run, "run", "support", SUPPORT_KINDS, default="C1")
    sync_on = _get_bool(run, "run", "sync", default=False)
    cfo_mode = _get_choice(run, "run", "cfo_correction", CFO_MODES,
                           default="time_domain")
    workers = _get_int(run, "run", "workers", default=1, minimum=1)

    sy = _section(raw, "sync", required=False)
    _check_unknown(sy, {"preamble_length", "preamble_root", "gap_symbols",
                        "threshold"}, "sync")
    pre_len = _get_int(sy, "sync", "preamble_length", default=DEFAULT_LENGTH)
    pre_root = _get_int(sy, "sync", "preamble_root", default=DEFAULT_ROOT, minimum=1)
    gap = _get_int(sy, "sync", "gap_symbols", default=DEFAULT_GAP, minimum=0)
    # The peak metric lies in [0, 1]; a threshold above 1 rejects every frame.
    threshold = _get_number(sy, "sync", "threshold", default=DEFAULT_THRESHOLD,
                            minimum=0.0, maximum=1.0)
    # Root 1 is coprime to every length, so the first build tests the length alone.
    for key, root in (("preamble_length", 1), ("preamble_root", pre_root)):
        try:
            Preamble(pre_len, root)
        except ValueError as e:
            raise ConfigError(f"sync.{key}", str(e)) from e
    if cfo_mode == "time_domain" and pre_len < 2 * CFO_BLOCK_CHIPS:
        raise ConfigError("sync.preamble_length", f"time_domain CFO correction needs at least "
                          f"{2 * CFO_BLOCK_CHIPS} chips (two CFO blocks), got {pre_len}")

    out = _section(raw, "output", required=False)
    _check_unknown(out, {"csv", "curve_svg", "constellation_prefix"}, "output")
    out_csv = out.get("csv", "ber.csv")
    out_svg = out.get("curve_svg", "ber.svg")
    out_prefix = out.get("constellation_prefix", "constellation_")
    for key, val in (("csv", out_csv), ("curve_svg", out_svg),
                     ("constellation_prefix", out_prefix)):
        if not isinstance(val, str) or not val:
            raise ConfigError(f"output.{key}", "expected a nonempty path string")

    return ExperimentConfig(
        params=params,
        pilot_amp=pilot_amp,
        tau_max=tau_max,
        dt_margin=dt_margin,
        shape=shape,
        q=q,
        paths=paths,
        impairments=impairments,
        constellation_order=order,
        snr_db=tuple(snr_db),
        trials=trials,
        base_seed=base_seed,
        support_kind=support,
        sync_enabled=sync_on,
        cfo_mode=cfo_mode,
        workers=workers,
        preamble_length=pre_len,
        preamble_root=pre_root,
        gap_symbols=gap,
        sync_threshold=threshold,
        out_csv=out_csv,
        out_curve_svg=out_svg,
        out_constellation_prefix=out_prefix,
    )


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML experiment file; raises ConfigError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.safe_load(f)
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError("config", f"not valid YAML: {e}") from e
    return config_from_dict(raw)
