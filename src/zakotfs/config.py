"""Experiment configuration: YAML schema, strict validation, built objects."""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from .channel import ImpairmentSpec, PathSpec
from .dd_frame import Constellation, FrameLayout, FrameParams, build_layout
from .estimation import SUPPORT_KINDS
from .sync import (CFO_BLOCK_CHIPS, DEFAULT_GAP, DEFAULT_LENGTH, DEFAULT_ROOT,
                   DEFAULT_THRESHOLD, Preamble)
from .waveform import PulseShape, ShapeError

__all__ = ["ConfigError", "ExperimentConfig", "config_from_dict", "load_config"]

CONFIG_VERSION = 1
# A trial's stream key is two 64-bit words: base_seed and (snr_index << 32) | trial.
MAX_TRIALS = 2 ** 32
# sweep starts every pool worker at once, one process each.
MAX_WORKERS = 256
# A path gain's bound in dB: the squares of any few such gains, whose sum
# scales the paths to unit total power, stay finite and nonzero.
MAX_GAIN_DB = 300.0

CFO_MODES = ("time_domain", "channel_folded")


class ConfigError(ValueError):
    """Invalid experiment configuration, with the offending field named."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _check_unknown(d: dict, allowed: set[str], section: str) -> None:
    extra = sorted(set(d) - allowed)
    if extra:
        raise ConfigError(section, f"unknown keys: {', '.join(extra)}")


def _section(raw: dict, name: str, keys: set[str], required: bool = True) -> dict:
    """raw[name] as a mapping whose keys all lie in `keys`; {} when optional and absent."""
    value = raw.get(name)
    if value is None:
        if required:
            raise ConfigError(name, "section is missing")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, "section must be a mapping")
    _check_unknown(value, keys, name)
    return value


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs); a ShapeError fails on shape.<field>, other ValueErrors on where."""
    try:
        return make(*args, **kwargs)
    except ShapeError as e:
        raise ConfigError(f"shape.{e.field}", str(e)) from e
    except ValueError as e:
        raise ConfigError(where, str(e)) from e


def _get_number(d: dict, section: str, key: str, default=None, minimum=None, maximum=None,
                kind: type = float):
    """d[key] as a finite float, or as an int when kind is int (a float is then refused)."""
    if key not in d:
        if default is None:
            raise ConfigError(f"{section}.{key}", "value is missing")
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key}", f"expected {noun}, got {v!r}")
    # NaN passes every bound check, so it is refused here with the infinities;
    # an int past the float range counts as infinite.
    if kind is float and not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{section}.{key}", f"must be finite, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{section}.{key}", f"must be >= {minimum}, got {v}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{section}.{key}", f"must be <= {maximum}, got {v}")
    return kind(v)


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


# Finite SNR points lie within this many dB of 0 (about 1541): the linear
# SNR, the trial's noise level and their squares are then finite floats.
_SNR_DB_LIMIT = 5 * math.log10(sys.float_info.max)


def _snr_point(where: str, v) -> float:
    """One SNR point in dB; null and .inf mean noiseless."""
    if v is None:
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(where, f"expected a number, got {v!r}")
    if v == math.inf:
        return math.inf
    # NaN and -inf fail the comparison too.
    if not abs(v) <= _SNR_DB_LIMIT:
        raise ConfigError(where, "must be .inf or null (noiseless), or a dB value "
                                 f"within ±{_SNR_DB_LIMIT:.0f}, got {v!r}")
    return float(v)


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
        return Constellation(self.constellation_order)


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

    frame = _section(raw, "frame", {"m", "n", "tau_p_s", "nu_p_hz", "pilot_amp"})
    m = _get_number(frame, "frame", "m", minimum=2, kind=int)
    n = _get_number(frame, "frame", "n", minimum=2, kind=int)
    nu_p = _get_number(frame, "frame", "nu_p_hz")
    pilot_amp = _get_number(frame, "frame", "pilot_amp", default=8.0)
    for key, v in (("nu_p_hz", nu_p), ("pilot_amp", pilot_amp)):
        if v <= 0:
            raise ConfigError(f"frame.{key}", "must be positive")
    # The Doppler period is authoritative, and FrameParams derives tau_p as
    # 1/nu_p; a written delay period only cross-checks it.
    params = _build("frame", FrameParams, m=m, n=n, nu_p=nu_p)
    if "tau_p_s" in frame:
        tau_p = _get_number(frame, "frame", "tau_p_s")
        if abs(tau_p * nu_p - 1.0) > 1e-6:
            raise ConfigError(
                "frame.tau_p_s",
                f"delay and Doppler periods must satisfy tau_p * nu_p = 1, "
                f"got {tau_p * nu_p:.9g}",
            )
    b = params.b

    lay = _section(raw, "layout", {"tau_max_bins", "dt_margin_bins"})
    tau_max_bins = _get_number(lay, "layout", "tau_max_bins", minimum=0.0)
    dt_margin_bins = _get_number(lay, "layout", "dt_margin_bins",
                                 default=0.0, minimum=0.0)
    tau_max = tau_max_bins / b
    dt_margin = dt_margin_bins / b
    _build("layout", build_layout, params, tau_max, dt_margin)

    sh = _section(raw, "shape", {"family", "beta", "w1_span", "oversampling"})
    family = _get_choice(sh, "shape", "family", ("rrc", "sinc"), default="rrc")
    beta = _get_number(sh, "shape", "beta", default=0.5)
    if "w1_span" in sh and sh["w1_span"] is None:
        span = None
    else:
        span = _get_number(sh, "shape", "w1_span", default=16, minimum=1, kind=int)
    q = _get_number(sh, "shape", "oversampling", default=4, minimum=2, kind=int)
    shape = _build("shape", PulseShape, family=family, beta=beta, w1_span=span)
    _build("shape", shape.check_truncation, b, q)

    ch = _section(raw, "channel", {"paths", "cfo_hz", "timing_offset_bins",
                                   "phase_rad"})
    raw_paths = ch.get("paths")
    if not isinstance(raw_paths, list) or not raw_paths:
        raise ConfigError("channel.paths", "need a nonempty list of paths")
    gains, delays, dopplers = [], [], []
    for i, p in enumerate(raw_paths):
        where = f"channel.paths[{i}]"
        if not isinstance(p, dict):
            raise ConfigError(where, "each path must be a mapping")
        _check_unknown(p, {"delay_bins", "doppler_bins", "gain_db", "phase_deg"},
                       where)
        d_bins = _get_number(p, where, "delay_bins", minimum=0.0)
        v_bins = _get_number(p, where, "doppler_bins", default=0.0)
        g_db = _get_number(p, where, "gain_db", default=0.0,
                           minimum=-MAX_GAIN_DB, maximum=MAX_GAIN_DB)
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
    scale = math.sqrt(sum(abs(g) ** 2 for g in gains))
    gains = [g / scale for g in gains]
    paths = tuple(_build(f"channel.paths[{i}]", PathSpec, gain=g, delay=d, doppler=v)
                  for i, (g, d, v) in enumerate(zip(gains, delays, dopplers)))
    cfo = _get_number(ch, "channel", "cfo_hz", default=0.0)
    dt_bins = _get_number(ch, "channel", "timing_offset_bins",
                          default=0.0, minimum=0.0)
    phi = _get_number(ch, "channel", "phase_rad", default=0.0)
    # The first build tests the offset alone, which can overflow in seconds;
    # eps0 is finite, so then only phi can fail.
    _build("channel.timing_offset_bins", ImpairmentSpec, dt=dt_bins / b)
    impairments = _build("channel.phase_rad", ImpairmentSpec,
                         dt=dt_bins / b, eps0=cfo, phi=phi)

    run = _section(raw, "run", {"constellation", "snr_db", "trials", "base_seed",
                                "support", "sync", "cfo_correction", "workers"})
    order = _get_number(run, "run", "constellation", default=4, minimum=2, kind=int)
    _build("run.constellation", Constellation, order)
    raw_snr = run.get("snr_db")
    if not isinstance(raw_snr, list) or not raw_snr:
        raise ConfigError("run.snr_db", "need a nonempty list of SNR points")
    snr_db = []
    for i, s in enumerate(raw_snr):
        point = _snr_point(f"run.snr_db[{i}]", s)
        # The CSV rows and constellation file names show a point as %g.
        if any(point == p or f"{point:g}" == f"{p:g}" for p in snr_db):
            raise ConfigError(f"run.snr_db[{i}]", f"repeats the SNR point {point:g} dB")
        snr_db.append(point)
    trials = _get_number(run, "run", "trials", default=1, minimum=1, maximum=MAX_TRIALS,
                         kind=int)
    base_seed = _get_number(run, "run", "base_seed", default=0, minimum=0,
                            maximum=2 ** 64 - 1, kind=int)
    support = _get_choice(run, "run", "support", SUPPORT_KINDS, default="C1")
    sync_on = _get_bool(run, "run", "sync", default=False)
    cfo_mode = _get_choice(run, "run", "cfo_correction", CFO_MODES,
                           default="time_domain")
    workers = _get_number(run, "run", "workers", default=1, minimum=1, maximum=MAX_WORKERS,
                          kind=int)

    sy = _section(raw, "sync", {"preamble_length", "preamble_root", "gap_symbols",
                                "threshold"}, required=False)
    pre_len = _get_number(sy, "sync", "preamble_length", default=DEFAULT_LENGTH, kind=int)
    pre_root = _get_number(sy, "sync", "preamble_root", default=DEFAULT_ROOT, minimum=1,
                           kind=int)
    gap = _get_number(sy, "sync", "gap_symbols", default=DEFAULT_GAP, minimum=0, kind=int)
    # The peak metric lies in [0, 1]; a threshold above 1 rejects every frame.
    threshold = _get_number(sy, "sync", "threshold", default=DEFAULT_THRESHOLD,
                            minimum=0.0, maximum=1.0)
    # Root 1 is coprime to every length, so the first build tests the length alone.
    _build("sync.preamble_length", Preamble, pre_len, 1)
    _build("sync.preamble_root", Preamble, pre_len, pre_root)
    # Without sync no preamble is sent and no offset is estimated.
    if sync_on and cfo_mode == "time_domain" and pre_len < 2 * CFO_BLOCK_CHIPS:
        raise ConfigError("sync.preamble_length", f"time_domain CFO correction needs at least "
                          f"{2 * CFO_BLOCK_CHIPS} chips (two CFO blocks), got {pre_len}")

    out = _section(raw, "output", {"csv", "curve_svg", "constellation_prefix"},
                   required=False)
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


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats (1e-20, .5e1), which
    YAML 1.1 reads as strings; a quoted number stays a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path: str) -> ExperimentConfig:
    """Parse a YAML experiment file; raises ConfigError on any defect."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.load(f, Loader=_Loader)
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError("config", f"not valid YAML: {e}") from e
    return config_from_dict(raw)
