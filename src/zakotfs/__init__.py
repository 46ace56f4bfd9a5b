"""Zak-OTFS baseband modem: delay-Doppler framing, transforms, channel,
synchronization, estimation, equalization, and a Monte-Carlo harness."""

from .channel import (ImpairmentSpec, PathSpec, add_noise, apply_impairments,
                      apply_paths, fold_impairments)
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .dd_frame import (Constellation, FrameLayout, FrameParams, build_layout,
                       demap_symbols, map_bits)
from .estimation import (EffectiveChannelEstimate, SolverDivergence,
                         SupportRegion, dd_noise_var, equalize_taps, estimate,
                         guard_noise_var, manual_taps, predict_io)
from .iqfile import IqFormatError, read_iq, read_iq_header, write_iq
from .runner import BerCurve, BerPoint, TrialReport, run_trial, sweep
from .sync import (Preamble, SyncResult, correct, detect_timing, estimate_cfo,
                   kay_cfo, make_preamble, shape_preamble)
from .waveform import (AnalogSignal, PulseShape, matched_filter, rrc_w1, rrc_w2,
                       sample_and_periodize, synthesize)
from .zak import dzt, idzt

__version__ = "0.1.0"

__all__ = [
    "AnalogSignal", "BerCurve", "BerPoint", "ConfigError",
    "Constellation", "EffectiveChannelEstimate",
    "ExperimentConfig", "FrameLayout", "FrameParams", "ImpairmentSpec",
    "IqFormatError", "PathSpec", "Preamble", "PulseShape", "SolverDivergence",
    "SupportRegion", "SyncResult", "TrialReport", "add_noise", "apply_impairments",
    "apply_paths", "build_layout", "config_from_dict",
    "correct", "dd_noise_var", "demap_symbols", "detect_timing", "dzt",
    "equalize_taps", "estimate", "estimate_cfo", "fold_impairments",
    "guard_noise_var",
    "idzt", "kay_cfo", "load_config", "make_preamble", "manual_taps",
    "map_bits", "matched_filter", "predict_io", "read_iq",
    "read_iq_header", "rrc_w1", "rrc_w2", "run_trial", "sample_and_periodize",
    "shape_preamble", "sweep", "synthesize", "write_iq",
]
