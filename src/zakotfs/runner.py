"""Monte-Carlo orchestration: single trials, BER sweeps, CSV/SVG emission."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import svg
from .channel import add_noise, apply_impairments, apply_paths
from .config import MAX_TRIALS, ExperimentConfig
from .dd_frame import Constellation, FrameLayout, demap_symbols, map_bits
from .estimation import (EffectiveChannelEstimate, SupportRegion, dd_noise_var,
                         equalize_taps, estimate)
from .sync import (SyncResult, correct, detect_timing, estimate_cfo, make_preamble,
                   shape_preamble)
from .waveform import AnalogSignal, matched_filter, sample_and_periodize, synthesize
from .zak import dzt, idzt, memo

__all__ = ["TrialReport", "BerPoint", "BerCurve", "run_trial", "sweep",
           "write_outputs"]


@dataclass(frozen=True)
class TrialReport:
    """Everything one end-to-end trial produced, including the burst it sent."""

    snr_db: float
    seed_key: tuple[int, int]
    bit_errors: int
    bits_sent: int
    symbols: np.ndarray
    taps: EffectiveChannelEstimate | None
    sync: SyncResult | None
    tx: AnalogSignal

    def __post_init__(self):
        if self.bit_errors > self.bits_sent:
            raise ValueError("more bit errors than bits sent")

    @property
    def sync_failed(self) -> bool:
        """Sync was on and found no preamble; the frame was not decoded."""
        return self.sync is not None and not self.sync.detected


@dataclass(frozen=True)
class BerPoint:
    snr_db: float
    ber: float
    ci95: float
    trials: int
    errors: int
    bits: int


@dataclass(frozen=True)
class BerCurve:
    """One BER-vs-SNR series with binomial normal-approximation CIs."""

    points: tuple[BerPoint, ...]

    def __post_init__(self):
        for p in self.points:
            if not 0.0 <= p.ber <= 1.0:
                raise ValueError(f"ber {p.ber} outside [0, 1]")
        object.__setattr__(self, "points", tuple(self.points))

    def to_csv(self) -> str:
        lines = ["snr_db,ber,ci95,trials,errors,bits"]
        for p in self.points:
            lines.append(f"{p.snr_db:g},{p.ber:.9e},{p.ci95:.9e},"
                         f"{p.trials},{p.errors},{p.bits}")
        return "\n".join(lines) + "\n"


def _trial_rng(cfg: ExperimentConfig, snr_index: int,
               trial_index: int) -> tuple[np.random.Generator, tuple[int, int]]:
    """Counter-based per-trial stream so worker layout cannot matter."""
    if not (0 <= snr_index < MAX_TRIALS and 0 <= trial_index < MAX_TRIALS):
        raise ValueError(f"SNR index {snr_index} or trial index {trial_index} "
                         f"outside [0, {MAX_TRIALS}) would alias another trial")
    word = (snr_index << 32) | trial_index
    key = np.array([cfg.base_seed, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)), (cfg.base_seed, word)


@dataclass(frozen=True)
class _Plan:
    """What every trial of one config shares."""

    layout: FrameLayout
    constellation: Constellation
    support: SupportRegion
    template: AnalogSignal | None


# glibc mallopt parameters; see mallopt(3).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap() -> bool:
    """Keep freed trial temporaries on the heap instead of returning them.

    A README trial's temporaries peak a few MB above the live set.  By
    default glibc hands that heap top back to the kernel after each trial
    and the next trial faults it in again, page by page.  Fixed trim and
    mmap thresholds (which also stop glibc from adapting the mmap one)
    keep those pages resident.  Returns whether the policy took effect;
    without glibc's mallopt it does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


@memo(maxsize=8)
def _plan(cfg: ExperimentConfig) -> _Plan:
    """Build a config's constant link state once per process.

    Pool workers need no initializer: each builds (or inherits) the plan,
    and with it the heap policy, on its first trial of a config.
    """
    _keep_heap()
    layout = cfg.layout()
    template = None
    if cfg.sync_enabled:
        # The burst carries this template and the receiver correlates against it.
        template = shape_preamble(make_preamble(cfg.preamble_length, cfg.preamble_root),
                                  cfg.shape, cfg.params.b, cfg.q)
    return _Plan(layout=layout, constellation=cfg.constellation(),
                 support=SupportRegion.from_layout(layout, cfg.support_kind),
                 template=template)


# The gap, in symbols, separates the template's last sample from the first
# frame sample, which for a wide transmit window sits well before the
# frame core, so the preamble clears the frame's rolloff flank.
_GAP_SYMBOLS = 64


def _compose_burst(cfg: ExperimentConfig, frame_sig: AnalogSignal,
                   template: AnalogSignal | None) -> tuple[AnalogSignal, int]:
    """Put preamble (optional), gap, and frame on one time axis.

    The frame core keeps grid index 0; the returned offset is the nominal
    index of preamble chip 0 in the buffer (-1 without a preamble).  The
    tail is padded out so channel delays never push content off the end.
    """
    rate = frame_sig.rate
    n_frame = frame_sig.samples.size
    tail_pad = int(math.ceil((cfg.tau_max + cfg.impairments.dt) * rate)) + 4 * cfg.q
    lead = 0 if template is None else template.samples.size + _GAP_SYMBOLS * cfg.q
    buf = np.zeros(lead + n_frame + tail_pad, dtype=np.complex128)
    buf[lead:lead + n_frame] = frame_sig.samples
    chip0_nominal = -1
    if template is not None:
        buf[:template.samples.size] = template.samples
        chip0_nominal = -template.start
    return AnalogSignal.adopt(buf, rate=rate, start=frame_sig.start - lead), chip0_nominal


def _make_tx(cfg: ExperimentConfig, plan: _Plan, rng: np.random.Generator):
    """Draw one frame's bits and build the transmit burst around them."""
    nbits = plan.layout.n_data_cells * plan.constellation.bits_per_symbol
    bits = rng.integers(0, 2, size=nbits)
    tx_grid = map_bits(bits, plan.constellation, plan.layout, cfg.pilot_amp)
    frame_sig = synthesize(idzt(tx_grid), cfg.shape, cfg.params.b, cfg.q)
    burst, chip0_nominal = _compose_burst(cfg, frame_sig, plan.template)
    return bits, burst, chip0_nominal


def run_trial(cfg: ExperimentConfig, trial_index: int,
              snr_index: int = 0) -> TrialReport:
    """One frame through the whole pipeline at cfg.snr_db[snr_index]."""
    params = cfg.params
    plan = _plan(cfg)
    layout = plan.layout
    snr_db = cfg.snr_db[snr_index]
    rng, seed_key = _trial_rng(cfg, snr_index, trial_index)

    bits, burst, chip0_nominal = _make_tx(cfg, plan, rng)

    # Each buffer of the chain is dropped once its successor exists, so
    # the trial's peak, which the kept heap holds resident, stays low.
    faded = apply_paths(burst, cfg.paths)
    impaired = apply_impairments(faded, cfg.impairments)
    del faded

    core_lo = -impaired.start
    core = impaired.samples[core_lo:core_lo + params.m * params.n * cfg.q]
    signal_power = float(np.mean(np.abs(core) ** 2))
    noise_psd = 0.0 if math.isinf(snr_db) else signal_power / 10 ** (snr_db / 10)
    rx = add_noise(impaired, noise_psd, rng)
    del impaired, core

    sync_res = None
    if cfg.sync_enabled:
        # The latest chip-0 lock whose axis move keeps the frame's last
        # symbol instant in the buffer; it follows from the burst format.
        last_symbol = core_lo + (params.m * params.n - 1) * cfg.q
        last_start = chip0_nominal + rx.samples.size - 1 - last_symbol
        sync_res = detect_timing(rx, plan.template, threshold=cfg.sync_threshold,
                                 last_start=last_start)
        if sync_res.detected and cfg.cfo_mode == "time_domain":
            cfo_hat = estimate_cfo(rx, plan.template, cfg.q, sync_res.start_index)
            sync_res = replace(sync_res, cfo_hat=cfo_hat)
            rx = correct(rx, sync_res.start_index - chip0_nominal, cfo_hat)

    if sync_res is not None and not sync_res.detected:
        # A lost frame counts as a decode of all-zero bits against what was sent.
        rx_bits = np.zeros_like(bits)
        symbols = np.zeros(layout.n_data_cells, dtype=np.complex128)
        h_est = None
    else:
        folded = sample_and_periodize(matched_filter(rx, cfg.shape, params), params)
        y_dd = dzt(folded, params.m, params.n)
        del rx, folded
        h_est = estimate(y_dd, plan.support, cfg.pilot_amp)
        x_hat = equalize_taps(y_dd, h_est, dd_noise_var(noise_psd, cfg.q, params.b))
        rx_bits = demap_symbols(x_hat, layout, plan.constellation)
        symbols = x_hat[layout.data_rows, :].reshape(-1)
    return TrialReport(
        snr_db=snr_db, seed_key=seed_key,
        bit_errors=int(np.sum(rx_bits != bits)), bits_sent=bits.size, symbols=symbols,
        taps=h_est, sync=sync_res, tx=burst,
    )


def _trial_stats(cfg: ExperimentConfig, trial_index: int,
                 snr_index: int) -> tuple[int, int, np.ndarray | None]:
    r = run_trial(cfg, trial_index, snr_index)
    return r.bit_errors, r.bits_sent, (r.symbols if trial_index == 0 else None)


def sweep(cfg: ExperimentConfig, emit: bool = True
          ) -> tuple[BerCurve, dict[float, np.ndarray]]:
    """Run the configured trial grid and aggregate one BER curve.

    Trials fan out over processes when cfg.workers > 1; results come
    back in (snr, trial) job order and reduce from integer counters, so
    the curve and every emitted byte are independent of the worker
    count.  Returns the curve plus the trial-0 equalized symbols per SNR
    point for the constellation dumps.
    """
    n_snr = len(cfg.snr_db)
    trial_idx = list(range(cfg.trials)) * n_snr
    snr_idx = [si for si in range(n_snr) for _ in range(cfg.trials)]
    if cfg.workers == 1:
        stats = list(map(_trial_stats, repeat(cfg), trial_idx, snr_idx))
    else:
        # Never more workers than jobs: a forked pool starts all of them.
        workers = min(cfg.workers, len(trial_idx))
        # About sixteen chunks per worker: few round trips, and the last
        # chunks are short enough that no worker idles long at the end.
        chunk = max(1, len(trial_idx) // (16 * workers))
        # Imported here: the pool brings in multiprocessing, which a serial
        # run never needs.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_trial_stats, repeat(cfg), trial_idx, snr_idx,
                                  chunksize=chunk))

    points = []
    scatters: dict[float, np.ndarray] = {}
    for si, snr_db in enumerate(cfg.snr_db):
        rows = stats[si * cfg.trials:(si + 1) * cfg.trials]
        errors = sum(r[0] for r in rows)
        bits = sum(r[1] for r in rows)
        ber = errors / bits
        ci = 1.96 * math.sqrt(ber * (1 - ber) / bits)
        points.append(BerPoint(snr_db=snr_db, ber=ber, ci95=ci,
                               trials=len(rows), errors=errors, bits=bits))
        scatters[snr_db] = rows[0][2]
    curve = BerCurve(points=tuple(points))
    if emit:
        write_outputs(cfg, curve, scatters)
    return curve, scatters


def write_outputs(cfg: ExperimentConfig, curve: BerCurve,
                  scatters: dict[float, np.ndarray]) -> list[str]:
    """Emit the CSV, the BER curve SVG, and one scatter SVG per SNR."""
    name = f"{cfg.shape.family} {cfg.constellation_order}-QAM"
    outputs = [("CSV", cfg.out_csv, curve.to_csv())]
    finite = [(p.snr_db, p.ber, p.ci95) for p in curve.points if not math.isinf(p.snr_db)]
    if finite:
        outputs.append(("curve SVG", cfg.out_curve_svg,
                        svg.line_chart(name, finite, title=f"BER, {name}")))
    reference = cfg.constellation().points
    for snr_db in sorted(scatters):
        outputs.append((f"scatter SVG at {snr_db:g} dB",
                        f"{cfg.out_constellation_prefix}snr_{snr_db:g}dB.svg",
                        svg.scatter_chart(scatters[snr_db], title=f"{name}, SNR {snr_db:g} dB",
                                          reference=reference)))
    try:
        # Every directory first: a path that cannot be made leaves no file behind.
        for what, path, _ in outputs:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        for what, path, text in outputs:
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
    except OSError as e:
        raise RuntimeError(f"cannot write output {e.filename or ''} ({what}): {e}") from e
    return [path for _, path, _ in outputs]
