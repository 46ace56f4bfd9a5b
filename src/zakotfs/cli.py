"""Command-line front end: sweeps, single trials, IQ inspection, selftest."""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import svg
from .config import (MAX_TRIALS, MAX_WORKERS, ConfigError, config_from_dict,
                     load_config)
from .dd_frame import FrameParams, build_layout
from .estimation import SupportRegion, equalize_taps, manual_taps, predict_io
from .iqfile import IqFormatError, read_iq_header, write_iq
from .runner import run_trial, sweep
from .sync import make_preamble
from .zak import dzt, idzt

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _check_flag(flag: str, value: int, lo: int, hi: float = math.inf) -> None:
    """Reject a flag value outside [lo, hi) as a config error (exit 1)."""
    if not lo <= value < hi:
        raise ConfigError(flag, f"must lie in [{lo}, {hi}), got {value}")


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.workers is not None:
        _check_flag("--workers", args.workers, 1, MAX_WORKERS + 1)
        cfg = dataclasses.replace(cfg, workers=args.workers)
    curve, _ = sweep(cfg, emit=True)
    sys.stdout.write(curve.to_csv())
    return EXIT_OK


def _cmd_trial(args) -> int:
    cfg = load_config(args.config)
    _check_flag("--index", args.index, 0, MAX_TRIALS)
    _check_flag("--snr-index", args.snr_index, 0, len(cfg.snr_db))
    report = run_trial(cfg, args.index, snr_index=args.snr_index)
    print(f"trial {args.index} at {report.snr_db:g} dB: "
          f"{report.bit_errors}/{report.bits_sent} bit errors"
          + (", sync failed" if report.sync_failed else ""))
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        iq_path = os.path.join(args.dump_dir, f"tx_trial{args.index}.iq")
        write_iq(iq_path, report.tx)
        chart = svg.scatter_chart(report.symbols,
                                  title=f"trial {args.index}, "
                                        f"{report.snr_db:g} dB",
                                  reference=cfg.constellation().points)
        svg_path = os.path.join(args.dump_dir,
                                f"constellation_trial{args.index}.svg")
        with open(svg_path, "w", encoding="utf-8", newline="\n") as f:
            f.write(chart)
        taps_path = os.path.join(args.dump_dir, f"taps_trial{args.index}.csv")
        with open(taps_path, "w", encoding="utf-8", newline="\n") as f:
            f.write("delay_bin,doppler_bin,re,im\n")
            if report.taps is not None:
                for k, l, v in report.taps.tap_items():
                    f.write(f"{k},{l},{v.real:.9e},{v.imag:.9e}\n")
        print(f"dumped {iq_path}, {svg_path}, {taps_path}")
    return EXIT_OK


def _cmd_iq_info(args) -> int:
    header = read_iq_header(args.file)
    size = os.path.getsize(args.file)
    print(f"version: {header.version}")
    print(f"rate_hz: {header.rate:g}")
    print(f"samples: {header.count}")
    print(f"bytes: {size}")
    return EXIT_OK


def _selftest_checks():
    rng = np.random.default_rng(2024)

    def transforms():
        vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        back = dzt(idzt(vals), 8, 8)
        err = np.max(np.abs(back - vals))
        assert err < 1e-12, f"round-trip error {err:.2e}"

    def preamble():
        pre = make_preamble()
        x = pre.samples
        corr = np.fft.ifft(np.fft.fft(x) * np.conj(np.fft.fft(x)))
        side = np.max(np.abs(corr[1:])) / np.abs(corr[0])
        assert side <= 0.05, f"sidelobe ratio {side:.3f}"

    def operator():
        params = FrameParams(m=8, n=8, nu_p=30e3)
        layout = build_layout(params, 1.5 / params.b, 0.0)
        support = SupportRegion.from_layout(layout, "C2")
        h = manual_taps({(0, 0): 1.0, (1, -2): 0.4j}, support)
        # Tap (k', l') moves the pilot by (k', l') and twists it by exp(j2pi k_p l'/MN).
        k_p, l_p = layout.k_p, layout.l_p
        pilot, want = np.zeros((2, 8, 8), dtype=complex)
        pilot[k_p, l_p] = want[k_p, l_p] = 1.0
        want[k_p + 1, l_p - 2] = 0.4j * np.exp(2j * np.pi * k_p * -2 / 64)
        err = np.max(np.abs(predict_io(pilot, h) - want))
        assert err < 1e-12, f"closed-form error {err:.2e}"
        vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = predict_io(vals, h)
        x = equalize_taps(y, h, 0.0)
        err = np.max(np.abs(x - vals))
        assert err < 1e-9, f"inversion error {err:.2e}"

    def loopback():
        raw = {
            "config_version": 1,
            "frame": {"m": 16, "n": 16, "tau_p_s": 1 / 30e3,
                      "nu_p_hz": 30e3, "pilot_amp": 8.0},
            "layout": {"tau_max_bins": 1.5},
            "shape": {"family": "rrc", "beta": 0.5, "w1_span": None,
                      "oversampling": 4},
            "channel": {"paths": [{"delay_bins": 0}]},
            "run": {"constellation": 4, "snr_db": [None], "trials": 1,
                    "base_seed": 7},
        }
        report = run_trial(config_from_dict(raw), 0)
        assert report.bit_errors == 0, f"{report.bit_errors} loopback errors"

    return [("zak round-trip", transforms),
            ("preamble sidelobes", preamble),
            ("predict_io closed form, equalizer inverts it", operator),
            ("noiseless loopback", loopback)]


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError as e:
            print(f"FAIL - {name}: {e}")
            failures += 1
        else:
            print(f"ok - {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_RUNTIME
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zakotfs",
        description="Zak-OTFS link simulations: BER sweeps, trials, IQ files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the configured BER sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("trial", help="run one trial, optionally dumping files")
    p.add_argument("--config", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--snr-index", type=int, default=0)
    p.add_argument("--dump-dir", default=None)
    p.set_defaults(func=_cmd_trial)

    p = sub.add_parser("iq-info", help="print an IQ file's header")
    p.add_argument("file")
    p.set_defaults(func=_cmd_iq_info)

    p = sub.add_parser("selftest", help="run the built-in consistency checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (IqFormatError, RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
