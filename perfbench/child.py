"""One benchmark process: set zakotfs up, then measure one workload.

``run.py`` starts this file in a fresh interpreter, once per set-up sample:

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --run-dir DIR --spawned-at T [--setup-only]

``T`` is ``time.monotonic()`` just before the spawn, so set-up time covers
interpreter start, ``import zakotfs``, loading the config and one discarded
warm-up trial.  The process prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import gate
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

END_TO_END = {"trials_per_s": "trials/s", "trial_ms_p50": "ms",
              "trial_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MiB",
              "ber": "ratio"}
# Per-layer units by name suffix, and for the metrics that are not times.
LAYER_UNITS = {"ms": "ms", "calls": "calls/trial", "ms_p90": "ms",
               "self_ms": "ms", "overhead_ms": "ms"}
LAYER_RATIOS = {"sync.detected_ratio": "ratio", "sync.cfo_err_hz.p50": "Hz",
                "sync.peak_metric.p50": "ratio", "runner.pool.efficiency": "ratio",
                "trace.overhead_ratio": "ratio", "trace.ber": "ratio"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def layer_unit(name: str) -> str:
    return LAYER_RATIOS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[1]]


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Sweep:
    trials: int
    wall: float = 0.0
    points: list = field(default_factory=list)
    csv: bytes = b""
    problems: list = field(default_factory=list)


def check_outputs(cfg, curve) -> tuple[bytes, list[str]]:
    """The CSV must hold exactly the curve; every SVG must exist and parse."""
    problems = []
    with open(cfg.out_csv, "rb") as f:
        csv_bytes = f.read()
    if csv_bytes != curve.to_csv().encode():
        problems.append("CSV file differs from the returned curve")
    svgs = [cfg.out_curve_svg] + [
        f"{cfg.out_constellation_prefix}snr_{snr:g}dB.svg" for snr in cfg.snr_db]
    for path in svgs:
        try:
            ET.parse(path)
        except (OSError, ET.ParseError) as e:
            problems.append(f"{os.path.basename(path)}: {e}")
    return csv_bytes, problems


class Bench:
    """A workload's configs plus the zakotfs modules, ready to sweep."""

    def __init__(self, name: str, seed: int, run_dir: str, reference: dict,
                 trials: int | None = None):
        import zakotfs
        from zakotfs import config, runner
        self.zk, self.runner, self.config_class = zakotfs, runner, config.ExperimentConfig
        self.name, self.seed, self.run_dir = name, seed, run_dir
        self.out_dir = os.path.join(run_dir, "out")
        raw = workloads.make_config(name, seed, self.out_dir, trials=trials)
        self.workers = raw["run"]["workers"]
        self.config_path = workloads.write_config(
            raw, os.path.join(run_dir, "config.yaml"))
        self.serial_path = self.config_path
        if self.workers > 1:
            self.serial_path = workloads.write_config(
                workloads.make_config(name, seed, self.out_dir, trials=trials,
                                      workers=1),
                os.path.join(run_dir, "config_serial.yaml"))
        self.cfg = zakotfs.load_config(self.config_path)
        entry = reference.get("workloads", {}).get(name)
        self.entry = entry if entry and entry["trials"] == self.cfg.trials else None
        self.per_sweep = self.cfg.trials * len(self.cfg.snr_db)

    def warm_up(self) -> None:
        """One discarded trial: fills the tap and FFT plan caches."""
        self.runner.run_trial(self.cfg, 0, 0)

    def sweep(self, path: str, call=_untraced) -> Sweep:
        """load_config + sweep(emit=True) into a fresh output directory."""
        s = Sweep(trials=self.per_sweep)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        try:
            cfg = call("config.load_config", self.zk.load_config, path)
            t0 = time.perf_counter()
            curve, _ = call("runner.sweep", self.zk.sweep, cfg, emit=True)
            s.wall = time.perf_counter() - t0
            s.csv, s.problems = check_outputs(cfg, curve)
            s.points = gate.curve_points(curve)
            s.problems += gate.check(s.points, self.entry, self.seed)
        except Exception as e:  # the run goes on and reports the failure
            traceback.print_exc(file=sys.stderr)
            s.problems.append(f"sweep raised {type(e).__name__}: {e}")
        return s


class Budget:
    """The measuring window: repeat a step while another one still fits.

    The first step always runs.  A further step starts only if the longest
    step so far would still end within ``seconds`` of the start, so a run
    ends on time instead of overshooting by up to one step.
    """

    def __init__(self, seconds: float, clock=time.perf_counter):
        self.clock = clock
        self.start = self.last = clock()
        self.end = self.start + seconds
        self.longest = 0.0

    def another_fits(self) -> bool:
        now = self.clock()
        self.longest = max(self.longest, now - self.last)
        self.last = now
        return now + self.longest <= self.end


def _ber(points) -> float:
    return sum(p[1] for p in points) / sum(p[2] for p in points)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _summary(bench: Bench, sweeps: list[Sweep], metrics: dict) -> dict:
    problems = [f"sweep {i}: {p}" for i, s in enumerate(sweeps) for p in s.problems]
    good = [s for s in sweeps if not s.problems]
    if any(s.csv != good[0].csv for s in good[1:]):
        problems.append("CSV bytes differ between repeated sweeps")
    return {
        "correct": not problems,
        "attempted": sum(s.trials for s in sweeps),
        "failed": sum(s.trials for s in sweeps if s.problems),
        "problems": problems,
        "csv_matches_reference": gate.csv_matches(good[0].csv, bench.entry, bench.seed)
        if good else False,
        "sweeps": len(sweeps),
        "metrics": metrics,
    }


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    """Repeat the workload's sweep while another one fits in ``seconds``."""
    timer = spans.TrialTimer()
    timer.install(bench.runner)
    sweeps, trial_ms = [], []
    budget = Budget(seconds)
    try:
        while True:
            timer.directory = os.path.join(bench.run_dir, f"timer{len(sweeps)}")
            os.makedirs(timer.directory)
            s = bench.sweep(bench.config_path)
            times = timer.collect()
            if not s.problems and len(times) != s.trials:
                s.problems.append(f"timed {len(times)} of {s.trials} trials")
            sweeps.append(s)
            trial_ms.append(times)
            if s.problems or not budget.another_fits():
                break
    finally:
        timer.restore()
    good = [(s, ms) for s, ms in zip(sweeps, trial_ms) if not s.problems]
    metrics = {}
    if good:
        pooled = [t for _, ms in good for t in ms]
        metrics = {
            "trials_per_s": statistics.median(s.trials / s.wall for s, _ in good),
            "trial_ms_p50": spans.quantile(pooled, 0.5),
            "trial_ms_p90": spans.quantile(pooled, 0.9),
            "peak_rss_mb": _peak_rss_mb(),
            "ber": _ber(good[0][0].points),
        }
    result = _summary(bench, sweeps, metrics)
    result["sweep_log"] = [
        {"wall_s": s.wall, "trials": s.trials, "p50_ms": spans.quantile(ms, 0.5),
         "p90_ms": spans.quantile(ms, 0.9)} for s, ms in good]
    return result


def measure_traced(bench: Bench, seconds: float, spans_path: str | None = None) -> dict:
    """Rounds of untraced sweep(s) and one traced serial sweep, within ``seconds``.

    The untraced sweep at the workload's worker count gives the pool wall
    time; an untraced serial sweep (the same one when workers is 1) is the
    base of the tracing overhead.  Traced counts must equal untraced ones.
    """
    tracer = spans.Tracer()

    def traced_sweep() -> Sweep:
        tracer.install(bench.runner, bench.config_class)
        try:
            return bench.sweep(bench.serial_path, call=tracer.call)
        finally:
            tracer.restore()

    sweeps, rounds = [], []
    budget = Budget(seconds)
    while True:
        # Every other round runs the traced sweep first, so that neither
        # side of the overhead ratio always runs second.
        traced = traced_sweep() if len(rounds) % 2 else None
        pool = bench.sweep(bench.config_path)
        serial = bench.sweep(bench.serial_path) if bench.workers > 1 else pool
        traced = traced or traced_sweep()
        if traced.points and traced.points != pool.points:
            traced.problems.append(
                f"traced counts {traced.points} differ from untraced {pool.points}")
        sweeps += [pool, traced] + ([serial] if serial is not pool else [])
        rounds.append((pool, serial, traced))
        if any(s.problems for s in sweeps) or not budget.another_fits():
            break
    if spans_path:
        tracer.dump(spans_path)
    metrics = {}
    if not any(s.problems for s in sweeps):
        metrics = spans.layer_metrics(tracer, bench.cfg.impairments.eps0)
        sweep_spans = [i for i, s in enumerate(tracer.spans) if s.name == "runner.sweep"]
        sums = spans.trial_span_sums(tracer)
        walls = [tracer.spans[i].end - tracer.spans[i].start for i in sweep_spans]
        metrics["runner.sweep.overhead_ms"] = statistics.median(
            (w - sums[i]) * 1e3 for i, w in zip(sweep_spans, walls))
        metrics["runner.pool.efficiency"] = statistics.median(
            sums[i] / (bench.workers * r[0].wall) for i, r in zip(sweep_spans, rounds))
        metrics["trace.overhead_ratio"] = (
            statistics.median(walls) / statistics.median(r[1].wall for r in rounds) - 1)
        metrics["trace.ber"] = _ber(rounds[0][2].points)
    return _summary(bench, sweeps, metrics)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "platform": platform.platform(), "git_rev": None, "git_dirty": None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    # Only a checkout with its own .git; git would otherwise search upwards.
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            env["git_rev"] = git("rev-parse", "HEAD")
            env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    bench = Bench(args.workload, args.seed, args.run_dir, gate.load_reference())
    bench.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        result = {"setup_s": setup_s}
    elif args.trace:
        spans_path = os.path.join(os.path.dirname(args.run_dir),
                                  f"spans-{args.workload}.jsonl")
        result = measure_traced(bench, args.seconds, spans_path)
    else:
        result = measure_end_to_end(bench, args.seconds)
    result["setup_s"] = setup_s
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
