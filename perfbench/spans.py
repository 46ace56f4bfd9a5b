"""Span recording from outside the library, by wrapping the names it calls.

``zakotfs.runner`` resolves its stage functions (``synthesize``,
``equalize_taps``, ...) from its module globals at call time, and ``sweep``
resolves ``run_trial`` and ``write_outputs`` the same way, so replacing
those globals puts a span around every call the runner makes into a layer.
Calls a layer makes internally (``equalize_taps``' own ``dzt``, the preamble
re-shaping inside ``detect_timing``) are not split out.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass

# runner global -> span name, named after the module that defines it.
RUNNER_LAYERS = {
    "map_bits": "dd_frame.map_bits",
    "demap_symbols": "dd_frame.demap_symbols",
    "synthesize": "waveform.synthesize",
    "matched_filter": "waveform.matched_filter",
    "sample_and_periodize": "waveform.sample_and_periodize",
    "idzt": "zak.idzt",
    "dzt": "zak.dzt",
    "apply_paths": "channel.apply_paths",
    "apply_impairments": "channel.apply_impairments",
    "make_preamble": "sync.make_preamble",
    "shape_preamble": "sync.shape_preamble",
    "detect_timing": "sync.detect_timing",
    "estimate_cfo": "sync.estimate_cfo",
    "correct": "sync.correct",
    "estimate": "estimation.estimate",
    "equalize_taps": "estimation.equalize_taps",
    "run_trial": "runner.run_trial",
    "write_outputs": "runner.write_outputs",
}
# ExperimentConfig methods rebuilt on every trial.
CONFIG_LAYERS = {"layout": "config.layout",
                 "constellation": "config.constellation"}
TRIAL = "runner.run_trial"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span
    trial: int | None    # index of the enclosing run_trial span


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _swap(self, owner, attr: str, replacement) -> object:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return original

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer(_Patches):
    """Serial, in-memory span recorder.

    ``trials`` maps each run_trial span index to what the trial reported:
    its seed key and its sync outcome.
    """

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self.trials: dict[int, dict] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        trial = idx if name == TRIAL else (
            self.spans[parent].trial if parent is not None else None)
        self.spans.append(Span(name, self.clock(), 0.0, parent, trial))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end(idx)
        if name == TRIAL:
            self.trials[idx] = _trial_record(result)
        return result

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)
        self._swap(owner, attr, traced)

    def install(self, runner_module, config_class) -> None:
        for attr, name in RUNNER_LAYERS.items():
            self._wrap(runner_module, attr, name)
        for attr, name in CONFIG_LAYERS.items():
            self._wrap(config_class, attr, name)

    def dump(self, path: str) -> None:
        """Write one JSON line per span, with the seed key of its trial."""
        with open(path, "w", encoding="utf-8") as f:
            for idx, s in enumerate(self.spans):
                key = self.trials.get(s.trial, {}).get("seed_key")
                f.write(json.dumps({"id": idx, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "trial": s.trial, "seed_key": key}) + "\n")


def _trial_record(report) -> dict:
    sync = report.sync
    return {
        "seed_key": list(report.seed_key),
        "detected": None if sync is None else bool(sync.detected),
        "cfo_hat": None if sync is None or not sync.detected else float(sync.cfo_hat),
        "peak_metric": None if sync is None else float(sync.peak_metric),
    }


class TrialTimer(_Patches):
    """Wall time per ``run_trial``, also inside forked pool workers.

    Each process appends its own durations to ``<directory>/trials-<pid>``,
    because a worker's memory is gone when the pool shuts down.
    """

    def __init__(self):
        super().__init__()
        self.directory: str | None = None

    def install(self, runner_module) -> None:
        original = runner_module.run_trial

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            ms = (time.perf_counter() - t0) * 1e3
            path = os.path.join(self.directory, f"trials-{os.getpid()}")
            with open(path, "a", encoding="utf-8") as f:
                f.write(f"{ms!r}\n")
            return result
        self._swap(runner_module, "run_trial", timed)

    def collect(self) -> list[float]:
        """Durations (ms) written since the directory was set."""
        out = []
        for entry in sorted(os.listdir(self.directory)):
            if entry.startswith("trials-"):
                with open(os.path.join(self.directory, entry), encoding="utf-8") as f:
                    out.extend(float(line) for line in f)
        return out


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one serial call stack, so children never overlap and
    their summed durations are the part of the parent they cover.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def quantile(values: list[float], q: float) -> float:
    """The q-quantile with linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_metrics(tracer: Tracer, cfo_hz: float) -> dict[str, float]:
    """Per-layer metrics: median self ms per call, calls per trial, sync quality."""
    spans = tracer.spans
    own = self_times(spans)
    n_trials = len(tracer.trials)
    by_name: dict[str, list[float]] = {}
    in_trial: dict[str, int] = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s.name, []).append(t * 1e3)
        if s.trial is not None and s.name != TRIAL:
            in_trial[s.name] = in_trial.get(s.name, 0) + 1

    out: dict[str, float] = {}
    for name in list(RUNNER_LAYERS.values()) + list(CONFIG_LAYERS.values()):
        if name in (TRIAL, "runner.write_outputs"):
            continue
        out[f"{name}.ms"] = statistics.median(by_name[name]) if name in by_name else 0.0
        out[f"{name}.calls"] = in_trial.get(name, 0) / n_trials
    out["estimation.equalize_taps.ms_p90"] = quantile(by_name["estimation.equalize_taps"], 0.9)
    out["config.load_config.ms"] = statistics.median(by_name["config.load_config"])
    out["runner.run_trial.self_ms"] = statistics.median(by_name[TRIAL])
    out["runner.write_outputs.ms"] = statistics.median(by_name["runner.write_outputs"])

    records = list(tracer.trials.values())
    out["sync.detected_ratio"] = sum(bool(r["detected"]) for r in records) / n_trials
    cfo_err = [abs(r["cfo_hat"] - cfo_hz) for r in records if r["cfo_hat"] is not None]
    out["sync.cfo_err_hz.p50"] = statistics.median(cfo_err)
    out["sync.peak_metric.p50"] = statistics.median(
        r["peak_metric"] for r in records if r["peak_metric"] is not None)
    return out


def trial_span_sums(tracer: Tracer) -> dict[int, float]:
    """Summed run_trial durations (s) under each runner.sweep span."""
    sums: dict[int, float] = {}
    for s in tracer.spans:
        if s.name == TRIAL and s.parent is not None:
            sums[s.parent] = sums.get(s.parent, 0.0) + (s.end - s.start)
    return sums
