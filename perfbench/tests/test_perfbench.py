"""Tests of the benchmark itself: span arithmetic, wrapper restoration,
the correctness gate, and a tiny smoke run of every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import child  # noqa: E402
import gate  # noqa: E402
import record_reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zakotfs import config, runner  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    BENCHMARK = json.load(_f)


def test_self_time_subtracts_direct_children_only():
    S = spans.Span
    trace = [S("runner.run_trial", 0.0, 10.0, None, 0),
             S("a", 1.0, 3.0, 0, 0),
             S("b", 4.0, 9.0, 0, 0),
             S("c", 5.0, 8.0, 2, 0)]
    assert spans.self_times(trace) == [3.0, 2.0, 2.0, 3.0]


def test_tracer_links_each_span_to_its_parent():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    tracer.call("sweep", lambda: tracer.call("outer", outer))
    names = [(s.name, s.parent, s.trial) for s in tracer.spans]
    assert names == [("sweep", None, None), ("outer", 0, None),
                     ("inner", 1, None), ("inner", 1, None)]
    assert spans.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_quantile_interpolates():
    assert spans.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert spans.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)


def test_budget_runs_one_step_and_stops_before_overshooting():
    now = [0.0]
    budget = child.Budget(10.0, clock=lambda: now[0])
    now[0] = 4.0
    assert budget.another_fits()          # 4 + 4 <= 10
    now[0] = 7.0
    assert not budget.another_fits()      # 7 + 4 > 10
    assert not child.Budget(0.0).another_fits()


def _originals():
    return ({a: getattr(runner, a) for a in spans.RUNNER_LAYERS},
            {a: config.ExperimentConfig.__dict__[a] for a in spans.CONFIG_LAYERS})


def test_wrappers_restored_after_traced_run_and_after_a_raise(tmp_path):
    before = _originals()
    entry = record_reference.record("small_frames_pool", [3], str(tmp_path), trials=1)
    bench = child.Bench("small_frames_pool", 3, str(tmp_path),
                        {"workloads": {"small_frames_pool": entry}}, trials=1)
    result = child.measure_traced(bench, 0.0)
    assert result["correct"], result["problems"]
    assert _originals() == before

    tracer = spans.Tracer()
    tracer.install(runner, config.ExperimentConfig)
    assert runner.equalize_taps is not before[0]["equalize_taps"]
    with pytest.raises(ZeroDivisionError):
        try:
            tracer.call("runner.sweep", lambda: 1 / 0)
        finally:
            tracer.restore()
    assert _originals() == before


@pytest.fixture(scope="module")
def reference():
    return gate.load_reference()


def test_gate_accepts_reference_and_tolerance(reference):
    entry = reference["workloads"]["readme_sweep"]
    points = [list(p) for p in entry["seeds"][str(workloads.DEFAULT_SEED)]["points"]]
    assert gate.check(points, entry, workloads.DEFAULT_SEED) == []
    points[0][1] += gate.ABS_TOL
    assert gate.check(points, entry, workloads.DEFAULT_SEED) == []


def test_gate_rejects_doctored_count_and_names_the_point(reference):
    entry = reference["workloads"]["readme_sweep"]
    points = [list(p) for p in entry["seeds"][str(workloads.DEFAULT_SEED)]["points"]]
    points[1][1] += 50
    problems = gate.check(points, entry, workloads.DEFAULT_SEED)
    assert len(problems) == 1 and problems[0].startswith("SNR 15 dB")

    points = [list(p) for p in entry["seeds"][str(workloads.DEFAULT_SEED)]["points"]]
    points[2][2] -= 2
    assert gate.check(points, entry, workloads.DEFAULT_SEED)[0].startswith("SNR 20 dB")


def test_gate_band_for_unrecorded_seed(reference):
    entry = reference["workloads"]["readme_sweep"]
    seed = 123456
    assert str(seed) not in entry["seeds"]
    inside = [[snr, lo, bits] for snr, lo, _, bits in entry["band"]]
    assert gate.check(inside, entry, seed) == []
    inside[0][1] = entry["band"][0][2] + 1
    assert gate.check(inside, entry, seed)[0].startswith("SNR 10 dB")
    assert gate.check(inside, None, seed) != []


def test_every_reference_seed_passes_its_own_gate(reference):
    for entry in reference["workloads"].values():
        for seed, rec in entry["seeds"].items():
            assert gate.check(rec["points"], entry, int(seed)) == []
            assert gate.check(rec["points"], dict(entry, seeds={}), int(seed)) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    entry = record_reference.record(name, [5], str(tmp_path), trials=1)
    ref = {"workloads": {name: entry}}
    want = {0: {m["name"] for m in BENCHMARK["end_to_end"]} - {"setup_s"},
            1: {m["name"] for m in BENCHMARK["per_layer"]}}
    for trace, measure in ((0, child.measure_end_to_end), (1, child.measure_traced)):
        run_dir = tmp_path / f"trace{trace}"
        run_dir.mkdir()
        bench = child.Bench(name, 5, str(run_dir), ref, trials=1)
        bench.warm_up()
        result = measure(bench, 0.0)
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] >= bench.per_sweep
        assert result["csv_matches_reference"] is True
        assert set(result["metrics"]) == want[trace]


def test_benchmark_json_units_match_the_code():
    for m in BENCHMARK["end_to_end"]:
        assert child.END_TO_END[m["name"]] == m["unit"]
    for m in BENCHMARK["per_layer"]:
        assert child.layer_unit(m["name"]) == m["unit"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
