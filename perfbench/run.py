"""zakotfs benchmark: one workload, one seed, timed end to end or traced.

Run from the root of a zakotfs checkout:

    python3 perfbench/run.py --workload readme_sweep [--seed 2024]
        [--seconds 30] [--trace 0|1]

Each run starts fresh interpreters that import ``zakotfs`` from ``src/``:
``SETUP_SAMPLES - 1`` that only set up, then one that sets up and measures
for ``--seconds``.  ``setup_s`` is the median set-up time of all of them.
The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (trials), and the end-to-end metrics (``--trace 0``) or the
per-layer ones (``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import child  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
# Per-process grace on top of --seconds: set-up, output checks and exit.
CHILD_GRACE_S = 60.0


def _spawn(argv: list[str], env: dict, timeout: float) -> dict:
    """Run one child in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark process timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help=f"run.base_seed of the generated config (default "
                         f"{workloads.DEFAULT_SEED}; held out: {workloads.HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "zakotfs", "__init__.py")):
        print(f"no zakotfs sources under {root}/src", file=sys.stderr)
        return 2

    env = dict(os.environ)
    # One thread per process, so a 2-worker pool does not oversubscribe
    # 2 cores with BLAS or OpenMP threads.
    env.update({v: "1" for v in child.THREAD_VARS})
    scratch = os.path.join(root, ".perfbench_tmp")
    run_dir = os.path.join(scratch, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    base = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--run-dir", run_dir]
    timeout = args.seconds + CHILD_GRACE_S
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            argv_i = base + ["--spawned-at", repr(time.monotonic())]
            result = _spawn(argv_i if last else argv_i + ["--setup-only"], env, timeout)
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace == 0:
        result["metrics"]["setup_s"] = statistics.median(setups)
    with open(os.path.join(scratch, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       setup_samples_s=setups), f, indent=1)

    wanted = (child.END_TO_END if args.trace == 0 else
              {k: child.layer_unit(k) for k in sorted(result["metrics"])})
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {result['sweeps']}  trials {result['attempted']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    metrics = {}
    for name, unit in wanted.items():
        if name in result["metrics"]:
            metrics[name] = {"value": result["metrics"][name], "unit": unit}
            print(f"  {name:40s} {result['metrics'][name]:.6g} {unit}")
    print(f"  {'failed_ratio':40s} {result['failed'] / result['attempted']:.6g} ratio")
    print(f"  csv_matches_reference {result['csv_matches_reference']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"  correct {str(result['correct']).lower()}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
