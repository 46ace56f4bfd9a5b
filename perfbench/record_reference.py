"""Record the correctness gate's reference counts into perfbench/reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs are the
reference.  Named workloads are re-recorded and the others kept; with no
names, all are.  For each workload it sweeps every seed in ``SEEDS`` (the
default seed, the held-out seed and 0..15) and stores the per-SNR
``[snr_db, errors, bits]``, the CSV digest, and the band the gate applies
to seeds without a record.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import child  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

SEEDS = [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED] + list(range(16))


def record(name: str, seeds: list[int], work_dir: str,
           trials: int | None = None) -> dict:
    """The reference.json entry of workload ``name`` at these seeds."""
    import zakotfs
    out_dir = os.path.join(work_dir, "out")
    entry = {"trials": None, "seeds": {}}
    for seed in seeds:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        raw = workloads.make_config(name, seed, out_dir, trials=trials)
        cfg = zakotfs.load_config(
            workloads.write_config(raw, os.path.join(work_dir, "config.yaml")))
        curve, _ = zakotfs.sweep(cfg, emit=True)
        csv_bytes, problems = child.check_outputs(cfg, curve)
        if problems:
            raise RuntimeError(f"{name} seed {seed}: {problems}")
        entry["trials"] = cfg.trials
        entry["seeds"][str(seed)] = {"points": gate.curve_points(curve),
                                     "csv_sha256": gate.csv_digest(csv_bytes)}
    entry["band"] = gate.band([s["points"] for s in entry["seeds"].values()])
    return entry


def main(names: list[str]) -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    for var in child.THREAD_VARS:
        os.environ[var] = "1"
    work_dir = os.path.join(root, ".perfbench_tmp", f"reference-{os.getpid()}")
    os.makedirs(work_dir)
    ref = gate.load_reference() if names else {"workloads": {}}
    ref.update(seeds_note=f"default {workloads.DEFAULT_SEED}, held out "
                          f"{workloads.HELD_OUT_SEED}",
               env=child.environment())
    try:
        for name in names or workloads.WORKLOADS:
            ref["workloads"][name] = record(name, SEEDS, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    print(f"wrote {gate.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
