"""Correctness gate: a sweep's per-SNR bit-error counts against reference.json.

For a seed with recorded counts, ``bits`` must match exactly and
``errors`` within ``max(ABS_TOL, REL_TOL * reference)``, because a solver
with different rounding may legitimately flip a few decisions.  Byte
equality of the CSV with the recorded one is reported apart from the gate.
For any other seed the counts must fall inside the band spanned by all
recorded seeds, widened by ``BAND_FACTOR`` (and, at points where no
recorded seed had errors, up to a BER of ``BAND_FLOOR_BER``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

ABS_TOL = 4
REL_TOL = 1e-3
BAND_FACTOR = 2.0
BAND_FLOOR_BER = 5e-3

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def csv_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def curve_points(curve) -> list[list]:
    """[snr_db, errors, bits] per point of a zakotfs BerCurve."""
    return [[p.snr_db, p.errors, p.bits] for p in curve.points]


def band(runs: list[list[list]]) -> list[list]:
    """[snr_db, lo, hi, bits] per point, from the points of several seeds."""
    out = []
    for per_seed in zip(*runs):
        snr, bits = per_seed[0][0], per_seed[0][2]
        errs = [p[1] for p in per_seed]
        hi = max(math.ceil(BAND_FACTOR * max(errs)),
                 math.ceil(BAND_FLOOR_BER * bits))
        out.append([snr, math.floor(min(errs) / BAND_FACTOR), min(hi, bits), bits])
    return out


def check(points: list[list], entry: dict | None, seed: int) -> list[str]:
    """Problems with ``points`` as lines naming the SNR point; [] passes.

    ``entry`` is the workload's record in reference.json, or None.
    """
    if entry is None:
        return ["no reference counts for this workload and size"]
    ref = entry["seeds"].get(str(seed))
    expected = ref["points"] if ref else entry["band"]
    if [p[0] for p in points] != [p[0] for p in expected]:
        return [f"SNR points {[p[0] for p in points]} differ from the "
                f"reference {[p[0] for p in expected]}"]
    problems = []
    for (snr, errors, nbits), exp, row in zip(points, expected, entry["band"]):
        where = f"SNR {snr:g} dB"
        if nbits != row[3]:
            problems.append(f"{where}: {nbits} bits, reference {row[3]}")
        elif ref:
            tol = max(ABS_TOL, math.ceil(REL_TOL * exp[1]))
            if abs(errors - exp[1]) > tol:
                problems.append(f"{where}: {errors} errors, reference {exp[1]} "
                                f"+- {tol} at seed {seed}")
        elif not exp[1] <= errors <= exp[2]:
            problems.append(f"{where}: {errors} errors outside the band "
                            f"[{exp[1]}, {exp[2]}] of the recorded seeds")
    return problems


def csv_matches(csv_bytes: bytes, entry: dict | None, seed: int) -> bool | None:
    """Byte equality with the recorded CSV; None when the seed has no record."""
    ref = entry["seeds"].get(str(seed)) if entry else None
    if ref is None:
        return None
    return csv_digest(csv_bytes) == ref["csv_sha256"]
