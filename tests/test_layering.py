"""Package layering: no module reaches into another module's private names,
a trial runs without scipy, and a serial run without the process pool."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zakotfs import _lapack

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zakotfs"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """Cross-module uses of underscore names: `from .m import _x`, `m._x`."""
    tree = ast.parse(source)
    found = []
    modules = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "zakotfs"
            if not ours:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif node.module is None or (node.level == 0 and node.module == "zakotfs"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "zakotfs":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    """A name left in __all__ after its definition is gone fails here."""
    name = "zakotfs" if path.stem == "__init__" else f"zakotfs.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []

@pytest.mark.parametrize("source", [
    "from .runner import _make_tx\n",
    "from zakotfs.runner import run_trial, _trial_rng\n",
    "from . import runner\nrunner._make_tx()\n",
    "import zakotfs.runner as r\nr._trial_rng()\n",
])
def test_checker_flags_private_uses(source):
    assert private_uses(source)


def test_checker_allows_public_and_dunder_names():
    source = ("from .runner import run_trial\nfrom . import svg\n"
              "svg.line_chart\nsvg.__name__\nself._x = 1\n")
    assert private_uses(source) == []


# Per-process memos go through zak.memo, which freezes what it caches.
_MEMO_FACTORIES = {"lru_cache", "cache"}


def memo_factory_uses(source: str, allowed_in: str | None = None) -> list[str]:
    """Uses of functools' memo factories outside the function allowed_in."""
    tree = ast.parse(source)
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == allowed_in
              for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in _MEMO_FACTORIES and id(node) not in inside:
            found.append(f"line {node.lineno}: uses {name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_lru_cache_only_inside_zak_memo(path):
    allowed_in = "memo" if path.name == "zak.py" else None
    assert memo_factory_uses(path.read_text(encoding="utf-8"), allowed_in) == []


@pytest.mark.parametrize("source", [
    "from functools import lru_cache\n@lru_cache(maxsize=8)\ndef f(): pass\n",
    "import functools\n@functools.cache\ndef f(): pass\n",
    "from functools import lru_cache\ndef memo(): pass\nlru_cache(1)(print)\n",
])
def test_memo_checker_flags_direct_caches(source):
    assert memo_factory_uses(source, "memo")


# One 16x16 trial per shaping branch, with sync and a fractional-delay
# path, so every transform and the equalizer's band solve run, then one
# serial sweep that writes its outputs.  With --without-scipy, scipy
# cannot be imported and the selftest runs first.
_TRIAL_SCRIPT = """
import json
import shutil
import sys
import tempfile
if "--without-scipy" in sys.argv:
    sys.modules["scipy"] = None
import zakotfs.cli
from zakotfs import _lapack
from zakotfs.config import config_from_dict
from zakotfs.runner import run_trial, sweep
# Modules a serial run must never load: the process pool, and numpy.ma,
# which np.unique brings in.
_UNUSED = {"multiprocessing", "concurrent.futures.process", "numpy.ma"}
if "--without-scipy" in sys.argv:
    assert zakotfs.cli.main(["selftest"]) == 0
raw = {
    "config_version": 1,
    "frame": {"m": 16, "n": 16, "tau_p_s": 1 / 30e3, "nu_p_hz": 30e3, "pilot_amp": 8.0},
    "layout": {"tau_max_bins": 2.5, "dt_margin_bins": 1.0},
    "shape": {"family": "rrc", "beta": 0.5, "w1_span": None, "oversampling": 4},
    "channel": {"paths": [{"delay_bins": 0},
                          {"delay_bins": 1.3, "doppler_bins": 1, "gain_db": -3}],
                "cfo_hz": 200.0},
    "run": {"constellation": 4, "snr_db": [15], "trials": 1, "base_seed": 2024,
            "sync": True},
}
for span in (None, 16):
    raw["shape"]["w1_span"] = span
    run_trial(config_from_dict(raw), 0)
out = tempfile.mkdtemp()
raw["run"].update(trials=2, workers=1)
raw["output"] = {"csv": out + "/ber.csv", "curve_svg": out + "/ber.svg",
                 "constellation_prefix": out + "/const_"}
sweep(config_from_dict(raw), emit=True)
shutil.rmtree(out)
print(json.dumps({"resolved": _lapack._foreign() is not None,
                  "scipy": sorted(name for name in sys.modules if name.startswith("scipy")),
                  "unused": sorted(name for name in sys.modules if name in _UNUSED)}))
"""


def _run_trials(*args: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent) + (os.pathsep + path if path else ""))
    run = subprocess.run([sys.executable, "-c", _TRIAL_SCRIPT, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_a_trial_loads_no_scipy():
    """numpy.fft is the package's FFT front end and numpy's LAPACK solves
    the band; only a numpy whose LAPACK exports no known zpbsv name
    brings in scipy.linalg, and never scipy.fft or scipy.special."""
    seen = _run_trials()
    if seen["resolved"]:
        assert seen["scipy"] == []
    else:
        assert not [name for name in seen["scipy"]
                    if name.startswith(("scipy.fft", "scipy.special"))]


def test_a_serial_run_loads_no_process_pool_or_numpy_ma():
    """Only sweep's workers > 1 branch imports the pool."""
    assert _run_trials()["unused"] == []


def test_selftest_and_trials_run_without_scipy():
    if _lapack._foreign() is None:
        pytest.skip("numpy's LAPACK exports no known zpbsv name; scipy solves the band")
    assert _run_trials("--without-scipy") == {"resolved": True, "scipy": ["scipy"],
                                              "unused": []}
