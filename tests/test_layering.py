"""Package layering: no module reaches into another module's private names."""

import ast
from pathlib import Path

import pytest

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
