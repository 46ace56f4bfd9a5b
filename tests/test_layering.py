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
