"""Every ``from repro... import name`` in examples/, benchmarks/ and
scripts/ resolves.

No other test imports most of these files, so a name the package drops
while one of them still imports it would fail only when someone runs
that file. This reads each file's AST and runs none of them.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for directory in ("examples", "benchmarks", "scripts")
    for path in (REPO_ROOT / directory).rglob("*.py")
)


def repro_imports(path: Path) -> list[tuple[int, str, str]]:
    """``(line, module, name)`` for each name the file imports from repro."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module is not None
            and node.module.split(".")[0] == "repro"
        ):
            found += [(node.lineno, node.module, alias.name) for alias in node.names]
    return found


def resolves(module: str, name: str) -> bool:
    """``from module import name`` would succeed: an attribute, or a
    submodule of a package."""
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_the_walk_finds_the_imports():
    assert sum(len(repro_imports(path)) for path in FILES) > 150


@pytest.mark.parametrize(
    "path", FILES, ids=lambda path: path.relative_to(REPO_ROOT).as_posix()
)
def test_repro_imports_resolve(path):
    missing = [
        f"{path.name}:{line}: from {module} import {name}"
        for line, module, name in repro_imports(path)
        if not resolves(module, name)
    ]
    assert not missing
