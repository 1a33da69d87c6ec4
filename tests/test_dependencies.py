"""The package imports only the standard library and its one dependency."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import loopstress

PACKAGE = Path(loopstress.__file__).resolve().parent

# pyproject.toml declares numpy alone; scipy is often installed beside it
# and must stay unused.
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "loopstress"}


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of every absolute import in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "analysis.py" in sources
    foreign = {
        path.name: sorted(absolute_imports(path) - ALLOWED) for path in sources
    }
    assert {name: found for name, found in foreign.items() if found} == {}

