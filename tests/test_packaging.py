"""The runtime dependencies pyproject.toml declares are the ones the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "setcircuits"


def _third_party_imports() -> set[str]:
    """Top-level names of the absolute imports in the package outside the stdlib."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update(n.partition(".")[0] for n in names)
    return found - set(sys.stdlib_module_names) - {PACKAGE.name}


def _declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # "numpy>=1.24" -> "numpy"; distribution names compare as module names
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project.get("dependencies", [])
    }


def test_declared_dependencies_match_imports():
    imported, declared = _third_party_imports(), _declared_dependencies()
    assert not imported - declared, f"imported but not declared: {sorted(imported - declared)}"
    assert not declared - imported, f"declared but not imported: {sorted(declared - imported)}"
