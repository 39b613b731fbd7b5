"""Packaging: ``pip install`` of the project pulls in everything it imports."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _third_party_imports() -> set:
    """Top-level names of the absolute imports under ``src/repro`` that are
    neither the standard library nor the package itself."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return {
        _normalise(name)
        for name in names - set(sys.stdlib_module_names) - {"repro"}
    }


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_third_party_imports_are_the_declared_dependencies():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    declared = {
        _normalise(re.match(r"[A-Za-z0-9_.-]+", requirement).group(0))
        for requirement in requirements
    }
    assert _third_party_imports() == declared
