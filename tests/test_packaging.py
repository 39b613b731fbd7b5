"""Packaging and dependency hygiene.

``pip install`` of the project pulls in everything it imports, the ``[test]``
extra everything the tests, benchmarks and examples import, and ``import
repro`` loads no third-party package but numpy.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: The directories whose imports the ``[test]`` extra must cover.
TEST_TREES = ("tests", "benchmarks", "examples")


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _third_party_imports(directories: Iterable[Path], local: Iterable[str] = ()) -> set:
    """Top-level names of the absolute imports under ``directories`` that are
    neither the standard library, the package itself nor one of ``local``."""
    names = set()
    for directory in directories:
        for path in directory.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                    names.add(node.module.split(".")[0])
    return {
        _normalise(name)
        for name in names - set(sys.stdlib_module_names) - {"repro"} - set(local)
    }


def _project() -> dict:
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def _requirement_names(requirements: Iterable[str]) -> set:
    return {
        _normalise(re.match(r"[A-Za-z0-9_.-]+", requirement).group(0))
        for requirement in requirements
    }


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_third_party_imports_are_the_declared_dependencies():
    declared = _requirement_names(_project()["dependencies"])
    assert _third_party_imports([ROOT / "src" / "repro"]) == declared


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_test_extra_covers_the_test_benchmark_and_example_imports():
    """A clean runner installs ``.[test]`` only: anything else they import is missing there."""
    project = _project()
    covered = _requirement_names(project["dependencies"]) | _requirement_names(
        project["optional-dependencies"]["test"]
    )
    trees = [ROOT / tree for tree in TEST_TREES]
    local = {path.stem for tree in trees for path in tree.rglob("*.py")}
    missing = _third_party_imports(trees, local) - covered
    assert not missing, f"imported but not installed by .[test]: {sorted(missing)}"


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="sys.stdlib_module_names is Python 3.10+"
)
def test_import_repro_loads_no_third_party_package_but_numpy():
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import repro\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    source = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source if not path else source + os.pathsep + path}
    completed = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    added = set(json.loads(completed.stdout))
    top_level = {name.split(".")[0] for name in added} - {"__main__", "__mp_main__"}
    third_party = top_level - set(sys.stdlib_module_names) - {"repro", "numpy"}
    assert not third_party, f"import repro loads {sorted(third_party)}"
    assert "http.server" not in added
