"""Every third-party package the source imports is a declared dependency.

A clean ``pip install .`` installs only ``[project] dependencies``; an
import missing from that list passes every test in a developer environment
and then dies at ``import repro.cli`` on a fresh machine.  This walks every
import statement under ``src/repro`` (top level or inside functions) and
checks its top-level package against ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

REPO_ROOT = Path(__file__).resolve().parents[2]


def _imported_packages() -> dict[str, set[str]]:
    """Top-level third-party package name -> the source files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                package = name.split(".")[0]
                if package != "repro" and package not in sys.stdlib_module_names:
                    found.setdefault(package, set()).add(str(path.relative_to(REPO_ROOT)))
    return found


def _declared_distributions() -> set[str]:
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower().replace("_", "-")
        for requirement in project["dependencies"]
    }


def test_every_third_party_import_is_declared():
    declared = _declared_distributions()
    imported = _imported_packages()
    missing = {
        package: sorted(files)
        for package, files in imported.items()
        if package.lower() not in declared
    }
    assert not missing, f"imported but not in [project] dependencies: {missing}"


def test_numpy_is_the_only_runtime_dependency():
    """Guard the scan itself (it must find numpy), and the install: numpy is
    all a clean ``pip install .`` pulls in.  networkx is a test-only oracle
    (the ``test`` extra); routing is stdlib."""
    assert set(_imported_packages()) == {"numpy"}
    assert _declared_distributions() == {"numpy"}
