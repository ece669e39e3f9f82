"""The library imports nothing beyond the standard library, the test
oracles import nothing from the library, and no test file imports a test
module."""

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "phq").glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    outside = [m for m in absolute_imports(path) if m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


def test_oracles_import_nothing_from_phq():
    # the oracles cross-check the library, so they must not share its code
    from_phq = [m for m in absolute_imports(TESTS / "oracles.py") if m.split(".")[0] == "phq"]
    assert not from_phq, f"oracles.py imports {from_phq}"


def test_no_test_file_imports_a_test_module():
    # shared inputs live in conftest.py, oracles in oracles.py
    found = {}
    for path in sorted(TESTS.glob("*.py")):
        if modules := [m for m in absolute_imports(path) if m.split(".")[0].startswith("test_")]:
            found[path.name] = modules
    assert not found, f"test modules imported: {found}"


def test_sources_found():
    assert len(SOURCES) > 5
