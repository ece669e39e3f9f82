"""Every public name of the library has a reader, and every name the
README's Library tour gives is real.

A public module-level function or class of ``src/phq`` must be used by
library code outside its own definition, named in backticks in the README,
or wrapped by the benchmark (`perfbench/spans.py` ``SPANS``).  A name that
meets none of these is dead public code, and this test names it.

Uses are read with `ast`: a load of the name, or an attribute of that name,
anywhere in ``src/phq`` except inside the definition itself.  Imports do not
count, so the re-exports of ``phq/__init__`` keep nothing alive.
"""

import ast
import importlib
import re
from types import FunctionType

from conftest import ROOT
from spans import SPANS  # perfbench/, on the path through conftest

SOURCES = sorted((ROOT / "src" / "phq").glob("*.py"))


def _definitions():
    """(module, name) of every public module-level function and class."""
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def _uses():
    """(module, owner, name) for every name loaded in the library, where
    owner is the module-level definition the load sits in, or None."""
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    yield path.stem, owner, node.id
                elif isinstance(node, ast.Attribute):
                    yield path.stem, owner, node.attr


def _readme_names():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.DOTALL)
    return {name for span in re.findall(r"`([^`]+)`", text) for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_has_a_reader():
    used = {}
    for module, owner, name in _uses():
        used.setdefault(name, set()).add((module, owner))
    readme = _readme_names()
    spans = {(layer, qual.split(".")[0]) for layer, quals in SPANS.items() for qual in quals}
    unread = [
        f"{module}.{name}"
        for module, name in _definitions()
        if not (used.get(name, set()) - {(module, name)})
        and name not in readme
        and (module, name) not in spans
    ]
    assert unread == []


# words in the tour's backticks that are not names of its module
TOUR_WORDS = {"hash", "repr", "phq"}


def test_the_library_tour_names_real_code():
    # the other direction: each name a `phq.<module>` bullet of the README's
    # Library tour gives in backticks is an attribute of that module, and a
    # function or class is defined there, not only imported, so a tour that
    # lists a moved name under its old module fails
    tour = re.findall(r"^- `phq\.(\w+)`:(.*)$", (ROOT / "README.md").read_text(), flags=re.MULTILINE)
    assert len(tour) == 9
    wrong = []
    for module, line in tour:
        namespace = importlib.import_module(f"phq.{module}")
        for span in re.findall(r"`(\w+)`", line):
            if span in TOUR_WORDS:
                continue
            if not hasattr(namespace, span):
                wrong.append(f"{module}.{span}: missing")
                continue
            obj = getattr(namespace, span)
            if isinstance(obj, (type, FunctionType)) and obj.__module__ != f"phq.{module}":
                wrong.append(f"{module}.{span}: defined in {obj.__module__}")
    assert wrong == []
