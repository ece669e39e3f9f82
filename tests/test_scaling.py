"""Each algebra and each matrix scales itself to integers.

`LieAlgebra._scaled` and `Matrix._scaled` are the one place where a bracket
table or a whole matrix is scaled by its least common denominator, and
every other reader of those integers goes through them, so an object is
scaled once however many checks, invariants and steps read it.

Read with `ast` over ``src/phq``: a call ``scaled(<expr>.entries)`` outside
`linalg.Matrix`, or a definition or import of a second holder of the same
integers (``scaled_table``, ``_Integers``), is named here.  A call on a sum
of several matrices' entries, as for D, F and s0 under one common
denominator, is not a whole matrix and passes.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "phq").glob("*.py"))
RETIRED = {"scaled_table", "_Integers"}


def _matrix_nodes(tree):
    """The nodes inside the class `Matrix`."""
    return {
        id(node)
        for top in tree.body
        if isinstance(top, ast.ClassDef) and top.name == "Matrix"
        for node in ast.walk(top)
    }


def _findings():
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owned = _matrix_nodes(tree) if path.stem == "linalg" else set()
        for node in ast.walk(tree):
            where = f"{path.stem}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in RETIRED:
                yield f"{where}: defines {node.name}"
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in RETIRED:
                yield f"{where}: defines {node.id}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from (f"{where}: imports {a.name}" for a in node.names if a.name in RETIRED)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "scaled"
                and node.args
                and isinstance(node.args[0], ast.Attribute)
                and node.args[0].attr == "entries"
                and id(node) not in owned
            ):
                yield f"{where}: scales {ast.unparse(node.args[0])} outside Matrix"


def test_only_the_owner_scales():
    assert list(_findings()) == []
