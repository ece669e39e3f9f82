"""Each algebra and each matrix scales itself to integers, and each algebra
computes its own invariants.

`LieAlgebra._scaled` and `Matrix._scaled` are the one place where a bracket
table or a whole matrix is scaled by its least common denominator, and
every other reader of those integers goes through them, so an object is
scaled once however many checks, invariants and steps read it.  In the same
way the center, the derived ideal, the lower central series and the ad
columns are cached properties of `LieAlgebra` (``_center``, ``_derived``,
``_series``, ``_columns``); a module-level function or import of one of
them, or of the retired ``_ad_columns`` and ``_index``, would compute them
a second way and is named here.

Read with `ast` over ``src/phq``: a call ``scaled(<expr>.entries)`` outside
`linalg.Matrix`, or a definition or import of a second holder of the same
integers (``scaled_table``, ``_Integers``, or ``_integers``, which scaled
a cocycle's values beside `linalg._scaled_sparse`), or of ``_ad_entries``,
a second reader of ad(x) beside `lie._twisted`, is named here.  A call on a
sum of several matrices' entries, as for D, F and s0 under one common
denominator, is not a whole matrix and passes.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "phq").glob("*.py"))
RETIRED = {"scaled_table", "_Integers", "_integers", "_ad_entries"}
INVARIANTS = {"_ad_columns", "_center", "_derived", "_series", "_index"}


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
    assert SOURCES and list(_findings()) == []


def _module_level_invariants():
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            where = f"{path.stem}:{node.lineno}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name for a in node.names] + [a.name for a in node.names]
            else:
                continue
            yield from (f"{where}: {name} at module level" for name in sorted(set(names) & INVARIANTS))


def test_only_the_algebra_computes_its_invariants():
    assert SOURCES and list(_module_level_invariants()) == []
