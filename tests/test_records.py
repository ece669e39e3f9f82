"""The record classes of the library: frozen values compared by their fields.

Every non-exception class of ``phq`` is a record, but for `Record` itself
and `kept`, the descriptor of a value a record computes once.  Its fields
are fixed at construction, ``==`` and ``hash`` follow the tuple of its
fields, another class never compares equal, assigning or deleting an
attribute raises `AttributeError`, and ``repr`` is ``Name(field=value, ...)``.
"""

import hashlib
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import phq
from phq import (
    CatalogLabel,
    Check,
    Cocycle,
    InequivalenceEvidence,
    JClassification,
    LieAlgebra,
    Matrix,
    Report,
    Subspace,
    build,
    classify,
    find_central_pair,
    fingerprint,
    full_reduction,
    j_class,
    parse_recipe_text,
    truncated_poly,
)
from phq.cli import main

from conftest import FIXTURES

# the fields of each record in order
FIELDS = {
    "Check": "label failures",
    "Report": "parts",
    "Matrix": "rows cols entries",
    "Subspace": "ambient_dim echelon",
    "LieAlgebra": "basis_names brackets",
    "PHQAlgebra": "algebra j phi",
    "JClassification": "abelian bi_invariant",
    "Fingerprint": "dim dim_derived dim_center nilpotency_index sig_phi sig_phi_on_derived",
    "ExtensionData": "base d f s0",
    "Cocycle": "dim values",
    "CommutativeAlgebra": "basis_names products form",
    "CentralPair": "subspace z in_derived",
    "ReductionStep": "kind z v sign recovered extension_data adapted_basis",
    "ReductionResult": "steps residue",
    "CatalogLabel": "factors",
    "Classification": "label fingerprint reduction",
    "InequivalenceEvidence": "field value_a value_b",
    "Recipe": "tree",
}

MODULES = ("checks", "linalg", "lie", "structures", "constructions", "reduction", "catalog", "fileformat")


def fields(name):
    return FIELDS[name].split()


@cache
def samples():
    """Two unequal instances of each record class, by class name."""
    l42, l24 = build("L(4,2)"), build("L(2,4)")
    r42, r24 = full_reduction(l42), full_reduction(l24)
    data = r42.steps[0].extension_data
    recipe = parse_recipe_text((FIXTURES / "tstar_theta3.recipe").read_text())
    return {
        "Check": (Check("a", ("x",)), Check("a")),
        "Report": (Report((Check("a"),)), Report(())),
        "Matrix": (Matrix.identity(2), Matrix.zero(2)),
        "Subspace": (Subspace.span(2, [[1, 2]]), Subspace(2, ())),
        "LieAlgebra": (LieAlgebra(("e1", "e2", "e3"), {(0, 1): {2: 1}}), LieAlgebra.abelian(3)),
        "PHQAlgebra": (l42, l24),
        "JClassification": (JClassification(True, False), j_class(l42.algebra, l42.j)),
        "Fingerprint": (fingerprint(l42), fingerprint(l24)),
        "ExtensionData": (data, r24.steps[0].extension_data),
        "Cocycle": (Cocycle.zero(2), Cocycle(4, {(0, 1): {2: 1}})),
        "CommutativeAlgebra": (truncated_poly(2), truncated_poly(3)),
        "CentralPair": (find_central_pair(l42), find_central_pair(build("Tstar0K"))),
        "ReductionStep": (r42.steps[0], r24.steps[0]),
        "ReductionResult": (r42, r24),
        "CatalogLabel": (CatalogLabel(("R(0,2)", "L(4,2)")), CatalogLabel(("L(4,2)",))),
        "Classification": (classify(l42), classify(l24)),
        "InequivalenceEvidence": (InequivalenceEvidence("dim", 4, 6), InequivalenceEvidence(None)),
        "Recipe": (recipe, parse_recipe_text((FIXTURES / "lorentz_ext.recipe").read_text())),
    }


def test_every_class_of_the_library_is_listed():
    found = set()
    for module in MODULES:
        namespace = vars(getattr(phq, module))
        for name, value in namespace.items():
            if isinstance(value, type) and value.__module__ == f"phq.{module}":
                if not issubclass(value, BaseException) and name not in ("Record", "kept"):
                    found.add(name)
    assert found == set(FIELDS)


@pytest.mark.parametrize("name", FIELDS)
def test_equality_and_hash_follow_the_fields(name):
    a, b = samples()[name]
    cls = type(a)
    assert cls.__name__ == name
    values = [getattr(a, f) for f in fields(name)]
    same, by_keyword = cls(*values), cls(**dict(zip(fields(name), values)))
    assert same == a and by_keyword == a and not same != a
    assert a != b and not a == b
    key = tuple(getattr(a, f) for f in fields(name))
    try:
        expected = hash(key)
    except TypeError:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(same) == expected


@pytest.mark.parametrize("name", FIELDS)
def test_another_class_compares_unequal(name):
    a = samples()[name][0]
    key = tuple(getattr(a, f) for f in fields(name))
    assert a.__eq__(key) is NotImplemented and a != key
    others = [pair[0] for other, pair in samples().items() if other != name]
    assert all(a.__eq__(o) is NotImplemented and a != o for o in others)


@pytest.mark.parametrize("name", FIELDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = samples()[name][0]
    for f in fields(name):
        before = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is before
    with pytest.raises(AttributeError):
        a.unknown_attribute = 1
    assert not hasattr(a, "unknown_attribute")


@pytest.mark.parametrize("name", FIELDS)
def test_repr_names_the_shown_fields(name):
    for a in samples()[name]:
        inner = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields(name))
        assert repr(a) == f"{name}({inner})"


def test_repr_strings():
    s = samples()
    assert repr(s["Check"][0]) == "Check(label='a', failures=('x',))"
    assert repr(s["Report"][0]) == "Report(parts=(Check(label='a', failures=()),))"
    assert repr(s["Matrix"][0]) == (
        "Matrix(rows=2, cols=2, entries=(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)))"
    )
    assert repr(s["Subspace"][0]) == "Subspace(ambient_dim=2, echelon=((1, (1, 2)),))"
    assert repr(s["LieAlgebra"][0]) == (
        "LieAlgebra(basis_names=('e1', 'e2', 'e3'), brackets={(0, 1): {2: Fraction(1, 1)}})"
    )
    assert repr(s["CatalogLabel"][0]) == "CatalogLabel(factors=('L(4,2)', 'R(0,2)'))"
    assert repr(s["InequivalenceEvidence"][0]) == "InequivalenceEvidence(field='dim', value_a=4, value_b=6)"
    assert repr(s["JClassification"][0]) == "JClassification(abelian=True, bi_invariant=False)"
    assert repr(s["Fingerprint"][0]) == (
        "Fingerprint(dim=6, dim_derived=3, dim_center=3, nilpotency_index=3, sig_phi=(4, 2), "
        "sig_phi_on_derived=(1, 0))"
    )
    assert repr(s["Cocycle"][0]) == "Cocycle(dim=2, values={})"
    assert repr(s["Recipe"][0]) == (
        "Recipe(tree={'op': 'tstar', 'base': {'op': 'kodaira'}, 'theta': ['0', '0', '1', '0']})"
    )
    digests = {
        name: hashlib.sha256(repr(s[name][0]).encode()).hexdigest()
        for name in ("ReductionResult", "Classification")
    }
    assert digests == {
        "ReductionResult": "76032fa796515d01d4418d73f9a7f4357c3fd980c1ed313a1bcd56959d3879f3",
        "Classification": "8f5763233ae40200e052e3efa0ec34042dded24fd39a210e68e0c092318dc9c3",
    }


def test_no_record_holds_a_callable():
    for name, pair in samples().items():
        for a in pair:
            assert not any(callable(getattr(a, f)) for f in fields(name)), name
    # a recipe is its tree; `dim` and `evaluate` read the tree
    recipe = samples()["Recipe"][0]
    with pytest.raises(TypeError):
        type(recipe)(recipe.tree, lambda: None)
    assert type(recipe)(recipe.tree).evaluate() == build("TstarTheta3K")


@pytest.mark.parametrize(
    "verdict, passed",
    [
        (Check("a"), True),
        (Check("a", ("x",)), False),
        (Report((Check("a"), Check("b"))), True),
        (Report((Check("a"), Check("b", ("x",)))), False),
    ],
    ids=["check_ok", "check_fails", "report_ok", "report_fails"],
)
def test_a_verdict_is_true_exactly_when_it_passes(verdict, passed):
    assert bool(verdict) is passed
    assert verdict.ok is passed


def test_fields_with_defaults():
    assert Check("a").failures == ()
    assert InequivalenceEvidence(None) == InequivalenceEvidence(None, None, None)
    with pytest.raises(TypeError):
        Check()
    with pytest.raises(TypeError):
        Check("a", (), "extra")
    with pytest.raises(TypeError):
        Check("a", label="b")
    with pytest.raises(TypeError):
        Check("a", unknown=())


def test_fingerprint_tuple_and_json_document(capsys):
    fp = fingerprint(build("L(4,2)"))
    assert fp.as_tuple() == (6, 3, 3, 3, (4, 2), (1, 0))
    assert main(["--format", "json", "invariants", str(FIXTURES / "L42.alg")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "dim": 6,
        "dim_center": 3,
        "dim_derived": 3,
        "nilpotency_index": 3,
        "sig_phi": [4, 2],
        "sig_phi_on_derived": [1, 0],
    }
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_cli_import_loads_every_layer_and_no_code_generators():
    # `perfbench` wraps functions of all eight layers once `phq.cli` is
    # imported, reading each from `sys.modules`; there `catalog`,
    # `constructions` and `reduction` are lazy modules, which run on that
    # first read.  `dataclasses` and `inspect` cost every child process a
    # few milliseconds of start-up and are not needed
    code = (
        "import sys, types, phq.cli; print(' '.join(sorted(sys.modules)));"
        "print(' '.join(sorted(n for n, m in sys.modules.items() if n.startswith('phq')"
        " and type(m) is not types.ModuleType)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    loaded, lazy = out.stdout.split("\n")[:2]
    modules = set(loaded.split())
    layers = ("linalg", "lie", "structures", "reduction", "catalog", "constructions", "fileformat", "cli")
    assert {f"phq.{m}" for m in layers} <= modules
    assert lazy.split() == ["phq.catalog", "phq.constructions", "phq.reduction"]
    assert "dataclasses" not in modules and "inspect" not in modules
