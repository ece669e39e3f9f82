import errno
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

import phq
import phq.cli
import phq.fileformat
from phq import LieAlgebra, PHQAlgebra, ReductionResult, ReductionStep, UnclassifiedFingerprint, build, classify
from phq.checks import PhqError
from phq.cli import main
from phq.fileformat import (
    MAX_DIM,
    MAX_RECIPE_DEPTH,
    BadRational,
    IndexOutOfRange,
    ParseError,
    parse_algebra_text,
    parse_recipe_text,
    parse_path,
    serialize_algebra,
)

from conftest import ALL_LABELS, FIXTURES, child, transported


MINIMAL = json.dumps(
    {
        "dim": 2,
        "basis": ["e1", "e2"],
        "brackets": [],
        "J": [["0", "-1"], ["1", "0"]],
        "phi": [["1", "0"], ["0", "1"]],
    }
)

# A four-dimensional table that breaks Jacobi, j^2 = -I, the torsion,
# ad-invariance and compatibility at once; symmetry and nondegeneracy hold.
BROKEN = {
    "dim": 4,
    "basis": ["e1", "e2", "e3", "e4"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"0": "1"}},
        {"i": 0, "j": 2, "coeffs": {"1": "1"}},
    ],
    "J": [
        ["0", "-1", "0", "0"],
        ["1", "0", "0", "0"],
        ["0", "0", "0", "-2"],
        ["0", "0", "1", "0"],
    ],
    "phi": [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ],
}

BROKEN_CHECK_TEXT = """\
Jacobi: FAIL
  - Jacobi fails on (e1, e2, e3): residual -e2
J^2: FAIL
  - j^2 != -I
Nijenhuis: FAIL
  - N(e1, e3) = e2
  - N(e1, e4) = 2*e1
  - N(e2, e3) = e1
  - N(e2, e4) = -2*e2
symmetric: ok
nondegenerate: ok
ad-invariant: FAIL
  - ad-invariance fails on (e1, e1, e2)
  - ad-invariance fails on (e1, e2, e1)
  - ad-invariance fails on (e1, e2, e3)
  - ad-invariance fails on (e1, e3, e2)
  - ad-invariance fails on (e2, e1, e1)
  - ad-invariance fails on (e3, e1, e2)
  - ad-invariance fails on (e3, e2, e1)
J-compatible: FAIL
  - phi(jx, jy) != phi(x, y)
  - j is not phi-skewsymmetric
"""

BROKEN_CHECK_JSON = """\
{
  "axioms": {
    "J-compatible": {
      "failures": [
        "phi(jx, jy) != phi(x, y)",
        "j is not phi-skewsymmetric"
      ],
      "ok": false
    },
    "J^2": {
      "failures": [
        "j^2 != -I"
      ],
      "ok": false
    },
    "Jacobi": {
      "failures": [
        "Jacobi fails on (e1, e2, e3): residual -e2"
      ],
      "ok": false
    },
    "Nijenhuis": {
      "failures": [
        "N(e1, e3) = e2",
        "N(e1, e4) = 2*e1",
        "N(e2, e3) = e1",
        "N(e2, e4) = -2*e2"
      ],
      "ok": false
    },
    "ad-invariant": {
      "failures": [
        "ad-invariance fails on (e1, e1, e2)",
        "ad-invariance fails on (e1, e2, e1)",
        "ad-invariance fails on (e1, e2, e3)",
        "ad-invariance fails on (e1, e3, e2)",
        "ad-invariance fails on (e2, e1, e1)",
        "ad-invariance fails on (e3, e1, e2)",
        "ad-invariance fails on (e3, e2, e1)"
      ],
      "ok": false
    },
    "nondegenerate": {
      "failures": [],
      "ok": true
    },
    "symmetric": {
      "failures": [],
      "ok": true
    }
  },
  "ok": false
}
"""


# A bracket entry whose indices are filled in by the boolean-index cases.
BOOL_INDEX = '"brackets": [{{"i": {i}, "j": {j}, "coeffs": {{"1": "1"}}}}]'


def load_script(name: str):
    path = FIXTURES.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nested_recipe(depth: int, leaf: str = '{"op": "L(4,2)"}') -> str:
    """A chain of ``depth`` nodes: complexify around complexify ... around ``leaf``."""
    return '{"op": "complexify", "base": ' * (depth - 1) + leaf + "}" * (depth - 1)


L42 = {"op": "L(4,2)"}
ZERO6 = [["0"] * 6 for _ in range(6)]
TSTAR = {"op": "tstar", "theta": ["0", "0", "1", "0"]}


def ext(**fields) -> dict:
    """A well-formed phq_ext node over L(4,2), with ``fields`` replaced."""
    return {"op": "phq_ext", "base": L42, "D": ZERO6, "F": ZERO6, "s0": ["0"] * 6, **fields}


# One malformed recipe per ParseError branch of the recipe grammar, and the
# exact message each gives.
MALFORMED_RECIPES = {
    "bad_json": ("{", "invalid JSON: Expecting property name enclosed in double quotes (line 1, column 2)"),
    "too_deep": (nested_recipe(MAX_RECIPE_DEPTH + 1), "recipe is nested deeper than 32 nodes"),
    # a tstar's implicit kodaira base counts as a node
    "too_deep_carrier": (
        nested_recipe(MAX_RECIPE_DEPTH, json.dumps(TSTAR)),
        "recipe is nested deeper than 32 nodes",
    ),
    "not_object": ([], "recipe: each node needs an 'op' field"),
    "unknown_op": ({"op": "L(4,4)"}, "recipe: unknown op 'L(4,4)'"),
    "unhashable_op": ({"op": []}, "recipe: unknown op []"),
    "abelian_negative": (
        {"op": "abelian", "p": -2, "q": 2},
        "recipe: abelian needs nonnegative integer 'p'",
    ),
    "abelian_odd": (
        {"op": "abelian", "p": 2, "q": 1},
        "recipe: abelian needs even p and q, not both zero",
    ),
    "direct_sum_one_arg": ({"op": "direct_sum", "args": [L42]}, "recipe: direct_sum needs at least two args"),
    "direct_sum_bad_arg": ({"op": "direct_sum", "args": [L42, {"op": "x"}]}, "recipe.args[1]: unknown op 'x'"),
    "kodaira": ({"op": "kodaira"}, "recipe: the kodaira carrier has no metric; wrap it in 'tstar'"),
    "theta_length": ({"op": "tstar", "theta": ["1", "0", "0"]}, "recipe: tstar needs a list of 4 coefficients"),
    "theta_float": (
        {**TSTAR, "theta": [0.5, "0", "0", "0"]},
        "recipe.theta[0]: scalars must be exact rational strings, got 0.5",
    ),
    "theta_decimal": ({**TSTAR, "theta": ["0", "0", "1.5", "0"]}, "recipe.theta[2]: not a rational: '1.5'"),
    "tstar_base": ({**TSTAR, "base": L42}, "recipe: tstar is defined over the kodaira carrier"),
    "ext_no_D": (ext(D=None), "recipe: phq_ext needs matrix 'D'"),
    "ext_no_s0": (ext(s0={}), "recipe: phq_ext needs vector 's0'"),
    "ext_D_rows": (ext(D=[["x"]]), "recipe.D: expected 6 rows"),
    "ext_F_row": (ext(F=ZERO6[:3] + [["0"] * 5] + ZERO6[4:]), "recipe.F: row 3 must have 6 entries"),
    "ext_D_scalar": (
        ext(D=ZERO6[:1] + [["0", "x", "0", "0", "0", "0"]] + ZERO6[2:]),
        "recipe.D[1]: not a rational: 'x'",
    ),
    "ext_s0_length": (ext(s0=["0"] * 5), "recipe: s0 must have length 6"),
    "ext_s0_scalar": (ext(s0=["0"] * 5 + ["1.0"]), "recipe.s0[5]: not a rational: '1.0'"),
    "ext_nested_s0_length": (
        {"op": "direct_sum", "args": [L42, ext(s0=["0"] * 5)]},
        "recipe.args[1]: s0 must have length 6",
    ),
    "tensor_k": ({"op": "tensor", "base": L42, "k": 0}, "recipe: tensor needs integer k >= 1"),
    "complexify_no_base": ({"op": "complexify"}, "recipe.base: each node needs an 'op' field"),
    "oversized": (
        {"op": "tensor", "base": L42, "k": 100000},
        "recipe builds an algebra of dimension 600000, above 64",
    ),
}


def minimal(**fields) -> str:
    """MINIMAL with ``fields`` replaced."""
    return json.dumps({**json.loads(MINIMAL), **fields})


# One malformed `.alg` text per ParseError branch of the algebra grammar that
# the other tests leave out, and the exact message each gives.
MALFORMED_ALGEBRAS = {
    "not_object": ("[]", "algebra file must be a JSON object"),
    "missing_field": (
        json.dumps({k: v for k, v in json.loads(MINIMAL).items() if k != "phi"}),
        "missing field 'phi'",
    ),
    "basis_length": (minimal(basis=["e1"]), "basis must list dim names"),
    "brackets_object": (minimal(brackets={}), "brackets must be a list"),
    "entry_fields": (minimal(brackets=[{"i": 0, "j": 1}]), "brackets[0]: needs fields i, j, coeffs"),
    "duplicate": (
        minimal(brackets=[{"i": 0, "j": 1, "coeffs": {"0": "1"}}, {"i": 0, "j": 1, "coeffs": {"1": "1"}}]),
        "brackets[1]: duplicate bracket (0,1)",
    ),
    "coeffs_list": (minimal(brackets=[{"i": 0, "j": 1, "coeffs": []}]), "brackets[0]: coeffs must be an object"),
    "coeff_index": (
        minimal(brackets=[{"i": 0, "j": 1, "coeffs": {"2": "1"}}]),
        "brackets[0]: coefficient index 2 out of range",
    ),
}


class TestParsing:
    def test_minimal_abelian_file(self):
        p = parse_algebra_text(MINIMAL)
        assert p.dim == 2
        assert p.algebra.derived_ideal().dim == 0

    def test_equal_indices_rejected(self):
        doc = json.loads(MINIMAL)
        doc["brackets"] = [{"i": 0, "j": 0, "coeffs": {"1": "1"}}]
        with pytest.raises(ParseError):
            parse_algebra_text(json.dumps(doc))

    def test_out_of_range_index(self):
        doc = json.loads(MINIMAL)
        doc["brackets"] = [{"i": 0, "j": 5, "coeffs": {"1": "1"}}]
        with pytest.raises(IndexOutOfRange):
            parse_algebra_text(json.dumps(doc))

    def test_one_fraction_per_distinct_scalar(self, monkeypatch):
        # a dense transport repeats most of its scalar strings
        text = serialize_algebra(transported(build("TstarTheta3K"), random.Random(0)))
        doc = json.loads(text)
        scalars = [v for entry in doc["brackets"] for v in entry["coeffs"].values()]
        scalars += [v for name in ("J", "phi") for row in doc[name] for v in row]
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(phq.fileformat, "Fraction", counting)
        p = parse_algebra_text(text)
        assert len(made) == len(set(scalars)) < len(scalars)
        assert serialize_algebra(p) == text

    def test_repeated_bad_scalar_named_at_first_position(self, tmp_path, capsys):
        doc = json.loads((FIXTURES / "L42.alg").read_text())
        doc["J"][1][0] = doc["phi"][2][2] = "1/0"
        with pytest.raises(BadRational, match=r"^J\[1\]: not a rational: '1/0'$"):
            parse_algebra_text(json.dumps(doc))
        bad = tmp_path / "twice.alg"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        assert "J[1]: not a rational: '1/0'" in capsys.readouterr().err

    def test_decimal_scalar_rejected(self):
        doc = json.loads(MINIMAL)
        doc["phi"] = [[0.5, "0"], ["0", "1"]]
        with pytest.raises(BadRational):
            parse_algebra_text(json.dumps(doc))

    def test_json_integer_scalars(self, tmp_path, capsys):
        # every scalar of L42.alg written as a bare JSON integer
        doc = json.loads((FIXTURES / "L42.alg").read_text())
        for entry in doc["brackets"]:
            entry["coeffs"] = {k: int(v) for k, v in entry["coeffs"].items()}
        for name in ("J", "phi"):
            doc[name] = [[int(v) for v in row] for row in doc[name]]
        path = tmp_path / "ints.alg"
        path.write_text(json.dumps(doc))
        assert parse_path(path) == parse_path(FIXTURES / "L42.alg")
        assert main(["check", str(FIXTURES / "L42.alg")]) == 0
        expected = capsys.readouterr()
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("name", MALFORMED_ALGEBRAS)
    def test_malformed_algebra_exits_2(self, tmp_path, capsys, name):
        text, message = MALFORMED_ALGEBRAS[name]
        path = tmp_path / "bad.alg"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")

    def test_broken_json_carries_location(self):
        with pytest.raises(ParseError) as err:
            parse_algebra_text("{\n  \"dim\": 2,,\n}")
        assert err.value.line is not None

    def test_round_trip_identity(self):
        for name in ("L(4,2)", "Tstar0K", "TstarTheta3K", "R(4,2)", "L(2,4)+R(2,0)"):
            p = build(name)
            assert parse_algebra_text(serialize_algebra(p)) == p

    def test_writer_gives_the_bytes_of_json_dumps(self):
        # serialize_algebra writes the text itself; it must be what json.dumps
        # gives for the document built from the public fields
        def dumped(p):
            n = p.dim
            doc = {
                "dim": n,
                "basis": list(p.basis_names),
                "brackets": [
                    {"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in col.items()}}
                    for (i, j), col in p.algebra.brackets.items()
                ],
                "J": [[str(p.j[r, c]) for c in range(n)] for r in range(n)],
                "phi": [[str(p.phi[r, c]) for c in range(n)] for r in range(n)],
            }
            return json.dumps(doc, indent=2) + "\n"

        from inputs import LADDER, recipe_text  # perfbench/, on the path through conftest

        odd = PHQAlgebra(
            LieAlgebra(('q"\\\x01', "é\U0001d524"), {(0, 1): {0: Fraction(-3, 7), 1: Fraction(-1, 2)}}),
            phq.Matrix.from_rows([[0, -1], [1, 0]]),
            phq.Matrix.from_rows([[Fraction(-2, 3), 0], [0, 5]]),
        )
        algebras = [parse_path(path) for path in sorted(FIXTURES.glob("*.alg"))]
        algebras += [build(name) for name in ALL_LABELS]
        algebras += [parse_recipe_text(recipe_text(tree)).evaluate() for tree in LADDER.values()]
        algebras += [PHQAlgebra(LieAlgebra((), {}), phq.Matrix(0, 0, ()), phq.Matrix(0, 0, ())), odd]
        for p in algebras:
            assert serialize_algebra(p) == dumped(p), p.basis_names
        assert '"q\\"\\\\\\u0001"' in serialize_algebra(odd)
        assert parse_algebra_text(serialize_algebra(odd)) == odd

    def test_fixture_is_byte_exact(self):
        # Every file of fixtures/ is what scripts/make_fixtures.py writes, and
        # no file is missing or extra.
        texts = load_script("make_fixtures").texts()
        assert sorted(path.name for path in FIXTURES.iterdir()) == sorted(texts)
        for name, text in texts.items():
            assert (FIXTURES / name).read_text(encoding="utf-8") == text, name

    def test_recipe_depth_limit(self):
        # Only parsed, never evaluated: no algebra is built.
        assert parse_recipe_text(nested_recipe(MAX_RECIPE_DEPTH)).tree["op"] == "complexify"
        with pytest.raises(ParseError, match="nested deeper"):
            parse_recipe_text(nested_recipe(MAX_RECIPE_DEPTH + 1))

    def test_predicted_recipe_dimension(self):
        # The prediction is checked on the shipped recipes, which are small;
        # large trees are only ever predicted, never built.
        recipes = sorted(FIXTURES.glob("*.recipe"))
        assert len(recipes) == 4
        for path in recipes:
            recipe = parse_path(path)
            assert recipe.dim == recipe.evaluate().dim <= MAX_DIM

    def test_direct_sum_recipe(self, tmp_path, capsys):
        text = json.dumps({"op": "direct_sum", "args": [{"op": "L(4,2)"}, {"op": "abelian", "p": 2, "q": 0}]})
        assert parse_recipe_text(text).dim == 8
        path = tmp_path / "sum.recipe"
        path.write_text(text)
        assert main(["construct", str(path)]) == 0
        assert capsys.readouterr().out == (FIXTURES / "L42_R20.alg").read_text(encoding="utf-8")

    def test_recipe_validation(self):
        with pytest.raises(ParseError):
            parse_recipe_text(json.dumps({"op": "tstar", "theta": ["1", "0", "0"]}))
        recipe = parse_recipe_text(
            json.dumps({"op": "tstar", "base": {"op": "kodaira"}, "theta": ["0", "0", "1", "0"]})
        )
        assert recipe.evaluate() == build("TstarTheta3K")

    def test_evaluate_bounds_and_builds_the_tree_it_holds(self):
        # `evaluate` walks the tree again, whatever dimension the record holds
        recipe = parse_recipe_text('{"op": "L(4,2)"}')
        grown = type(recipe)({"op": "tensor", "k": 100000, "base": recipe.tree}, recipe.dim)
        with pytest.raises(ParseError, match=f"dimension 600000, above {MAX_DIM}"):
            grown.evaluate()
        assert type(recipe)({"op": "L(2,4)"}, recipe.dim).evaluate() == build("L(2,4)")

    @pytest.mark.parametrize("name", MALFORMED_RECIPES)
    def test_malformed_recipe_message(self, name):
        recipe, message = MALFORMED_RECIPES[name]
        text = recipe if isinstance(recipe, str) else json.dumps(recipe)
        with pytest.raises(ParseError) as err:
            parse_recipe_text(text).evaluate()
        assert str(err.value) == message


class TestCommands:
    def test_check_passes_on_fixture(self, capsys):
        assert main(["check", str(FIXTURES / "L42.alg")]) == 0
        out = capsys.readouterr().out
        assert "Jacobi: ok" in out and "J-compatible: ok" in out

    def test_check_reports_broken_bracket(self, tmp_path, capsys):
        # Flipping one bracket sign in the six-dimensional core cannot break
        # Jacobi (every Jacobi term vanishes on its own there), but it does
        # break the torsion and invariance axioms: still exit 1.
        doc = json.loads((FIXTURES / "L42.alg").read_text())
        for entry in doc["brackets"]:
            if (entry["i"], entry["j"]) == (0, 2):
                entry["coeffs"]["5"] = "1"
        bad = tmp_path / "bad.alg"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "Nijenhuis: FAIL" in out
        assert "ad-invariant: FAIL" in out
        assert "Jacobi: ok" in out

    def test_check_lists_jacobi_violations(self, tmp_path, capsys):
        doc = {
            "dim": 4,
            "basis": ["e1", "e2", "e3", "e4"],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"0": "1"}},
                {"i": 0, "j": 2, "coeffs": {"1": "1"}},
            ],
            "J": [
                ["0", "-1", "0", "0"],
                ["1", "0", "0", "0"],
                ["0", "0", "0", "-1"],
                ["0", "0", "1", "0"],
            ],
            "phi": [
                ["1", "0", "0", "0"],
                ["0", "1", "0", "0"],
                ["0", "0", "1", "0"],
                ["0", "0", "0", "1"],
            ],
        }
        bad = tmp_path / "nonjacobi.alg"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "Jacobi: FAIL" in out
        assert "(e1, e2, e3)" in out

    @pytest.mark.parametrize(
        "scalar",
        ["1.0", "1e0", "1_000", " 1", "1 ", "+1", "0x1", "--1", "", "1/0", "\u0661", "\uff11"],
    )
    def test_check_rejects_scalar_outside_grammar(self, tmp_path, capsys, scalar):
        doc = json.loads((FIXTURES / "L42.alg").read_text())
        doc["phi"][2][2] = scalar  # was "1"
        bad = tmp_path / "scalar.alg"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    # "01" once read as index 1, so {"1": ..., "01": ...} silently kept one value
    @pytest.mark.parametrize("key", [" 1", "1 ", "+1", "-0", "1_0", "01", "\u0661", ""])
    def test_check_rejects_coefficient_key_outside_grammar(self, tmp_path, capsys, key):
        doc = json.loads((FIXTURES / "L42.alg").read_text())
        coeffs = doc["brackets"][0]["coeffs"]
        coeffs[key] = coeffs.pop(next(iter(coeffs)))
        bad = tmp_path / "key.alg"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2
        assert f"bad coefficient index {key!r}" in capsys.readouterr().err

    def test_deep_recipe_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.recipe"
        deep.write_text(nested_recipe(3000))
        assert main(["construct", str(deep)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "recipe",
        [
            '{"op":"tensor","k":100000,"base":{"op":"L(4,2)"}}',
            nested_recipe(26),  # 25 complexify nodes: dimension 6 * 2**25
        ],
        ids=["tensor_k100000", "complexify_25"],
    )
    def test_oversized_recipe_exits_2(self, tmp_path, capsys, recipe):
        path = tmp_path / "big.recipe"
        path.write_text(recipe)
        assert main(["construct", str(path)]) == 2
        assert f"above {MAX_DIM}" in capsys.readouterr().err

    def test_oversized_algebra_file_exits_2(self, tmp_path, capsys):
        # A well-formed abelian file, one dimension above the bound.
        n = MAX_DIM + 1
        zero = [["0"] * n for _ in range(n)]
        basis = [f"e{i}" for i in range(n)]
        doc = {"dim": n, "basis": basis, "brackets": [], "J": zero, "phi": zero}
        path = tmp_path / "big.alg"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert f"above the limit {MAX_DIM}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fmt, expected", [("text", BROKEN_CHECK_TEXT), ("json", BROKEN_CHECK_JSON)]
    )
    def test_check_report_of_broken_algebra(self, tmp_path, capsys, fmt, expected):
        bad = tmp_path / "broken.alg"
        bad.write_text(json.dumps(BROKEN))
        assert main(["--format", fmt, "check", str(bad)]) == 1
        assert capsys.readouterr().out == expected

    def test_fixture_commands_match_snapshot(self):
        # Exit code and stdout hash of all 80 fixture commands, recorded by
        # scripts/make_cli_snapshot.py; any byte of changed output fails here.
        script = load_script("make_cli_snapshot")
        recorded = json.loads((FIXTURES.parent / "tests" / "cli_snapshot.json").read_text())
        assert len(recorded) == 80
        assert script.snapshot() == recorded

    def test_readme_examples_match_snapshot(self, tmp_path, monkeypatch, capsys):
        # The shell examples of README.md, run from the repository root; the
        # pipe's second command reads the first one's output from a file.
        root = FIXTURES.parent
        readme = (root / "README.md").read_text()
        classify_example = "phq --fixtures-dir fixtures classify TstarTheta3K.alg\n"
        pipe_example = "phq construct fixtures/lorentz_ext.recipe | phq classify /dev/stdin   # L(4,2)\n"
        assert classify_example in readme and pipe_example in readme
        recorded = json.loads((root / "tests" / "cli_snapshot.json").read_text())
        monkeypatch.chdir(root)

        def run(argv):
            code = main(argv)
            out = capsys.readouterr().out
            return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}, out

        assert run(classify_example.split()[1:])[0] == recorded["text classify TstarTheta3K.alg"]
        result, algebra_text = run(["construct", "fixtures/lorentz_ext.recipe"])
        assert result == recorded["text construct lorentz_ext.recipe"]
        piped = tmp_path / "stdin.alg"
        piped.write_text(algebra_text)
        result, out = run(["classify", str(piped)])
        assert result["exit"] == 0 and out.splitlines()[0] == "L(4,2)"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("odd.recipe", '{"op": "abelian", "p": 1, "q": 1}'),
            ("empty.recipe", '{"op": "abelian", "p": 0, "q": 0}'),
            ("p_true.recipe", '{"op": "abelian", "p": true, "q": 2}'),
            ("q_true.recipe", '{"op": "abelian", "p": 2, "q": true}'),
            ("k_true.recipe", '{"op": "tensor", "k": true, "base": {"op": "L(4,2)"}}'),
            ("bad_D.recipe", json.dumps(ext(D=[["x"]]))),
            ("kodaira_arg.recipe", json.dumps({"op": "direct_sum", "args": [L42, {"op": "kodaira"}]})),
            ("dim_true.alg", '{"dim": true, "basis": ["e1"], "brackets": [], "J": [["0"]], "phi": [["1"]]}'),
            ("i_false.alg", MINIMAL.replace('"brackets": []', BOOL_INDEX.format(i="false", j=1))),
            ("j_true.alg", MINIMAL.replace('"brackets": []', BOOL_INDEX.format(i=0, j="true"))),
        ],
        ids=[
            "abelian_1_1", "abelian_0_0", "p_true", "q_true", "k_true",
            "phq_ext_bad_D", "direct_sum_kodaira", "dim_true", "i_false", "j_true",
        ],
    )
    def test_invalid_integer_fields_exit_2(self, tmp_path, capsys, monkeypatch, name, text):
        def build_nothing(*args):
            raise AssertionError("an algebra was built from invalid input")

        monkeypatch.setattr(phq.cli, "check_phq", build_nothing)
        for builder in ("abelian_with_signature", "lorentz_core", "tstar_kodaira"):
            monkeypatch.setattr(phq.catalog, builder, build_nothing)
        for builder in ("direct_sum", "phq_double_extension", "tensor_construct", "complexify"):
            monkeypatch.setattr(phq.constructions, builder, build_nothing)
        path = tmp_path / name
        path.write_text(text)
        command = "construct" if name.endswith(".recipe") else "check"
        assert main([command, str(path)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("string_coefficient.alg", '"2": "1"', '"2": "{long}"'),
            ("integer_coefficient.alg", '"2": "1"', '"2": {long}'),
            ("dim.alg", '"dim": 6', '"dim": {long}'),
            ("coefficient_index.alg", '"2": "1"', '"{long}": "1"'),
            ("recipe_scalar.recipe", '"s0": ["0"', '"s0": ["-1/{long}"'),
            ("recipe_integer.recipe", '"k": 2', '"k": {long}'),
        ],
        ids=["string", "integer", "dim", "index", "recipe_scalar", "recipe_integer"],
    )
    def test_long_integers_exit_2(self, tmp_path, capsys, monkeypatch, name, old, new):
        # Python refuses to convert a decimal string of more than 4,300
        # digits to int; such a number is a parse error, found before any int
        # is made of it
        def build_nothing(*args):
            raise AssertionError("an algebra was built from invalid input")

        monkeypatch.setattr(phq.cli, "check_phq", build_nothing)
        if name.endswith(".recipe"):
            base = {"op": "tensor", "base": ext(), "k": 2} if "integer" in name else ext()
            text = json.dumps(base)
        else:
            text = (FIXTURES / "L42.alg").read_text()
        assert old in text
        path = tmp_path / name
        path.write_text(text.replace(old, new.format(long="1" + "0" * 5000), 1))
        command = "construct" if name.endswith(".recipe") else "check"
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "digits" in err

    @pytest.mark.parametrize("digits", [1, 3, 599, 600, 601, 1000])
    def test_an_integer_literal_has_its_value(self, digits):
        # a literal of at most 600 characters is read in one call, a longer
        # one 600 digits at a time; the value is formed without int(str)
        for sign, literal in ((1, "7" * digits), (-1, "-" + "7" * digits)):
            assert phq.fileformat._int(literal, "an integer") == sign * 7 * (10**digits - 1) // 9

    # PYTHONINTMAXSTRDIGITS is 4,300 by default; 640 is the least it admits,
    # and 0 lifts it
    @pytest.mark.parametrize("limit", ["640", "0"])
    def test_parsing_does_not_depend_on_the_digit_limit(self, tmp_path, limit):
        text = (FIXTURES / "L42.alg").read_text()
        doc = json.loads(text)
        doc["phi"][0][0] = "1" + "0" * 700
        phi, integer, index, scalar = (tmp_path / f"{name}.alg" for name in ("phi", "integer", "index", "scalar"))
        phi.write_text(json.dumps(doc))
        integer.write_text(text.replace('"2": "1"', '"2": 1' + "0" * 700, 1))
        index.write_text(text.replace('"2": "1"', '"1' + "0" * 700 + '": "1"', 1))
        scalar.write_text(text.replace('"2": "1"', '"2": "1' + "0" * 1000 + '"', 1))

        check = ["-m", "phq.cli", "check"]
        default, limited = (child([*check, str(phi)], PYTHONINTMAXSTRDIGITS=n) for n in ("4300", limit))
        assert (limited.returncode, limited.stdout, limited.stderr) == (default.returncode, default.stdout, b"")
        assert default.returncode == 1 and b"J-compatible: FAIL" in default.stdout
        code = f"import phq; print(phq.parse_path({str(integer)!r}).algebra.brackets[(0, 1)][2] == 10**700)"
        assert child([], code, PYTHONINTMAXSTRDIGITS=limit).stdout == b"True\n"
        for path, error in (
            (index, "brackets[0]: coefficient index 1" + "0" * 700 + " out of range"),
            (scalar, "brackets[0].coeffs[2]: a scalar has more than 1000 digits"),
        ):
            proc = child([*check, str(path)], PYTHONINTMAXSTRDIGITS=limit)
            assert (proc.returncode, proc.stderr) == (2, f"parse error: {error}\n".encode())

    # what each printer gives, in a child: `format_vector` around the bound of
    # 4,300 digits, `_scalar_text` past it, `serialize_algebra` of a
    # 5,001-digit coefficient and of 1,000-digit ones read back, and the
    # fuzz test's writer on 10**MAX_DIGITS
    PRINTERS = """
import sys
from fractions import Fraction
sys.path.insert(0, "tests")
from phq import LieAlgebra, PHQAlgebra, build, parse_algebra_text, serialize_algebra
from phq.lie import _scalar_text, format_vector
from phq.fileformat import MAX_DIGITS
from conftest import _dumps
edge, big, core = 10**4300 - 1, 10**4300, build("L(4,2)")
print(format_vector([Fraction(edge, 7), Fraction(-1, big), Fraction(-edge)], ["a", "b", "c"]))
print(_scalar_text(-big), _scalar_text(Fraction(1, big)), _scalar_text(big + 1))
for c, digits in (
    (Fraction(10**5000 + 1, 3), "1" + "0" * 4999 + "1/3"),
    (Fraction(-(10**999) - 7, 10**999 + 3), "-1" + "0" * 998 + "7/1" + "0" * 998 + "3"),
):
    p = PHQAlgebra(LieAlgebra(core.basis_names, {(0, 1): {2: c}}), core.j, core.phi)
    text = serialize_algebra(p)
    print(f'"2": "{digits}"' in text, len(text), abs(c) < 2 and parse_algebra_text(text) == p)
print(_dumps([10**MAX_DIGITS, {"k": -(10**MAX_DIGITS)}]))
"""

    @pytest.mark.parametrize("limit", ["640", "0"])
    def test_printing_does_not_depend_on_the_digit_limit(self, tmp_path, limit):
        # a number prints as <long> past 4,300 digits and in full below,
        # whatever the interpreter's limit; `check` marks a long residual
        default, limited = (child([], self.PRINTERS, PYTHONINTMAXSTRDIGITS=n) for n in ("4300", limit))
        assert (limited.returncode, limited.stdout, limited.stderr) == (0, default.stdout, b"")
        lines = limited.stdout.decode().splitlines()
        edge = "9" * 4300
        assert lines[0] == f"{edge}/7*a -<long>*b -{edge}*c"
        assert lines[1] == "-<long> <long> <long>"
        assert lines[2].startswith("True ") and lines[2].endswith(" False")
        assert lines[3].startswith("True ") and lines[3].endswith(" True")
        digits = "1" + "0" * 1000
        assert lines[4] == f'[{digits}, {{"k": -{digits}}}]'
        ps = [10**999 + d for d in (1, 3, 5, 7, 9, 13)]
        table = {(1, 2): {3: 0}, (0, 3): {5: 1}, (0, 2): {4: 2}, (1, 4): {5: 3}, (0, 1): {3: 4}, (2, 3): {5: 5}}
        core = build("L(4,2)")
        algebra = LieAlgebra(
            core.basis_names,
            {pair: {k: Fraction(1, ps[c]) for k, c in col.items()} for pair, col in table.items()},
        )
        path = tmp_path / "long.alg"
        path.write_text(serialize_algebra(PHQAlgebra(algebra, core.j, core.phi)))
        proc = child(["-m", "phq.cli", "check", str(path)], PYTHONINTMAXSTRDIGITS=limit)
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert "  - Jacobi fails on (x1, Jx1, x2): residual <long>*Jx3" in proc.stdout.decode().splitlines()

    def test_an_oversized_recipe_dimension_too_long_to_print_is_a_parse_error(self, tmp_path, capsys):
        # five nested tensors with k of 1,000 digits predict a dimension of
        # about 5,000 digits, more than the default limit of 4,300 converts
        node = '{"op": "L(4,2)"}'
        for _ in range(5):
            node = '{"op": "tensor", "base": ' + node + ', "k": 1' + "0" * 999 + "}"
        path = tmp_path / "huge.recipe"
        path.write_text(node)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["construct", str(path)]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert (out, err) == ("", "parse error: recipe builds an algebra of dimension <long>, above 64\n")

    def test_an_oversized_file_dimension_too_long_to_print_is_a_parse_error(self, tmp_path):
        # a 701-digit dim parses under the least digit limit, 640, and the
        # message gives all its digits, as under any other limit: only a
        # number of more than 4,300 digits prints as <long>
        path = tmp_path / "huge.alg"
        path.write_text('{"dim": 1' + "0" * 700 + ', "basis": [], "brackets": [], "J": [], "phi": []}')
        message = b"parse error: dim 1" + b"0" * 700 + b" is above the limit 64\n"
        for limit in ("640", "0"):
            proc = child(["-m", "phq.cli", "check", str(path)], PYTHONINTMAXSTRDIGITS=limit)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", message)

    def test_check_marks_a_residual_too_long_to_print(self, tmp_path, capsys):
        # six table coefficients 1/P_k, each P_k of 1,000 digits and pairwise
        # coprime: the Jacobi residual on (x1, Jx1, x2) is
        # 1/(P0 P1) - 1/(P2 P3) + 1/(P4 P5) at Jx3, whose denominator of about
        # 6,000 digits the interpreter does not convert to decimal
        ps = [10**999 + d for d in (1, 3, 5, 7, 9, 13)]
        assert all(gcd(a, b) == 1 for a, b in combinations(ps, 2))
        table = {(1, 2): {3: 0}, (0, 3): {5: 1}, (0, 2): {4: 2}, (1, 4): {5: 3}, (0, 1): {3: 4}, (2, 3): {5: 5}}
        core = build("L(4,2)")
        algebra = LieAlgebra(
            core.basis_names,
            {pair: {k: Fraction(1, ps[c]) for k, c in col.items()} for pair, col in table.items()},
        )
        path = tmp_path / "long.alg"
        path.write_text(serialize_algebra(PHQAlgebra(algebra, core.j, core.phi)))
        assert main(["check", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "  - Jacobi fails on (x1, Jx1, x2): residual <long>*Jx3" in out.splitlines()
        assert err == ""

    def test_json_reduce_marks_a_coefficient_too_long_to_print(self, capsys, monkeypatch):
        # a coefficient of z or v with more digits than the interpreter
        # converts to decimal is printed as `check` prints it, `<long>` after
        # its sign, and the JSON stays valid
        path = str(FIXTURES / "Tstar0K.alg")
        assert main(["--format", "json", "reduce", path]) == 0
        expected = json.loads(capsys.readouterr().out)
        long = Fraction(10**5000 + 1, 3)
        reduce = phq.reduction.full_reduction

        def with_long_entries(p):
            result = reduce(p)
            first = result.steps[0]
            step = ReductionStep(
                first.kind,
                (long, *first.z[1:]),
                (-long, *first.v[1:]),
                first.sign,
                first.recovered,
                first.extension_data,
                first.adapted_basis,
            )
            return ReductionResult((step, *result.steps[1:]), result.residue)

        monkeypatch.setattr(phq.reduction, "full_reduction", with_long_entries)
        assert main(["--format", "json", "reduce", path]) == 0
        out, err = capsys.readouterr()
        expected["steps"][0]["z"][0] = "<long>"
        expected["steps"][0]["v"][0] = "-<long>"
        assert json.loads(out) == expected
        assert err == ""

    def test_classify_names_the_zero_algebra(self, tmp_path, capsys):
        path = tmp_path / "zero.alg"
        path.write_text(json.dumps({"dim": 0, "basis": [], "brackets": [], "J": [], "phi": []}))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["classify", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the zero algebra (dimension 0) has no label\n"
        with pytest.raises(UnclassifiedFingerprint):
            classify(parse_path(str(path)))

    def test_file_of_the_other_kind_exits_2(self, capsys):
        recipe = str(FIXTURES / "lorentz_ext.recipe")
        assert main(["check", recipe]) == 2
        assert capsys.readouterr().err == f"parse error: {recipe}: expected an algebra file, got a recipe\n"
        algebra = str(FIXTURES / "L42.alg")
        assert main(["construct", algebra]) == 2
        assert capsys.readouterr().err == f"parse error: {algebra}: expected a recipe file\n"

    @pytest.mark.parametrize("command, name", [("check", "bad.alg"), ("construct", "bad.recipe")])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe" + '{"op": "L(4,2)"}'.encode("utf-16-le"))  # UTF-16 with its BOM
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: cannot read {path}: not UTF-8 text\n"

    def test_directory_exits_2(self, capsys):
        path = str(FIXTURES)
        assert main(["check", path]) == 2
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {path!r}"
        assert capsys.readouterr().err == f"parse error: cannot read {path}: {reason}\n"

    def test_lone_surrogate_basis_name_exits_2(self, tmp_path, capsys):
        # valid JSON that parses to a name no output stream can encode
        path = tmp_path / "surrogate.alg"
        path.write_text(json.dumps({**BROKEN, "basis": ["\ud800", "b", "c", "d"]}))
        assert main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "parse error: basis names must be UTF-8 text, without lone surrogates\n"

    def test_reduce_refuses_a_failing_input(self, tmp_path, capsys):
        path = tmp_path / "broken.alg"
        path.write_text(json.dumps(BROKEN))
        assert main(["reduce", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: input fails the structure axioms; run 'check' for details\n"

    def test_check_garbage_exits_2(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.alg"
        garbage.write_text("not json at all {{{")
        assert main(["check", str(garbage)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_invariants_row(self, capsys):
        assert main(["invariants", str(FIXTURES / "L24_R02.alg")]) == 0
        assert capsys.readouterr().out == "8 | 3 | (2,6) | (0,1) | 3\n"

    def test_classify_fixture(self, capsys):
        assert main(["classify", str(FIXTURES / "TstarTheta3K.alg")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "TstarTheta3K"

    def test_classify_dimension_limit(self, tmp_path, capsys):
        big = tmp_path / "big.alg"
        big.write_text(serialize_algebra(build("R(6,4)")))
        assert main(["classify", str(big)]) == 1
        assert "error" in capsys.readouterr().err

    def test_reduce_fixture(self, capsys):
        assert main(["reduce", str(FIXTURES / "Tstar0K.alg")]) == 0
        out = capsys.readouterr().out
        assert "plane_reduction" in out
        assert "residue: dim 4" in out

    def test_construct_pipeline(self, tmp_path, capsys):
        assert main(["construct", str(FIXTURES / "lorentz_ext.recipe")]) == 0
        text = capsys.readouterr().out
        constructed = parse_algebra_text(text)
        out_file = tmp_path / "constructed.alg"
        out_file.write_text(text)
        assert main(["classify", str(out_file)]) == 0
        label_line = capsys.readouterr().out.splitlines()[0]
        assert label_line == "L(4,2)"

    def test_json_format(self, capsys):
        assert main(["--format", "json", "invariants", str(FIXTURES / "TstarTheta3K.alg")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim_center"] == 3
        assert doc["sig_phi"] == [4, 4]

    def test_output_is_deterministic(self, capsys):
        main(["--format", "json", "classify", str(FIXTURES / "L42.alg")])
        first = capsys.readouterr().out
        main(["--format", "json", "classify", str(FIXTURES / "L42.alg")])
        assert capsys.readouterr().out == first

    def test_fixtures_dir_resolution(self, capsys):
        assert main(["--fixtures-dir", str(FIXTURES), "classify", "L42.alg"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "L(4,2)"

    def test_carrier_complex_structure_column_convention(self):
        # the stored J of the cotangent fixtures maps e1-coordinates to e2
        doc = json.loads((FIXTURES / "Tstar0K.alg").read_text())
        col0 = [row[0] for row in doc["J"]]
        assert col0 == ["0", "1", "0", "0", "0", "0", "0", "0"]


class TestErrors:
    def test_every_library_exception_is_a_phq_error(self):
        modules = [importlib.import_module(f"phq.{m.name}") for m in pkgutil.iter_modules(phq.__path__)]
        classes = [
            obj
            for module in modules
            for _, obj in inspect.getmembers(module, inspect.isclass)
            if obj.__module__ == module.__name__ and issubclass(obj, BaseException)
        ]
        assert len(classes) >= 20
        for cls in classes:
            assert issubclass(cls, PhqError), cls.__name__

    def test_builtin_error_is_not_reported_as_library_error(self, monkeypatch, capsys):
        def broken(p):
            raise ValueError("a plain ValueError from a bug")

        monkeypatch.setattr(phq.cli, "fingerprint", broken)
        with pytest.raises(ValueError, match="plain ValueError"):
            main(["invariants", str(FIXTURES / "L42.alg")])
        assert "error:" not in capsys.readouterr().err


# The five commands in the order `phq --help` lists them, with their help
# strings and positional arguments.
COMMAND_HELP = [
    ("check", "verify all axioms of an algebra file", "file"),
    ("invariants", "print the invariant fingerprint", "file"),
    ("classify", "identify an algebra of dimension <= 8", "file"),
    ("reduce", "reduce to an abelian residue", "file"),
    ("construct", "evaluate a recipe, print the algebra", "recipe"),
]


def exit_of(argv: list[str]) -> int:
    """The exit code of a `main` call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


class TestArgumentParser:
    # Content, not bytes: argparse's wording changes between Python versions.
    def test_help_lists_the_commands_in_order(self, capsys):
        assert exit_of(["--help"]) == 0
        names = [name for name, _, _ in COMMAND_HELP]
        rows = [line.split(None, 1) for line in capsys.readouterr().out.splitlines()]
        listed = [(row[0], row[1].strip()) for row in rows if len(row) == 2 and row[0] in names]
        assert listed == [(name, text) for name, text, _ in COMMAND_HELP]

    @pytest.mark.parametrize("name, positional", [(name, arg) for name, _, arg in COMMAND_HELP])
    def test_command_help_names_its_positional(self, capsys, name, positional):
        assert exit_of([name, "--help"]) == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.startswith(f"usage: phq {name} ") and usage.endswith(f" {positional}")

    @pytest.mark.parametrize(
        "argv, mention",
        [
            ([], "check,invariants,classify,reduce,construct"),
            (["bogus"], "bogus"),
            (["check"], "file"),
            (["construct"], "recipe"),
        ],
        ids=["no_command", "unknown_command", "missing_file", "missing_recipe"],
    )
    def test_usage_errors_exit_2(self, capsys, argv, mention):
        assert exit_of(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: phq") and mention in err
