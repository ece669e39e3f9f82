"""The package loads what a command reaches, and keeps its names.

``import phq`` executes no module; `catalog`, `constructions` and
`reduction` sit in ``sys.modules`` as lazy modules that run on their first
attribute read.  Each test runs a fresh interpreter, because the test
process has long loaded every module.  A module's type tells whether it ran
without running it: a lazy module is of a subclass of ``ModuleType`` until
its first read.
"""

import hashlib
import json

import pytest

from conftest import FIXTURES, ROOT, child
from spans import SPANS_MARK

LAYERS = ("linalg", "lie", "structures", "reduction", "catalog", "constructions", "fileformat", "cli")
LAZY = ("catalog", "constructions", "reduction")

# `phq.__all__`: each name must import
NAMES = """
BadRational CatalogLabel CentralPair Check Classification Cocycle CommutativeAlgebra
DimensionMismatch DimensionTooLarge EmptyIntersection ExtensionData Fingerprint
HypothesisViolated IndexOutOfRange InequivalenceEvidence InvalidAlgebraData
InvalidCentralElement InvalidCocycle InvalidExtensionData InvalidParameter JClassification
LieAlgebra LinearMap Matrix NonIsotropic NotDefinitePlane NotSymmetricError OddDimension
PHQAlgebra ParseError PhqError Recipe ReductionResult ReductionStep ReductionStuck Report
Subspace UnclassifiedFingerprint UnknownLabel Vector abelian_with_signature
build catalog check_cocycle check_commutative check_complex check_jacobi check_phq
check_quadratic checks classify complex_units complexify constructions direct_sum fileformat
find_central_pair fingerprint frac full_reduction gram_restriction inequivalence_evidence
intersect j_class kernel kodaira_cocycle_basis kodaira_thurston label lie linalg lorentz_core
map_image nijenhuis orthogonal_complement parse_algebra_text parse_path parse_recipe_text
phq_double_extension reduce_by_plane reduction salamon_check serialize_algebra signature
solve_linear split_plane structures tensor_construct truncated_poly tstar_extension
tstar_kodaira validate_extension_data vector verify_witness
""".split()

# names the package once exported and no longer has
REMOVED = """
InvalidDerivation QuadraticAlgebra analyze_skew_pair is_derivation is_skewsymmetric line_double_extension
solve_inner swap_df
""".split()

# Runs `phq.cli.main` on the arguments, then writes to stderr, as its last
# line, the layers that have run.
COMMAND = """
import sys, types
import phq.cli
code = phq.cli.main(sys.argv[1:])
sys.stdout.flush()
ran = [m for m in {layers!r} if type(sys.modules["phq." + m]) is types.ModuleType]
print(" ".join(ran), file=sys.stderr)
sys.exit(code)
"""


def snapshot(key):
    return json.loads((ROOT / "tests" / "cli_snapshot.json").read_text())[key]


@pytest.mark.parametrize(
    "command, skipped",
    [
        ("check", LAZY),
        ("invariants", LAZY),
        ("reduce", ("catalog", "constructions")),
        ("classify", ("constructions",)),
        ("construct", ("reduction",)),
    ],
)
def test_a_command_runs_only_the_layers_it_reaches(command, skipped):
    name = "tstar_theta3.recipe" if command == "construct" else "TstarTheta3K.alg"
    proc = child([command, f"fixtures/{name}"], COMMAND.format(layers=LAYERS))
    expected = snapshot(f"text {command} {name}")
    assert proc.returncode == expected["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected["sha256"]
    ran = proc.stderr.decode().split()
    assert sorted(ran) == sorted(m for m in LAYERS if m not in skipped)


# Runs `phq construct` on each fixture recipe in one process, then prints
# whether `reduction` has run.
CONSTRUCT_ALL = """
import hashlib, io, sys, types
from contextlib import redirect_stdout
import phq.cli
for name in sys.argv[1:]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = phq.cli.main(["construct", "fixtures/" + name])
    print(name, code, hashlib.sha256(out.getvalue().encode()).hexdigest())
print(type(sys.modules["phq.reduction"]) is types.ModuleType)
"""


def test_construct_never_runs_reduction():
    names = sorted(path.name for path in FIXTURES.glob("*.recipe"))
    assert len(names) == 4
    proc = child(names, CONSTRUCT_ALL)
    assert proc.returncode == 0, proc.stderr.decode()
    *lines, ran = proc.stdout.decode().splitlines()
    for line, name in zip(lines, names, strict=True):
        expected = snapshot(f"text construct {name}")
        assert line == f"{name} {expected['exit']} {expected['sha256']}"
    assert ran == "False"


def test_traced_launcher_wraps_the_lazy_layers():
    # the benchmark's launcher wraps the functions of all eight layers right
    # after `import phq.cli`, reading each module from `sys.modules`
    proc = child(["perfbench/launch.py", "classify", "fixtures/TstarTheta3K.alg"])
    expected = snapshot("text classify TstarTheta3K.alg")
    assert proc.returncode == expected["exit"]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected["sha256"]
    last = proc.stderr.decode().rstrip("\n").rsplit("\n", 1)[-1]
    assert last.startswith(SPANS_MARK)
    spans = json.loads(last[len(SPANS_MARK) :])["spans"]
    for name in ("cli.main", "catalog.classify", "reduction.full_reduction"):
        assert spans[name][0] >= 1, name


REEXPORTS = """
import json, sys, types
import phq
out = {"lazy": sorted(m for m in sys.modules if m.startswith("phq.")),
       "ran": sorted(m for m in sys.modules
                     if m.startswith("phq.") and type(sys.modules[m]) is types.ModuleType),
       "all": sorted(phq.__all__), "dir": dir(phq)}
for name in phq.__all__:
    exec(f"from phq import {name}", {})
star = {}
exec("from phq import *", star)
out["star"] = sorted(name for name in star if name != "__builtins__")
out["same"] = all(getattr(phq, name) is star[name] for name in phq.__all__)
try:
    phq.no_such_name
except AttributeError as exc:
    out["error"] = str(exc)
out["removed"] = {}
for name in sys.argv[1:]:
    caught = []
    for statement in (f"getattr(phq, {name!r})", f"from phq import {name}"):
        try:
            exec(statement, {"phq": phq})
        except (AttributeError, ImportError) as exc:
            caught.append(type(exc).__name__)
    out["removed"][name] = caught
# one home per name: the plane datum and its check live in `structures` only
from phq.structures import ExtensionData, InvalidExtensionData, validate_extension_data
try:
    from phq.constructions import ExtensionData
except ImportError as exc:
    out["moved"] = type(exc).__name__
print(json.dumps(out))
"""


def test_every_name_of_the_package_imports():
    proc = child(REMOVED, REEXPORTS)
    assert proc.returncode == 0, proc.stderr.decode()
    out = json.loads(proc.stdout)
    assert len(NAMES) == 93 and not set(NAMES) & set(REMOVED)
    # nothing runs on `import phq`; the three lazy modules are registered
    assert out["lazy"] == [f"phq.{m}" for m in sorted(LAZY)] and out["ran"] == []
    assert out["all"] == sorted(NAMES)
    assert set(NAMES) <= set(out["dir"])
    assert out["star"] == sorted(NAMES) and out["same"]
    assert out["error"] == "module 'phq' has no attribute 'no_such_name'"
    assert out["removed"] == {name: ["AttributeError", "ImportError"] for name in REMOVED}
    assert out["moved"] == "ImportError"


THREADS = """
import sys, threading
import phq
from phq.cli import cmd_classify
from phq.fileformat import parse_path, serialize_algebra

algebra, recipe = parse_path("fixtures/TstarTheta3K.alg"), parse_path("fixtures/lorentz_ext.recipe")
barrier = threading.Barrier(8, timeout=60)
sys.setswitchinterval(1e-5)
results = [None] * 8
rotate = int(sys.argv[1])


def imported():
    from phq.catalog import classify
    from phq.reduction import full_reduction

    return repr((classify(algebra), full_reduction(algebra)))


# the paths to a lazy module: an import statement, a recipe's builders, a
# command and a name of the package
PATHS = (
    imported,
    lambda: serialize_algebra(recipe.evaluate()),
    lambda: repr(cmd_classify(algebra)),
    lambda: repr(phq.classify(algebra)),
)


def results_of(i):
    try:
        return [PATHS[(rotate * i + k) % 4]() for k in range(4)]
    except Exception as exc:
        return repr(exc)


def work(i):
    barrier.wait()
    results[i] = results_of(i)


threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads)
serial = [results_of(i) for i in range(8)]
print("same" if results == serial else f"threads {results}\\nserial {serial}")
"""


# rotate 0: every thread's first step is the import statement; rotate 1:
# the threads start on different paths
@pytest.mark.parametrize("rotate", [0, 1])
def test_first_loads_from_eight_threads_return_the_serial_results(rotate):
    proc = child([str(rotate)], THREADS)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "same\n"
