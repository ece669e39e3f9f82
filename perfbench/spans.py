"""Layer spans recorded from outside the program.

`Tracer.install` wraps the functions named in `SPANS` and patches every
binding of them in the loaded `phq` modules: the package imports functions
by name (for example `phq.cli.classify` is `phq.catalog.classify`), so
patching only the defining module would miss most calls.  `Tracer.restore`
puts the original objects back.

Only the functions in `SPANS` are wrapped.  Wrapping every public helper
(`dot`, `vector`, `add_vec`, ...) would multiply the cost of a traced pass;
their time is part of the self time of the listed function that calls them.

A span's self time is its duration minus the durations of its child spans.
Counters are computed after the span has ended, and the time spent on them
is kept out of every span.

When the program gains its own spans (a `phq/trace.py` and a `--trace`
flag), this module should read those instead of wrapping from outside.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer (module of src/phq) -> wrapped functions, `Class.method` for methods
SPANS = {
    "linalg": (
        "Matrix.apply",
        "Matrix.__matmul__",
        "Matrix.rref",
        "solve_linear",
        "kernel",
        "intersect",
        "signature",
    ),
    "lie": (
        "LieAlgebra.bracket",
        "LieAlgebra.center",
        "LieAlgebra.derived_ideal",
        "LieAlgebra.lower_central_series",
        "check_jacobi",
    ),
    "structures": ("check_phq", "check_complex", "nijenhuis", "check_quadratic", "fingerprint"),
    "reduction": ("find_central_pair", "split_plane", "reduce_by_plane", "full_reduction"),
    "catalog": ("classify", "build"),
    "constructions": ("tensor_construct", "direct_sum", "tstar_extension"),
    "fileformat": ("parse_algebra_text", "parse_recipe_text", "Recipe.evaluate", "serialize_algebra"),
    "cli": ("main",),
}

# Recorded by the process that imports the program, not by a wrapper.
IMPORT_SPAN = "cli.import"
# Prefix of the stderr line on which a traced child reports its snapshot.
SPANS_MARK = "perfbench-spans "
LAYERS = tuple(SPANS)
SPAN_NAMES = tuple(
    f"{layer}.{qual.replace('__matmul__', 'matmul')}" for layer, quals in SPANS.items() for qual in quals
) + (IMPORT_SPAN,)

# Spans that some workload never enters.  A time that reads 0 on every run
# of a workload is not a measurement, so these report their call count only;
# their time is still in their layer's total.
CALLS_ONLY = (
    "reduction.split_plane",
    "catalog.build",
    "constructions.tensor_construct",
    "constructions.direct_sum",
    "fileformat.parse_recipe_text",
    "fileformat.Recipe.evaluate",
    "cli.main",
)

# Counters, all summed over a pass except the maximum below.
COUNTERS = (
    "linalg.rref.cells",
    "linalg.rref.max_bits",
    "lie.structure_nonzeros",
    "reduction.steps",
    "fileformat.parse_algebra_text.bytes",
    "fileformat.parse_recipe_text.bytes",
    "fileformat.serialize_algebra.bytes",
)
MAX_COUNTERS = ("linalg.rref.max_bits",)


def _rref_cells(counters, args, result):
    m = args[0]
    counters["linalg.rref.cells"] += m.rows * m.cols
    bits = max(
        (max(e.numerator.bit_length(), e.denominator.bit_length()) for e in result[0].entries),
        default=0,
    )
    counters["linalg.rref.max_bits"] = max(counters["linalg.rref.max_bits"], bits)


def _parsed_algebra(counters, args, result):
    counters["fileformat.parse_algebra_text.bytes"] += len(args[0])
    s = result.algebra.structure
    n = len(s)
    counters["lie.structure_nonzeros"] += sum(
        1 for i in range(n) for j in range(i + 1, n) for c in s[i][j] if c != 0
    )


def _parsed_recipe(counters, args, result):
    counters["fileformat.parse_recipe_text.bytes"] += len(args[0])


def _serialized(counters, args, result):
    counters["fileformat.serialize_algebra.bytes"] += len(result)


def _reduced(counters, args, result):
    counters["reduction.steps"] += len(result.steps)


_HOOKS = {
    "linalg.Matrix.rref": _rref_cells,
    "fileformat.parse_algebra_text": _parsed_algebra,
    "fileformat.parse_recipe_text": _parsed_recipe,
    "fileformat.serialize_algebra": _serialized,
    "reduction.full_reduction": _reduced,
}


def empty_snapshot() -> dict:
    return {
        "spans": {name: [0, 0.0] for name in SPAN_NAMES},  # name -> [calls, self seconds]
        "counters": {name: 0 for name in COUNTERS},
    }


def merge(into: dict, other: dict) -> None:
    """Add the spans and counters of `other` (a snapshot) to `into`."""
    for name, (calls, self_s) in other["spans"].items():
        into["spans"][name][0] += calls
        into["spans"][name][1] += self_s
    for name, value in other["counters"].items():
        if name in MAX_COUNTERS:
            into["counters"][name] = max(into["counters"][name], value)
        else:
            into["counters"][name] += value


class Tracer:
    """Wraps the `SPANS` functions of a loaded `phq` and records into a snapshot."""

    def __init__(self):
        self.active = False
        self.snapshot = empty_snapshot()
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> dict:
        """Start a new snapshot and return the finished one."""
        done, self.snapshot = self.snapshot, empty_snapshot()
        return done

    def record(self, name: str, seconds: float) -> None:
        """A span without children, recorded by the caller (the import)."""
        entry = self.snapshot["spans"][name]
        entry[0] += 1
        entry[1] += seconds

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = stack.pop()
                entry = self.snapshot["spans"][name]
                entry[0] += 1
                entry[1] += took - children
                if stack:
                    stack[-1] += took
            if hook is not None:
                t = perf_counter()
                hook(self.snapshot["counters"], args, result)
                if stack:
                    stack[-1] += perf_counter() - t
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "phq" or n.startswith("phq.")]
        for layer, quals in SPANS.items():
            module = sys.modules[f"phq.{layer}"]
            for qual in quals:
                name = f"{layer}.{qual.replace('__matmul__', 'matmul')}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, qual)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of every binding currently wrapped."""
        return list(self._patches)
