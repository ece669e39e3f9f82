"""Exact-arithmetic toolkit for nilpotent Lie algebras carrying a compatible
complex structure and an invariant metric: construction, verification,
reduction, and classification in dimension at most eight.

``import phq`` executes no module of the package.  Each name below is
resolved on first use (PEP 562) and then kept in this namespace.
`constructions`, `reduction` and `catalog` are in ``sys.modules`` and in
this namespace from the start, as modules that run on the first read of
one of their attributes, so a `phq` command that never reaches them never
compiles them.
"""

import sys as _sys
from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec
from importlib.util import module_from_spec as _module_from_spec
from threading import RLock as _RLock
from types import ModuleType as _ModuleType

# module -> the names it exports here; each module is a name here too
_EXPORTS = {
    "catalog": (
        "CatalogLabel Classification DimensionTooLarge InequivalenceEvidence UnclassifiedFingerprint "
        "UnknownLabel abelian_with_signature build classify inequivalence_evidence label lorentz_core "
        "tstar_kodaira verify_witness"
    ),
    "checks": "Check PhqError Report",
    "constructions": (
        "Cocycle CommutativeAlgebra InvalidAlgebraData InvalidCocycle InvalidParameter check_cocycle "
        "check_commutative complex_units complexify direct_sum kodaira_cocycle_basis kodaira_thurston "
        "phq_double_extension tensor_construct truncated_poly tstar_extension"
    ),
    "fileformat": (
        "BadRational IndexOutOfRange ParseError Recipe parse_algebra_text parse_path parse_recipe_text "
        "serialize_algebra"
    ),
    "lie": "LieAlgebra LinearMap check_jacobi",
    "linalg": (
        "DimensionMismatch Matrix NotSymmetricError Subspace Vector frac intersect kernel map_image signature "
        "solve_linear vector"
    ),
    "reduction": (
        "CentralPair EmptyIntersection HypothesisViolated InvalidCentralElement NonIsotropic "
        "NotDefinitePlane ReductionResult ReductionStep ReductionStuck find_central_pair full_reduction "
        "reduce_by_plane split_plane"
    ),
    "structures": (
        "ExtensionData Fingerprint InvalidExtensionData JClassification OddDimension PHQAlgebra "
        "check_complex check_phq check_quadratic fingerprint j_class nijenhuis salamon_check "
        "validate_extension_data"
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}
__all__ = sorted(_OWNER)


class _LazyModule(_ModuleType):
    """A module of this package that has not run yet.  The first read of any
    of its attributes runs it under `_load_lock`, and only after the run
    makes it a plain module, so a thread that reads it meanwhile, by any
    path (an import statement, a name of `phq`, a command), waits for the
    run instead of reading a half-filled namespace.  The modules of
    `importlib.util.LazyLoader` take no lock and turn plain before they run.
    ``type(module)`` tells whether a module ran without running it."""

    def __getattribute__(self, name):
        with _load_lock:
            loader = _unrun.pop(self, None)
            if loader is not None:
                loader.exec_module(self)
                self.__class__ = _ModuleType
        return _ModuleType.__getattribute__(self, name)


# reentrant, because a module's loader reads its attributes while it runs it
_load_lock = _RLock()
_unrun = {}  # lazy module -> its loader, until it runs

for _name in ("constructions", "reduction", "catalog"):
    _spec = _find_spec(f"{__name__}.{_name}")
    _module = _module_from_spec(_spec)
    _module.__class__ = _LazyModule
    _unrun[_module] = _spec.loader
    _sys.modules[_spec.name] = globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{_OWNER[name]}")
    value = module if name == _OWNER[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
