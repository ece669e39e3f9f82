"""On-disk formats: `.alg` algebra files and `.recipe` construction files.

README.md states both formats and their bounds; this module parses them
and writes the canonical `.alg` text.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import reduce
from math import lcm
from pathlib import Path
from typing import Any, Callable

from . import catalog, constructions
from .checks import PhqError, Record
from .lie import _CHUNK, LieAlgebra, _exact_text, _scalar_text
from .linalg import Matrix
from .structures import ExtensionData, PHQAlgebra


class ParseError(PhqError, ValueError):
    """Malformed input file; carries line/column when JSON itself is broken."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


class BadRational(ParseError):
    pass


class IndexOutOfRange(ParseError):
    pass


# Longest chain of nested nodes a recipe may have, counting the root.
MAX_RECIPE_DEPTH = 32
# Largest dimension of an `.alg` file or of the algebra a recipe builds.
MAX_DIM = 64
# Most digits of any integer in a file.
MAX_DIGITS = 1000

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INDEX = re.compile(r"0|[1-9][0-9]*")


def _int(literal: str, what: Callable[[], str]) -> int:
    """The int of a decimal literal, ``-?[0-9]+``, of at most `MAX_DIGITS`
    digits, made in chunks of `_CHUNK` digits, so that the interpreter's
    digit limit, however it is set, never refuses it."""
    if len(literal) <= _CHUNK:  # one chunk, as nearly every literal is
        return int(literal)
    digits = literal.lstrip("-")
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"{what()} has more than {MAX_DIGITS} digits")
    n = 0
    for i in range(0, len(digits), _CHUNK):
        part = digits[i : i + _CHUNK]
        n = n * 10 ** len(part) + int(part)
    return -n if literal.startswith("-") else n


def _load_json(text: str) -> Any:
    try:
        return json.loads(text, parse_int=lambda literal: _int(literal, lambda: "a JSON integer"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc


def _integer(value: Any) -> bool:
    """A JSON integer; JSON booleans are not integers here, though Python's are."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(value: Any, where: Callable[[], str]) -> Fraction:
    """The Fraction of a JSON scalar; ``where()`` is made only for an error."""
    if isinstance(value, bool) or isinstance(value, float):
        raise BadRational(f"{where()}: scalars must be exact rational strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        if len(value) <= _CHUNK and "/" not in value:  # an integer, as most scalars are
            return Fraction(int(value))
        try:
            return Fraction(*(_int(part, lambda: f"{where()}: a scalar") for part in value.split("/")))
        except ZeroDivisionError as exc:
            raise BadRational(f"{where()}: not a rational: {value!r}") from exc
    raise BadRational(f"{where()}: not a rational: {value!r}")


def _over(known: dict[str | int, Fraction], values: list) -> tuple[int, dict, dict[int, Fraction]]:
    """The lcm d of the known scalars' denominators, d f for each f, and f for each d f."""
    fracs = {v: known[v] for v in set(values)}
    d = lcm(*(f.denominator for f in fracs.values()))
    ints = {v: f.numerator * (d // f.denominator) if d > 1 else f.numerator for v, f in fracs.items()}
    return d, ints, {ints[v]: f for v, f in fracs.items()}


def _matrix(rows: Any, dim: int, where: str, known: dict[str | int, Fraction]) -> Matrix:
    """The dim x dim matrix of a list of rows, born with its integers; each new
    scalar's Fraction goes into ``known``, where no bool or float is looked up."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise ParseError(f"{where}: expected {dim} rows")
    values = [v for row in rows if isinstance(row, list) and len(row) == dim for v in row]
    if len(values) < dim * dim or not set(map(type, values)) <= {str, int}:
        for r, row in enumerate(rows):  # raises at the first bad row or scalar, if any
            if not isinstance(row, list) or len(row) != dim:
                raise ParseError(f"{where}: row {r} must have {dim} entries")
            for value in row:
                if value.__class__ not in (str, int) or value not in known:
                    known[value] = _rational(value, lambda: f"{where}[{r}]")
    for value in [v for v in dict.fromkeys(values) if v not in known]:  # new scalars, by first position
        known[value] = _rational(value, lambda: f"{where}[{values.index(value) // dim}]")
    d, ints, made = _over(known, values)
    return Matrix._from_scaled(dim, dim, d, list(map(ints.__getitem__, values)), made)


def parse_algebra_text(text: str) -> PHQAlgebra:
    """The algebra of an `.alg` text.  A coefficient index is looked up by its text, J and phi
    are checked in one pass, and each distinct scalar is made a Fraction once; a bad index, row
    or scalar takes the slow path and raises at its first position.  The table, J and phi are
    born with their integers, through makers that check nothing again."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("algebra file must be a JSON object")
    try:
        dim = doc["dim"]
        basis = doc["basis"]
        brackets = doc["brackets"]
        jmat = doc["J"]
        phi = doc["phi"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc.args[0]!r}") from exc
    if not _integer(dim) or dim < 0:
        raise ParseError("dim must be a nonnegative integer")
    if dim > MAX_DIM:
        raise ParseError(f"dim {_scalar_text(dim)} is above the limit {MAX_DIM}")
    if not isinstance(basis, list) or len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ParseError("basis must list dim names")
    if any("\ud800" <= c <= "\udfff" for name in basis for c in name):  # JSON admits lone surrogates
        raise ParseError("basis names must be UTF-8 text, without lone surrogates")
    if not isinstance(brackets, list):
        raise ParseError("brackets must be a list")
    known, sparse = {}, {}  # scalar -> Fraction; (i, j) -> {k: scalar}
    index = {str(k): k for k in range(dim)}
    for pos, entry in enumerate(brackets):
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= set(entry):
            raise ParseError(f"brackets[{pos}]: needs fields i, j, coeffs")
        i, j = entry["i"], entry["j"]
        if not _integer(i) or not _integer(j):
            raise ParseError(f"brackets[{pos}]: i and j must be integers")
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfRange(f"brackets[{pos}]: index out of range for dim {dim}")
        if i >= j:
            raise ParseError(f"brackets[{pos}]: bracket entries must have i < j")
        if (i, j) in sparse:
            raise ParseError(f"brackets[{pos}]: duplicate bracket ({i},{j})")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, dict):
            raise ParseError(f"brackets[{pos}]: coeffs must be an object")
        parsed = sparse[i, j] = {}
        for key, val in coeffs.items():
            if (k := index.get(key)) is None:  # not the text of an index below dim
                if not _INDEX.fullmatch(key):
                    raise ParseError(f"brackets[{pos}]: bad coefficient index {key!r}")
                _int(key, lambda: f"brackets[{pos}]: a coefficient index")
                # the key, not its int: `_INDEX` keeps it canonical, and str(k) may exceed the digit limit
                raise IndexOutOfRange(f"brackets[{pos}]: coefficient index {key} out of range")
            if val.__class__ not in (str, int) or val not in known:  # as in `_matrix`
                known[val] = _rational(val, lambda: f"brackets[{pos}].coeffs[{key}]")
            parsed[k] = val
    d, ints, made = _over(known, [v for col in sparse.values() for v in col.values()])
    table = {pair: {k: ints[v] for k, v in col.items()} for pair, col in sparse.items()}
    algebra = LieAlgebra._from_scaled(tuple(basis), d, table, made)
    return PHQAlgebra(algebra, _matrix(jmat, dim, "J", known), _matrix(phi, dim, "phi", known))


def serialize_algebra(p: PHQAlgebra) -> str:
    """Canonical text for an algebra; `parse_algebra_text` inverts it exactly.

    The bytes of ``json.dumps(doc, indent=2) + "\\n"`` for the fields dim,
    basis, brackets (i, j, coeffs), J and phi, written here since with an
    indent `json` leaves its C encoder; names go through `json`'s escaper.
    """
    n = p.dim

    def block(parts: list[str], depth: int, ends: str = "[]") -> str:
        # an array or object of encoded parts at nesting depth, one per line
        inner = "\n" + "  " * (depth + 1)
        return f"{ends[0]}{inner}{(',' + inner).join(parts)}\n{'  ' * depth}{ends[1]}" if parts else ends

    def matrix(m: Matrix) -> str:
        e = [f'"{_exact_text(x)}"' if x else '"0"' for x in m.entries]
        return block([block(e[r * n : (r + 1) * n], 2) for r in range(n)], 1)

    brackets = []
    for (i, j), col in p.algebra.brackets.items():
        coeffs = block([f'"{k}": "{_exact_text(c)}"' for k, c in col.items()], 3, "{}")
        brackets.append(block([f'"i": {i}', f'"j": {j}', f'"coeffs": {coeffs}'], 2, "{}"))
    names = block([json.encoder.encode_basestring_ascii(name) for name in p.basis_names], 1)
    fields = [f'"dim": {n}', f'"basis": {names}', f'"brackets": {block(brackets, 1)}']
    return block([*fields, f'"J": {matrix(p.j)}', f'"phi": {matrix(p.phi)}'], 0, "{}") + "\n"


class Recipe(Record):
    """Parsed construction tree: every field is checked, ``dim`` is the
    dimension a walk of the tree predicts, and `evaluate` builds the algebra."""

    tree: dict

    @property
    def dim(self) -> int:
        return _recipe(self.tree, "recipe")[0]

    def evaluate(self) -> PHQAlgebra:
        """Walk the tree again, as parsing did, and build what that walk
        returns, bounded by the dimension that walk gives."""
        dim, build = _recipe(self.tree, "recipe")
        if dim > MAX_DIM:
            raise ParseError(f"recipe builds an algebra of dimension {_scalar_text(dim)}, above {MAX_DIM}")
        return build()


def parse_recipe_text(text: str) -> Recipe:
    doc = _load_json(text)
    _recipe(doc, "recipe")
    return Recipe(doc)


def _recipe(
    node: Any, where: str, depth: int = 1, carrier: bool = False
) -> tuple[int, Callable[[], PHQAlgebra] | None]:
    """Check one node and its subtree, parsing every scalar, and return the
    dimension it builds and a zero-argument builder.  Nothing is built here.
    ``carrier`` admits the kodaira carrier, which only a tstar base may be."""
    if depth > MAX_RECIPE_DEPTH:
        raise ParseError(f"recipe is nested deeper than {MAX_RECIPE_DEPTH} nodes")
    if not isinstance(node, dict) or "op" not in node:
        raise ParseError(f"{where}: each node needs an 'op' field")
    op = node["op"]
    if op in ("L(4,2)", "L(2,4)"):
        return 6, lambda: catalog.build(op)
    if op == "kodaira":
        if not carrier:
            raise ParseError(f"{where}: the kodaira carrier has no metric; wrap it in 'tstar'")
        return 4, None
    if op == "abelian":
        for name in ("p", "q"):
            if not _integer(node.get(name)) or node[name] < 0:
                raise ParseError(f"{where}: abelian needs nonnegative integer {name!r}")
        p, q = node["p"], node["q"]
        if p % 2 or q % 2 or p + q == 0:
            raise ParseError(f"{where}: abelian needs even p and q, not both zero")
        return p + q, lambda: catalog.abelian_with_signature(p, q)
    if op == "direct_sum":
        args = node.get("args")
        if not isinstance(args, list) or len(args) < 2:
            raise ParseError(f"{where}: direct_sum needs at least two args")
        parts = [_recipe(sub, f"{where}.args[{pos}]", depth + 1) for pos, sub in enumerate(args)]
        return sum(n for n, _ in parts), lambda: reduce(
            constructions.direct_sum, (build() for _, build in parts)
        )
    if op == "tstar":
        theta = node.get("theta")
        if not isinstance(theta, list) or len(theta) != 4:
            raise ParseError(f"{where}: tstar needs a list of 4 coefficients")
        coeffs = [_rational(c, lambda: f"{where}.theta[{pos}]") for pos, c in enumerate(theta)]
        base = node.get("base", {"op": "kodaira"})
        _recipe(base, f"{where}.base", depth + 1, carrier=True)
        if base["op"] != "kodaira":
            raise ParseError(f"{where}: tstar is defined over the kodaira carrier")

        def build():
            terms = (th.scale(c) for c, th in zip(coeffs, constructions.kodaira_cocycle_basis()) if c)
            return catalog.tstar_kodaira(sum(terms, constructions.Cocycle.zero(4)))

        return 8, build
    if op not in ("phq_ext", "tensor", "complexify"):
        raise ParseError(f"{where}: unknown op {op!r}")
    # phq_ext, tensor and complexify each take one base
    n, build_base = _recipe(node.get("base"), f"{where}.base", depth + 1)
    if op == "complexify":
        return 2 * n, lambda: constructions.complexify(build_base())
    if op == "tensor":
        k = node.get("k")
        if not _integer(k) or k < 1:
            raise ParseError(f"{where}: tensor needs integer k >= 1")
        return n * k, lambda: constructions.tensor_construct(build_base(), constructions.truncated_poly(k))
    for name in ("D", "F"):
        if not isinstance(node.get(name), list):
            raise ParseError(f"{where}: phq_ext needs matrix {name!r}")
    s0 = node.get("s0")
    if not isinstance(s0, list):
        raise ParseError(f"{where}: phq_ext needs vector 's0'")
    d, f = (_matrix(node[name], n, f"{where}.{name}", {}) for name in ("D", "F"))
    if len(s0) != n:
        raise ParseError(f"{where}: s0 must have length {n}")
    s0 = tuple(_rational(c, lambda: f"{where}.s0[{pos}]") for pos, c in enumerate(s0))
    return n + 4, lambda: constructions.phq_double_extension(ExtensionData(build_base(), d, f, s0))


def parse_path(path: str | Path, fixtures_dir: str | Path | None = None):
    """Parse an `.alg` or `.recipe` file, resolving against ``fixtures_dir``
    when the path does not exist as given."""
    p = Path(path)
    if not p.exists() and fixtures_dir is not None:
        candidate = Path(fixtures_dir) / p
        if candidate.exists():
            p = candidate
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {p}: not UTF-8 text") from exc
    if p.suffix == ".recipe":
        return parse_recipe_text(text)
    return parse_algebra_text(text)
