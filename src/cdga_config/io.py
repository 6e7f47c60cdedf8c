"""File formats and the element-expression micro-grammar.

Algebras are JSON documents: labeled graded basis, unit label, sparse
products with exact rational string coefficients ("p" or "p/q" with q
nonzero, never floats), a sparse differential, an orientation functional
on the top degree and a simply-connected flag. Omitted products are zero;
products of the unit are implied by naming it and injected automatically.
Both loaders read every field through `_field` and every basis label
through `_label`, so a rejected document names its source and JSON path
(table documents too: `sullivan.parse_table_file`).

Element expressions use rational coefficients, '*', '+', '-', the tensor
symbol (ASCII fallback: "(x)" inside a parenthesized label) and
parenthesized labels, e.g.  "1*(y(x)xy) - 2*(xy(x)y)".
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .algebra import TENSOR, DGAlgebra, Element, GradedBasis
from .errors import ExpressionParseError, ParseError, StructureError
from .linalg import Scalar, _accumulate, _divide, _exact
from .poincare import PDAlgebra

_NUMBER_RE = re.compile(r"^[-+]?\d+(/\d+)?$")


def _number(text: str) -> Scalar:
    """The rational a `_NUMBER_RE` match spells; a zero denominator is a
    ParseError."""
    num, _, den = text.partition("/")
    if not den:
        return int(num)
    if not int(den):
        raise ParseError(f"zero denominator in {text!r}")
    return _divide(int(num), int(den))


_Coeff = tuple[Scalar, Optional[str]]


def _coeff_term(text: str, names) -> _Coeff:
    """(rational, parameter name or None) spelled by a coefficient: 'p',
    'p/q' (q nonzero), a parameter name in `names`, or 'rational*name',
    with an optional leading sign."""
    text = text.strip().replace("−", "-")
    if _NUMBER_RE.match(text):
        return _number(text), None
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    elif text.startswith("+"):
        text = text[1:].strip()
    if "*" in text:
        num, _, name = text.partition("*")
        num = num.strip()
        name = name.strip()
        if _NUMBER_RE.match(num) and name in names:
            return _exact(sign * _number(num)), name
    elif text in names:
        return sign, text
    raise ParseError(f"not an exact rational coefficient: {text!r}")


def parse_coeff(text: str) -> Scalar:
    """Exact rational coefficient: 'p' or 'p/q' (q nonzero), with an
    optional leading sign."""
    return _coeff_term(text, ())[0]


# --- algebra files -----------------------------------------------------------


def _field(obj, key: str, source: str, path: str = ""):
    """Field `key` of the JSON object at `path` (by default the top level,
    whose fields are named `'key'`); a ParseError names the path when
    `obj` is not an object or lacks the key."""
    if key not in _of_type(obj, dict, path, source):
        raise ParseError(f"{source}: missing field {f'{path}.{key}' if path else repr(key)}")
    return obj[key]


def _label(basis: GradedBasis, value, path: str, source: str) -> int:
    """The index of the basis label at `path` (a JSON string); an unknown
    label is a ParseError naming the path and the label."""
    label = _string(value, path, source)
    try:
        return basis.index(label)
    except StructureError:
        raise ParseError(f"{source}: {path} names no basis element: "
                         f"{json.dumps(label, ensure_ascii=False)}") from None


def _of_type(value, kind: type, path: str, source: str):
    """A JSON object (`dict`) or array (`list`) at `path`, else a ParseError."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ParseError(f"{source}: {path} must be {what}, got {json.dumps(value)}")
    return value


def _string(value, path: str, source: str) -> str:
    """A JSON string; a number or `true` is not coerced by `str()`."""
    if type(value) is not str:
        raise ParseError(f"{source}: {path} must be a string, got {json.dumps(value)}")
    return value


def _parsed(parse, value, path: str, source: str, names=()):
    """`parse(text, names)` of the JSON string at `path` (`_coeff_term` or
    `_element_terms`); a ParseError names the path."""
    text = _string(value, path, source)
    try:
        return parse(text, names)
    except ParseError as exc:
        raise ParseError(f"{source}: {path}: {exc}") from None


def _integer(value, path: str, source: str) -> int:
    """A JSON integer; `true` and `2.7` are not integers, so they are
    rejected rather than coerced by `int()`."""
    if type(value) is not int:
        raise ParseError(f"{source}: {path} must be an integer, got {json.dumps(value)}")
    return value


def load_algebra_data(data: dict, source: str = "<data>") -> tuple[DGAlgebra, int, dict[int, Scalar], dict]:
    """Validate a parsed algebra document and build the DGAlgebra.

    Returns (algebra, formal dimension, orientation coefficients, flags).
    """
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    name = _string(data.get("name", ""), "name", source)
    n = _integer(_field(data, "formal_dimension", source), "formal_dimension", source)
    if n < 0:
        raise ParseError(f"{source}: formal_dimension must be a non-negative integer")
    basis_items = _field(data, "basis", source)
    if not isinstance(basis_items, list) or not basis_items:
        raise ParseError(f"{source}: basis must be a non-empty list")
    degrees = {}
    for pos, item in enumerate(basis_items):
        at = f"basis[{pos}]"
        label = _string(_field(item, "label", source, at), f"{at}.label", source)
        degree = _integer(_field(item, "degree", source, at), f"{at}.degree", source)
        if degree < 0:
            raise ParseError(f"{source}: {at}.degree must be non-negative, got {degree}")
        if label in degrees:
            raise ParseError(f"{source}: {at}.label repeats an earlier label: "
                             f"{json.dumps(label, ensure_ascii=False)}")
        degrees[label] = degree
    basis = GradedBasis.build(degrees.items())
    unit = _label(basis, _field(data, "unit", source), "unit", source)

    mult = []
    for pos, entry in enumerate(_of_type(data.get("products", []), list, "products", source)):
        at = f"products[{pos}]"
        left = _label(basis, _field(entry, "left", source, at), f"{at}.left", source)
        right = _label(basis, _field(entry, "right", source, at), f"{at}.right", source)
        result = _of_type(_field(entry, "result", source, at), list, f"{at}.result", source)
        for k, term in enumerate(result):
            here = f"{at}.result[{k}]"
            target = _label(basis, _field(term, "label", source, here), f"{here}.label", source)
            coeff, _ = _parsed(_coeff_term, _field(term, "coeff", source, here), f"{here}.coeff",
                               source)
            mult.append((left, right, target, coeff))
    # the unit multiplies as the identity; these rows are implied
    for i in range(len(basis)):
        mult.append((unit, i, i, 1))

    diff = []
    for pos, entry in enumerate(_of_type(data.get("differential", []), list, "differential",
                                         source)):
        at = f"differential[{pos}]"
        src = _label(basis, _field(entry, "from", source, at), f"{at}.from", source)
        dst = _label(basis, _field(entry, "to", source, at), f"{at}.to", source)
        coeff, _ = _parsed(_coeff_term, _field(entry, "coeff", source, at), f"{at}.coeff", source)
        diff.append((src, dst, coeff))

    flags = _of_type(data.get("flags", {}), dict, "flags", source)
    simply_connected = flags.get("simply_connected", False)
    if type(simply_connected) is not bool:
        raise ParseError(f"{source}: flags.simply_connected must be a boolean, "
                         f"got {json.dumps(simply_connected)}")

    try:
        algebra = DGAlgebra(
            basis, unit, mult, diff,
            name=name, top_degree=n, simply_connected=simply_connected,
        )
    except StructureError as exc:
        raise ParseError(f"{source}: {exc}") from exc

    orientation = _field(data, "orientation", source)
    if not isinstance(orientation, dict) or not orientation:
        raise ParseError(f"{source}: orientation must be a non-empty object")
    epsilon = {}
    for label, coeff in orientation.items():
        idx = _label(basis, label, "orientation", source)
        epsilon[idx], _ = _parsed(_coeff_term, coeff, f"orientation[{json.dumps(label)}]", source)
        if basis.degrees[idx] != n:
            raise ParseError(f"{source}: orientation entry {label!r} is not in degree {n}")
    return algebra, n, epsilon, {"simply_connected": simply_connected}


def _read_json(path: Path):
    """The JSON document in the file at `path`. A key repeated within one
    object is a parse error, not a silent last-wins."""

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ParseError(f"{path}: repeated key {json.dumps(key)}")
                seen.add(key)
        return obj

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_algebra_file(path: str | Path) -> tuple[DGAlgebra, int, dict[int, Scalar], dict]:
    path = Path(path)
    return load_algebra_data(_read_json(path), str(path))


def dump_pd(pd: PDAlgebra) -> dict:
    """Serialize a verified duality algebra back to the file format."""
    algebra = pd.algebra
    basis = algebra.basis
    unit = algebra.unit
    products = []
    by_pair: dict[tuple[int, int], list] = {}
    for i, j, k, c in algebra.mult_entries():
        if i == unit or j == unit:
            continue
        by_pair.setdefault((i, j), []).append({"label": basis.labels[k], "coeff": str(c)})
    for (i, j), result in sorted(by_pair.items()):
        products.append({"left": basis.labels[i], "right": basis.labels[j], "result": result})
    differential = [
        {"from": basis.labels[i], "to": basis.labels[j], "coeff": str(c)}
        for i, j, c in algebra.diff_entries()
    ]
    return {
        "name": algebra.name,
        "formal_dimension": pd.n,
        "basis": [
            {"label": l, "degree": d} for l, d in zip(basis.labels, basis.degrees)
        ],
        "unit": basis.labels[unit],
        "products": products,
        "differential": differential,
        "orientation": {basis.labels[i]: str(c) for i, c in sorted(pd.epsilon.items())},
        "flags": {"simply_connected": algebra.simply_connected},
    }


def write_pd_file(pd: PDAlgebra, path: str | Path) -> None:
    path = Path(path)
    try:
        path.write_text(
            json.dumps(dump_pd(pd), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


# --- element expressions -----------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str]]:
    text = text.replace("−", "-")
    tokens: list[tuple[str, str]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*":
            tokens.append((ch, ch))
            i += 1
            continue
        if ch == "(":
            depth = 1
            j = i + 1
            while j < len(text) and depth:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ExpressionParseError(f"unbalanced parenthesis at position {i}")
            content = text[i + 1 : j - 1].replace("(x)", TENSOR)
            tokens.append(("word", content))
            i = j
            continue
        if ch == ")":
            raise ExpressionParseError(f"unexpected ')' at position {i}")
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "+-*()":
            j += 1
        tokens.append(("word", text[i:j]))
        i = j
    return tokens


def parse_element(algebra: DGAlgebra, text: str) -> Element:
    """Parse an element expression against the algebra's basis labels.

    A bare number multiplies the unit (so "0" is the zero element).
    """
    return algebra.element(_at_values(_resolve(algebra, _element_terms(text, ())), {}))


_Term = tuple[_Coeff, Optional[str]]


def _element_terms(text: str, names) -> list[_Term]:
    """The terms of an element expression, each a coefficient (see
    `_coeff_term`) and a basis label, or None for the unit."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionParseError("empty expression")

    def is_scalar(word: str) -> bool:
        return bool(_NUMBER_RE.match(word)) or word in names

    terms: list[_Term] = []
    pos = 0
    sign = 1
    expect_term = True
    while pos < len(tokens):
        kind, value = tokens[pos]
        if expect_term:
            if kind == "-":
                sign = -sign
                pos += 1
                continue
            if kind == "+":
                pos += 1
                continue
            if kind != "word":
                raise ExpressionParseError(f"unexpected {value!r}")
            coeff = (sign, None)
            label = None
            if is_scalar(value):
                coeff = (sign * _number(value), None) if _NUMBER_RE.match(value) else (sign, value)
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "*":
                    pos += 1
                if pos < len(tokens) and tokens[pos][0] == "word" and not is_scalar(tokens[pos][1]):
                    label = tokens[pos][1]
                    pos += 1
            else:
                label = value
                pos += 1
            terms.append((coeff, label))
            sign = 1
            expect_term = False
            continue
        if kind in "+-":
            sign = 1 if kind == "+" else -1
            pos += 1
            expect_term = True
            continue
        raise ExpressionParseError(f"unexpected {value!r} after a term")
    if expect_term:
        raise ExpressionParseError("dangling operator at the end of the expression")
    return terms


# A value linear in a document's parameters: the coefficient dict of each
# parameter under its name, and the constant part under None.
_Linear = dict[Optional[str], dict]


def _linear(terms: Iterable[tuple[_Coeff, dict]]) -> _Linear:
    """The sum of coefficient * dict over the terms, kept apart by the
    coefficients' parameters."""
    out: _Linear = {}
    for (factor, name), coeffs in terms:
        _accumulate(out.setdefault(name, {}), coeffs.items(), factor)
    return out


def _at_values(linear: _Linear, values: Mapping[str, object]) -> dict:
    """A new dict: what `linear` is at the parameter values, its constant
    part plus each parameter's dict times the value."""
    total = dict(linear.get(None, ()))
    for name, coeffs in linear.items():
        if name is not None:
            _accumulate(total, coeffs.items(), values[name])
    return total


def _resolve(algebra: DGAlgebra, terms: list[_Term], path=None, source="") -> _Linear:
    """The element with these terms, its labels looked up in the
    algebra's basis (None is the unit). An unknown label is a ParseError
    naming `path` in the document `source` (`_label`), or, with no path
    (an expression given on the command line), an ExpressionParseError."""
    resolved = []
    for coeff, label in terms:
        if label is None:
            idx = algebra.unit
        elif path is not None:
            idx = _label(algebra.basis, label, path, source)
        else:
            try:
                idx = algebra.basis.index(label)
            except StructureError:
                raise ExpressionParseError(
                    f"unknown basis label {label!r} in {algebra.name or 'the algebra'}"
                ) from None
        resolved.append((coeff, {idx: 1}))
    return _linear(resolved)
