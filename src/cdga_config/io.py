"""File formats and the element-expression micro-grammar.

Algebras are JSON documents: labeled graded basis, unit label, sparse
products with exact rational string coefficients ("p" or "p/q", never
floats), a sparse differential, an orientation functional on the top
degree and a simply-connected flag. Omitted products are zero; products of
the unit are implied by naming it and injected automatically.

Element expressions use rational coefficients, '*', '+', '-', the tensor
symbol (ASCII fallback: "(x)" inside a parenthesized label) and
parenthesized labels, e.g.  "1*(y(x)xy) - 2*(xy(x)y)".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

from .algebra import DGAlgebra, Element, GradedBasis
from .errors import ExpressionParseError, ParseError, StructureError
from .linalg import ONE
from .poincare import PDAlgebra, check_pd

TENSOR = "⊗"

_NUMBER_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_coeff(text: str, parameters: Optional[Mapping[str, Fraction]] = None) -> Fraction:
    """Exact rational coefficient: 'p', 'p/q', a declared parameter name,
    or 'rational*parameter' with optional leading sign."""
    text = text.strip().replace("−", "-")
    if _NUMBER_RE.match(text):
        return Fraction(text)
    parameters = parameters or {}
    sign = ONE
    if text.startswith("-"):
        sign = -ONE
        text = text[1:].strip()
    elif text.startswith("+"):
        text = text[1:].strip()
    if "*" in text:
        num, _, name = text.partition("*")
        num = num.strip()
        name = name.strip()
        if _NUMBER_RE.match(num) and name in parameters:
            return sign * Fraction(num) * parameters[name]
    elif text in parameters:
        return sign * parameters[text]
    raise ParseError(f"not an exact rational coefficient: {text!r}")


# --- algebra files -----------------------------------------------------------


def _require(data: dict, key: str, source: str):
    if key not in data:
        raise ParseError(f"{source}: missing field {key!r}")
    return data[key]


def _of_type(value, kind: type, path: str, source: str):
    """A JSON object (`dict`) or array (`list`) at `path`, else a ParseError."""
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise ParseError(f"{source}: {path} must be {what}, got {json.dumps(value)}")
    return value


def _integer(value, path: str, source: str) -> int:
    """A JSON integer; `true` and `2.7` are not integers, so they are
    rejected rather than coerced by `int()`."""
    if type(value) is not int:
        raise ParseError(f"{source}: {path} must be an integer, got {json.dumps(value)}")
    return value


def load_algebra_data(data: dict, source: str = "<data>") -> tuple[DGAlgebra, int, dict[int, Fraction], dict]:
    """Validate a parsed algebra document and build the DGAlgebra.

    Returns (algebra, formal dimension, orientation coefficients, flags).
    """
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    name = data.get("name", "")
    n = _integer(_require(data, "formal_dimension", source), "formal_dimension", source)
    if n < 0:
        raise ParseError(f"{source}: formal_dimension must be a non-negative integer")
    basis_items = _require(data, "basis", source)
    if not isinstance(basis_items, list) or not basis_items:
        raise ParseError(f"{source}: basis must be a non-empty list")
    pairs = []
    for pos, item in enumerate(basis_items):
        try:
            label, degree = str(item["label"]), item["degree"]
        except (KeyError, TypeError):
            raise ParseError(f"{source}: each basis item needs a label and a degree") from None
        pairs.append((label, _integer(degree, f"basis[{pos}].degree", source)))
    try:
        basis = GradedBasis.build(pairs)
    except StructureError as exc:
        raise ParseError(f"{source}: {exc}") from exc

    unit_label = str(_require(data, "unit", source))
    try:
        unit = basis.index(unit_label)
    except StructureError as exc:
        raise ParseError(f"{source}: {exc}") from exc

    mult = []
    for entry in data.get("products", []):
        try:
            left = basis.index(str(entry["left"]))
            right = basis.index(str(entry["right"]))
            result = entry["result"]
        except (KeyError, TypeError):
            raise ParseError(f"{source}: malformed product entry") from None
        except StructureError as exc:
            raise ParseError(f"{source}: {exc}") from exc
        for term in result:
            try:
                target = basis.index(str(term["label"]))
                coeff = parse_coeff(str(term["coeff"]))
            except (KeyError, TypeError, ParseError, StructureError) as exc:
                raise ParseError(f"{source}: malformed product term: {exc}") from None
            mult.append((left, right, target, coeff))
    # the unit multiplies as the identity; these rows are implied
    for i in range(len(basis)):
        mult.append((unit, i, i, ONE))

    diff = []
    for entry in data.get("differential", []):
        try:
            src = basis.index(str(entry["from"]))
            dst = basis.index(str(entry["to"]))
            coeff = parse_coeff(str(entry["coeff"]))
        except (KeyError, TypeError, ParseError, StructureError) as exc:
            raise ParseError(f"{source}: malformed differential entry: {exc}") from None
        diff.append((src, dst, coeff))

    flags = data.get("flags", {})
    if not isinstance(flags, dict):
        raise ParseError(f"{source}: flags must be an object, got {json.dumps(flags)}")
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

    orientation = _require(data, "orientation", source)
    if not isinstance(orientation, dict) or not orientation:
        raise ParseError(f"{source}: orientation must be a non-empty object")
    epsilon = {}
    for label, coeff in orientation.items():
        try:
            idx = basis.index(str(label))
            epsilon[idx] = parse_coeff(str(coeff))
        except (ParseError, StructureError) as exc:
            raise ParseError(f"{source}: bad orientation entry: {exc}") from None
        if basis.degrees[idx] != n:
            raise ParseError(f"{source}: orientation entry {label!r} is not in degree {n}")
    return algebra, n, epsilon, {"simply_connected": simply_connected}


def load_algebra_file(path: str | Path) -> tuple[DGAlgebra, int, dict[int, Fraction], dict]:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return load_algebra_data(data, str(path))


def load_pd_file(path: str | Path) -> PDAlgebra:
    algebra, n, epsilon, _ = load_algebra_file(path)
    return check_pd(algebra, n, epsilon)


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
    Path(path).write_text(
        json.dumps(dump_pd(pd), indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


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


def parse_element(algebra: DGAlgebra, text: str,
                  parameters: Optional[Mapping[str, Fraction]] = None) -> Element:
    """Parse an element expression against the algebra's basis labels.

    A bare number multiplies the unit (so "0" is the zero element); a
    declared parameter name acts as a rational coefficient.
    """
    parameters = parameters or {}
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionParseError("empty expression")

    def is_scalar(word: str) -> bool:
        return bool(_NUMBER_RE.match(word)) or word in parameters

    def scalar_value(word: str) -> Fraction:
        return Fraction(word) if _NUMBER_RE.match(word) else parameters[word]

    total = algebra.zero()
    pos = 0
    sign = ONE
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
            coeff = ONE
            label = None
            if is_scalar(value):
                coeff = scalar_value(value)
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "*":
                    pos += 1
                if pos < len(tokens) and tokens[pos][0] == "word" and not is_scalar(tokens[pos][1]):
                    label = tokens[pos][1]
                    pos += 1
            else:
                label = value
                pos += 1
            if label is None:
                term = algebra.one().scale(sign * coeff)
            else:
                try:
                    idx = algebra.basis.index(label)
                except StructureError:
                    raise ExpressionParseError(
                        f"unknown basis label {label!r} in {algebra.name or 'the algebra'}"
                    ) from None
                term = algebra.basis_element(idx).scale(sign * coeff)
            total = total + term
            sign = ONE
            expect_term = False
            continue
        if kind in "+-":
            sign = ONE if kind == "+" else -ONE
            pos += 1
            expect_term = True
            continue
        raise ExpressionParseError(f"unexpected {value!r} after a term")
    if expect_term:
        raise ExpressionParseError("dangling operator at the end of the expression")
    return total


# --- generator table files ---------------------------------------------------


def load_table_file(path: str | Path, parameters: Optional[Mapping[str, Fraction]] = None):
    """Load a generator table document; `parameters` must supply a rational
    for every name the file declares."""
    from .sullivan import GeneratorTable
    from .twisted import build_cxi
    from .presets import resolve_pd

    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    source = str(path)
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    declared = _of_type(data.get("parameters", []), list, "parameters", source)
    for pos, name in enumerate(declared):
        if type(name) is not str:
            raise ParseError(f"{source}: parameters[{pos}] must be a string, got {json.dumps(name)}")
    parameters = dict(parameters or {})
    missing = [p for p in declared if p not in parameters]
    if missing:
        raise ParseError(f"{source}: values required for parameters {missing}")

    pd = resolve_pd(str(_require(data, "algebra", source)), relative_to=path.parent)
    square = pd.square
    xi = parse_element(square, str(_require(data, "xi", source)), parameters)
    target = build_cxi(pd, xi)

    gens = []
    for pos, item in enumerate(_require(data, "generators", source)):
        try:
            label, degree = str(item["label"]), item["degree"]
        except (KeyError, TypeError):
            raise ParseError(f"{source}: each generator needs a label and a degree") from None
        gens.append((label, _integer(degree, f"generators[{pos}].degree", source)))
    gen_index = {label: g for g, (label, _) in enumerate(gens)}

    values = _of_type(_require(data, "evaluation", source), dict, "evaluation", source)
    evaluation = []
    for label, _ in gens:
        if label not in values:
            raise ParseError(f"{source}: missing field evaluation[{json.dumps(label)}]")
        evaluation.append(parse_element(target.algebra, str(values[label]), parameters))

    table = GeneratorTable(
        base=square,
        gens=tuple(gens),
        differentials=tuple({} for _ in gens),
        target=target,
        evaluation=tuple(evaluation),
        degree_cap=_integer(_require(data, "degree_cap", source), "degree_cap", source),
        name=str(data.get("name", path.stem)),
    )

    differentials = []
    table_diffs = _of_type(_require(data, "differentials", source), dict, "differentials", source)
    for label in table_diffs:
        if label not in gen_index:
            raise ParseError(f"{source}: differentials[{json.dumps(label)}] names no generator")
    for label, _ in gens:
        at = f"differentials[{json.dumps(label)}]"
        total: dict = {}
        for pos, term in enumerate(_of_type(table_diffs.get(label, []), list, at, source)):
            term = _of_type(term, dict, f"{at}[{pos}]", source)
            try:
                coeff = parse_coeff(str(term.get("coeff", "1")), parameters)
            except ParseError as exc:
                raise ParseError(f"{source}: {at}[{pos}].coeff: {exc}") from None
            factors = []
            for k, g in enumerate(_of_type(term.get("gens", []), list, f"{at}[{pos}].gens", source)):
                if type(g) is not str or g not in gen_index:
                    raise ParseError(f"{source}: {at}[{pos}].gens[{k}] is not a generator, "
                                     f"got {json.dumps(g)}")
                factors.append(table.gen_elt(gen_index[g]))
            base_label = str(term.get("base", "")).replace("(x)", TENSOR)
            if base_label:
                try:
                    factors.append(table.base_elt(square.basis.index(base_label)))
                except StructureError as exc:
                    raise ParseError(f"{source}: {exc}") from None
            total = table.add(total, table.scale(table.product(*factors), coeff))
        differentials.append(total)
    table.differentials = tuple(differentials)
    return table
