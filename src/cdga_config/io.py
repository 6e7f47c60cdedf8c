"""File formats and the element-expression micro-grammar.

Algebras are JSON documents: labeled graded basis, unit label, sparse
products with exact rational string coefficients ("p" or "p/q" with q
nonzero, never floats), a sparse differential, an orientation functional
on the top degree and a simply-connected flag. Omitted products are zero;
products of the unit are implied by naming it and injected automatically.

Element expressions use rational coefficients, '*', '+', '-', the tensor
symbol (ASCII fallback: "(x)" inside a parenthesized label) and
parenthesized labels, e.g.  "1*(y(x)xy) - 2*(xy(x)y)".
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .algebra import DGAlgebra, Element, GradedBasis
from .cone import cone_model
from .errors import (EvenDimensionNonzeroXi, ExpressionParseError, ParseError, StructureError,
                     WrongDegree)
from .linalg import _ONE, Parameters, RationalFunction, Scalar, _accumulate, _divide, _exact
from .poincare import PDAlgebra
from .products import TENSOR
from .twisted import TwistedModel, build_cxi, truncate_cone

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


def _string(value, path: str, source: str) -> str:
    """A JSON string; a number or `true` is not coerced by `str()`."""
    if type(value) is not str:
        raise ParseError(f"{source}: {path} must be a string, got {json.dumps(value)}")
    return value


def _coefficient(value, path: str, source: str, names=()) -> _Coeff:
    """The coefficient string at `path` (see `_coeff_term`); a ParseError
    names the path."""
    text = _string(value, path, source)
    try:
        return _coeff_term(text, names)
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
    n = _integer(_require(data, "formal_dimension", source), "formal_dimension", source)
    if n < 0:
        raise ParseError(f"{source}: formal_dimension must be a non-negative integer")
    basis_items = _require(data, "basis", source)
    if not isinstance(basis_items, list) or not basis_items:
        raise ParseError(f"{source}: basis must be a non-empty list")
    pairs = []
    for pos, item in enumerate(basis_items):
        try:
            label, degree = item["label"], item["degree"]
        except (KeyError, TypeError):
            raise ParseError(f"{source}: each basis item needs a label and a degree") from None
        pairs.append((_string(label, f"basis[{pos}].label", source),
                      _integer(degree, f"basis[{pos}].degree", source)))
    try:
        basis = GradedBasis.build(pairs)
    except StructureError as exc:
        raise ParseError(f"{source}: {exc}") from exc

    unit_label = _string(_require(data, "unit", source), "unit", source)
    try:
        unit = basis.index(unit_label)
    except StructureError as exc:
        raise ParseError(f"{source}: {exc}") from exc

    mult = []
    for pos, entry in enumerate(_of_type(data.get("products", []), list, "products", source)):
        try:
            left = basis.index(_string(entry["left"], f"products[{pos}].left", source))
            right = basis.index(_string(entry["right"], f"products[{pos}].right", source))
            result = entry["result"]
        except (KeyError, TypeError):
            raise ParseError(f"{source}: malformed product entry") from None
        except StructureError as exc:
            raise ParseError(f"{source}: {exc}") from exc
        for k, term in enumerate(_of_type(result, list, f"products[{pos}].result", source)):
            try:
                target = basis.index(_string(term["label"], f"products[{pos}].result[{k}].label",
                                             source))
                text = term["coeff"]
            except (KeyError, TypeError, StructureError) as exc:
                raise ParseError(f"{source}: malformed product term: {exc}") from None
            coeff, _ = _coefficient(text, f"products[{pos}].result[{k}].coeff", source)
            mult.append((left, right, target, coeff))
    # the unit multiplies as the identity; these rows are implied
    for i in range(len(basis)):
        mult.append((unit, i, i, 1))

    diff = []
    for pos, entry in enumerate(_of_type(data.get("differential", []), list, "differential",
                                         source)):
        try:
            src = basis.index(_string(entry["from"], f"differential[{pos}].from", source))
            dst = basis.index(_string(entry["to"], f"differential[{pos}].to", source))
            text = entry["coeff"]
        except (KeyError, TypeError, StructureError) as exc:
            raise ParseError(f"{source}: malformed differential entry: {exc}") from None
        coeff, _ = _coefficient(text, f"differential[{pos}].coeff", source)
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
            idx = basis.index(label)
        except StructureError as exc:
            raise ParseError(f"{source}: bad orientation entry: {exc}") from None
        epsilon[idx], _ = _coefficient(coeff, f"orientation[{json.dumps(label)}]", source)
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
        _accumulate(out.setdefault(name, {}), ((k, factor * c) for k, c in coeffs.items()))
    return out


def _at_values(linear: _Linear, values: Mapping[str, object]) -> dict:
    """A new dict: what `linear` is at the parameter values, its constant
    part plus each parameter's dict times the value."""
    total = dict(linear.get(None, ()))
    for name, coeffs in linear.items():
        if name is not None:
            value = values[name]
            _accumulate(total, ((k, value * c) for k, c in coeffs.items()))
    return total


def _resolve(algebra: DGAlgebra, terms: list[_Term]) -> _Linear:
    """The element with these terms, its labels looked up in the
    algebra's basis (None is the unit)."""
    resolved = []
    for coeff, label in terms:
        if label is None:
            idx = algebra.unit
        else:
            try:
                idx = algebra.basis.index(label)
            except StructureError:
                raise ExpressionParseError(
                    f"unknown basis label {label!r} in {algebra.name or 'the algebra'}"
                ) from None
        resolved.append((coeff, {idx: 1}))
    return _linear(resolved)


# --- generator table files ---------------------------------------------------


@dataclass(frozen=True)
class TableDocument:
    """A generator table document, read and checked once. `table(values)`
    builds the table at values of the declared parameters.

    A value is a rational or a `linalg.RationalFunction`. The evaluation
    target C(xi) is a model over the rationals, so it is built, and the
    evaluation with it, only when every value is a rational; otherwise the
    table has no target. What does not depend on the values is done once,
    by `parse_table_file`: xi, each evaluation element and each
    differential is kept as its constant part and one coefficient dict
    per parameter (the constant terms of a differential summed, the labels
    of xi and of the evaluation looked up in the tensor square and in the
    truncation that every C(xi) shares). Nothing built at values is kept:
    each call builds its own table, with dicts and caches of its own.
    `target(values)` builds C(xi) at the values, checked by
    `twisted.build_cxi`; `table` evaluates into the one it is given, or
    else builds its own.

    `symbolic` is the table with each parameter a symbol of one
    `linalg.Parameters`. Its target C(xi(q, r)) is built by
    `twisted.build_cxi`, as an instance of the truncation's C(Xi) that
    takes C(Xi)'s report (or, when C(Xi) is not verified, with the full
    checks run over the parameters). `report` is
    `sullivan.check_table` of it, run once, when first asked for. For a
    table that `table` built at rational values, `check_table` compares
    the table exactly with `symbolic` at those values and, when they agree
    and `report` passed, returns `report`. Why that report is the table's:
    both checks of `check_table` compare sums of products of table
    entries; there is no division. Evaluation at a point is a ring
    homomorphism of Q[q, r] (the symbolic entries are polynomials, or
    there is no `symbolic`), so each side computed on the table is the
    symbolic side evaluated there, and an identity that held
    symbolically holds at every point. Guards do not matter here: a zero
    test only drops an entry that is already zero.

    `family_verdicts` is the one memo: `sullivan.classify_example` keeps
    there, by the names of its symbols, the verdicts of its two solves
    with the parameters symbolic, ("q1",) and ("q1", "q2"). They depend on
    the document alone, so whoever holds the document (`presets.preset_table`
    for the packaged one) solves each once.
    """

    source: str
    parameters: list[str]
    pd: PDAlgebra
    xi: _Linear
    # per generator, in the basis of the truncation
    evaluation: tuple[_Linear, ...]
    # per generator, in the free algebra's monomials
    differentials: tuple[_Linear, ...]
    # the generators, cap and name with no differentials and no target:
    # the template `table` copies, each copy with caches of its own
    blank: GeneratorTable
    family_verdicts: dict = field(default_factory=dict, compare=False, repr=False)

    def table(self, values: Mapping[str, Scalar], target: Optional[TwistedModel] = None):
        """The table at `values`. At rational values it evaluates into
        C(xi) at those values: `target` when given, which must be the
        model that `target(values)` built (its xi is compared with xi at
        the values), else one built here by `target(values)`."""
        values = self._canonical(values)
        if not all(isinstance(values[p], Scalar) for p in self.parameters):
            return self._build(values, None)
        if target is None:
            target = self.target(values)
        elif target.xi != self._xi(values):
            raise StructureError(f"{self.source}: the target given is not C(xi) at these values")
        table = self._build(values, target)
        # the one place that sets it (see `GeneratorTable._built_from`)
        object.__setattr__(table, "_built_from", (self, values))
        return table

    def target(self, values: Mapping[str, object]) -> TwistedModel:
        """C(xi) at `values`, the table's target there, built and checked
        by `twisted.build_cxi`."""
        return build_cxi(self.pd, self._xi(self._canonical(values)))

    def _canonical(self, values: Mapping[str, object]) -> dict[str, object]:
        """The values in canonical form (`linalg._exact`); a declared
        parameter without a value is a ParseError."""
        missing = [p for p in self.parameters if p not in values]
        if missing:
            raise ParseError(f"{self.source}: values required for parameters {missing}")
        return {name: _exact(value) for name, value in values.items()}

    def _xi(self, values: Mapping[str, object]) -> Element:
        return self.pd.square.element(_at_values(self.xi, values))

    def _build(self, values: Mapping[str, object], target) -> GeneratorTable:
        """The table at `values`, evaluating into `target` (none when it
        is None)."""
        evaluation = () if target is None else tuple(
            target.algebra.element(_at_values(image, values)) for image in self.evaluation)
        return dataclasses.replace(
            self.blank, differentials=tuple(_at_values(d, values) for d in self.differentials),
            target=target, evaluation=evaluation)

    @cached_property
    def symbolic(self) -> Optional[GeneratorTable]:
        """The table with each parameter a symbol, or None when xi over
        the symbols fails `build_cxi`'s preconditions (a term whose
        coefficient vanishes at some values may have the wrong degree) or
        an entry has a non-constant denominator."""
        params = Parameters(self.parameters)
        values = {name: params.symbol(k) for k, name in enumerate(self.parameters)}
        try:
            target = self.target(values)
        except (EvenDimensionNonzeroXi, WrongDegree):
            return None
        table = self._build(values, target)
        s1 = target.trunc.s1_index
        rows = (*table.differentials, *(image.coeffs for image in table.evaluation),
                target.algebra._mult[s1][s1])
        if any(type(c) is RationalFunction and c.den != _ONE for row in rows for c in row.values()):
            return None
        return table

    @cached_property
    def report(self) -> Optional[TableReport]:
        """`sullivan.check_table` of `symbolic`, or None without one."""
        from .sullivan import check_table

        return None if self.symbolic is None else check_table(self.symbolic)


def parse_table_file(path: str | Path) -> TableDocument:
    """Read and check a generator table document (see `TableDocument`).
    The evaluation's labels are looked up in the truncation of the
    algebra's cone, which this builds (`twisted.truncate_cone`)."""
    from .sullivan import GeneratorTable
    from .presets import resolve_pd

    path = Path(path)
    data = _read_json(path)
    source = str(path)
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    declared = _of_type(data.get("parameters", []), list, "parameters", source)
    for pos, name in enumerate(declared):
        _string(name, f"parameters[{pos}]", source)

    pd = resolve_pd(_string(_require(data, "algebra", source), "algebra", source),
                    relative_to=path.parent)
    square = pd.square
    xi = _element_terms(_string(_require(data, "xi", source), "xi", source), declared)

    cap = _integer(_require(data, "degree_cap", source), "degree_cap", source)
    gens = []
    for pos, item in enumerate(_of_type(_require(data, "generators", source), list,
                                        "generators", source)):
        try:
            label, degree = item["label"], item["degree"]
        except (KeyError, TypeError):
            raise ParseError(f"{source}: each generator needs a label and a degree") from None
        at = f"generators[{pos}].degree"
        degree = _integer(degree, at, source)
        if not 0 < degree <= cap:
            raise ParseError(f"{source}: {at} must lie in 1..degree_cap = {cap}, got {degree}")
        gens.append((_string(label, f"generators[{pos}].label", source), degree))
    gen_index = {label: g for g, (label, _) in enumerate(gens)}

    values = _of_type(_require(data, "evaluation", source), dict, "evaluation", source)
    evaluation = []
    for label, _ in gens:
        at = f"evaluation[{json.dumps(label)}]"
        if label not in values:
            raise ParseError(f"{source}: missing field {at}")
        evaluation.append(_element_terms(_string(values[label], at, source), declared))

    # a table without differentials multiplies the terms' factors
    table = GeneratorTable(
        base=square,
        gens=tuple(gens),
        differentials=tuple({} for _ in gens),
        target=None,
        evaluation=(),
        degree_cap=cap,
        name=_string(data.get("name", path.stem), "name", source),
    )

    differentials = []
    table_diffs = _of_type(_require(data, "differentials", source), dict, "differentials", source)
    for label in table_diffs:
        if label not in gen_index:
            raise ParseError(f"{source}: differentials[{json.dumps(label)}] names no generator")
    for label, degree in gens:
        at = f"differentials[{json.dumps(label)}]"
        terms = []
        for pos, term in enumerate(_of_type(table_diffs.get(label, []), list, at, source)):
            term = _of_type(term, dict, f"{at}[{pos}]", source)
            coeff = _coefficient(term.get("coeff", "1"), f"{at}[{pos}].coeff", source, declared)
            factors = []
            for k, g in enumerate(_of_type(term.get("gens", []), list, f"{at}[{pos}].gens", source)):
                if type(g) is not str or g not in gen_index:
                    raise ParseError(f"{source}: {at}[{pos}].gens[{k}] is not a generator, "
                                     f"got {json.dumps(g)}")
                factors.append(table.gen_elt(gen_index[g]))
            base = _string(term.get("base", ""), f"{at}[{pos}].base", source)
            base_label = base.replace("(x)", TENSOR)
            if base_label:
                try:
                    factors.append(table.base_elt(square.basis.index(base_label)))
                except StructureError as exc:
                    raise ParseError(f"{source}: {exc}") from None
            # each factor is a single monomial
            term_degree = sum(table.monomial_degree(mono) for factor in factors for mono in factor)
            if term_degree != degree + 1:
                raise ParseError(f"{source}: {at}[{pos}] has degree {term_degree}, "
                                 f"not |{label}| + 1 = {degree + 1}")
            terms.append((coeff, table.product(*factors)))
        differentials.append(_linear(terms))
    # every C(xi) has the truncation's basis (`twisted.TruncatedCone.instance`)
    target = truncate_cone(cone_model(pd)).algebra
    return TableDocument(source, declared, pd, _resolve(square, xi),
                         tuple(_resolve(target, terms) for terms in evaluation),
                         tuple(differentials), table)


def load_table_file(path: str | Path, parameters: Optional[Mapping[str, Scalar]] = None):
    """Load a generator table document; `parameters` must supply a value
    for every name the file declares (see `TableDocument`)."""
    return parse_table_file(path).table(parameters or {})
