import json
import re
from fractions import Fraction as F

import pytest

from cdga_config.errors import ExpressionParseError, ParseError
from cdga_config.io import load_algebra_data, parse_coeff, parse_element
from cdga_config.presets import preset_pd

TENSOR = "⊗"


def minimal_doc(**overrides):
    doc = {
        "name": "tiny",
        "formal_dimension": 2,
        "basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2}],
        "unit": "1",
        "products": [],
        "differential": [],
        "orientation": {"x": "1"},
        "flags": {"simply_connected": True},
    }
    doc.update(overrides)
    return doc


def test_load_minimal_document():
    algebra, n, epsilon, flags = load_algebra_data(minimal_doc())
    assert n == 2 and algebra.dim() == 2
    assert flags == {"simply_connected": True}
    assert epsilon == {algebra.basis.index("x"): F(1)}


@pytest.mark.parametrize("name", [5, None, True, ["tiny"]], ids=["int", "null", "true", "list"])
def test_name_that_is_not_a_string_rejected(name):
    with pytest.raises(ParseError, match=re.escape(f"doc.json: name must be a string, got {json.dumps(name)}")):
        load_algebra_data(minimal_doc(name=name), "doc.json")


def test_float_coefficients_rejected():
    doc = minimal_doc(orientation={"x": "0.5"})
    with pytest.raises(ParseError):
        load_algebra_data(doc)


def test_basis_above_formal_dimension_rejected():
    doc = minimal_doc(basis=[
        {"label": "1", "degree": 0},
        {"label": "x", "degree": 2},
        {"label": "t", "degree": 3},
    ])
    with pytest.raises(ParseError):
        load_algebra_data(doc)


def test_degree_violating_product_rejected():
    doc = minimal_doc(products=[{
        "left": "x", "right": "x", "result": [{"label": "x", "coeff": "1"}],
    }])
    with pytest.raises(ParseError):
        load_algebra_data(doc)


def test_unknown_label_rejected():
    doc = minimal_doc(orientation={"nope": "1"})
    with pytest.raises(ParseError):
        load_algebra_data(doc)


def test_duplicate_labels_rejected():
    doc = minimal_doc(basis=[
        {"label": "1", "degree": 0}, {"label": "1", "degree": 2},
    ])
    with pytest.raises(ParseError):
        load_algebra_data(doc)


def _table_coeff(text, values):
    """A coefficient through the table-document grammar, with parameters."""
    from cdga_config.io import _at_values, _coeff_term, _linear

    return _at_values(_linear([(_coeff_term(text, values), {0: 1})]), values).get(0, 0)


def test_parse_coeff_forms():
    assert parse_coeff("3/4") == F(3, 4)
    assert parse_coeff("-2") == F(-2)
    assert _table_coeff("q", {"q": F(5)}) == F(5)
    assert _table_coeff("-q", {"q": F(5)}) == F(-5)
    assert _table_coeff("3/2*q", {"q": F(4)}) == F(6)
    with pytest.raises(ParseError):
        parse_coeff("1.5")
    with pytest.raises(ParseError):
        parse_coeff("unknown")
    with pytest.raises(ParseError):
        parse_coeff("q")


def test_parse_coeff_is_canonical():
    assert parse_coeff("4/2") == 2 and type(parse_coeff("4/2")) is int
    assert type(_table_coeff("3/2*q", {"q": F(4)})) is int
    assert type(_table_coeff("q", {"q": F(5)})) is int
    assert parse_coeff("+3/1") == 3 and type(parse_coeff("+3/1")) is int
    with pytest.raises(ParseError):
        parse_coeff("--1")


@pytest.mark.parametrize("text", ["1/0", "-0/0", "2/0*q", "−5/0"])
def test_parse_coeff_zero_denominator_is_parse_error(text):
    with pytest.raises(ParseError, match="zero denominator"):
        _table_coeff(text, {"q": F(1)})


# --- the element micro-grammar -------------------------------------------------


def test_parse_element_unicode_and_ascii_tensor(s2xs3):
    square = s2xs3.square
    unicode_form = parse_element(square, f"1*(y{TENSOR}xy) - 2*(xy{TENSOR}y)")
    ascii_form = parse_element(square, "1*(y(x)xy) - 2*(xy(x)y)")
    assert unicode_form == ascii_form
    assert unicode_form.coeffs == {
        square.basis.index(f"y{TENSOR}xy"): F(1),
        square.basis.index(f"xy{TENSOR}y"): F(-2),
    }


def test_parse_element_bare_and_zero(s2xs3):
    alg = s2xs3.algebra
    assert parse_element(alg, "0").is_zero()
    assert parse_element(alg, "y") == alg.from_label_coeffs({"y": 1})
    assert parse_element(alg, "3") == alg.one().scale(3)
    assert parse_element(alg, "x + y - x") == alg.from_label_coeffs({"y": 1})
    assert parse_element(alg, "1/2*y") == alg.from_label_coeffs({"y": 1}).scale(F(1, 2))


def test_parse_element_unicode_minus(s2xs3):
    alg = s2xs3.algebra
    assert parse_element(alg, "−y") == alg.from_label_coeffs({"y": 1}).scale(-1)


def test_parse_element_coefficient_without_star(s2xs3):
    alg = s2xs3.algebra
    assert parse_element(alg, "2(y)") == alg.from_label_coeffs({"y": 1}).scale(2)


def test_parse_element_errors(s2xs3):
    alg = s2xs3.algebra
    with pytest.raises(ExpressionParseError):
        parse_element(alg, "y +")
    with pytest.raises(ExpressionParseError):
        parse_element(alg, "nosuchlabel")
    with pytest.raises(ExpressionParseError):
        parse_element(alg, "(unclosed")
    with pytest.raises(ExpressionParseError):
        parse_element(alg, "")


@pytest.mark.parametrize("edit, path", [
    (lambda d: d["generators"][2].update(degree=6.0), "generators[2].degree"),
    (lambda d: d["generators"][0].update(degree=True), "generators[0].degree"),
    (lambda d: d.update(degree_cap=8.5), "degree_cap"),
], ids=["generator-float", "generator-bool", "cap-float"])
def test_table_loader_rejects_non_integer_degrees(tmp_path, edit, path):
    from cdga_config.sullivan import load_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    edit(data)
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert f"{doc}: {path} must be an integer" in str(info.value)


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_simply_connected_flag_must_be_boolean(value):
    doc = minimal_doc(flags={"simply_connected": value})
    with pytest.raises(ParseError) as info:
        load_algebra_data(doc, "doc")
    assert str(info.value) == (
        f"doc: flags.simply_connected must be a boolean, got {json.dumps(value)}")


_COEFFICIENT_SLOTS = [
    (lambda v: {"products": [{"left": "x", "right": "x", "result": [{"label": "x", "coeff": v}]}]},
     "products[0].result[0].coeff"),
    (lambda v: {"differential": [{"from": "1", "to": "x", "coeff": v}]}, "differential[0].coeff"),
    (lambda v: {"orientation": {"x": v}}, 'orientation["x"]'),
]


@pytest.mark.parametrize("value", [1, 1.0, True, None], ids=["int", "float", "true", "null"])
@pytest.mark.parametrize("slot, path", _COEFFICIENT_SLOTS,
                         ids=["product", "differential", "orientation"])
def test_coefficients_must_be_json_strings(slot, path, value):
    with pytest.raises(ParseError) as info:
        load_algebra_data(minimal_doc(**slot(value)), "doc")
    assert str(info.value) == f"doc: {path} must be a string, got {json.dumps(value)}"


_LIST_SLOTS = [
    (lambda v: {"products": v}, "products"),
    (lambda v: {"differential": v}, "differential"),
    (lambda v: {"products": [{"left": "x", "right": "1", "result": v}]}, "products[0].result"),
]


@pytest.mark.parametrize("value", [5, None, "x", {"x": 1}], ids=["int", "null", "string", "object"])
@pytest.mark.parametrize("slot, path", _LIST_SLOTS, ids=["products", "differential", "result"])
def test_algebra_lists_must_be_json_arrays(slot, path, value):
    with pytest.raises(ParseError) as info:
        load_algebra_data(minimal_doc(**slot(value)), "doc")
    assert str(info.value) == f"doc: {path} must be a list, got {json.dumps(value)}"


@pytest.mark.parametrize("value", [5, None], ids=["int", "null"])
def test_table_generators_must_be_a_json_array(tmp_path, value):
    from cdga_config.sullivan import load_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    data["generators"] = value
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert str(info.value) == f"{doc}: generators must be a list, got {json.dumps(value)}"


def test_bad_coefficient_string_names_the_json_path():
    with pytest.raises(ParseError) as info:
        load_algebra_data(minimal_doc(orientation={"x": "2/x"}), "doc")
    assert str(info.value) == "doc: orientation[\"x\"]: not an exact rational coefficient: '2/x'"


@pytest.mark.parametrize("value", [1, 1.0, True, None], ids=["int", "float", "true", "null"])
def test_table_coefficients_must_be_json_strings(tmp_path, value):
    from cdga_config.sullivan import load_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    data["differentials"]["z5"][1]["coeff"] = value
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert str(info.value) == (f'{doc}: differentials["z5"][1].coeff must be a string, '
                               f"got {json.dumps(value)}")


def test_a_symbolic_parameter_value_builds_a_table_without_target():
    from cdga_config.sullivan import parse_table_file
    from cdga_config.linalg import Parameters
    from cdga_config.presets import table_preset_path

    document = parse_table_file(table_preset_path())
    params = Parameters(("q",))
    table = document.table({"q": params.symbol(0), "r": 0})
    assert table.target is None and table.evaluation == ()
    assert table.element_str(table.differentials[-1]) == (
        f"-q*y{TENSOR}xy + u^2 - 2*z61*1{TENSOR}x - 2*z61*x{TENSOR}1")
    with pytest.raises(ParseError) as info:
        document.table({"q": 1})
    assert str(info.value) == f"{table_preset_path()}: values required for parameters ['r']"


def _edit_h_term(data, term):
    data["differentials"]["h"][3] = term


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["evaluation"].pop("h"), 'missing field evaluation["h"]'),
    (lambda d: _edit_h_term(d, "-q*(y(x)xy)"),
     'differentials["h"][3] must be an object, got "-q*(y(x)xy)"'),
    (lambda d: d["differentials"]["z5"][0].update(gens=["w"]),
     'differentials["z5"][0].gens[0] is not a generator, got "w"'),
    (lambda d: d.update(differentials=[]), "differentials must be an object, got []"),
    (lambda d: d["differentials"]["z5"][0].update(gens=[["u"]]),
     'differentials["z5"][0].gens[0] is not a generator, got ["u"]'),
    (lambda d: d.update(parameters=["q", {"r": 1}]),
     'parameters[1] must be a string, got {"r": 1}'),
    (lambda d: d["differentials"].update(hh=d["differentials"].pop("h")),
     'differentials["hh"] names no generator'),
    (lambda d: d["differentials"]["z5"][0].update(coeff="1/0"),
     'differentials["z5"][0].coeff: zero denominator in \'1/0\''),
    (lambda d: d["generators"][1].update(degree=0),
     "generators[1].degree must lie in 1..degree_cap = 8, got 0"),
    (lambda d: d.update(degree_cap=6),
     "generators[4].degree must lie in 1..degree_cap = 6, got 7"),
    (lambda d: d["differentials"]["z5"].append({"coeff": "1", "base": "1(x)x"}),
     'differentials["z5"][2] has degree 2, not |z5| + 1 = 6'),
], ids=["evaluation-missing", "term-string", "unknown-generator", "differentials-list",
        "generator-list", "parameter-object", "unknown-differential-key", "zero-denominator",
        "generator-degree-zero", "generator-above-cap", "term-degree"])
def test_table_loader_names_the_json_path(tmp_path, edit, message):
    from cdga_config.sullivan import load_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    edit(data)
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert str(info.value) == f"{doc}: {message}"


_LABEL_SLOTS = [
    ({"basis": [{"label": 1, "degree": 0}, {"label": "x", "degree": 2}]}, "basis[0].label", 1),
    ({"unit": 1}, "unit", 1),
    ({"products": [{"left": 2, "right": "x", "result": []}]}, "products[0].left", 2),
    ({"products": [{"left": "x", "right": None, "result": []}]}, "products[0].right", None),
    ({"products": [{"left": "x", "right": "x", "result": [{"label": True, "coeff": "1"}]}]},
     "products[0].result[0].label", True),
    ({"differential": [{"from": 1.0, "to": "x", "coeff": "1"}]}, "differential[0].from", 1.0),
    ({"differential": [{"from": "1", "to": ["x"], "coeff": "1"}]}, "differential[0].to", ["x"]),
]


@pytest.mark.parametrize("overrides, path, value", _LABEL_SLOTS,
                         ids=["basis-label", "unit", "product-left", "product-right",
                              "product-result-label", "differential-from", "differential-to"])
def test_labels_must_be_json_strings(overrides, path, value):
    with pytest.raises(ParseError) as info:
        load_algebra_data(minimal_doc(**overrides), "doc")
    assert str(info.value) == f"doc: {path} must be a string, got {json.dumps(value)}"


@pytest.mark.parametrize("edit, path, value", [
    (lambda d: d.update(algebra=5), "algebra", 5),
    (lambda d: d.update(xi=0), "xi", 0),
    (lambda d: d["generators"][0].update(label=4), "generators[0].label", 4),
    (lambda d: d["evaluation"].update(h=0), 'evaluation["h"]', 0),
    (lambda d: d["differentials"]["z5"][0].update(base=True), 'differentials["z5"][0].base', True),
    (lambda d: d.update(name=7), "name", 7),
], ids=["algebra", "xi", "generator-label", "evaluation", "base", "name"])
def test_table_labels_and_expressions_must_be_json_strings(tmp_path, edit, path, value):
    from cdga_config.sullivan import load_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    edit(data)
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert str(info.value) == f"{doc}: {path} must be a string, got {json.dumps(value)}"


@pytest.mark.parametrize("first, repeated, key", [
    ('"degree_cap": 8', '"degree_cap": 8, "degree_cap": 9', "degree_cap"),
    ('"label": "u", "degree": 4', '"label": "u", "degree": 4, "label": "w"', "label"),
], ids=["top-level", "generator"])
def test_table_loader_rejects_a_repeated_key(tmp_path, first, repeated, key):
    from cdga_config.sullivan import load_table_file
    from cdga_config.presets import table_preset_path

    text = json.dumps(json.loads(table_preset_path().read_text(encoding="utf-8")))
    assert first in text
    doc = tmp_path / "table.json"
    doc.write_text(text.replace(first, repeated, 1), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert str(info.value) == f"{doc}: repeated key {json.dumps(key)}"



def entries_doc():
    """A document with one product entry, one result term and one
    differential entry, at whose fields the cases below aim."""
    return minimal_doc(
        formal_dimension=3,
        basis=[{"label": "1", "degree": 0}, {"label": "a", "degree": 1},
               {"label": "b", "degree": 2}, {"label": "ab", "degree": 3}],
        products=[{"left": "a", "right": "b", "result": [{"label": "ab", "coeff": "1"}]}],
        differential=[{"from": "a", "to": "b", "coeff": "1"}],
        orientation={"ab": "1"}, flags={"simply_connected": False})


def test_the_entries_document_loads():
    algebra, n, _, _ = load_algebra_data(entries_doc(), "doc")
    assert n == 3 and algebra.dim() == 4


_DROP = object()


def _set(path, value):
    """An edit that sets the item at `path` (keys and indices) to `value`,
    or deletes it when `value` is `_DROP`."""
    def edit(doc):
        *parents, last = path
        for step in parents:
            doc = doc[step]
        if value is _DROP:
            del doc[last]
        else:
            doc[last] = value
    return edit


def _append(path, value):
    """An edit that appends `value` to the list at `path` (keys and indices)."""
    def edit(doc):
        for step in path:
            doc = doc[step]
        doc.append(value)
    return edit


_REJECTED_ALGEBRA_DOCUMENTS = {
    "basis-item": (_set(["basis", 1], 5), "basis[1] must be an object, got 5"),
    "basis-label-missing": (_set(["basis", 1, "label"], _DROP), "missing field basis[1].label"),
    "basis-degree-missing": (_set(["basis", 2, "degree"], _DROP),
                             "missing field basis[2].degree"),
    "negative-degree": (_set(["basis", 1, "degree"], -1),
                        "basis[1].degree must be non-negative, got -1"),
    "repeated-label": (_set(["basis", 2, "label"], "a"),
                       'basis[2].label repeats an earlier label: "a"'),
    "product-entry": (_set(["products", 0], "a*b"), 'products[0] must be an object, got "a*b"'),
    "product-left-missing": (_set(["products", 0, "left"], _DROP),
                             "missing field products[0].left"),
    "product-right-missing": (_set(["products", 0, "right"], _DROP),
                              "missing field products[0].right"),
    "product-result-missing": (_set(["products", 0, "result"], _DROP),
                               "missing field products[0].result"),
    "result-term": (_set(["products", 0, "result", 0], 5),
                    "products[0].result[0] must be an object, got 5"),
    "result-label-missing": (_set(["products", 0, "result", 0, "label"], _DROP),
                             "missing field products[0].result[0].label"),
    "result-coeff-missing": (_set(["products", 0, "result", 0, "coeff"], _DROP),
                             "missing field products[0].result[0].coeff"),
    "differential-entry": (_set(["differential", 0], ["a", "b"]),
                           'differential[0] must be an object, got ["a", "b"]'),
    "differential-from-missing": (_set(["differential", 0, "from"], _DROP),
                                  "missing field differential[0].from"),
    "differential-to-missing": (_set(["differential", 0, "to"], _DROP),
                                "missing field differential[0].to"),
    "differential-coeff-missing": (_set(["differential", 0, "coeff"], _DROP),
                                   "missing field differential[0].coeff"),
    "unknown-unit": (_set(["unit"], "one"), 'unit names no basis element: "one"'),
    "unknown-left": (_set(["products", 0, "left"], "c"),
                     'products[0].left names no basis element: "c"'),
    "unknown-right": (_set(["products", 0, "right"], "c"),
                      'products[0].right names no basis element: "c"'),
    "unknown-result-label": (_set(["products", 0, "result", 0, "label"], "a⊗b"),
                             'products[0].result[0].label names no basis element: "a⊗b"'),
    "unknown-from": (_set(["differential", 0, "from"], "c"),
                     'differential[0].from names no basis element: "c"'),
    "unknown-to": (_set(["differential", 0, "to"], "c"),
                   'differential[0].to names no basis element: "c"'),
    "unknown-orientation-key": (_set(["orientation"], {"c": "1"}),
                                'orientation names no basis element: "c"'),
}


@pytest.mark.parametrize("edit, message", _REJECTED_ALGEBRA_DOCUMENTS.values(),
                         ids=_REJECTED_ALGEBRA_DOCUMENTS.keys())
def test_a_rejected_algebra_document_names_the_json_path(edit, message):
    doc = entries_doc()
    edit(doc)
    with pytest.raises(ParseError) as info:
        load_algebra_data(doc, "doc")
    assert str(info.value) == f"doc: {message}"


_REJECTED_TABLE_DOCUMENTS = {
    "generator": (_set(["generators", 3], 6), "generators[3] must be an object, got 6"),
    "generator-label-missing": (_set(["generators", 0, "label"], _DROP),
                                "missing field generators[0].label"),
    "generator-degree-missing": (_set(["generators", 6, "degree"], _DROP),
                                 "missing field generators[6].degree"),
    "repeated-generator-label": (_append(["generators"], {"label": "u", "degree": 4}),
                                 'generators[7].label repeats an earlier label: "u"'),
    "unknown-base": (_set(["differentials", "h", 0, "base"], "1(x)z"),
                     'differentials["h"][0].base names no basis element: "1⊗z"'),
    "unknown-xi-label": (_set(["xi"], "q*(y(x)xy) + r*(y(x)z)"),
                         'xi names no basis element: "y⊗z"'),
    "unknown-evaluation-label": (_set(["evaluation", "h"], "2*(Sz)"),
                                 'evaluation["h"] names no basis element: "Sz"'),
    "malformed-xi": (_set(["xi"], "q*(y(x)xy"), "xi: unbalanced parenthesis at position 2"),
    "malformed-evaluation": (_set(["evaluation", "u"], "1/0*(S1)"),
                             "evaluation[\"u\"]: zero denominator in '1/0'"),
}


@pytest.mark.parametrize("edit, message", _REJECTED_TABLE_DOCUMENTS.values(),
                         ids=_REJECTED_TABLE_DOCUMENTS.keys())
def test_a_rejected_table_document_names_the_json_path(tmp_path, edit, message):
    from cdga_config.sullivan import parse_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    edit(data)
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_table_file(doc)
    assert str(info.value) == f"{doc}: {message}"
