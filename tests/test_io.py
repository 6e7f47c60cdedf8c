import json
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


def test_parse_coeff_forms():
    assert parse_coeff("3/4") == F(3, 4)
    assert parse_coeff("-2") == F(-2)
    assert parse_coeff("q", {"q": F(5)}) == F(5)
    assert parse_coeff("-q", {"q": F(5)}) == F(-5)
    assert parse_coeff("3/2*q", {"q": F(4)}) == F(6)
    with pytest.raises(ParseError):
        parse_coeff("1.5")
    with pytest.raises(ParseError):
        parse_coeff("unknown")


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
    assert parse_element(alg, "y") == alg.element_from_label("y")
    assert parse_element(alg, "3") == alg.one().scale(3)
    assert parse_element(alg, "x + y - x") == alg.element_from_label("y")
    assert parse_element(alg, "1/2*y") == alg.element_from_label("y").scale(F(1, 2))


def test_parse_element_unicode_minus(s2xs3):
    alg = s2xs3.algebra
    assert parse_element(alg, "−y") == alg.element_from_label("y").scale(-1)


def test_parse_element_coefficient_without_star(s2xs3):
    alg = s2xs3.algebra
    assert parse_element(alg, "2(y)") == alg.element_from_label("y").scale(2)


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
    from cdga_config.io import load_table_file
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
], ids=["evaluation-missing", "term-string", "unknown-generator", "differentials-list",
        "generator-list", "parameter-object", "unknown-differential-key"])
def test_table_loader_names_the_json_path(tmp_path, edit, message):
    from cdga_config.io import load_table_file
    from cdga_config.presets import table_preset_path

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    edit(data)
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_table_file(doc, {"q": F(1), "r": F(0)})
    assert str(info.value) == f"{doc}: {message}"
