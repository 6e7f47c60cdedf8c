import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from cdga_config.cli import main
from cdga_config.io import dump_pd, load_algebra_data, load_algebra_file
from cdga_config.poincare import check_pd
from cdga_config.presets import PRESET_NAMES, preset_path

TENSOR = "⊗"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check ---------------------------------------------------------------------


def test_check_preset_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "s2xs3")
    assert code == 0
    assert "result: all checks pass" in out


def test_check_orientation_not_closed(tmp_path, capsys):
    data = {
        "name": "bad",
        "formal_dimension": 2,
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "a", "degree": 1},
            {"label": "t", "degree": 2},
        ],
        "unit": "1",
        "products": [],
        "differential": [{"from": "a", "to": "t", "coeff": "1"}],
        "orientation": {"t": "1"},
        "flags": {"simply_connected": False},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "OrientationNotClosed" in out


def test_check_axiom_failure_exits_two(tmp_path, capsys):
    # a declared nonzero square of an odd generator: structurally loadable,
    # flagged by the commutativity axiom
    data = {
        "name": "oddsquare",
        "formal_dimension": 6,
        "basis": [
            {"label": "1", "degree": 0},
            {"label": "y", "degree": 3},
            {"label": "t", "degree": 6},
        ],
        "unit": "1",
        "products": [
            {"left": "y", "right": "y", "result": [{"label": "t", "coeff": "1"}]}
        ],
        "differential": [],
        "orientation": {"t": "1"},
        "flags": {"simply_connected": False},
    }
    path = tmp_path / "oddsquare.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "graded_commutativity: FAIL" in out
    assert "(y, y)" in out


def test_check_empty_basis_is_parse_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "name": "empty", "formal_dimension": 0, "basis": [], "unit": "1",
        "products": [], "differential": [], "orientation": {},
    }), encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "parse error" in err


def test_check_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "line 1" in err


def _s2_document(**overrides):
    data = json.loads(preset_path("s2").read_text(encoding="utf-8"))
    data.update(overrides)
    return data


@pytest.mark.parametrize("overrides, path", [
    ({"flags": []}, "flags must be an object, got []"),
    ({"basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": 2.7}]},
     "basis[1].degree must be an integer, got 2.7"),
    ({"basis": [{"label": "1", "degree": 0}, {"label": "x", "degree": True}]},
     "basis[1].degree must be an integer, got true"),
    ({"formal_dimension": True}, "formal_dimension must be an integer, got true"),
    ({"flags": {"simply_connected": "false"}},
     'flags.simply_connected must be a boolean, got "false"'),
    ({"name": 5}, "name must be a string, got 5"),
    ({"products": 5}, "products must be a list, got 5"),
    ({"differential": None}, "differential must be a list, got null"),
    ({"products": [{"left": "x", "right": "1", "result": 7}]},
     "products[0].result must be a list, got 7"),
], ids=["flags-list", "degree-float", "degree-bool", "formal-dimension-bool",
        "simply-connected-string", "name-int", "products-int", "differential-null",
        "result-int"])
def test_check_rejects_mistyped_fields_with_json_path(tmp_path, capsys, overrides, path):
    doc = tmp_path / "mistyped.json"
    doc.write_text(json.dumps(_s2_document(**overrides)), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(doc))
    assert code == 1
    assert out == ""
    assert err == f"parse error: {doc}: {path}\n"


@pytest.mark.parametrize("value", [1, 1.0, True, None], ids=["int", "float", "true", "null"])
def test_check_rejects_a_coefficient_that_is_not_a_string(tmp_path, capsys, value):
    doc = tmp_path / "typed.json"
    doc.write_text(json.dumps(_s2_document(orientation={"x": value})), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(doc))
    assert code == 1
    assert out == ""
    assert err == f'parse error: {doc}: orientation["x"] must be a string, got {json.dumps(value)}\n'


def test_check_rejects_a_numeric_label(tmp_path, capsys):
    # the s2 document with its unit's label given as the JSON number 1
    data = _s2_document(unit=1)
    data["basis"][0]["label"] = 1
    doc = tmp_path / "numeric.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(doc))
    assert code == 1
    assert out == ""
    assert err == f"parse error: {doc}: basis[0].label must be a string, got 1\n"


@pytest.mark.parametrize("edit", [
    lambda d: d["products"][0]["result"][0].update(coeff="1/0"),
    lambda d: d.update(orientation={"xy": "1/0"}),
], ids=["product", "orientation"])
def test_check_zero_denominator_is_parse_error(tmp_path, capsys, edit):
    data = json.loads(preset_path("s2xs3").read_text(encoding="utf-8"))
    edit(data)
    doc = tmp_path / "zero.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(doc))
    assert code == 1
    assert out == ""
    assert err.startswith(f"parse error: {doc}: ")
    assert err.endswith("zero denominator in '1/0'\n")


@pytest.mark.parametrize("argv", [
    ["classify-example", "--q", "0,1/0"],
    ["cxi", "s2xs3", "--xi", "1/0*(y(x)xy)"],
    ["cxi", "s2xs3", "--x", "1/0*y"],
], ids=["q", "xi", "x"])
def test_zero_denominator_in_a_flag_is_parse_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ")
    assert "zero denominator in '1/0'" in err


# --- diagonal ------------------------------------------------------------------


def test_diagonal_s2xs3_expected_table(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "s2xs3")
    assert code == 0
    collapsed = out.replace(" ", "")
    assert f"1{TENSOR}xy+x{TENSOR}y-y{TENSOR}x-xy{TENSOR}1" in collapsed
    assert f"delta(S1)=1{TENSOR}xy+x{TENSOR}y-y{TENSOR}x-xy{TENSOR}1" in collapsed
    assert f"delta(Sx)=x{TENSOR}xy-xy{TENSOR}x" in collapsed
    assert f"delta(Sy)=-y{TENSOR}xy-xy{TENSOR}y" in collapsed
    assert f"delta(Sxy)=-xy{TENSOR}xy" in collapsed


def test_diagonal_s3(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "s3")
    assert code == 0
    assert f"1{TENSOR}y - y{TENSOR}1" in out


def test_diagonal_s2(capsys):
    code, out, _ = run_cli(capsys, "diagonal", "s2")
    assert code == 0
    assert f"1{TENSOR}x + x{TENSOR}1" in out


# --- betti-fm2 ------------------------------------------------------------------


@pytest.mark.parametrize(
    "preset,expected",
    [("s2", [1, 0, 1]), ("s3", [1, 0, 0, 1]), ("s2xs3", [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0])],
)
def test_betti_fm2(preset, expected, capsys):
    code, out, _ = run_cli(capsys, "betti-fm2", preset, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    assert [row["quotient"] for row in report["betti"]][: len(expected)] == expected


# --- cxi -----------------------------------------------------------------------


def test_cxi_with_twist(capsys):
    code, out, _ = run_cli(capsys, "cxi", "s2xs3", "--xi", f"1*(y(x)xy)")
    assert code == 0
    assert f"(S1)^2 = y{TENSOR}xy" in out
    assert "FAIL" not in out


def test_cxi_with_class(capsys):
    code, out, _ = run_cli(capsys, "cxi", "s3", "--x", "0", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0, 0, 1]
    assert report["s1_square"] == "0"


def test_cxi_even_with_nonzero_twist_is_precondition_error(capsys):
    code, _, err = run_cli(capsys, "cxi", "s2", "--xi", "(x(x)x)")
    assert code == 3
    assert "forced to vanish" in err


@pytest.mark.parametrize("argv", [["diagonal", "point"], ["betti-fm2", "point"],
                                  ["cxi", "point", "--xi=0"]])
def test_cone_of_formal_dimension_zero_is_precondition_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "precondition violated: formal dimension 0: the cone would put S1 in degree -1\n"


def test_product_of_two_points_is_precondition_error(tmp_path, capsys):
    """The diagonal class of `point` is the unit of its square, so the
    quotient the correspondence compares would be zero."""
    out_path = tmp_path / "pp.json"
    code, out, err = run_cli(capsys, "product", "point", "point", "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith("precondition violated: formal dimension 0")
    assert not out_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["--x=x + y"], "expected degree 3, got terms of degrees 2 and 3"),
    (["--xi=1*(y(x)xy) + (x(x)x)"], "xi must be homogeneous of degree 8, got terms of degrees 4 and 8"),
], ids=["x", "xi"])
def test_cxi_inhomogeneous_input_names_the_degrees_found(capsys, argv, message):
    code, out, err = run_cli(capsys, "cxi", "s2xs3", *argv)
    assert code == 3
    assert out == ""
    assert err == f"precondition violated: {message}\n"


def test_cxi_bad_expression(capsys):
    code, _, err = run_cli(capsys, "cxi", "s2xs3", "--xi", "y*(")
    assert code == 1


def test_cxi_with_nonzero_class(capsys):
    code, out, _ = run_cli(capsys, "cxi", "s2xs3", "--x", "2*y", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["s1_square"] == f"2*y{TENSOR}xy"


def test_usage_error_maps_to_parse_exit(capsys):
    assert main([]) == 1
    assert main(["cxi", "s2xs3"]) == 1  # --xi/--x required
    assert main(["check", "s2", "--seed", "3"]) == 1  # no such flag
    capsys.readouterr()


@pytest.mark.parametrize("first, repeated, key", [
    ('"formal_dimension": 2', '"formal_dimension": 2, "formal_dimension": 3', "formal_dimension"),
    ('"orientation": {"x": "1"}', '"orientation": {"x": "1", "x": "2"}', "x"),
], ids=["top-level", "orientation"])
def test_check_rejects_a_repeated_key(tmp_path, capsys, first, repeated, key):
    text = json.dumps(_s2_document())
    assert first in text
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(first, repeated), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1 and out == ""
    assert err.strip() == f"parse error: {path}: repeated key {json.dumps(key)}"


def test_table_document_is_not_a_preset(capsys):
    code, _, err = run_cli(capsys, "check", "s2xs3_table")
    assert code == 1
    assert "unknown preset 's2xs3_table'" in err


@pytest.mark.parametrize("argument, message", [
    ("{tmp}/nope/missing.json", "no such file: '{tmp}/nope/missing.json'"),
    ("./s2xs3", "no such file: './s2xs3'"),
    ("sub", "not a file: 'sub'"),
    ("{tmp}", "not a file: '{tmp}'"),
], ids=["missing-path", "dot-slash-preset-name", "bare-directory", "absolute-directory"])
def test_a_path_that_names_no_file_is_not_reported_as_a_preset(argument, message, tmp_path,
                                                                monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(capsys, "check", argument.format(tmp=tmp_path))
    assert code == 1 and out == ""
    assert err == f"parse error: {message.format(tmp=tmp_path)}\n"


def test_a_directory_named_as_a_preset_does_not_hide_the_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s2").mkdir()
    code, out, _ = run_cli(capsys, "check", "s2")
    assert code == 0 and "all checks pass" in out


@pytest.mark.parametrize("algebra, message", [
    ("nope/missing.json", "no such file: '{dir}/nope/missing.json'"),
    ("sub", "not a file: '{dir}/sub'"),
], ids=["missing-path", "directory"])
def test_a_table_document_algebra_path_that_names_no_file(algebra, message, tmp_path):
    from cdga_config.errors import ParseError
    from cdga_config.sullivan import parse_table_file
    from cdga_config.presets import table_preset_path

    (tmp_path / "sub").mkdir()
    document = json.loads(table_preset_path().read_text(encoding="utf-8"))
    document["algebra"] = algebra
    path = tmp_path / "table.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_table_file(path)
    assert str(info.value) == message.format(dir=tmp_path)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- the parser, built once per process -------------------------------------------


def test_the_parser_is_built_once_per_process(monkeypatch, tmp_path, capsys):
    import argparse

    monkeypatch.chdir(tmp_path)
    main(["check", "point"])
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    calls = [["check", p] for p in ("s2", "s3", "cp2", "s2xs3")]
    calls += [["diagonal", p] for p in ("s2", "s3", "cp2")]
    calls += [["betti-fm2", p] for p in ("s2", "s3", "s2xs3")]
    calls += [["cxi", "s2xs3", "--xi=0"], ["cxi", "s2xs3", "--x=y"], ["cxi", "s3", "--xi=0"],
              ["cxi", "s5", "--xi=0", "--json"]]
    calls += [["classify-example", q] for q in ("--q=1,2", "--q=0,1", "--q=3")]
    calls += [["product", a, "s3", "--out", "p.json"] for a in ("s2", "s3", "point")]
    assert len(calls) == 20
    assert [main(argv) for argv in calls] == [0] * 20
    assert main(["--help"]) == 0
    assert main(["cxi", "s2xs3"]) == 1
    capsys.readouterr()
    assert built == []


def test_commands_are_dispatched_by_name(monkeypatch, capsys):
    from cdga_config import __version__, cli

    seen = []

    def fake(args):
        seen.append((args.command, args.file, args.json))
        return {"ok": len(seen) == 1, "fake": 7}, ["fake line"]

    monkeypatch.setattr(cli, "cmd_check", fake)
    assert main(["check", "s2"]) == 0
    assert capsys.readouterr().out == "fake line\n"
    # `_run` adds the envelope, and a report that is not ok exits 2
    assert main(["check", "s3", "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "command": "check", "version": __version__, "ok": False, "fake": 7}
    assert seen == [("check", "s2", False), ("check", "s3", True)]


def _error_types():
    from cdga_config import errors

    return [t for t in vars(errors).values()
            if isinstance(t, type) and issubclass(t, errors.CdgaError)]


def test_each_error_type_carries_the_exit_status_the_readme_states():
    from cdga_config.errors import ParseError, PreconditionError

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    preconditions = {"OddDimension", "ZeroFormalDimension", "EvenDimensionNonzeroXi",
                     "WrongDegree", "NotACocycle"}
    for name in preconditions | {"ParseError", "PreconditionError", "CdgaError"}:
        assert f"`{name}`" in readme
    types = _error_types()
    assert {t.__name__ for t in types if issubclass(t, PreconditionError)} == \
        preconditions | {"PreconditionError"}
    for t in types:
        want = 1 if issubclass(t, ParseError) else 3 if issubclass(t, PreconditionError) else 2
        assert t.exit_status == want, t.__name__


@pytest.mark.parametrize("error, status, prefix", [
    ("ExpressionParseError", 1, "parse error: "),
    ("StructureError", 2, "check failed: "),
    ("NotACocycle", 3, "precondition violated: "),
])
def test_a_raised_error_exits_with_its_status(monkeypatch, capsys, error, status, prefix):
    from cdga_config import cli, errors

    def fake(args):
        raise getattr(errors, error)("raised")

    monkeypatch.setattr(cli, "cmd_check", fake)
    for json_flag in ([], ["--json"]):
        assert main(["check", "s2", *json_flag]) == status
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{prefix}raised\n")


# --- classify-example -------------------------------------------------------------


def test_classify_example_pair(capsys):
    code, out, _ = run_cli(capsys, "classify-example", "--q", "0,1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [["exists", "obstructed"], ["obstructed", "exists"]]
    trace = report["obstruction_trace"]["trace"]
    assert "psi(u)[u] = 1" in trace


def test_classify_example_text_prints_the_residual(capsys):
    code, out, _ = run_cli(capsys, "classify-example", "--q", "0,1,3/2")
    assert code == 0
    # the first obstructed pair is (0, 1), with the solver's residual there
    assert out.splitlines()[-2:] == [
        "  inconsistent: 0 = -1  [h: coefficient of u^2]",
        "residual at q=0 vs q=1: stage h ends in 0 = -1, so no isomorphism exists"]
    code, out, _ = run_cli(capsys, "classify-example", "--q", "3/2,1")
    assert out.splitlines()[-1] == (
        "residual at q=3/2 vs q=1: stage h ends in 0 = 1/2, so no isomorphism exists")


def test_table_document_ignores_a_file_named_like_its_algebra(tmp_path, monkeypatch, capsys):
    """The packaged table document names its algebra "s2xs3". A file of
    that name in the current directory must not replace the preset, while
    the command line's own file argument is still read from there."""
    import shutil

    from cdga_config import presets

    elsewhere = tmp_path / "elsewhere"
    decoy = tmp_path / "decoy"
    elsewhere.mkdir()
    decoy.mkdir()
    shutil.copy(preset_path("s3"), decoy / "s2xs3")
    outputs = []
    for where in (decoy, elsewhere):
        monkeypatch.chdir(where)
        monkeypatch.setattr(presets, "_cache", {})
        code, out, err = run_cli(capsys, "classify-example", "--q=1,2", "--json")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["matrix"] == [["exists", "obstructed"], ["obstructed", "exists"]]
    monkeypatch.chdir(decoy)
    code, out, _ = run_cli(capsys, "check", "s2xs3", "--json")
    assert code == 0 and json.loads(out)["formal_dimension"] == 3


@pytest.mark.parametrize("q, message", [
    ("1,,2", "--q item 2 of 3 is empty in '1,,2'"),
    ("1,2,", "--q item 3 of 3 is empty in '1,2,'"),
    (",", "--q item 1 of 2 is empty in ','"),
    ("", "--q expects at least one value"),
    (" ", "--q expects at least one value"),
], ids=["inner", "trailing", "only-comma", "empty", "blank"])
def test_classify_example_rejects_empty_q_items(capsys, q, message):
    code, out, err = run_cli(capsys, "classify-example", f"--q={q}")
    assert code == 1
    assert out == ""
    assert err == f"parse error: {message}\n"


# --- product -----------------------------------------------------------------------


def test_product_s2_s3(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "prod.json"
    code, out, _ = run_cli(capsys, "product", "s2", "s3", "--out", str(out_path))
    assert code == 0
    assert "AGREE" in out
    algebra, n, epsilon, _ = load_algebra_file(out_path)
    pd = check_pd(algebra, n, epsilon)
    assert pd.n == 5
    # the written file parses into the s2xs3 structure up to labels
    from cdga_config.algebra import same_structure
    from cdga_config.presets import preset_pd

    relabel = {
        "1": f"1{TENSOR}1", "x": f"x{TENSOR}1",
        "y": f"1{TENSOR}y", "xy": f"x{TENSOR}y",
    }
    assert same_structure(preset_pd("s2xs3").algebra, pd.algebra, relabel)


def test_product_builds_the_product_algebra_once(tmp_path, capsys, monkeypatch):
    """`product` writes the product that the diagonal correspondence was
    checked on, so it builds and duality-checks it once."""
    from cdga_config import cli, products

    built = []
    original = products.product_pd

    def counting(c, b):
        built.append(original(c, b))
        return built[-1]

    # wherever the name is bound, so that a call from either module counts
    for module in (products, cli):
        if getattr(module, "product_pd", None) is original:
            monkeypatch.setattr(module, "product_pd", counting)
    out_path = tmp_path / "prod.json"
    code, _, _ = run_cli(capsys, "product", "s2", "s3", "--out", str(out_path))
    assert code == 0
    assert len(built) == 1
    assert load_algebra_file(out_path)[0].basis.labels == built[0].algebra.basis.labels


def test_product_unwritable_out_is_parse_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "dir" / "x.json"
    code, out, err = run_cli(capsys, "product", "s2", "s3", "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"parse error: cannot write {out_path}: ")
    assert not out_path.exists()


def test_product_empty_out_is_parse_error(tmp_path, capsys, monkeypatch):
    """An empty `--out=` names no file: it is a parse error, as an empty
    `--xi=` is, and writes nothing, not the default file."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "product", "s3", "s3", "--out=")
    assert code == 1
    assert out == ""
    assert err == "parse error: --out expects a path, got ''\n"
    assert list(tmp_path.iterdir()) == []


def test_product_with_point_echoes_factor(tmp_path, capsys):
    out_path = tmp_path / "echo.json"
    code, out, _ = run_cli(capsys, "product", "s2", "point", "--out", str(out_path))
    assert code == 0
    emitted = json.loads(out_path.read_text(encoding="utf-8"))
    original = json.loads(preset_path("s2").read_text(encoding="utf-8"))
    assert emitted["basis"] == original["basis"]
    assert emitted["orientation"] == original["orientation"]
    assert emitted["formal_dimension"] == original["formal_dimension"]


def test_product_s3_s3(tmp_path, capsys):
    out_path = tmp_path / "s3s3.json"
    code, out, _ = run_cli(capsys, "product", "s3", "s3", "--out", str(out_path), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["formal_dimension"] == 6
    assert report["betti_agree"] is True


# --- determinism and round trips ------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_round_trip(name):
    from cdga_config.algebra import same_structure

    algebra, n, epsilon, flags = load_algebra_file(preset_path(name))
    pd = check_pd(algebra, n, epsilon)
    dumped = dump_pd(pd)
    algebra2, n2, epsilon2, flags2 = load_algebra_data(dumped, "round-trip")
    assert n2 == n and flags2 == flags
    assert same_structure(algebra, algebra2)
    assert epsilon2 == epsilon


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "s2xs3", "--json"],
        ["diagonal", "s2xs3", "--json"],
        ["betti-fm2", "s3", "--json"],
        ["cxi", "s2xs3", "--xi", "2*(y(x)xy)", "--json"],
        ["classify-example", "--q", "0,1", "--json"],
    ],
)
def test_commands_are_byte_deterministic(argv, capsys):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cdga_config.cli", "check", "s2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "all checks pass" in proc.stdout


@pytest.mark.parametrize("module, argv", [
    ("cdga_config", ["check", "s2"]),
    ("cdga_config.cli", ["classify-example", "--q=0,1", "--json"]),
], ids=["check", "classify-example"])
def test_closed_stdout_exits_one_without_a_traceback(module, argv):
    # the reader of stdout goes away before the command writes anything
    proc = subprocess.Popen([sys.executable, "-m", module, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait() == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["cdga_config", "check", "s2"])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("cdga_config", run_name="__main__")
    assert info.value.code == 0
    assert "all checks pass" in capsys.readouterr().out
