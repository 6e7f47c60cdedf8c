import json
import subprocess
import sys

import pytest

from cdga_config.cli import main
from cdga_config.io import dump_pd, load_algebra_data, load_algebra_file, load_pd_file
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
], ids=["flags-list", "degree-float", "degree-bool", "formal-dimension-bool",
        "simply-connected-string"])
def test_check_rejects_mistyped_fields_with_json_path(tmp_path, capsys, overrides, path):
    doc = tmp_path / "mistyped.json"
    doc.write_text(json.dumps(_s2_document(**overrides)), encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(doc))
    assert code == 1
    assert out == ""
    assert err == f"parse error: {doc}: {path}\n"


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


def test_table_document_is_not_a_preset(capsys):
    code, _, err = run_cli(capsys, "check", "s2xs3_table")
    assert code == 1
    assert "unknown preset 's2xs3_table'" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- classify-example -------------------------------------------------------------


def test_classify_example_pair(capsys):
    code, out, _ = run_cli(capsys, "classify-example", "--q", "0,1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["matrix"] == [["exists", "obstructed"], ["obstructed", "exists"]]
    trace = report["obstruction_trace"]["trace"]
    assert "psi(u)[u] = 1" in trace


def test_classify_example_text_mentions_q_equals_r(capsys):
    code, out, _ = run_cli(capsys, "classify-example", "--q", "0,1")
    assert code == 0
    assert "forces q = r" in out


# --- product -----------------------------------------------------------------------


def test_product_s2_s3(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "prod.json"
    code, out, _ = run_cli(capsys, "product", "s2", "s3", "--out", str(out_path))
    assert code == 0
    assert "AGREE" in out
    pd = load_pd_file(out_path)
    assert pd.n == 5
    # the written file parses into the s2xs3 structure up to labels
    from cdga_config.algebra import same_structure
    from cdga_config.presets import preset_pd

    relabel = {
        "1": f"1{TENSOR}1", "x": f"x{TENSOR}1",
        "y": f"1{TENSOR}y", "xy": f"x{TENSOR}y",
    }
    assert same_structure(preset_pd("s2xs3").algebra, pd.algebra, relabel)


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
