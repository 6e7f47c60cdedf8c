"""Committed `--json` reports of every command on every shipped preset,
and the text reports of one case per command and of two failed checks.

Each case runs `cli.main` in-process and compares its standard output byte
for byte with `tests/golden/<case>.json`, or without `--json` with
`tests/golden/<case>.txt`. One field is normalised first:
reports embed the absolute path of the preset file in `"input"` (and in
`"inputs"` for `product`), which depends on where the package is installed,
so the preset data directory is replaced by `<presets>` in that text, and
the directory of the test fixtures (`tests/data/`) by `<data>`. The
`product` cases also compare the written product file, and write it to a
relative path inside a temporary directory so `"written_to"` is fixed.

Regenerate after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cdga_config.cli import main
from cdga_config.presets import PRESET_NAMES, preset_path

GOLDEN = Path(__file__).parent / "golden"
PRESET_DIR = str(preset_path("point").parent)
DATA = Path(__file__).parent / "data"
# s2xs3 with x*y = 2/3 xy and orientation 5/2, so its tables hold fractions;
# the second file adds d(x) = 5/7 y, which breaks the Leibniz rule at (x, x)
FRACTIONAL = str(DATA / "s2xs3_fractional.json")
FRACTIONAL_LEIBNIZ = str(DATA / "s2xs3_fractional_leibniz.json")
# the fattened sphere E(5, 2), with d(u) = v and d(w) = t; the second file
# flips the sign of v*w, which breaks the Leibniz rule at (u, w)
E5_2 = str(DATA / "e5_2.json")
E5_2_LEIBNIZ = str(DATA / "e5_2_leibniz.json")
PRODUCT_OUT = "product.json"

def _cases():
    cases = []
    for p in PRESET_NAMES:
        # `point` has formal dimension 0, where the cone would put S1 in
        # degree -1, so every command that builds the cone fails that
        # precondition (exit 3) and prints no JSON
        cone_status = 3 if p == "point" else 0
        cases.append((f"check_{p}", ["check", p], 0))
        for command in ("diagonal", "betti-fm2"):
            cases.append((f"{command}_{p}", [command, p], cone_status))
        cases.append((f"cxi_{p}", ["cxi", p, "--xi=0"], cone_status))
        cases.append((f"product_{p}_s3", ["product", p, "s3", "--out", PRODUCT_OUT], 0))
    cases += [
        ("cxi_s2xs3_xi", ["cxi", "s2xs3", "--xi=3/2*(y(x)xy) - 2*(xy(x)y)"], 0),
        ("cxi_s2xs3_x", ["cxi", "s2xs3", "--x=-5/3*y"], 0),
        ("classify-example", ["classify-example", "--q=0,1,-1/2,7/3"], 0),
        ("classify-example_fractional", ["classify-example", "--q=2,-1/3,5/7"], 0),
        ("check_s2xs3_fractional", ["check", FRACTIONAL], 0),
        ("diagonal_s2xs3_fractional", ["diagonal", FRACTIONAL], 0),
        ("betti-fm2_s2xs3_fractional", ["betti-fm2", FRACTIONAL], 0),
        ("cxi_s2xs3_fractional", ["cxi", FRACTIONAL, "--xi=0"], 0),
        ("cxi_s2xs3_fractional_xi",
         ["cxi", FRACTIONAL, "--xi=-3/4*(y(x)xy) + 2/9*(xy(x)y)"], 0),
        ("cxi_s2xs3_fractional_x", ["cxi", FRACTIONAL, "--x=7/5*y"], 0),
        ("check_s2xs3_fractional_leibniz", ["check", FRACTIONAL_LEIBNIZ], 2),
        ("check_e5_2", ["check", E5_2], 0),
        ("diagonal_e5_2", ["diagonal", E5_2], 0),
        ("betti-fm2_e5_2", ["betti-fm2", E5_2], 0),
        ("cxi_e5_2", ["cxi", E5_2, "--xi=0"], 0),
        ("check_e5_2_leibniz", ["check", E5_2_LEIBNIZ], 2),
        ("product_e5_2_s2", ["product", E5_2, "s2", "--out", PRODUCT_OUT], 0),
    ]
    return cases


CASES = _cases()


def _normalise(text: str) -> str:
    return text.replace(PRESET_DIR, "<presets>").replace(str(DATA), "<data>")


def _golden_files(name):
    files = [GOLDEN / f"{name}.json"]
    if name.startswith("product_"):
        files.append(GOLDEN / f"{name}.out.json")
    return files


@pytest.mark.parametrize("name, argv, status", CASES, ids=[c[0] for c in CASES])
def test_json_report_matches_golden(name, argv, status, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--json"]) == status
    out = _normalise(capsys.readouterr().out)
    files = _golden_files(name)
    assert out == files[0].read_text(encoding="utf-8")
    if len(files) > 1:
        written = (tmp_path / PRODUCT_OUT).read_text(encoding="utf-8")
        assert written == files[1].read_text(encoding="utf-8")


# the text report of one case per command, and of two failed checks
TEXT_CASES = [case for case in CASES if case[0] in (
    "check_s2xs3", "diagonal_s2xs3", "betti-fm2_s2xs3", "cxi_s2xs3_xi", "classify-example",
    "product_s2_s3", "check_s2xs3_fractional_leibniz", "check_e5_2_leibniz")]


@pytest.mark.parametrize("name, argv, status", TEXT_CASES, ids=[c[0] for c in TEXT_CASES])
def test_text_report_matches_golden(name, argv, status, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == status
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _normalise(captured.out) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


CXI_CASES = [case for case in CASES if case[0].startswith("cxi_")]


@pytest.mark.parametrize("name, argv, status", CXI_CASES, ids=[c[0] for c in CXI_CASES])
def test_cxi_report_is_golden_when_the_generic_model_fails(name, argv, status, capsys,
                                                           tmp_path, monkeypatch):
    """With C(Xi) reported failing, `build_cxi` takes its fallback: each
    C(xi) gets `check_cdga` and the map check of its own, and the report
    of `cli.main` is still the golden one."""
    import cdga_config.twisted as twisted
    from cdga_config import presets
    from cdga_config.algebra import AxiomCheck, AxiomReport

    monkeypatch.setattr(presets, "_cache", {})
    real = twisted.check_cdga
    checked = []

    def check_cdga(algebra):
        if algebra.name.startswith("C(Xi) "):
            return AxiomReport((AxiomCheck("associativity", False, "forced"),))
        checked.append(algebra.name.split(" over ")[0])
        return real(algebra)

    monkeypatch.setattr(twisted, "check_cdga", check_cdga)
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--json"]) == status
    assert _normalise(capsys.readouterr().out) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert checked == ([] if status else ["C(0)" if "--xi=0" in argv else "C(xi)"])


GOLDEN_BY_NAME = {name: (argv, status) for name, argv, status in CASES}
# golden calls of four commands, interleaved with a usage error, a parse
# error and a usage error from --x after --xi
INTERLEAVED = [
    ("cxi_s2xs3_xi", None),
    ("usage", ["cxi", "s2xs3"]),
    ("product_s2_s3", None),
    ("parse", ["check", "no-such-preset"]),
    ("check_s2xs3_fractional_leibniz", None),
    ("x-after-xi", ["cxi", "s2xs3", "--xi=0", "--x=y"]),
    ("classify-example", None),
    ("cxi_s2xs3_x", None),
    ("usage", ["cxi", "s2xs3"]),
    ("check_s3xs4", None),
]


def _call(name, argv):
    """(exit status, stdout, stderr) of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    argv = argv if argv is not None else GOLDEN_BY_NAME[name][0] + ["--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_calls_in_one_process_answer_as_when_run_alone(tmp_path, monkeypatch):
    """Each call, made alone (with no parser and no preset cached), and
    made after the others in one process, gives the same status, stdout
    and stderr; the golden ones give their goldens."""
    from cdga_config import cli, presets

    monkeypatch.chdir(tmp_path)
    alone = []
    for name, argv in INTERLEAVED:
        cli._parser.cache_clear()
        monkeypatch.setattr(presets, "_cache", {})
        alone.append(_call(name, argv))
    together = [_call(name, argv) for name, argv in INTERLEAVED]
    assert together == alone
    for (name, argv), (status, out, err) in zip(INTERLEAVED, together):
        if argv is None:
            assert (status, err) == (GOLDEN_BY_NAME[name][1], "")
            assert _normalise(out) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
        else:
            assert status == 1 and out == ""
            assert err.startswith("usage: " if name != "parse" else "parse error: ")


def _golden_output(name, argv, status) -> str:
    """Normalised stdout of one call, made in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                got = main(argv)
            if got != status:
                raise SystemExit(f"{name}: exit {got}, expected {status}")
            files = _golden_files(name)
            if argv[-1] == "--json" and len(files) > 1:
                files[1].write_text(Path(PRODUCT_OUT).read_text(encoding="utf-8"),
                                    encoding="utf-8")
        finally:
            os.chdir(cwd)
    return _normalise(buf.getvalue())


def _write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, status in CASES:
        _golden_files(name)[0].write_text(_golden_output(name, argv + ["--json"], status),
                                          encoding="utf-8")
    for name, argv, status in TEXT_CASES:
        (GOLDEN / f"{name}.txt").write_text(_golden_output(name, argv, status),
                                            encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write_goldens()
