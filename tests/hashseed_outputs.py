"""Write the outputs that must not depend on the hash seed, one file each,
with what the output's process wrote to stdout and then to stderr.

    PYTHONPATH=src PYTHONHASHSEED=1 python tests/hashseed_outputs.py OUTDIR

Run it from the repository root (the reports name the paths they were
given) once per seed, then compare the directories of two seeds with
`diff -r`. The warm and cold runs of one call, and the routes of one
computation (instance, checked, sweep), must give equal files under one
seed too: the script compares those pairs (`_EQUAL`) and exits 1, naming
the pair, when two differ.

Dict, set and guard iteration must not leak into any report or written
file. Each output is written by a fresh Python process, so a "cold" output
starts with every cache empty; a "warm" one makes an earlier call in the
same process first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "cdga_config", *args]


def _program(name: str, *args) -> list[str]:
    """A fresh process that runs `name(*args)` of this module."""
    here = str(Path(__file__).resolve().parent)
    code = (f"import sys; sys.path.insert(0, {here!r}); import hashseed_outputs; "
            f"hashseed_outputs.{name}(*{args!r})")
    return [sys.executable, "-c", code]


def _outputs():
    """(file name, command, exit status) of every output, in order."""
    return [
        ("classify", _cli("classify-example", "--q=0,1,-1/2,7/3", "--json"), 0),
        # no zero q: every pair takes a family verdict evaluated at its point
        ("classify-family", _cli("classify-example", "--q=2,-1/3,5/7", "--json"), 0),
        # the same call on a warm cache: the parsed table document and its
        # family verdicts come from an earlier call in the same process
        ("classify-warm", _program("warm_cli", ["classify-example", "--q=5,-2/9", "--json"],
                                   ["classify-example", "--q=2,-1/3,5/7", "--json"]), 0),
        # a zero q: its pairs take the numeric solve, each table building
        # its own unknowns; cold, then after an earlier call in the process
        ("classify-numeric", _cli("classify-example", "--q=0,3,-2/5", "--json"), 0),
        # two equal values and no zero: only the two pairs of the equal
        # values take the numeric solve, on the tables of those values
        ("classify-equal", _cli("classify-example", "--q=3,3,-2/5", "--json"), 0),
        ("classify-numeric-warm",
         _program("warm_cli", ["classify-example", "--q=0,5,-2/9", "--json"],
                  ["classify-example", "--q=0,3,-2/5", "--json"]), 0),
        ("cxi", _cli("cxi", "s2xs3", "--xi=1/2*(y(x)xy)", "--json"), 0),
        # the same call made after another in the same process, which
        # prints the bytes it prints when run alone; each call loads a
        # fresh algebra, so it builds and checks a C(Xi) of its own
        ("cxi-warm", _program("warm_cli", ["cxi", "s2xs3", "--xi=-3*(xy(x)y) + 2/5*(y(x)xy)",
                                           "--json"],
                              ["cxi", "s2xs3", "--xi=1/2*(y(x)xy)", "--json"]), 0),
        ("decide-cold", _program("decide", "cold"), 0),
        ("decide-warm", _program("decide", "warm"), 0),
        ("route-instance", _program("route", "instance"), 0),
        ("route-checked", _program("route", "checked"), 0),
        ("table-instance", _program("table", "instance"), 0),
        ("table-sweep", _program("table", "sweep"), 0),
        ("table-checked", _program("table", "checked"), 0),
        ("betti", _cli("betti-fm2", "s3xs4", "--json"), 0),
        # the fattened sphere E(5, 2), whose d is nonzero, and its copy
        # that breaks the Leibniz rule at (u, w), which exits 2
        ("check-e5_2", _cli("check", "tests/data/e5_2.json", "--json"), 0),
        ("betti-e5_2", _cli("betti-fm2", "tests/data/e5_2.json", "--json"), 0),
        ("check-e5_2-leibniz", _cli("check", "tests/data/e5_2_leibniz.json", "--json"), 2),
        # cp2 (x) cp2 with one product of two non-generators doubled, which
        # exits 2 with the associativity witness of the sweep over every tuple
        ("check-doubled", _cli("check", "tests/data/cp2xcp2_doubled.json", "--json"), 2),
        # the torus is not 1-connected: the part of its cone that C(0), its
        # even-dimensional model, truncates is not acyclic, which exits 2
        ("cxi-t2", _cli("cxi", "tests/data/t2.json", "--xi", "0"), 2),
        ("diagonal", _cli("diagonal", "cp2", "--json"), 0),
        # a relative --out keeps `written_to` the same under both seeds
        ("product-report", _cli("product", "s2xs3", "cp2", "--out", "product.json", "--json"), 0),
        # the 256-dim factor square: the largest shuffle and quotients
        ("product2-report",
         _cli("product", "s2xs3", "s3xs4", "--out", "product2.json", "--json"), 0),
        # two rejected documents, whose messages name the file and the
        # JSON path: an unknown label in a product entry, and an unknown
        # base in a differential term of a generator table
        ("reject-algebra", _cli("check", "tests/data/unknown_product_label.json"), 1),
        ("reject-table", _program("table_document", "tests/data/unknown_base_table.json"), 1),
    ]


# pairs of outputs that must be equal under one seed: warm against cold
# runs, and the instance, checked and sweep routes against each other
_EQUAL = [
    ("classify-warm", "classify-family"),
    ("classify-numeric-warm", "classify-numeric"),
    ("cxi-warm", "cxi"),
    ("decide-cold", "decide-warm"),
    ("route-instance", "route-checked"),
    ("table-instance", "table-sweep"),
    ("table-instance", "table-checked"),
]


def warm_cli(first: list[str], second: list[str]) -> None:
    """Run the CLI on `first`, quietly, then exit with its run on `second`."""
    from cdga_config import cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(first) == 0
    sys.exit(cli.main(second))


def table_document(path: str) -> None:
    """Parse the table document at `path`; a rejected one exits 1 with
    its message on stderr, as the CLI prints a parse error."""
    from cdga_config.errors import ParseError
    from cdga_config.io import parse_table_file

    try:
        parse_table_file(path)
    except ParseError as exc:
        sys.exit(f"parse error: {exc}")


def _twist(pd, q, r):
    return pd.square.from_label_coeffs({"y⊗xy": F(q), "xy⊗y": F(r)})


def _print_decisions(pd) -> None:
    from cdga_config.twisted import decide_xi_equivalence

    pairs = ((_twist(pd, "1/2", 0), _twist(pd, "-3/2", -2)),
             (_twist(pd, 0, 1), _twist(pd, "7/3", "10/3")))
    for xi, xi2 in pairs:
        r = decide_xi_equivalence(pd, xi, xi2)
        print(json.dumps({"w": str(r.w), "eta": str(r.eta),
                          "difference_in_ideal": r.difference_in_ideal,
                          "quotients_isomorphic": r.quotients_isomorphic}, ensure_ascii=False))


def _mark_unverified(pd) -> None:
    """Store on pd's cone a copy of its truncation marked unverified, so
    that every C(xi) gets the full checks of its own."""
    from cdga_config.cone import cone_model
    from cdga_config.twisted import truncate_cone

    cone = cone_model(pd)
    cone._truncation = dataclasses.replace(truncate_cone(cone), verified=False)


def decide(warm: str) -> None:
    """decide_xi_equivalence has no CLI command: the certificates of two
    fixed equivalent pairs, on a cold cone, or on a cone whose system
    matrix and C(Xi)/I an earlier decision built."""
    from cdga_config.presets import preset_pd
    from cdga_config.twisted import decide_xi_equivalence

    pd = preset_pd("s2xs3")
    if warm == "warm":
        decide_xi_equivalence(pd, _twist(pd, 5, -2), _twist(pd, 6, -1))
    _print_decisions(pd)


def route(which: str) -> None:
    """Two decisions and one C(xi): as instances of C(Xi), or ("checked")
    with the truncation marked unverified before the first call, so every
    twist gets the per-xi checks and quotients. C(xi)'s Betti numbers are
    printed as kept from the truncation and as computed afresh on C(xi)."""
    from cdga_config.algebra import cohomology
    from cdga_config.presets import preset_pd
    from cdga_config.twisted import build_cxi

    pd = preset_pd("s2xs3")
    if which == "checked":
        _mark_unverified(pd)
    _print_decisions(pd)
    model = build_cxi(pd, _twist(pd, -3, "2/5"))
    top = model.algebra.basis.max_degree()
    axioms = [f"{c.axiom}: {'pass' if c.ok else 'FAIL'}" + (f"  [{c.witness}]" if c.witness else "")
              for c in model.axioms.checks]
    print(json.dumps({"axioms": axioms,
                      "mult": [[i, j, k, str(c)] for i, j, k, c in model.algebra.mult_entries()],
                      "betti": model.betti(top),
                      "fresh_betti": cohomology(model.algebra).betti_vector(top)},
                     ensure_ascii=False))


def table(which: str) -> None:
    """check_table on three tables of the packaged document: as instances
    of its symbolic table, which take its report; as copies built by no
    document ("sweep"), which are swept at their values; or ("checked")
    with C(Xi) marked unverified before the document is parsed, so that
    the symbolic target gets build_cxi's full checks over q and r."""
    from cdga_config.presets import preset_pd
    from cdga_config.sullivan import check_table, s2xs3_table

    if which == "checked":
        _mark_unverified(preset_pd("s2xs3"))
    for q in (0, 3, F(-2, 5)):
        built = s2xs3_table(q, 0)
        if which == "sweep":
            built = dataclasses.replace(built)
        print(json.dumps(check_table(built).lines(), ensure_ascii=False))


def main(outdir: str) -> int:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, command, status in _outputs():
        with open(out / f"{name}.json", "wb") as sink:
            code = subprocess.run(command, stdout=sink, stderr=subprocess.STDOUT).returncode
        if code != status:
            print(f"{name}: exit status {code}, expected {status}", file=sys.stderr)
            return 1
    for written in ("product.json", "product2.json"):
        shutil.move(written, out / written)
    differ = [(a, b) for a, b in _EQUAL
              if (out / f"{a}.json").read_bytes() != (out / f"{b}.json").read_bytes()]
    for a, b in differ:
        print(f"{a}.json and {b}.json differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
