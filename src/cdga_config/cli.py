"""Command-line interface.

    cdga-config check      FILE
    cdga-config diagonal   FILE
    cdga-config betti-fm2  FILE
    cdga-config cxi        FILE --xi EXPR | --x EXPR
    cdga-config classify-example --q 0,1,2,-1
    cdga-config product    FILEA FILEB [--out PATH]

FILE is a path to an algebra document or the name of a shipped preset
(point, s2, s3, s4, s5, cp2, s2xs3, s3xs4). Reports are deterministic:
identical inputs produce byte-identical output; --json emits only the
machine-readable mirror. Exit statuses: 0 success, 1 parse error,
2 mathematical check failure, 3 precondition violation; a closed stdout
(its reader exited first) also ends with 1, without a traceback.

The argument parser is built once per process, on the first `main` call,
and holds nothing of any call: each call parses afresh, and its command
is looked up by name among the `cmd_*` functions of this module. A command
returns its report fields and text lines; `_run` adds `command` and
`version`, emits the report, and returns 0 or 2 by its `ok`, or the
`exit_status` that the type of a raised error carries (see `errors`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import groupby
from pathlib import Path

from . import __version__
from .algebra import Element, check_cdga, cohomology
from .cone import cone_model
from .errors import CdgaError, ExpressionParseError, ParseError, PDFailure
from .io import load_algebra_file, parse_coeff, parse_element, write_pd_file
from .poincare import PDAlgebra, check_pd
from .presets import PRESET_NAMES, _resolve_path
from .products import diagonal_correspondence
from .sullivan import classify_example
from .twisted import build_cxi, c_of_x, quotient_by_diagonal

EXIT_CLOSED_STDOUT = 1
# the stderr prefix of an error, by its exit status
_ERROR_PREFIX = {1: "parse error", 2: "check failed", 3: "precondition violated"}


def _axiom_items(axioms) -> list[dict]:
    return [{"axiom": c.axiom, "ok": c.ok, "witness": c.witness} for c in axioms.checks]


def _load_checked(argument: str) -> tuple[PDAlgebra, dict]:
    """Load, axiom-check and duality-check an input; returns the verified
    structure plus the report fragment describing the checks."""
    path = _resolve_path(argument)
    algebra, n, epsilon, _flags = load_algebra_file(path)
    axioms = check_cdga(algebra)
    fragment = {
        "input": str(path),
        "algebra": algebra.name or path.stem,
        "formal_dimension": n,
        "axioms": _axiom_items(axioms),
    }
    if not axioms.all_pass:
        fragment["poincare_duality"] = {"ok": False, "detail": "skipped: axioms failed"}
        raise _CheckFailed(fragment)
    try:
        pd = check_pd(algebra, n, epsilon)
    except PDFailure as exc:
        fragment["poincare_duality"] = {
            "ok": False,
            "kind": exc.kind,
            "degree": exc.degree,
            "witness": str(exc.witness) if exc.witness is not None else None,
        }
        raise _CheckFailed(fragment) from exc
    fragment["poincare_duality"] = {"ok": True}
    return pd, fragment


class _CheckFailed(Exception):
    """An input failed its axiom or duality check; `_run` reports the
    fragment with exit status 2."""

    def __init__(self, fragment: dict):
        self.fragment = fragment


def _emit(report: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False, default=str))
    else:
        for line in lines:
            print(line)


def _axiom_lines(fragment: dict) -> list[str]:
    lines = [f"algebra {fragment['algebra']} (formal dimension {fragment['formal_dimension']})"]
    for item in fragment["axioms"]:
        status = "pass" if item["ok"] else "FAIL"
        suffix = f"  [{item['witness']}]" if item["witness"] else ""
        lines.append(f"  {item['axiom']}: {status}{suffix}")
    pdinfo = fragment["poincare_duality"]
    if pdinfo["ok"]:
        lines.append("  poincare duality: pass")
    else:
        detail = pdinfo.get("kind") or pdinfo.get("detail")
        witness = pdinfo.get("witness")
        at = f" in degree {pdinfo['degree']}" if pdinfo.get("degree") is not None else ""
        lines.append(f"  poincare duality: FAIL ({detail}{at})"
                     + (f"  [{witness}]" if witness else ""))
    return lines


def cmd_check(args) -> tuple[dict, list[str]]:
    pd, fragment = _load_checked(args.file)
    return {**fragment, "ok": True}, _axiom_lines(fragment) + ["result: all checks pass"]


def cmd_diagonal(args) -> tuple[dict, list[str]]:
    pd, fragment = _load_checked(args.file)
    diag = pd.diagonal
    duals = pd.dual_basis
    cone = cone_model(pd)
    delta_lines = [(label, str(elem)) for label, elem in cone.delta_table()]
    report = {
        **fragment,
        "diagonal_class": str(diag),
        "dual_basis": {
            pd.algebra.basis.labels[i]: str(duals[i]) for i in range(pd.algebra.dim())
        },
        "delta_table": {label: value for label, value in delta_lines},
        "ok": True,
    }
    lines = [f"diagonal class: {diag}", "dual basis:"]
    for i in range(pd.algebra.dim()):
        lines.append(f"  {pd.algebra.basis.labels[i]}* = {duals[i]}")
    lines.append("differential of the cone suspensions:")
    for label, value in delta_lines:
        lines.append(f"  delta({label}) = {value}")
    return report, lines


def cmd_betti_fm2(args) -> tuple[dict, list[str]]:
    pd, fragment = _load_checked(args.file)
    cone = cone_model(pd)
    top = cone.algebra.basis.max_degree()
    cone_betti = cohomology(cone.algebra).betti_vector(top)
    quotient = quotient_by_diagonal(pd)
    quotient_betti = quotient.betti(top)
    rows = []
    for k in range(top + 1):
        agree = cone_betti[k] == quotient_betti[k]
        rows.append({"degree": k, "quotient": quotient_betti[k],
                     "cone": cone_betti[k], "agree": agree})
    all_agree = all(r["agree"] for r in rows)
    report = {
        **fragment,
        "betti": rows,
        "agree": all_agree,
        "ok": all_agree,
    }
    lines = ["degree  quotient-model  cone-model  verdict"]
    for r in rows:
        verdict = "AGREE" if r["agree"] else "DISAGREE"
        lines.append(f"{r['degree']:>6}  {r['quotient']:>14}  {r['cone']:>10}  {verdict}")
    lines.append(f"result: {'AGREE in all degrees' if all_agree else 'DISAGREEMENT FOUND'}")
    return report, lines


def cmd_cxi(args) -> tuple[dict, list[str]]:
    pd, fragment = _load_checked(args.file)
    if args.xi is not None:
        xi = parse_element(pd.square, args.xi)
        model = build_cxi(pd, xi)
        source = {"xi": args.xi}
    else:
        x = parse_element(pd.algebra, args.x)
        model = c_of_x(pd, x)
        source = {"x": args.x}
    alg = model.algebra
    top = alg.basis.max_degree()
    betti = model.betti(top)
    labels = alg.basis.labels
    s1_label = labels[model.trunc.s1_index]
    products = [(labels[i], labels[j], str(Element(alg, {k: c for _, _, k, c in entries})))
                for (i, j), entries in groupby(alg.mult_entries(), key=lambda e: e[:2])]
    report = {
        **fragment,
        **source,
        "dimension": alg.dim(),
        "s1_square": str(model.s1_square()),
        "axioms": _axiom_items(model.axioms),
        "products": [{"left": l, "right": r, "value": v} for l, r, v in products],
        "betti": betti,
        "ok": model.axioms.all_pass,
    }
    lines = [f"twisted model on {fragment['algebra']} ({alg.dim()} basis elements)"]
    lines.append(f">>> ({s1_label})^2 = {model.s1_square()} <<<")
    lines.append("structure constants (nonzero products, canonical order):")
    for l, r, v in products:
        marker = "  * " if (l == s1_label and r == s1_label) else "    "
        lines.append(f"{marker}{l} . {r} = {v}")
    for c in model.axioms.checks:
        lines.append(f"  {c.axiom}: {'pass' if c.ok else 'FAIL'}")
    lines.append(f"betti: {betti}")
    return report, lines


def cmd_classify_example(args) -> tuple[dict, list[str]]:
    if not args.q.strip():
        raise ExpressionParseError("--q expects at least one value")
    parts = args.q.split(",")
    for position, part in enumerate(parts, 1):
        if not part.strip():
            raise ExpressionParseError(f"--q item {position} of {len(parts)} is empty in {args.q!r}")
    try:
        values = [parse_coeff(part) for part in parts]
    except ParseError as exc:
        raise ExpressionParseError(f"--q expects comma-separated rationals, got {args.q!r}: {exc}") from None
    matrix = classify_example(values)
    verdicts = [[r.verdict for r in row] for row in matrix]
    trace_pair = None
    for i, row in enumerate(matrix):
        for j, result in enumerate(row):
            if result.verdict == "obstructed" and trace_pair is None:
                trace_pair = (i, j, result)
    report = {
        "q_values": [str(v) for v in values],
        "matrix": verdicts,
        "ok": True,
    }
    lines = ["pairwise verdicts (rows: first table, columns: second):"]
    header = "        " + "  ".join(f"q={v}" for v in values)
    lines.append(header)
    for i, row in enumerate(verdicts):
        lines.append(f"q={values[i]}:  " + "  ".join(row))
    if trace_pair is not None:
        i, j, result = trace_pair
        report["obstruction_trace"] = {
            "pair": [str(values[i]), str(values[j])],
            "trace": result.trace,
            "residual_constant": str(result.residual_constant),
        }
        lines.append(f"trace for q={values[i]} vs q={values[j]}:")
        for entry in result.trace:
            lines.append(f"  {entry}")
        lines.append(f"residual at q={values[i]} vs q={values[j]}: stage {result.at_generator} "
                     f"ends in 0 = {result.residual_constant}, so no isomorphism exists")
    return report, lines


def cmd_product(args) -> tuple[dict, list[str]]:
    if args.out == "":
        raise ParseError("--out expects a path, got ''")
    pd_a, frag_a = _load_checked(args.file_a)
    pd_b, frag_b = _load_checked(args.file_b)
    correspondence = diagonal_correspondence(pd_a, pd_b)
    product = correspondence.product
    out_path = Path(args.out) if args.out is not None else Path(
        f"product_{frag_a['algebra']}_{frag_b['algebra']}.json"
    )
    write_pd_file(product, out_path)
    report = {
        "inputs": [frag_a["input"], frag_b["input"]],
        "product": product.algebra.name,
        "formal_dimension": product.n,
        "written_to": str(out_path),
        "shuffle_sign": str(correspondence.sign),
        "shuffle_multiplicative": correspondence.shuffle_multiplicative,
        "quotient_betti_factors": correspondence.quotient_betti_factors,
        "quotient_betti_product": correspondence.quotient_betti_product,
        "betti_agree": correspondence.betti_agree,
        "ok": correspondence.betti_agree and correspondence.shuffle_multiplicative,
    }
    lines = [
        f"product algebra: {product.algebra.name} (formal dimension {product.n})",
        f"written to: {out_path}",
        f"shuffle sends (diag x diag) to {correspondence.sign} * diagonal of the product",
        f"shuffle multiplicative on all basis pairs: {correspondence.shuffle_multiplicative}",
        f"quotient betti (factor square): {correspondence.quotient_betti_factors}",
        f"quotient betti (product square): {correspondence.quotient_betti_product}",
        f"degreewise agreement: {'AGREE' if correspondence.betti_agree else 'DISAGREE'}",
    ]
    return report, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdga-config",
        description="Exact rational models of two-point configuration spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit only the machine-readable JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run the CDGA axiom and duality checks on a file")
    p.add_argument("file", help=f"algebra file or preset ({', '.join(PRESET_NAMES)})")

    p = sub.add_parser("diagonal", parents=[common],
                       help="diagonal class, dual basis, cone delta-table")
    p.add_argument("file")

    p = sub.add_parser("betti-fm2", parents=[common],
                       help="Betti table of the quotient model against the cone")
    p.add_argument("file")

    p = sub.add_parser("cxi", parents=[common],
                       help="build a twisted model C(xi) or C(x) and verify it")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--xi", help="element expression in the tensor square, degree 2n-2")
    group.add_argument("--x", help="cocycle expression in the algebra, degree n-2")

    p = sub.add_parser("classify-example", parents=[common],
                       help="pairwise obstruction verdicts for the twisted family")
    p.add_argument("--q", required=True, help="comma-separated rational twists")

    p = sub.add_parser("product", parents=[common],
                       help="tensor product of two duality algebras + diagonal correspondence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out", help="path for the emitted product algebra file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        status = _run(argv)
        # flush here, so that a reader that has gone away shows up below
        # rather than in the flush at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader of stdout exited first; point stdout at devnull so
        # that the flush at exit cannot fail again and print a message
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep 0 for --help/--version
        # and fold usage errors into the parse-error status
        return 0 if exc.code in (0, None) else ParseError.exit_status
    try:
        # argparse hands an option written with the value "--" (as in
        # `--xi=--`) an empty list instead; no option here takes a list
        for name, value in vars(args).items():
            if isinstance(value, list):
                raise ParseError(f"--{name} expects a value, got '--'")
        # by name at call time, so a rebound `cmd_*` is the one that runs
        report, lines = globals()["cmd_" + args.command.replace("-", "_")](args)
    except _CheckFailed as failed:
        report = {**failed.fragment, "ok": False}
        lines = _axiom_lines(failed.fragment) + ["result: FAIL"]
    except CdgaError as exc:
        print(f"{_ERROR_PREFIX[exc.exit_status]}: {exc}", file=sys.stderr)
        return exc.exit_status
    _emit({"command": args.command, "version": __version__, **report}, lines, args.json)
    return 0 if report["ok"] else CdgaError.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
