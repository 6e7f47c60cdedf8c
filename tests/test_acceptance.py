"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All comparisons are exact rational equalities; the only tolerances
are the stated wall-clock bounds.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from cdga_config.algebra import Element, check_cdga, cohomology
from cdga_config.cli import main
from cdga_config.cone import cone_model, even_model
from cdga_config.errors import EvenDimensionNonzeroXi
from cdga_config.poincare import desuspended_module
from cdga_config.presets import preset_pd
from cdga_config.products import diagonal_correspondence
from cdga_config.sullivan import Exists, Obstructed, check_table, classify_example, iso_obstruction, s2xs3_table
from cdga_config.twisted import (
    EquivalentWitness,
    build_cxi,
    decide_xi_equivalence,
    equivalence_ideal,
    phi,
    quotient_by_diagonal,
)

from oracles import dense_identity, dense_matmul

TENSOR = "⊗"
ALL_PRESETS = ["s2", "s3", "s4", "s5", "cp2", "s2xs3", "s3xs4"]
ODD_PRESETS = ["s3", "s5", "s2xs3", "s3xs4"]
EVEN_PRESETS = ["s2", "s4", "cp2"]


def report(number, description):
    print(f"ACCEPTANCE {number}: PASS — {description}")


def test_criterion_1_diagonal_and_delta_table(capsys):
    started = time.perf_counter()
    code = main(["diagonal", "s2xs3", "--json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["diagonal_class"] == f"1{TENSOR}xy + x{TENSOR}y - y{TENSOR}x - xy{TENSOR}1"
    assert data["delta_table"] == {
        "S1": f"1{TENSOR}xy + x{TENSOR}y - y{TENSOR}x - xy{TENSOR}1",
        "Sx": f"x{TENSOR}xy - xy{TENSOR}x",
        "Sy": f"-y{TENSOR}xy - xy{TENSOR}y",
        "Sxy": f"-xy{TENSOR}xy",
    }
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        report(1, f"diagonal class and delta-table reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_table_integrity(capsys):
    started = time.perf_counter()
    for q, r in [(0, 0), (1, 0), (0, 1), (3, -2)]:
        table_report = check_table(s2xs3_table(q, r))
        assert table_report.all_pass, (q, r, table_report.lines())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        report(2, f"generator table passes D²=0 and the evaluation cochain identity ({elapsed:.2f}s)")


def test_criterion_3_classification(capsys):
    started = time.perf_counter()
    values = [F(0), F(1), F(2), F(-1)]
    matrix = classify_example(values)
    for i, row in enumerate(matrix):
        for j, result in enumerate(row):
            expected = "exists" if i == j else "obstructed"
            assert result.verdict == expected, (i, j, result.verdict)
    # the worked pair: twist 1 against twist 0
    traced = iso_obstruction(s2xs3_table(1, 0), s2xs3_table(0, 0))
    assert isinstance(traced, Obstructed)
    assert "psi(u)[u] = 1" in traced.trace
    assert traced.residual_constant in (F(1), F(-1))  # +-(q - r) with q=1, r=0
    # the same constraint is satisfiable exactly when the twists agree
    assert isinstance(iso_obstruction(s2xs3_table(1, 0), s2xs3_table(1, 0)), Exists)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    with capsys.disabled():
        report(3, f"pairwise classification with forced leading coefficient and q=r constraint ({elapsed:.2f}s)")


def test_criterion_4_cohomology_formula(capsys):
    for name in ALL_PRESETS:
        pd = preset_pd(name)
        cone = cone_model(pd)
        top = cone.algebra.basis.max_degree()
        cone_betti = cohomology(cone.algebra).betti_vector(top)
        quotient_betti = quotient_by_diagonal(pd).betti(top)
        assert cone_betti == quotient_betti, name
        if name.startswith("s") and name[1:].isdigit():
            n = pd.n
            expected = [1] + [0] * (n - 1) + [1] + [0] * (top - n)
            assert cone_betti == expected, name
    with capsys.disabled():
        report(4, "quotient model and cone agree degreewise; spheres give the sphere table")


def test_criterion_5_twisted_family(capsys):
    rng = random.Random(20260810)
    for name in ODD_PRESETS:
        pd = preset_pd(name)
        square = pd.square
        idx = square.basis.degree_indices(2 * pd.n - 2)
        for _ in range(10):
            xi = square.element({i: F(rng.randint(-5, 5)) for i in idx})
            model = build_cxi(pd, xi)
            assert model.axioms.all_pass, (name, str(xi))
    for name in EVEN_PRESETS:
        pd = preset_pd(name)
        omega_omega = pd.square.tensor_elements(pd.omega, pd.omega)
        with pytest.raises(EvenDimensionNonzeroXi):
            build_cxi(pd, omega_omega)
    with capsys.disabled():
        report(5, "twisted models pass the exhaustive axiom check; even dimensions reject nonzero twists")


def test_criterion_6_phi_isomorphism(capsys):
    for name in ["s2xs3", "s3xs4"]:
        ph = phi(preset_pd(name))
        assert all(len(row) == len(ph.matrix) for row in ph.matrix)
        assert dense_matmul(ph.matrix, ph.inverse) == dense_identity(len(ph.matrix))
    pd = preset_pd("s2xs3")
    ph = phi(pd)
    assert ph.dimension == 1 and len(ph.matrix) == 1
    (rep,) = ph.domain_representatives
    assert str(rep) == "y"
    image = pd.square.from_label_coeffs({f"y{TENSOR}xy": F(1)})
    assert [row[0] for row in ph.matrix] == ph.target_class_coordinates(image)
    with capsys.disabled():
        report(6, "comparison map is square and invertible; [y] lands on the class of y(x)xy")


def test_criterion_7_equivalence_ideal(capsys):
    for name in ODD_PRESETS:
        ideal = equivalence_ideal(preset_pd(name))
        assert ideal.subcomplex.is_acyclic(), name
        assert ideal.subcomplex.closed_under_multiplication(), name
    pd = preset_pd("s2xs3")
    square = pd.square
    xi = square.from_label_coeffs({f"y{TENSOR}xy": F(1)})
    xi2 = square.from_label_coeffs({f"xy{TENSOR}y": F(-1)})
    witness = decide_xi_equivalence(pd, xi, xi2)
    assert isinstance(witness, EquivalentWitness)
    diag = pd.diagonal
    assert square.multiply(witness.w, diag) + square.d(witness.eta) == xi - xi2
    y_one = square.tensor_elements(pd.algebra.from_label_coeffs({"y": 1}), pd.algebra.one())
    assert xi - xi2 == square.multiply(y_one, diag)
    assert witness.difference_in_ideal and witness.quotients_isomorphic
    with capsys.disabled():
        report(7, "equivalence ideal is an acyclic ideal; the worked pair of twists is identified")


def test_criterion_8_product_correspondence(capsys):
    rep23 = diagonal_correspondence(preset_pd("s2"), preset_pd("s3"))
    assert rep23.sign in (F(1), F(-1))
    assert rep23.betti_agree
    rep33 = diagonal_correspondence(preset_pd("s3"), preset_pd("s3"))
    assert rep33.sign in (F(1), F(-1))
    assert rep33.betti_agree
    with capsys.disabled():
        report(8, f"shuffle sends diag(x)diag to ({rep23.sign}) * product diagonal; quotient tables agree")


def test_criterion_9_even_model(capsys):
    for name in EVEN_PRESETS:
        pd = preset_pd(name)
        cone = cone_model(pd)
        assert check_cdga(cone.algebra).all_pass, name
        model = even_model(pd)
        assert model.trunc.quotient.subspace.is_acyclic(), name
        top = cone.algebra.basis.max_degree()
        assert model.betti(top) == cohomology(cone.algebra).betti_vector(top), name
    with capsys.disabled():
        report(9, "truncated part acyclic, cone is a CDGA, C(0) keeps the cohomology")


def test_criterion_10_sign_convention_consistency(capsys):
    for name in ALL_PRESETS:
        pd = preset_pd(name)
        cone = cone_model(pd)
        alg = cone.algebra
        source = cone.source
        ring = cone.ring
        rdeg = ring.basis.degrees
        bdeg = source.basis.degrees
        for r in range(ring.dim()):
            er = alg.basis_element(cone.ring_to_cone[r])
            for b in range(source.dim()):
                sb = alg.basis_element(cone.susp_to_cone[b])
                direct = sb * er
                expected = Element(alg, {})
                sign = (-1) ** (bdeg[b] * rdeg[r])
                for t, c in source.act_basis(r, b).items():
                    expected = expected + Element(alg, {cone.susp_to_cone[t]: sign * c})
                assert direct == expected, name
                derived = (er * sb).scale((-1) ** ((bdeg[b] + 1) * rdeg[r]))
                assert direct == derived, name
        # the module sign rule validated by associativity on all triples
        desuspended_module(pd).verify()
    with capsys.disabled():
        report(10, "suspension product rule agrees with its derivation; module action is associative")
