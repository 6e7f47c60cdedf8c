import dataclasses
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdga_config.cone import cone_model
from cdga_config.errors import CdgaError, IncompatibleTables, StructureError
from cdga_config.io import load_table_file
from cdga_config.linalg import _accumulate
from cdga_config.presets import preset_pd, preset_table, table_preset_path
from cdga_config.sullivan import (
    Exists,
    GeneratorTable,
    Obstructed,
    Poly,
    check_table,
    classify_example,
    iso_obstruction,
    s2xs3_table,
)

from oracles import oracle_check_table

TENSOR = "⊗"


# --- table construction and verification -----------------------------------------


def test_table_shape():
    t = s2xs3_table(1, 0)
    assert [label for label, _ in t.gens] == ["u", "z5", "z61", "z62", "z71", "z72", "h"]
    assert [degree for _, degree in t.gens] == [4, 5, 6, 6, 7, 7, 7]
    assert t.degree_cap == 8


def test_d_squared_zero_on_top_generator():
    t = s2xs3_table(2, -5)
    dd = t.d(t.differentials[-1])  # the degree-7 generator killing u^2
    assert dd == {}


def test_evaluation_is_cochain_on_u():
    t = s2xs3_table(1, 0)
    m_du = t.evaluate(t.differentials[0])
    delta_m_u = t.target.algebra.d(t.evaluation[0])
    assert m_du == delta_m_u


def test_evaluate_sends_base_elements_to_their_projections(s3xs4):
    t = s2xs3_table(F(1, 2), 3)
    model = t.target
    for b in range(t.base.dim()):
        image = model.trunc.quotient.project(model.trunc.cone.include_base(t.base.basis_element(b)))
        assert t.evaluate({(b, ()): F(2, 3)}).coeffs == image.scale(F(2, 3)).coeffs
    t = dataclasses.replace(t, base=s3xs4.square)
    with pytest.raises(StructureError, match="table base is not the ring"):
        t.evaluate({(0, ()): 1})


@pytest.mark.parametrize("q,r", [(0, 0), (1, 0), (0, 1), (3, -2), (5, 0)])
def test_check_table_passes(q, r):
    assert check_table(s2xs3_table(q, r)).all_pass


def test_check_table_flags_injected_fault():
    t = s2xs3_table(1, 0)
    # corrupt the first differential by adding x (x) x: the evaluation
    # identity on u must break
    square = t.base
    xx = square.basis.index(f"x{TENSOR}x")
    corrupted = dict(t.differentials[0])
    corrupted[(xx, ())] = F(1)
    t = dataclasses.replace(t, differentials=(corrupted,) + t.differentials[1:])
    report = check_table(t)
    assert not report.all_pass
    entry = report.checks[0]
    assert not entry.cochain_ok


def test_check_table_empty_is_vacuous(s2xs3):
    table = GeneratorTable(
        base=s2xs3.square,
        gens=(),
        differentials=(),
        target=None,
        evaluation=(),
        degree_cap=8,
        name="empty",
    )
    assert check_table(table).all_pass


def test_table_differentials_are_pinned():
    # the expansions of the table document's differentials at (q, r) = (2, -3)
    t = s2xs3_table(2, -3)
    assert t.name == "s2xs3-table"
    assert {label: t.element_str(d) for (label, _), d in zip(t.gens, t.differentials)} == {
        "u": f"1{TENSOR}xy + x{TENSOR}y - y{TENSOR}x - xy{TENSOR}1",
        "z5": f"u*1{TENSOR}x - u*x{TENSOR}1",
        "z61": f"u*1{TENSOR}y - u*y{TENSOR}1",
        "z62": f"z5*1{TENSOR}x + z5*x{TENSOR}1",
        "z71": f"z62*1{TENSOR}x - z62*x{TENSOR}1",
        "z72": f"z5*1{TENSOR}y - z5*y{TENSOR}1 + z61*1{TENSOR}x - z61*x{TENSOR}1",
        "h": f"-2*y{TENSOR}xy + 3*xy{TENSOR}y + u^2 - 2*z61*1{TENSOR}x - 2*z61*x{TENSOR}1",
    }
    assert check_table(t).all_pass


# --- each document checked once, its instances compared exactly -------------------


_table_values = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-7, 3)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=11),
)


@settings(max_examples=40, deadline=None)
@given(_table_values, _table_values)
def test_check_table_equals_the_per_value_sweep(q, r):
    table = s2xs3_table(q, r)
    report = check_table(table)
    assert report is preset_table().report
    assert report == oracle_check_table(s2xs3_table(q, r))


def test_a_changed_copy_is_swept_on_its_own():
    t = s2xs3_table(F(2, 3), 0)
    square = t.base
    yy = square.basis.index(f"y{TENSOR}y")
    corrupted = dict(t.differentials[-1])
    corrupted[(yy, ())] = F(5)
    copy = dataclasses.replace(t, differentials=t.differentials[:-1] + (corrupted,))
    report = check_table(copy)
    assert report == oracle_check_table(copy)
    assert [c.ok for c in report.checks] == [True] * 6 + [False]
    assert report.checks[-1].cochain_witness == oracle_check_table(copy).checks[-1].cochain_witness


def _change_differential(table):
    table.differentials[-1][(table.base.basis.index(f"y{TENSOR}y"), ())] = F(5)


def _change_evaluation(table):
    table.evaluation[0].coeffs[table.target.trunc.s1_index] = 2


def _change_parent(table):
    table.evaluation[0].parent = preset_table().symbolic.target.algebra


def _change_square(table):
    s1 = table.target.trunc.s1_index
    row = table.target.algebra._mult[s1][s1]
    row[next(iter(row))] += 1


def _change_product_row(table):
    # the product of S1 with the image of 1(x)x, which m(D z5) reads
    algebra, s1 = table.target.algebra, table.target.trunc.s1_index
    k, = table.target.trunc.base_rows[table.base.basis.index(f"1{TENSOR}x")]
    rows = list(algebra._mult[k])
    assert rows[s1]
    rows[s1] = {j: 2 * c for j, c in rows[s1].items()}
    algebra._mult = algebra._mult[:k] + (tuple(rows),) + algebra._mult[k + 1:]


def _change_d(table):
    algebra, s1 = table.target.algebra, table.target.trunc.s1_index
    assert algebra._diff[s1]
    algebra._diff = algebra._diff[:s1] + ({},) + algebra._diff[s1 + 1:]


def _change_base_image(table):
    # on a copy of the target's truncation: its rows are shared by every C(xi)
    rows = list(table.target.trunc.base_rows)
    b = table.base.basis.index(f"1{TENSOR}xy")
    rows[b] = {k: 2 * c for k, c in rows[b].items()}
    table.target.trunc = dataclasses.replace(table.target.trunc, base_rows=tuple(rows))


def _change_cone(table):
    table.target.trunc = dataclasses.replace(table.target.trunc,
                                             cone=cone_model(preset_pd("s3xs4")))


def _change_base(table):
    object.__setattr__(table, "base", preset_pd("s3xs4").square)


def _change_generator(table):
    object.__setattr__(table, "gens", table.gens[:-1] + (("hh", 7),))


def _outcome(check, table):
    try:
        return check(table)
    except CdgaError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("change", [
    _change_differential, _change_evaluation, _change_parent, _change_square,
    _change_product_row, _change_d, _change_base_image, _change_cone, _change_base,
    _change_generator,
], ids=["differential", "evaluation", "parent", "square", "product-row", "d", "base-image",
        "cone", "base", "generator"])
def test_a_table_changed_in_place_is_swept_on_its_own(change):
    table = s2xs3_table(3, F(1, 2))
    change(table)
    outcome = _outcome(check_table, table)
    assert outcome == _outcome(oracle_check_table, table)
    assert outcome != preset_table().report


def _table_document(tmp_path, **changes):
    from cdga_config.io import parse_table_file

    data = json.loads(table_preset_path().read_text(encoding="utf-8"))
    data.update(changes)
    doc = tmp_path / "table.json"
    doc.write_text(json.dumps(data), encoding="utf-8")
    return parse_table_file(doc)


def test_a_document_whose_symbolic_report_fails_sweeps_each_table(tmp_path):
    # with xi free of q, the evaluation is a cochain map only where q = 0
    document = _table_document(tmp_path, xi="r*(xy(x)y)")
    assert not document.report.all_pass
    assert document.report.checks[-1].cochain_witness == f"m(Dh) - d(m h) = (-q)*y{TENSOR}xy"
    for q, passes in ((0, True), (1, False), (F(-3, 4), False)):
        table = document.table({"q": q, "r": 0})
        report = check_table(table)
        assert report.all_pass is passes
        assert report == oracle_check_table(table)
    assert check_table(document.table({"q": 1, "r": 0})).checks[-1].cochain_witness == (
        f"m(Dh) - d(m h) = -y{TENSOR}xy")


def test_a_document_without_a_symbolic_twist_sweeps_each_table(tmp_path):
    # r's term has the wrong degree: only tables with r = 0 have a target
    document = _table_document(tmp_path, xi="q*(y(x)xy) + r*(x(x)x)")
    table = document.table({"q": 2, "r": 0})
    assert document.symbolic is None and document.report is None
    assert check_table(table) == oracle_check_table(table) and check_table(table).all_pass


def test_the_symbolic_table_of_an_unverified_family_gets_the_full_checks(monkeypatch,
                                                                          cold_presets):
    import cdga_config.twisted as twisted
    from cdga_config.io import parse_table_file
    from cdga_config.linalg import RationalFunction
    from cdga_config.twisted import truncate_cone

    cone = cone_model(preset_pd("s2xs3"))
    cone._truncation = dataclasses.replace(truncate_cone(cone), verified=False)
    checks = []
    original = twisted.check_cdga
    monkeypatch.setattr(twisted, "check_cdga", lambda a: checks.append(a) or original(a))
    document = parse_table_file(table_preset_path())
    target = document.symbolic.target
    assert checks == [target.algebra] and target.axioms.all_pass
    # the checks ran over q and r: (S1)^2 = q*y(x)xy + r*xy(x)y
    square = target.algebra._mult[target.trunc.s1_index][target.trunc.s1_index]
    assert sorted(str(c) for c in square.values()) == ["q", "r"]
    assert all(type(c) is RationalFunction for c in square.values())
    for q in (0, 3, F(-2, 5)):
        table = document.table({"q": q, "r": 0})
        assert check_table(table) == oracle_check_table(table)


def _count_sweeps(monkeypatch):
    """The tables `GeneratorTable.d` runs on, once per call: the sweep of
    `check_table` calls it once per generator."""
    swept = []
    original = GeneratorTable.d
    monkeypatch.setattr(GeneratorTable, "d", lambda self, x: swept.append(self) or original(self, x))
    return swept


def test_a_warm_job_sweeps_no_table_and_each_document_once(monkeypatch, cold_presets):
    swept = _count_sweeps(monkeypatch)
    # the first check of a table sweeps the document's symbolic table, once
    assert check_table(s2xs3_table(3, 0)).all_pass
    document = preset_table()
    assert swept == [document.symbolic] * len(document.symbolic.gens)
    classify_example([F(5), F(-1, 2)])
    swept.clear()
    # a warm job of the `twist-family` benchmark: its classification and
    # its table check sweep nothing, and no solve derives a differential
    derived = []
    original = GeneratorTable._derive
    monkeypatch.setattr(GeneratorTable, "_derive",
                        lambda self, mono: derived.append(mono) or original(self, mono))
    qs = [F(2), F(-1, 3), F(5, 7), F(4), F(-9, 2), F(1, 8)]
    classify_example(qs)
    assert check_table(s2xs3_table(qs[2], 0)) is document.report
    assert swept == [] and derived == []
    # a copy built by no document is swept
    copy = dataclasses.replace(s2xs3_table(qs[2], 0))
    assert check_table(copy) == document.report
    assert swept == [copy] * len(copy.gens)


def test_classify_example_builds_each_value_s_target(monkeypatch):
    import cdga_config.io as io

    built = []
    original = io.build_cxi
    monkeypatch.setattr(io, "build_cxi", lambda pd, xi: built.append(xi) or original(pd, xi))
    qs = [F(2), F(0), F(-1, 3)]
    classify_example(qs)
    square = preset_pd("s2xs3").square
    assert built == [square.from_label_coeffs({f"y{TENSOR}xy": q}) for q in qs]


def _spy_targets_and_tables(monkeypatch):
    """The models `io.build_cxi` returns, and the tables the document
    builds at rational values, in the order they are built."""
    import cdga_config.io as io

    models, tables = [], []
    build_cxi, build = io.build_cxi, io.TableDocument._build
    monkeypatch.setattr(io, "build_cxi",
                        lambda pd, xi: models.append(build_cxi(pd, xi)) or models[-1])

    def building(self, values, target):
        table = build(self, values, target)
        if target is not None:
            tables.append(table)
        return table

    monkeypatch.setattr(io.TableDocument, "_build", building)
    return models, tables


def test_classify_example_builds_a_table_only_for_a_numeric_solve(monkeypatch):
    models, tables = _spy_targets_and_tables(monkeypatch)
    # no pair falls back: each value gets its C(q, 0) and no table
    classify_example([F(2), F(-1, 3), F(5, 7), F(-4)])
    assert len(models) == 4 and tables == []
    # only the pairs of the two 3s fall back, so only their tables are
    # built, each on its value's C(q, 0)
    models.clear()
    classify_example([F(3), F(3), F(-2, 5)])
    assert len(models) == 3 and len(tables) == 2
    assert all(table.target is model for table, model in zip(tables, models))


def test_a_table_given_another_value_s_target_is_refused():
    document = preset_table()
    target = document.target({"q": 3, "r": 0})
    assert document.table({"q": F(6, 2), "r": 0}, target).target is target
    with pytest.raises(StructureError, match="not C\\(xi\\) at these values"):
        document.table({"q": 2, "r": 0}, target)


def test_classify_example_puts_each_value_into_canonical_form():
    # anything `Fraction` takes, as `s2xs3_table` does
    assert classify_example([0.5, 1.0]) == classify_example([F(1, 2), 1])
    assert classify_example(["1/2", 3]) == classify_example([F(1, 2), 3])
    # the numeric solves of a zero and of equal values too
    assert classify_example([0.0, 2.0, 2]) == classify_example([0, 2, 2])


# --- the obstruction solver -----------------------------------------------------


def test_identity_pair_exists():
    t = s2xs3_table(1, 0)
    result = iso_obstruction(t, s2xs3_table(1, 0))
    assert isinstance(result, Exists)
    # the witness fixes every generator's leading coefficient to 1
    for label, _ in t.gens:
        assert result.assignment[f"psi({label})[{label}]"] == 1


def test_same_twist_nonzero_exists():
    result = iso_obstruction(s2xs3_table(2, 0), s2xs3_table(2, 0))
    assert isinstance(result, Exists)


def test_distinct_twists_obstructed_with_stage_trace():
    q, r = F(1), F(0)
    result = iso_obstruction(s2xs3_table(q, 0), s2xs3_table(r, 0))
    assert isinstance(result, Obstructed)
    # stage one pins the leading coefficient of the degree-4 generator
    assert "psi(u)[u] = 1" in result.trace
    # the final affine constraint is 0 = +-(q - r)
    assert result.residual_constant in (q - r, r - q)
    assert result.at_generator == "h"


@pytest.mark.parametrize("q,r", [(2, 1), (0, 5), (F(1, 2), F(1, 3))])
def test_distinct_twists_obstructed(q, r):
    result = iso_obstruction(s2xs3_table(q, 0), s2xs3_table(r, 0))
    assert isinstance(result, Obstructed)
    # row normalization may rescale the final constraint, but it vanishes
    # exactly when the twists agree
    assert result.residual_constant != 0
    assert (F(q) - F(r)) != 0


def test_verdict_symmetry():
    pairs = [(0, 1), (1, 1), (2, -1)]
    for q, r in pairs:
        forward = iso_obstruction(s2xs3_table(q, 0), s2xs3_table(r, 0)).verdict
        backward = iso_obstruction(s2xs3_table(r, 0), s2xs3_table(q, 0)).verdict
        assert forward == backward


def test_swapping_the_tables_transposes_the_verdict_matrix():
    """Entry (i, j) of `matrix(firsts, seconds)` is the verdict with the
    table of firsts[i] given first. The two lists differ, and each holds a
    zero and a repeated value."""
    rows = [0, 1, F(-1, 2), 1, 0]
    columns = [2, 0, 1, F(-1, 2)]

    def matrix(firsts, seconds):
        return [[iso_obstruction(s2xs3_table(a, 0), s2xs3_table(b, 0)).verdict for b in seconds]
                for a in firsts]

    forward = matrix(rows, columns)
    assert matrix(columns, rows) == [list(column) for column in zip(*forward)]
    assert forward == [["exists" if a == b else "obstructed" for b in columns] for a in rows]


def test_exists_witness_reverified_against_differentials():
    # substitute the returned assignment back through an independent
    # recomputation of psi(D1 g) - D2(psi g)
    t1 = s2xs3_table(3, 0)
    t2 = s2xs3_table(3, 0)
    result = iso_obstruction(t1, t2)
    assert isinstance(result, Exists)
    images = []
    for g, (label, degree) in enumerate(t1.gens):
        image = {}
        for mono in t2.monomials_of_degree(degree):
            value = result.assignment[f"psi({label})[{t2.monomial_str(mono)}]"]
            if value:
                image[mono] = value
        images.append(image)

    def apply(elem):
        total = {}
        for (b, gens), c in elem.items():
            acc = {(b, ()): c}
            for g in gens:
                acc = t2.mul(acc, images[g])
            _accumulate(total, acc.items())
        return total

    for g in range(len(t1.gens)):
        lhs = apply(t1.differentials[g])
        rhs = t2.d(images[g])
        assert _accumulate(lhs, ((k, -v) for k, v in rhs.items())) == {}


def test_incompatible_tables_rejected(s2xs3):
    t = s2xs3_table(0, 0)
    other = GeneratorTable(
        base=s2xs3.square,
        gens=(("u", 4),),
        differentials=(t.differentials[0],),
        target=None,
        evaluation=(None,),
        degree_cap=8,
        name="short",
    )
    with pytest.raises(IncompatibleTables):
        iso_obstruction(t, other)


def test_classify_pair():
    matrix = classify_example([0, 1])
    verdicts = [[r.verdict for r in row] for row in matrix]
    assert verdicts == [["exists", "obstructed"], ["obstructed", "exists"]]


def test_classify_singleton():
    matrix = classify_example([0])
    assert [[r.verdict for r in row] for row in matrix] == [["exists"]]


def test_classify_three_values():
    matrix = classify_example([1, 2, -1])
    for i, row in enumerate(matrix):
        for j, result in enumerate(row):
            expected = "exists" if i == j else "obstructed"
            assert result.verdict == expected


def _nonlinear_table(s2xs3, scale):
    """Generators v (degree 2, closed) and w with D(w) = scale * v^2 (1(x)x):
    the commutator equation for w involves psi(v)^2 while nothing ever pins
    psi(v), so for distinct scales the residual system stays quadratic."""
    square = s2xs3.square
    table = GeneratorTable(
        base=square,
        gens=(("v", 2), ("w", 5)),
        differentials=({}, {}),
        target=None,
        evaluation=(None, None),
        degree_cap=8,
        name="nonlinear",
    )
    one_x = table.base_elt(square.basis.index(f"1{TENSOR}x"))
    d_w = table.mul(table.mul(table.gen_elt(0), table.gen_elt(0)), one_x)
    scaled = _accumulate({}, ((k, F(scale) * v) for k, v in d_w.items()))
    return dataclasses.replace(table, differentials=({}, scaled))


def test_identity_shortcut_beats_stubborn_quadratic(s2xs3):
    # equal differentials: the identity is verified and returned even
    # though the staged affine system alone could not resolve psi(v)^2
    result = iso_obstruction(_nonlinear_table(s2xs3, 1), _nonlinear_table(s2xs3, 1))
    assert isinstance(result, Exists)


def test_unresolved_on_stubborn_quadratic(s2xs3):
    from cdga_config.sullivan import Unresolved

    # scales 1 vs 4: an isomorphism exists (send v to 2v) but finding it
    # needs the quadratic alpha^2 = 4 X; the solver reports the residual
    # honestly instead of guessing
    result = iso_obstruction(_nonlinear_table(s2xs3, 1), _nonlinear_table(s2xs3, 4))
    assert isinstance(result, Unresolved)
    assert result.residual  # the leftover equations are reported


# --- polynomial helper ----------------------------------------------------------


def test_poly_arithmetic():
    x, y = Poly.variable(0), Poly.variable(1)
    p = (x + Poly.const(2)) * y
    assert p.terms == {(0, 1): F(1), (1,): F(2)}
    assert p.substitute({0: F(3)}).terms == {(1,): F(5)}
    assert p.affine() is None
    assert (p.substitute({1: F(1)})).affine() == (F(2), {0: F(1)})
    assert not (p - p)


# --- the per-table memo of D on monomials -----------------------------------------


def test_solver_sees_reassigned_differentials():
    t1 = s2xs3_table(1, 0)
    t2 = s2xs3_table(3, 0)
    assert isinstance(iso_obstruction(t1, t2), Obstructed)
    t2 = dataclasses.replace(t2, differentials=s2xs3_table(1, 0).differentials)
    assert isinstance(iso_obstruction(t1, t2), Exists)
    t2 = dataclasses.replace(t2, differentials=s2xs3_table(2, 0).differentials)
    result = iso_obstruction(t1, t2)
    assert isinstance(result, Obstructed)
    assert result == iso_obstruction(t1, s2xs3_table(2, 0))


def test_d_follows_reassigned_differentials():
    t = s2xs3_table(1, 0)
    fresh = s2xs3_table(5, 0)
    top = t.gen_elt(len(t.gens) - 1)
    before = t.d(top)
    t = dataclasses.replace(t, differentials=fresh.differentials)
    assert t.d(top) == fresh.d(top) != before


def test_classify_example_matches_fresh_pairwise_solves():
    qs = [F(2), F(-1, 3), F(0)]
    matrix = classify_example(qs)
    for i, q in enumerate(qs):
        for j, r in enumerate(qs):
            fresh = iso_obstruction(s2xs3_table(q, 0), s2xs3_table(r, 0))
            assert matrix[i][j] == fresh


def test_solver_sees_reassigned_source_differentials():
    t1 = s2xs3_table(3, 0)
    t2 = s2xs3_table(1, 0)
    assert isinstance(iso_obstruction(t1, t2), Obstructed)
    t1 = dataclasses.replace(t1, differentials=s2xs3_table(1, 0).differentials)
    assert isinstance(iso_obstruction(t1, t2), Exists)
    t1 = dataclasses.replace(t1, differentials=s2xs3_table(2, 0).differentials)
    result = iso_obstruction(t1, t2)
    assert isinstance(result, Obstructed)
    assert result == iso_obstruction(s2xs3_table(2, 0), t2)


def test_one_table_as_source_and_target():
    t = s2xs3_table(F(3, 2), 0)
    other = s2xs3_table(-4, 0)
    # fill the table's memo in both roles first
    assert iso_obstruction(t, other) == iso_obstruction(s2xs3_table(F(3, 2), 0), other)
    assert iso_obstruction(other, t) == iso_obstruction(other, s2xs3_table(F(3, 2), 0))
    result = iso_obstruction(t, t)
    assert isinstance(result, Exists)
    assert result == iso_obstruction(s2xs3_table(F(3, 2), 0), s2xs3_table(F(3, 2), 0))


def test_solved_table_is_freed():
    import gc
    import weakref

    t1, t2 = s2xs3_table(1, 0), s2xs3_table(2, 0)
    assert isinstance(iso_obstruction(t1, t2), Obstructed)
    assert isinstance(iso_obstruction(t2, t1), Obstructed)
    refs = [weakref.ref(t1), weakref.ref(t2)]
    del t1, t2
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_tables_of_one_document_number_their_unknowns_alike():
    from cdga_config.io import parse_table_file

    document = parse_table_file(table_preset_path())
    t1, t2 = document.table({"q": 1, "r": 0}), document.table({"q": F(2, 3), "r": 5})
    # each table builds its own unknowns, and they agree, so one solve can
    # take psi(D1 g) from t1 and -D2(psi g) from t2
    assert t1._unknowns == t2._unknowns and t1._unknowns is not t2._unknowns
    assert t1._text and t1._text is not t2._text
    # a copy starts with empty caches and builds equal unknowns of its own
    copy = dataclasses.replace(t1)
    assert not copy._d and not copy._text and "_unknowns" not in vars(copy)
    assert copy._unknowns == t1._unknowns and copy._unknowns is not t1._unknowns
    with pytest.raises(dataclasses.FrozenInstanceError):
        t1.differentials = t2.differentials


# --- the affine system ----------------------------------------------------------


def test_affine_system_stays_fully_reduced():
    from cdga_config.sullivan import AffineSystem

    # equations with the solution x below, one of them redundant
    x = [F(2), F(-1), F(3), F(1, 2), F(5), F(-2), F(1, 3)]
    equations = [
        {0: F(1), 1: F(2), 2: F(-1)},
        {1: F(1), 3: F(1)},
        {2: F(2), 3: F(-1), 4: F(1)},
        {3: F(1, 2), 5: F(1)},
        {5: F(1)},
        {4: F(1), 6: F(3)},
        {0: F(1), 1: F(2), 2: F(-1), 5: F(-3)},
        {2: F(1), 0: F(1)},
        {6: F(1)},
    ]
    system = AffineSystem()
    newly = []
    for coeffs in equations:
        const = sum(c * x[v] for v, c in coeffs.items())
        newly.append(system.add(coeffs, const, "pinned"))
        # no residue holds a pivot, determined unknowns included
        for residue in system.residues.values():
            assert not set(residue) & set(system.residues)
        assert system.determined == {v: system.consts[v]
                                     for v, residue in system.residues.items() if not residue}
    assert newly == [
        [], [], [], [],
        [(1, F(-1)), (3, F(1, 2)), (5, F(-2))],
        [], [],
        [(0, F(2)), (2, F(3)), (4, F(5)), (6, F(1, 3))],
        [],
    ]
    assert system.determined == dict(enumerate(x)) and not any(system.residues.values())


_small_equations = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=6),
    st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n),
    st.lists(st.one_of(st.none(), st.integers(-2, 2)), min_size=6, max_size=6),
))


@settings(max_examples=200, deadline=None)
@given(_small_equations)
def test_affine_system_matches_the_stacked_rref(case):
    from cdga_config.linalg import rref, solve
    from cdga_config.sullivan import AffineSystem, InconsistentSystem

    # each equation's constant is its value at x, or a free draw that may
    # make the stacked system inconsistent
    n, rows, x, free_consts = case
    consts = [sum(c * v for c, v in zip(row, x)) if free is None else F(free)
              for row, free in zip(rows, free_consts)]
    system = AffineSystem()
    seen = []
    for k, (row, const) in enumerate(zip(rows, consts)):
        stacked = rows[:k + 1]
        solution = solve(stacked, consts[:k + 1], n)
        coeffs = {v: F(c) for v, c in enumerate(row) if c}
        if solution is None:
            with pytest.raises(InconsistentSystem):
                system.add(coeffs, const, f"e{k}")
            return
        newly = system.add(coeffs, const, f"e{k}")
        seen += [v for v, _ in newly]
        assert len(seen) == len(set(seen))
        assert dict(newly).items() <= system.determined.items()

        # determined exactly when e_v is a row of the rref, with the value
        # every solution takes there
        reduced, _ = rref(stacked, n)
        units = {r.index(1) for r in reduced if sorted(r) == [0] * (n - 1) + [1]}
        assert set(system.determined) == units == set(seen)
        for v, value in system.determined.items():
            assert value == solution[v]

        # fully reduced: no residue holds a pivot
        for residue in system.residues.values():
            assert not set(residue) & set(system.residues)


def test_diagonal_family_guard_is_q1():
    from cdga_config.io import parse_table_file
    from cdga_config.linalg import Parameters
    from cdga_config.sullivan import _staged_solve

    document = parse_table_file(table_preset_path())
    params = Parameters(("q1",))
    table = document.table({"q": params.symbol(0), "r": 0})
    assert _staged_solve(table, table).rendered().verdict == "exists"
    # the pairs that fall back to the numeric solve: q1 = 0
    assert [guard.render(params.names) for guard in params.guards] == ["q1"]


# --- the family decided in one symbolic solve -------------------------------------


def _generic_solve():
    from cdga_config.io import parse_table_file
    from cdga_config.linalg import Parameters
    from cdga_config.sullivan import _staged_solve

    document = parse_table_file(table_preset_path())
    params = Parameters(("q1", "q2"))
    result = _staged_solve(document.table({"q": params.symbol(0), "r": 0}),
                           document.table({"q": params.symbol(1), "r": 0}))
    return params, result


def test_generic_residual_is_q1_minus_q2_over_q2():
    from cdga_config.linalg import RationalFunction

    params, result = _generic_solve()
    q1, q2 = params.symbol(0), params.symbol(1)
    assert result.at_generator == "h"
    assert type(result.constant) is RationalFunction
    ratio = result.constant * q2 / (q1 - q2)
    assert type(ratio) is not RationalFunction and ratio != 0
    # the pairs that fall back to the numeric solve: q1 = 0, q2 = 0, q1 = q2
    assert [guard.render(params.names) for guard in params.guards] == ["q1", "q2", "q1 - q2"]


def _count_numeric_solves(monkeypatch):
    import cdga_config.sullivan as sullivan

    solved = []
    original = sullivan.iso_obstruction
    square = s2xs3_table(0, 0).base
    y_xy = (square.basis.index(f"y{TENSOR}xy"), ())

    def counting(t1, t2):
        # q is minus the y(x)xy coefficient of D(h)
        solved.append(tuple(-t.differentials[-1].get(y_xy, 0) for t in (t1, t2)))
        return original(t1, t2)

    monkeypatch.setattr(sullivan, "iso_obstruction", counting)
    return solved


def _count_family_solves(monkeypatch):
    import cdga_config.sullivan as sullivan
    from cdga_config.linalg import RationalFunction

    runs = []
    original = sullivan._staged_solve

    def spying(t1, t2):
        symbols = [{c.params for d in t.differentials for c in d.values()
                    if type(c) is RationalFunction} for t in (t1, t2)]
        if any(symbols):
            # the symbols of each table, and whether it is one table
            params, = symbols[0] | symbols[1]
            runs.append((tuple(params.names.values()), t1 is t2))
        return original(t1, t2)

    monkeypatch.setattr(sullivan, "_staged_solve", spying)
    return runs


@pytest.fixture
def cold_presets():
    """An empty preset cache for one test; the session's presets come back
    after it, so fixtures built before the test stay the cached ones."""
    from cdga_config import presets

    saved = dict(presets._cache)
    presets._cache.clear()
    yield
    presets._cache.clear()
    presets._cache.update(saved)


def _count_parses(monkeypatch):
    from cdga_config import presets

    calls = []
    original = presets.parse_table_file
    monkeypatch.setattr(presets, "parse_table_file",
                        lambda path: calls.append(path) or original(path))
    return calls


def test_classify_example_solves_numerically_only_the_fallbacks(monkeypatch, cold_presets):
    solved = _count_numeric_solves(monkeypatch)
    family_runs = _count_family_solves(monkeypatch)
    qs = [F(2), F(-1, 3), F(5, 7), F(-4)]
    matrix = classify_example(qs)
    assert solved == []
    assert [[r.verdict for r in row] for row in matrix] == [
        ["exists" if i == j else "obstructed" for j in range(4)] for i in range(4)]
    # each diagonal pair gets an Exists of its own
    assert len({id(matrix[i][i].assignment) for i in range(4)}) == 4
    # a cold call solves the diagonal (the table in q1 against itself) and
    # the rest (q1 against q2)
    assert family_runs == [(("q1",), True), (("q1", "q2"), False)]

    # q = 0 makes a guard vanish (the diagonal solve tests q1 for zero; the
    # other divides by q2 and tests q1 for zero), so exactly the pairs with
    # a zero go through the numeric solver, (0, 0) included; a warm call
    # runs no family solve
    solved.clear()
    family_runs.clear()
    qs = [F(3), F(0), F(-1, 2)]
    classify_example(qs)
    assert sorted(solved) == sorted([(0, 0), (3, 0), (0, 3), (F(-1, 2), 0), (0, F(-1, 2))])
    assert family_runs == []


def _scaled_class_table(s2xs3, scale):
    """One generator w of degree 1 with D(w) = scale * (x(x)1): psi(w) must
    be (scale1 / scale2) * w, so a solve over symbolic scales gives an
    Exists verdict whose assignment and image are rational functions."""
    square = s2xs3.square
    table = GeneratorTable(base=square, gens=(("w", 1),), differentials=({},), target=None,
                           evaluation=(), degree_cap=4, name="scaled")
    x_1 = table.base_elt(square.basis.index(f"x{TENSOR}1"))
    scaled = _accumulate({}, ((k, scale * v) for k, v in x_1.items()))
    return dataclasses.replace(table, differentials=(scaled,))


def test_family_verdict_evaluates_a_symbolic_witness(s2xs3):
    from cdga_config.linalg import Parameters, RationalFunction
    from cdga_config.sullivan import _FamilyVerdict, _staged_solve

    params = Parameters(("s1", "s2"))
    generic = _staged_solve(_scaled_class_table(s2xs3, params.symbol(0)),
                            _scaled_class_table(s2xs3, params.symbol(1)))
    assert [type(v) for v in generic.assignment.values()] == [RationalFunction]
    # s1 - s2 from comparing the differentials: where they agree, the
    # numeric solve takes the identity path
    assert [guard.render(params.names) for guard in params.guards] == ["s1", "s2", "s1 - s2"]
    family = _FamilyVerdict(params, generic)
    values = [F(3), F(-1, 2), F(1), F(0), F(-1), F(5, 3)]
    for a in values:
        for b in values:
            fresh = iso_obstruction(_scaled_class_table(s2xs3, a), _scaled_class_table(s2xs3, b))
            at = family.at({0: a, 1: b})
            if a and b and a != b:
                assert at == fresh and isinstance(at, Exists)
            else:
                assert at is None
    assert family.at({0: F(3), 1: F(1)}).generator_images == {"w": "3*w"}
    assert family.at({0: F(1), 1: F(-1)}).generator_images == {"w": "-w"}


def test_classify_example_parses_the_table_document_once(monkeypatch, cold_presets):
    calls = _count_parses(monkeypatch)
    classify_example([1, 2, 3])
    assert len(calls) == 1
    # warm: neither a second call nor a single table parses it again
    classify_example([4, 5])
    s2xs3_table(1, 0)
    assert len(calls) == 1


# --- what the process keeps of the table document ---------------------------------


def test_the_table_document_is_not_a_preset_after_classify_example(cold_presets, capsys):
    from cdga_config.cli import main
    from cdga_config.errors import ParseError
    from cdga_config.presets import preset_pd

    classify_example([1, 2])
    with pytest.raises(ParseError, match="unknown preset 's2xs3_table'"):
        preset_pd("s2xs3_table")
    assert main(["check", "s2xs3_table"]) == 1
    assert "unknown preset 's2xs3_table'" in capsys.readouterr().err


def test_the_document_memo_holds_the_two_family_verdicts_only(cold_presets):
    from cdga_config.presets import preset_table

    for qs in ([F(1), F(2)], [F(-1, 3), F(0), F(5)], [F(7), F(2, 9)]):
        classify_example(qs)
    assert list(preset_table().family_verdicts) == [("q1",), ("q1", "q2")]


def test_a_warm_classify_example_solves_no_family_and_shares_no_result(monkeypatch,
                                                                       cold_presets):
    qs = [F(2), F(-1, 3), F(0), F(5, 7)]
    first = classify_example(qs)
    parses = _count_parses(monkeypatch)
    family_runs = _count_family_solves(monkeypatch)
    second = classify_example(qs)
    assert parses == [] and family_runs == []
    for i, q in enumerate(qs):
        for j, r in enumerate(qs):
            assert second[i][j] == iso_obstruction(s2xs3_table(q, 0), s2xs3_table(r, 0))
    # every Exists of the second call holds dicts of its own
    exists = [[cell for row in matrix for cell in row if isinstance(cell, Exists)]
              for matrix in (first, second)]
    assert len(exists[1]) == len(qs)
    for attr in ("assignment", "generator_images"):
        ids = [{id(getattr(cell, attr)) for cell in cells} for cells in exists]
        assert ids[0].isdisjoint(ids[1])


def test_classify_example_cells_hold_containers_of_their_own():
    qs = [F(2), F(-1, 3), F(0), F(5, 7)]
    matrix = classify_example(qs)
    cells = [cell for row in matrix for cell in row]
    for attr in ("assignment", "generator_images", "trace"):
        held = [id(getattr(cell, attr)) for cell in cells if hasattr(cell, attr)]
        assert held and len(set(held)) == len(held), attr
    expected = classify_example(qs)
    # a family Exists and a family Obstructed, mutated in place
    exists, obstructed = matrix[1][1], matrix[1][3]
    assert isinstance(exists, Exists) and isinstance(obstructed, Obstructed)
    exists.assignment.clear()
    exists.generator_images["mutated"] = "mutated"
    obstructed.trace[0] = "mutated"
    obstructed.trace.append("mutated")
    for i, row in enumerate(matrix):
        for j, cell in enumerate(row):
            if (i, j) not in ((1, 1), (1, 3)):
                assert cell == expected[i][j], (i, j)
    assert classify_example(qs) == expected


def test_clearing_the_preset_cache_parses_and_solves_again(monkeypatch, cold_presets):
    from cdga_config import presets

    classify_example([F(1), F(2)])
    document = presets.preset_table()
    parses = _count_parses(monkeypatch)
    family_runs = _count_family_solves(monkeypatch)
    presets._cache.clear()
    classify_example([F(1), F(2)])
    assert len(parses) == 1
    assert family_runs == [(("q1",), True), (("q1", "q2"), False)]
    assert presets.preset_table() is not document


_family_values = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-2, 3)]),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_family_values, min_size=2, max_size=4))
def test_classify_example_equals_fresh_pairwise_solves(qs):
    matrix = classify_example(qs)
    for i, q in enumerate(qs):
        for j, r in enumerate(qs):
            assert matrix[i][j] == iso_obstruction(s2xs3_table(q, 0), s2xs3_table(r, 0))


def test_promotion_rewrites_only_rows_that_held_a_determined_variable():
    from cdga_config.sullivan import AffineSystem

    system = AffineSystem()
    system.add({0: 1, 2: 1}, 1, "a")
    system.add({1: 1, 3: 1}, 2, "b")
    untouched = system.residues[1]
    # substituting x2 into the residue of x0 determines x0; the residue of
    # x1 holds neither unknown and is left as it was
    assert system.add({2: 1}, 4, "c") == [(0, -3), (2, 4)]
    assert system.residues[1] is untouched
    assert [v for v, residue in system.residues.items() if residue] == [1]
