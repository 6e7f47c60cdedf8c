import functools
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdga_config.algebra import cohomology
from cdga_config.cone import cone_model
from cdga_config.errors import (
    EvenDimensionNonzeroXi,
    NotACocycle,
    OddDimension,
    WrongDegree,
)
from cdga_config.presets import preset_pd
from cdga_config.twisted import (
    EquivalentWitness,
    NotDecidedHere,
    build_cxi,
    c_of_x,
    decide_xi_equivalence,
    equivalence_ideal,
    phi,
    quotient_by_diagonal,
    truncate_cone,
)

from oracles import (dense_identity, dense_matmul, oracle_betti, oracle_decide_xi_equivalence,
                     oracle_fm2_betti, oracle_quotients_match, top_ideal_generators)

ODD = ["s3", "s5", "s2xs3", "s3xs4"]
ALL = ["s2", "s3", "s4", "s5", "cp2", "s2xs3", "s3xs4"]


def random_xi(pd, rng):
    square = pd.square
    idx = square.basis.degree_indices(2 * pd.n - 2)
    return square.element({i: F(rng.randint(-4, 4)) for i in idx})


def odd_pd(name):
    """An odd preset, or "s2*s5", the product of two presets, whose degree
    2n - 2 is not empty either."""
    if name == "s2*s5":
        from cdga_config.products import product_pd

        return product_pd(preset_pd("s2"), preset_pd("s5"))
    return preset_pd(name)


# --- truncation ----------------------------------------------------------------


def test_truncation_dimensions(s3, s2xs3):
    assert truncate_cone(cone_model(s3)).algebra.dim() == 4
    assert truncate_cone(cone_model(s2xs3)).algebra.dim() == 18


def test_cone_and_truncation_are_cached(s3):
    cone = cone_model(s3)
    assert cone_model(s3) is cone and s3._cone_model is cone
    trunc = truncate_cone(cone)
    assert truncate_cone(cone) is trunc and cone._truncation is trunc


@pytest.mark.parametrize("name", ODD + ["s2*s5"])
@pytest.mark.parametrize("scale", [0, 3, F(-2, 7)], ids=["zero", "integral", "fractional"])
def test_cxi_shares_every_row_of_the_truncation_but_the_square_of_s1(name, scale):
    from cdga_config.algebra import DGAlgebra

    pd = odd_pd(name)
    square = pd.square
    idx = square.basis.degree_indices(2 * pd.n - 2)
    xi = square.element({k: scale * (p + 1) for p, k in enumerate(idx)})
    model = build_cxi(pd, xi)
    semi, s1 = model.trunc.quotient.algebra, model.trunc.s1_index
    square_row = model.trunc.quotient.project(model.trunc.cone.include_base(xi)).coeffs
    # the table as the entries constructor builds it from the truncation's
    entries = semi.mult_entries() + [(s1, s1, k, c) for k, c in square_row.items()]
    built = DGAlgebra(semi.basis, semi.unit, entries, semi.diff_entries(),
                      top_degree=semi.top_degree)

    def listed(rows):
        return [list(row.items()) for row in rows]

    twisted = model.algebra
    assert [listed(rows) for rows in twisted._mult] == [listed(rows) for rows in built._mult]
    assert listed(twisted._diff) == listed(built._diff)
    assert twisted._mult[s1][s1] == square_row and bool(square_row) == bool(xi.coeffs)
    for i, rows in enumerate(twisted._mult):
        for j, row in enumerate(rows):
            assert (row is semi._mult[i][j]) is ((i, j) != (s1, s1))
    assert twisted.basis is semi.basis and twisted._diff is semi._diff


@pytest.mark.parametrize("name", ALL)
def test_truncation_preserves_betti(name):
    cone = cone_model(preset_pd(name))
    trunc = truncate_cone(cone)
    top = cone.algebra.basis.max_degree()
    assert cohomology(trunc.algebra).betti_vector(top) == cohomology(cone.algebra).betti_vector(top)


@pytest.mark.parametrize("name", ["s2", "s4", "cp2", "s2*s2"])
def test_the_even_model_is_the_even_truncation(name):
    """In even formal dimension, for 1-connected input, the quotient of
    the cone by the ideal (omega (x) omega, S omega), built here as the
    reference, and the truncation that `even_model` is C(0) on are one
    algebra: the same kept cone elements, labels, product rows and rows
    of d. C(0) has the truncation's basis, rows of d and products."""
    from cdga_config.cone import even_model
    from cdga_config.products import product_pd
    from cdga_config.quotients import ideal_span, quotient_dga

    s2 = preset_pd("s2")
    pd = product_pd(s2, s2) if name == "s2*s2" else preset_pd(name)
    model = even_model(pd)
    cone, trunc = model.trunc.cone, model.trunc.quotient
    reference = quotient_dga(cone.algebra, ideal_span(cone.algebra, top_ideal_generators(cone)))
    assert reference.kept == trunc.kept
    assert reference.algebra.basis.labels == trunc.algebra.basis.labels
    assert reference.algebra._mult == trunc.algebra._mult == model.algebra._mult
    assert reference.algebra._diff == trunc.algebra._diff == model.algebra._diff


# --- the twisted family ---------------------------------------------------------


@pytest.mark.parametrize("name", ODD)
def test_build_cxi_random_twists_pass_axioms(name):
    pd = preset_pd(name)
    rng = random.Random(2024)
    for _ in range(10):
        model = build_cxi(pd, random_xi(pd, rng))
        assert model.axioms.all_pass
        assert model.s1_square().coeffs == model.trunc.quotient.project(
            model.trunc.cone.include_base(model.xi)).coeffs


def test_build_cxi_even_rejects_nonzero(s2):
    xi = s2.square.from_label_coeffs({"x⊗x": F(1)})
    with pytest.raises(EvenDimensionNonzeroXi):
        build_cxi(s2, xi)


def test_build_cxi_wrong_degree(s2xs3):
    with pytest.raises(WrongDegree):
        build_cxi(s2xs3, s2xs3.square.from_label_coeffs({"x⊗y": F(1)}))


def test_build_cxi_zero_even_is_allowed(s2):
    model = build_cxi(s2, s2.square.zero())
    assert model.axioms.all_pass
    assert model.s1_square().is_zero()


def test_cqr_family_passes_axioms(s2xs3):
    square = s2xs3.square
    for q, r in [(0, 0), (1, 0), (0, 1), (2, -3)]:
        xi = square.from_label_coeffs({"y⊗xy": F(q), "xy⊗y": F(r)})
        model = build_cxi(s2xs3, xi)
        assert model.axioms.all_pass
        assert str(model.algebra.basis.labels[model.trunc.s1_index]) == "S1"


# --- the generic model C(Xi): one check for the whole family ------------------

@functools.cache
def _shared_pd(name):
    """`odd_pd(name)`, built once per test session, so that later draws
    reuse its truncation and generic model as a preset's do."""
    return odd_pd(name)


def _fresh_s2xs3():
    """A copy of the s2xs3 preset with no cone, truncation or generic
    model cached on it."""
    from cdga_config.io import dump_pd, load_algebra_data
    from cdga_config.poincare import check_pd

    algebra, n, epsilon, _ = load_algebra_data(dump_pd(preset_pd("s2xs3")), "s2xs3")
    return check_pd(algebra, n, epsilon)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls


_COEFFICIENTS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
        lambda q: q.denominator != 1))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["s2xs3", "s2*s5"]), data=st.data())
def test_build_cxi_family_report_is_the_numeric_report(name, data):
    from cdga_config.algebra import check_cdga
    from cdga_config.twisted import _verify_algebra_map

    pd = _shared_pd(name)
    square = pd.square
    xi = square.element({t: data.draw(_COEFFICIENTS)
                         for t in square.basis.degree_indices(2 * pd.n - 2)})
    model = build_cxi(pd, xi)
    trunc = truncate_cone(model.trunc.cone)
    instance, covered = trunc.instance(xi)
    assert trunc.symbols and trunc.verified and covered and instance._mult == model.algebra._mult
    assert model.axioms == check_cdga(model.algebra)
    _verify_algebra_map(square, model.algebra,
                        tuple(model.algebra.element(row) for row in model.trunc.base_rows))


def test_check_cdga_runs_once_per_truncation(monkeypatch):
    import cdga_config.twisted as twisted

    pd = _fresh_s2xs3()
    checks = _count_calls(monkeypatch, twisted, "check_cdga")
    maps = _count_calls(monkeypatch, twisted, "_verify_algebra_map")
    square = pd.square
    for q, r in [(1, 0), (F(-2, 3), 5), (0, 0), (7, F(1, 2))]:
        model = build_cxi(pd, square.from_label_coeffs({"y⊗xy": q, "xy⊗y": r}))
        assert model.axioms.all_pass
        assert len(checks) == len(maps) == 1
    assert checks[0][0] is truncate_cone(cone_model(pd)).generic


@pytest.mark.parametrize("name", ["s2xs3", "s2xs3*s2"])
def test_build_cxi_over_parameters_is_an_instance_of_c_xi(name, monkeypatch):
    """xi = sum_k p_k e_(t_k) over one `Parameters`: C(xi) is C(Xi) with
    the symbols renamed, takes its report unchecked, and its (S1, S1) row
    at a point is the row that `build_cxi` gives at that point."""
    import itertools

    import cdga_config.twisted as twisted
    from cdga_config.linalg import Parameters, _at_point

    pd = _betti_inputs(name)[0]
    trunc = truncate_cone(cone_model(pd))
    checks = _count_calls(monkeypatch, twisted, "check_cdga")
    maps = _count_calls(monkeypatch, twisted, "_verify_algebra_map")
    params = Parameters([f"p{k}" for k in range(len(trunc.symbols))])
    model = build_cxi(pd, pd.square.element(
        {t: params.symbol(k) for k, t in enumerate(trunc.symbols)}))
    assert model.trunc is trunc and model.axioms is trunc.axioms
    assert checks == [] and maps == []
    s1 = trunc.s1_index
    points = itertools.islice(itertools.product([0, 1, -1, F(-2, 5)], repeat=len(trunc.symbols)),
                              0, None, 3)
    for point in points:
        at = build_cxi(pd, pd.square.element(dict(zip(trunc.symbols, point))))
        assert _at_point(model.algebra._mult[s1][s1], dict(enumerate(point))) == \
            at.algebra._mult[s1][s1], point


def test_a_broken_shared_row_fails_the_family_and_keeps_the_numeric_witness(monkeypatch):
    import cdga_config.twisted as twisted
    from cdga_config.algebra import check_cdga
    from cdga_config.errors import AxiomFailure

    pd = _fresh_s2xs3()
    original = twisted.quotient_dga

    def flipped(algebra, vectors, *, name):
        quotient = original(algebra, vectors, name=name)
        table = quotient.algebra._mult
        unit = quotient.algebra.unit
        row = next(table[i][j] for i in range(len(table)) for j in range(i, len(table))
                   if unit not in (i, j) and table[i][j])
        k = next(iter(row))
        row[k] = -row[k]
        return quotient

    monkeypatch.setattr(twisted, "quotient_dga", flipped)
    xi = pd.square.from_label_coeffs({"y⊗xy": F(3, 2), "xy⊗y": -1})
    with pytest.raises(AxiomFailure) as caught:
        build_cxi(pd, xi)
    trunc = truncate_cone(cone_model(pd))
    assert not trunc.verified and not trunc.axioms.all_pass
    square_row = trunc.quotient.project(trunc.cone.include_base(xi)).coeffs
    numeric = check_cdga(trunc.algebra.with_square(trunc.s1_index, square_row, name="C"))
    assert not numeric.all_pass and caught.value.report == numeric


def test_a_tampered_instance_row_gets_the_numeric_check(monkeypatch):
    import cdga_config.twisted as twisted
    from cdga_config.algebra import DGAlgebra, check_cdga

    pd = _fresh_s2xs3()
    trunc = truncate_cone(cone_model(pd))
    checks = _count_calls(monkeypatch, twisted, "check_cdga")
    original = DGAlgebra.with_square

    def tampered(self, i, coeffs, *, name):
        k = next(iter(trunc.base_rows[pd.square.basis.index("y⊗xy")]))
        return original(self, i, {**coeffs, k: coeffs.get(k, 0) + 1}, name=name)

    monkeypatch.setattr(DGAlgebra, "with_square", tampered)
    xi = pd.square.from_label_coeffs({"y⊗xy": F(-1, 3)})
    model = build_cxi(pd, xi)
    assert not trunc.instance(xi)[1]
    assert [args[0] for args in checks] == [model.algebra]
    assert model.axioms == check_cdga(model.algebra) and model.axioms.all_pass


def test_check_cdga_reports_a_symbolic_failure_that_vanishes_at_a_point():
    """x in degree 1 with x*x = c*y, c = (X - 2)/3: graded commutativity
    fails as an identity in X, and holds at X = 2, where c vanishes."""
    from cdga_config.algebra import DGAlgebra, GradedBasis, check_cdga
    from cdga_config.linalg import Parameters, RationalFunction

    params = Parameters(["X"])
    c = (params.symbol(0) - 2) * F(1, 3)
    assert type(c) is RationalFunction and c.value_at({0: 2}) == 0
    basis = GradedBasis(["1", "x", "y"], [0, 1, 2])

    def algebra(square):
        mult = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 1, 2, square)]
        return DGAlgebra(basis, 0, mult, [(1, 2, F(1, 2))], top_degree=2)

    symbolic = check_cdga(algebra(c))
    assert [(a.axiom, a.witness) for a in symbolic.failed()] == [("graded_commutativity", "(x, x)")]
    assert check_cdga(algebra(c.value_at({0: 2}))).all_pass
    assert not check_cdga(algebra(c.value_at({0: 5}))).all_pass


@pytest.mark.parametrize("name", ODD)
def test_cxi_cohomology_independent_of_twist(name):
    pd = preset_pd(name)
    rng = random.Random(5)
    top = 2 * pd.n
    reference = build_cxi(pd, pd.square.zero()).betti(top)
    for _ in range(4):
        assert build_cxi(pd, random_xi(pd, rng)).betti(top) == reference


def _fractional_s2xs3():
    from pathlib import Path

    from cdga_config.io import load_algebra_file
    from cdga_config.poincare import check_pd

    algebra, n, epsilon, _ = load_algebra_file(Path(__file__).parent / "data" / "s2xs3_fractional.json")
    return check_pd(algebra, n, epsilon)


def _betti_inputs(name):
    """(duality algebra, whether its truncation is stored unverified)."""
    if name == "s2xs3*s2":
        from cdga_config.products import product_pd

        return product_pd(preset_pd("s2xs3"), preset_pd("s2")), False
    if name == "fractional":
        return _fractional_s2xs3(), False
    if name == "unverified":
        pd = _fresh_s2xs3()
        cone = cone_model(pd)
        cone._truncation = replace(truncate_cone(cone), verified=False)
        return pd, True
    return preset_pd(name), False


@pytest.mark.parametrize("name", ["s3", "s5", "s3xs4", "s2xs3", "fractional", "s2xs3*s2",
                                  "unverified"])
def test_cxi_betti_equals_a_fresh_cohomology(name):
    """C(xi) takes its Betti numbers from the truncation's kept vector:
    it has the truncation's basis and rows of d, and they agree with a
    cohomology computed afresh on C(xi) itself, in every degree."""
    pd, unverified = _betti_inputs(name)
    trunc = truncate_cone(cone_model(pd))
    assert trunc.verified is not unverified
    rng = random.Random(17)
    twists = [pd.square.zero(), random_xi(pd, rng), random_xi(pd, rng)]
    models = [build_cxi(pd, xi) for xi in twists]
    if pd.n % 2:
        models.append(c_of_x(pd, pd.algebra.zero()))
    for model in models:
        assert model.algebra.basis is trunc.algebra.basis
        assert model.algebra._diff is trunc.algebra._diff
        assert model.trunc is trunc
        fresh = cohomology(model.algebra)
        top = model.algebra.basis.max_degree()
        for k in [None, *range(top + 2)]:
            assert model.betti(k) == fresh.betti_vector(k), (name, k)


def test_cxi_betti_computes_no_cohomology_and_the_truncation_computes_two(monkeypatch):
    import sys

    import cdga_config.algebra as algebra

    calls = []
    original = algebra.betti_vector

    def counting(space, up_to=None):
        calls.append(space)
        return original(space, up_to)

    for module in [m for n, m in sys.modules.items() if n.startswith("cdga_config")]:
        if getattr(module, "betti_vector", None) is original:
            monkeypatch.setattr(module, "betti_vector", counting)
    pd = _fresh_s2xs3()
    cone = cone_model(pd)
    calls.clear()
    trunc = truncate_cone(cone)
    # the preservation check: the cone's Betti vector, then the truncation's
    assert calls == [cone.algebra, trunc.algebra]
    top = cone.algebra.basis.max_degree()
    c_of_x(pd, pd.algebra.from_label_coeffs({"y": F(1, 2)})).betti(top)
    calls.clear()
    for t in (F(-3), F(2, 7), 5):
        model = c_of_x(pd, pd.algebra.from_label_coeffs({"y": t}))
        assert model.betti(top) == list(trunc.betti)
    assert calls == []


@pytest.mark.parametrize("name", ALL)
def test_c0_matches_quotient_by_diagonal(name):
    pd = preset_pd(name)
    top = 2 * pd.n
    assert build_cxi(pd, pd.square.zero()).betti(top) == quotient_by_diagonal(pd).betti(top)


# --- quotient by the diagonal ideal ----------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("s2", [1, 0, 1]),
        ("s3", [1, 0, 0, 1]),
        ("s4", [1, 0, 0, 0, 1]),
        ("s5", [1, 0, 0, 0, 0, 1]),
        ("s2xs3", [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]),
    ],
)
def test_quotient_by_diagonal_betti(name, expected):
    pd = preset_pd(name)
    q = quotient_by_diagonal(pd)
    assert q.betti(len(expected) - 1) == expected
    oracle = oracle_betti(q.algebra)
    oracle += [0] * (len(expected) - len(oracle))
    assert oracle[: len(expected)] == expected


def test_diagonal_ideal_dimensions_s2xs3(s2xs3):
    dims = quotient_by_diagonal(s2xs3).subspace.dims()
    as_vector = [dims.get(k, 0) for k in range(11)]
    assert as_vector == [0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1]


# --- the comparison isomorphism ---------------------------------------------------


def test_phi_s2xs3(s2xs3):
    ph = phi(s2xs3)
    assert ph.dimension == 1 and len(ph.matrix) == 1
    # the image of [y] is the class of y (x) omega = y (x) xy
    (rep,) = ph.domain_representatives
    assert str(rep) == "y"
    image = s2xs3.square.from_label_coeffs({"y⊗xy": F(1)})
    assert [row[0] for row in ph.matrix] == ph.target_class_coordinates(image)
    assert dense_matmul(ph.matrix, ph.inverse) == dense_identity(1)


def test_phi_s3_zero_map(s3):
    ph = phi(s3)
    assert ph.dimension == 0 and len(ph.matrix) == 0


def test_phi_s3xs4_square_invertible(s3xs4):
    ph = phi(s3xs4)
    assert all(len(row) == len(ph.matrix) for row in ph.matrix)
    # the degree n-2 = 5 line is empty for this preset, so both sides vanish
    assert ph.dimension == 0


def test_phi_rejects_even(s2):
    with pytest.raises(OddDimension):
        phi(s2)


@pytest.mark.parametrize("name", ODD)
def test_phi_bijective_on_every_odd_preset(name):
    ph = phi(preset_pd(name))
    # on s3 and s5 both are empty: H^(n-2) of an odd sphere is zero
    assert len(ph.matrix) == len(ph.inverse) == ph.dimension
    assert all(len(row) == ph.dimension for row in ph.matrix + ph.inverse)
    assert dense_matmul(ph.matrix, ph.inverse) == dense_identity(ph.dimension)


# --- twists attached to cohomology classes ------------------------------------------


def test_c_of_x_zero_is_c0(s2xs3):
    model = c_of_x(s2xs3, s2xs3.algebra.zero())
    assert model.s1_square().is_zero()


def test_c_of_x_scales_to_cq0(s2xs3):
    from cdga_config.algebra import same_structure

    q = F(3)
    model = c_of_x(s2xs3, s2xs3.algebra.from_label_coeffs({"y": 1}).scale(q))
    direct = build_cxi(
        s2xs3, s2xs3.square.from_label_coeffs({"y⊗xy": q})
    )
    assert model.s1_square().coeffs == model.trunc.quotient.project(model.trunc.cone.include_base(
        s2xs3.square.from_label_coeffs({"y⊗xy": q})
    )).coeffs
    assert same_structure(model.algebra, direct.algebra)


def test_c_of_x_s3xs4_passes_axioms(s3xs4):
    # degree n-2 = 5 is empty, so only the zero class exists
    model = c_of_x(s3xs4, s3xs4.algebra.zero())
    assert model.axioms.all_pass


def test_c_of_x_rejects_wrong_degree(s2xs3):
    with pytest.raises(WrongDegree):
        c_of_x(s2xs3, s2xs3.algebra.from_label_coeffs({"x": 1}))


def test_c_of_x_rejects_non_cocycle():
    # the presets are formal, so fabricate a stand-in with d(a) = b; c_of_x
    # only touches n, the square and omega before the cocycle check fires
    from cdga_config.algebra import DGAlgebra, GradedBasis
    from cdga_config.products import TensorAlgebra

    basis = GradedBasis(["1", "a", "b"], [0, 3, 4])
    algebra = DGAlgebra(basis, 0, [(0, i, i, 1) for i in range(3)],
                        diff=[(1, 2, 1)], name="nf")

    class Stub:
        n = 5

    stub = Stub()
    stub.algebra = algebra
    stub.square = TensorAlgebra(algebra, algebra)
    stub.omega = algebra.from_label_coeffs({"b": 1})
    with pytest.raises(NotACocycle):
        c_of_x(stub, algebra.from_label_coeffs({"a": 1}))


# --- the equivalence ideal -----------------------------------------------------------


def test_equivalence_ideal_s3(s3):
    ideal = equivalence_ideal(s3)
    # every degree 2n-3 = 3 element is a cocycle: empty complement
    assert ideal.cocycle_complement == ()
    cone = ideal.truncation.cone
    y_y = cone.include_base(s3.square.from_label_coeffs({"y⊗y": F(1)}))
    s_y = cone.algebra.from_label_coeffs({"Sy": 1})
    assert ideal.contains(y_y)
    assert ideal.contains(s_y)
    assert ideal.subcomplex.is_acyclic()


@pytest.mark.parametrize("name", ["s3", "s5", "s2xs3", "s3xs4"])
def test_equivalence_ideal_acyclic_and_closed(name):
    ideal = equivalence_ideal(preset_pd(name))
    assert ideal.subcomplex.is_acyclic()
    assert all(b == 0 for b in ideal.betti().values())
    # formal presets: the cocycle complement is empty
    assert ideal.cocycle_complement == ()


def test_equivalence_ideal_is_cached_on_the_cone(monkeypatch):
    from cdga_config.quotients import Subcomplex

    pd = _fresh_s2xs3()
    checks = []
    original = Subcomplex.closed_under_multiplication
    monkeypatch.setattr(Subcomplex, "closed_under_multiplication",
                        lambda sub: checks.append(sub) or original(sub))
    ideal = equivalence_ideal(pd)
    first = len(checks)
    assert first and cone_model(pd)._equivalence_ideal is ideal
    assert equivalence_ideal(pd) is ideal
    assert len(checks) == first


# --- deciding equivalence --------------------------------------------------------------


def test_decide_equal_twists_trivial_witness(s2xs3):
    xi = s2xs3.square.from_label_coeffs({"y⊗xy": F(1)})
    witness = decide_xi_equivalence(s2xs3, xi, xi)
    assert isinstance(witness, EquivalentWitness)
    assert witness.w.is_zero() and witness.eta.is_zero()
    assert witness.quotients_isomorphic


@pytest.mark.parametrize("name, rows, cols", [("s3", 0, 2), ("s5", 0, 0), ("s3xs4", 0, 2)])
def test_decide_zero_twists_on_a_system_without_rows(name, rows, cols):
    # (A (x) A)^(2n-2) is zero on these presets: the system has no rows but
    # keeps its columns, and its one solution is w = eta = 0
    pd = preset_pd(name)
    zero = pd.square.zero()
    witness = decide_xi_equivalence(pd, zero, zero)
    assert isinstance(witness, EquivalentWitness)
    assert witness.w.is_zero() and witness.eta.is_zero()
    ideal = equivalence_ideal(pd)
    assert (len(ideal.matrix), len(ideal.columns)) == (rows, cols)


def test_decide_diagonal_pair_s2xs3(s2xs3):
    square = s2xs3.square
    xi = square.from_label_coeffs({"y⊗xy": F(1)})
    xi2 = square.from_label_coeffs({"xy⊗y": F(-1)})
    witness = decide_xi_equivalence(s2xs3, xi, xi2)
    assert isinstance(witness, EquivalentWitness)
    diag_mult = square.multiply(witness.w, s2xs3.diagonal)
    assert diag_mult + square.d(witness.eta) == xi - xi2
    # the difference is exactly (y (x) 1) . diag
    y_one = square.tensor_elements(s2xs3.algebra.from_label_coeffs({"y": 1}), s2xs3.algebra.one())
    assert xi - xi2 == square.multiply(y_one, s2xs3.diagonal)
    assert witness.difference_in_ideal
    assert witness.quotients_isomorphic


def test_decide_distinct_classes_not_decided(s2xs3):
    square = s2xs3.square
    xi = square.from_label_coeffs({"y⊗xy": F(1)})
    xi2 = square.from_label_coeffs({"y⊗xy": F(2)})
    assert isinstance(decide_xi_equivalence(s2xs3, xi, xi2), NotDecidedHere)


@pytest.mark.parametrize("name", ["s2", "cp2"])
def test_decide_checks_odd_dimension_before_any_solve(name):
    """Even formal dimension gives OddDimension for every pair of twists,
    a pair whose classes differ included."""
    pd = preset_pd(name)
    square = pd.square
    e = square.basis_element(square.basis.degree_indices(2 * pd.n - 2)[0])
    for xi, xi2 in ((e, square.zero()), (square.zero(), e), (square.zero(), square.zero())):
        with pytest.raises(OddDimension):
            decide_xi_equivalence(pd, xi, xi2)


@st.composite
def _twist_pairs(draw):
    """A pair of twists on s2xs3 and whether it was drawn to differ in
    class: equal, differing by w . diag + d(eta), or differing by a
    nonzero multiple of y(x)xy; xi is sometimes 0, and the order of the
    pair is sometimes swapped."""
    pd = preset_pd("s2xs3")
    square = pd.square
    xi = square.zero() if draw(st.booleans()) else square.from_label_coeffs(
        {"y⊗xy": draw(_COEFFICIENTS), "xy⊗y": draw(_COEFFICIENTS)})
    kind = draw(st.sampled_from(["equal", "diagonal", "different"]))
    if kind == "equal":
        xi2 = xi
    elif kind == "diagonal":
        w = square.element({t: draw(_COEFFICIENTS)
                            for t in square.basis.degree_indices(pd.n - 2)})
        eta = square.element({t: draw(_COEFFICIENTS)
                              for t in square.basis.degree_indices(2 * pd.n - 3)})
        xi2 = xi + square.multiply(w, pd.diagonal) + square.d(eta)
    else:
        t = draw(_COEFFICIENTS.filter(bool))
        xi2 = xi + square.from_label_coeffs({"y⊗xy": t})
    if draw(st.booleans()):
        xi, xi2 = xi2, xi
    return xi, xi2, kind == "different"


@settings(max_examples=80, deadline=None)
@given(pair=_twist_pairs())
def test_decisions_equal_the_per_twist_route(pair):
    """Each decision, certificate included, is the one of the per-twist
    route that solves its own system and forms both C(xi)/I afresh; on a
    pair of different classes the quotient comparison is that route's too."""
    from cdga_config.twisted import _quotients_by_ideal_match

    pd = preset_pd("s2xs3")
    xi, xi2, different = pair
    got = decide_xi_equivalence(pd, xi, xi2)
    want = oracle_decide_xi_equivalence(pd, xi, xi2)
    if want is None:
        assert isinstance(got, NotDecidedHere) and different
        match = _quotients_by_ideal_match(pd, equivalence_ideal(pd), xi, xi2)
        assert match is oracle_quotients_match(pd, xi, xi2) is False
    else:
        assert isinstance(got, EquivalentWitness) and not different
        assert (got.w, got.eta, got.difference_in_ideal, got.quotients_isomorphic) == want
        assert got.difference_in_ideal and got.quotients_isomorphic


_EQUIVALENT_PAIRS = [((1, 2), (F(5, 2), F(7, 2))), ((F(-2, 3), 0), (F(1, 3), 1)),
                     ((0, 0), (3, 3)), ((4, F(1, 5)), (4, F(1, 5)))]


def _decisions_match_the_per_twist_route(monkeypatch, pd):
    """Decide each pair of `_EQUIVALENT_PAIRS` on `pd` and compare it with
    the per-twist route; returns how many times each decision formed a
    quotient and built a C(xi)."""
    import cdga_config.twisted as twisted

    square = pd.square
    quotients = _count_calls(monkeypatch, twisted, "quotient_dga")
    models = _count_calls(monkeypatch, twisted, "build_cxi")
    counts = []
    for (q, r), (q2, r2) in _EQUIVALENT_PAIRS:
        xi = square.from_label_coeffs({"y⊗xy": q, "xy⊗y": r})
        xi2 = square.from_label_coeffs({"y⊗xy": q2, "xy⊗y": r2})
        before = len(quotients), len(models)
        got = decide_xi_equivalence(pd, xi, xi2)
        counts.append((len(quotients) - before[0], len(models) - before[1]))
        want = oracle_decide_xi_equivalence(pd, xi, xi2)
        assert (got.w, got.eta, got.difference_in_ideal, got.quotients_isomorphic) == want
    return counts


def test_a_warm_decision_forms_no_quotient_and_builds_no_cxi(monkeypatch):
    pd = _fresh_s2xs3()
    ideal = equivalence_ideal(pd)
    assert ideal.quotient is not None and ideal.truncation is truncate_cone(cone_model(pd))
    assert _decisions_match_the_per_twist_route(monkeypatch, pd) == [(0, 0)] * len(_EQUIVALENT_PAIRS)
    assert equivalence_ideal(pd) is ideal


def test_both_routes_take_one_instance_check_per_twist(monkeypatch):
    import cdga_config.twisted as twisted
    from cdga_config.twisted import TruncatedCone

    pd = _fresh_s2xs3()
    square = pd.square
    instances = _count_calls(monkeypatch, TruncatedCone, "instance")
    twist = lambda q, r: square.from_label_coeffs({"y⊗xy": q, "xy⊗y": r})
    for k, (q, r) in enumerate([(1, 0), (F(-2, 3), 5), (0, 0)], start=1):
        build_cxi(pd, twist(q, r))
        assert len(instances) == k
    equivalence_ideal(pd)
    models = _count_calls(monkeypatch, twisted, "build_cxi")
    for (q, r), (q2, r2) in _EQUIVALENT_PAIRS:
        xi, xi2 = twist(q, r), twist(q2, r2)
        before = len(instances)
        decide_xi_equivalence(pd, xi, xi2)
        assert [args[1] for args in instances[before:]] == [xi, xi2]
    assert models == []


def test_an_unverified_generic_model_sends_each_decision_to_the_per_twist_quotients(monkeypatch):
    pd = _fresh_s2xs3()
    cone = cone_model(pd)
    cone._truncation = replace(truncate_cone(cone), verified=False)
    assert equivalence_ideal(pd).quotient is None
    assert _decisions_match_the_per_twist_route(monkeypatch, pd) == [(2, 2)] * len(_EQUIVALENT_PAIRS)


def _doubled(trunc):
    """`trunc` with C(Xi) replaced by the truncation with
    (S1)^2 = 2 sum_t X_t e_t."""
    s1 = trunc.s1_index
    doubled = {k: 2 * c for k, c in trunc.generic._mult[s1][s1].items()}
    return replace(trunc, generic=trunc.algebra.with_square(s1, doubled, name=trunc.generic.name))


def test_a_failing_instance_check_sends_the_decision_to_the_per_twist_quotients(monkeypatch):
    """C(Xi) with (S1)^2 = 2 sum_t X_t e_t: its quotient passes, but no
    C(xi) with a nonzero (S1)^2 is an instance of it."""
    pd = _fresh_s2xs3()
    cone = cone_model(pd)
    cone._truncation = _doubled(truncate_cone(cone))
    assert equivalence_ideal(pd).quotient is not None
    # every pair holds a twist with a nonzero (S1)^2
    assert _decisions_match_the_per_twist_route(monkeypatch, pd) == [(2, 2)] * len(_EQUIVALENT_PAIRS)


def test_later_decisions_keep_the_truncation_the_ideal_was_formed_on(monkeypatch):
    """A truncation stored on the cone after the first decision does not
    reach the next ones: the ideal owns the C(Xi) that C(Xi)/I was formed
    on, so each twist is still an instance of it."""
    pd = _fresh_s2xs3()
    square = pd.square
    decide_xi_equivalence(pd, square.from_label_coeffs({"y⊗xy": 5, "xy⊗y": -2}),
                          square.from_label_coeffs({"y⊗xy": 6, "xy⊗y": -1}))
    cone = cone_model(pd)
    cone._truncation = _doubled(truncate_cone(cone))
    assert equivalence_ideal(pd).truncation is not cone._truncation
    assert _decisions_match_the_per_twist_route(monkeypatch, pd) == [(0, 0)] * len(_EQUIVALENT_PAIRS)


def test_the_truncation_and_the_equivalence_ideal_are_frozen(s2xs3):
    ideal = equivalence_ideal(s2xs3)
    with pytest.raises(FrozenInstanceError):
        ideal.truncation.verified = False
    with pytest.raises(FrozenInstanceError):
        ideal.truncation.generic = ideal.truncation.algebra
    with pytest.raises(FrozenInstanceError):
        ideal.quotient = None
    assert ideal.truncation.verified and ideal.quotient is not None


def test_decide_rejects_wrong_degree(s2xs3):
    with pytest.raises(WrongDegree):
        decide_xi_equivalence(
            s2xs3,
            s2xs3.square.from_label_coeffs({"x⊗y": F(1)}),
            s2xs3.square.zero(),
        )


@pytest.mark.parametrize("position", ["xi", "xi2"])
def test_decide_names_the_degrees_found(s2xs3, position):
    # a WrongDegree, which the command line reports with exit status 3
    square = s2xs3.square
    bad = square.from_label_coeffs({"y⊗xy": 1, "x⊗x": 1})
    good = square.from_label_coeffs({"y⊗xy": 1})
    pair = (bad, good) if position == "xi" else (good, bad)
    with pytest.raises(WrongDegree) as info:
        decide_xi_equivalence(s2xs3, *pair)
    assert str(info.value) == (
        f"{position} must be homogeneous of degree 8, got terms of degrees 4 and 8")
    assert type(info.value) is WrongDegree


# --- a fixture with d != 0: the fattened sphere E(5, 2) -----------------------------

E5_2 = str(Path(__file__).parent / "data" / "e5_2.json")


def test_fattened_sphere_passes_check():
    from cdga_config.cli import main

    assert main(["check", E5_2]) == 0


def _fm2_betti(pd):
    """The Betti vectors of the cone, of the quotient by the diagonal and
    of C(0), up to the cone's top degree."""
    cone = cone_model(pd)
    top = cone.algebra.basis.max_degree()
    return (cohomology(cone.algebra).betti_vector(top), quotient_by_diagonal(pd).betti(top),
            build_cxi(pd, pd.square.zero()).betti(top))


@pytest.mark.parametrize("factor", [None, "s2"], ids=["alone", "times-s2"])
def test_fattened_sphere_has_the_invariants_of_s5(factor):
    from cdga_config.presets import resolve_pd
    from cdga_config.products import product_pd

    fattened, sphere = resolve_pd(E5_2), preset_pd("s5")
    assert fattened.algebra.diff_entries()
    if factor is not None:
        fattened = product_pd(fattened, preset_pd(factor))
        sphere = product_pd(sphere, preset_pd(factor))
    assert _fm2_betti(fattened) == _fm2_betti(sphere)


@pytest.mark.parametrize("name", ALL + ["e5_2", "e5_2*s2"])
def test_fm2_betti_equals_the_closed_form(name):
    """The cone, the quotient by the diagonal and C(0), which for even n
    is `even_model`, have the Betti numbers b_k = [t^k](P^2 - t^n P) of
    F(M, 2), P the Poincare polynomial of A."""
    from cdga_config.cone import even_model
    from cdga_config.presets import resolve_pd
    from cdga_config.products import product_pd

    if name.startswith("e5_2"):
        pd = resolve_pd(E5_2)
        if name == "e5_2*s2":
            pd = product_pd(pd, preset_pd("s2"))
    else:
        pd = preset_pd(name)
    want = oracle_fm2_betti(pd)
    assert _fm2_betti(pd) == (want, want, want)
    if pd.n % 2 == 0:
        assert even_model(pd).betti(2 * pd.n) == want


def test_a_twist_by_a_coboundary_is_decided_with_a_nonzero_eta():
    """On E(5, 2), whose square has a nonzero d in degree 7, deciding 0
    against de needs eta != 0: 0 - de = w . diag + d(eta) exactly, with
    the per-twist route's w and eta."""
    from cdga_config.presets import resolve_pd

    pd = resolve_pd(E5_2)
    square = pd.square
    found = {}
    for e in square.basis.degree_indices(7):
        xi, xi2 = square.zero(), square.d(square.basis_element(e))
        if xi2.is_zero():
            continue
        got = decide_xi_equivalence(pd, xi, xi2)
        assert isinstance(got, EquivalentWitness)
        assert square.multiply(got.w, pd.diagonal) + square.d(got.eta) == xi - xi2
        assert not got.eta.is_zero()
        assert got.difference_in_ideal and got.quotients_isomorphic
        assert (got.w, got.eta) == oracle_decide_xi_equivalence(pd, xi, xi2)[:2]
        found[square.basis.labels[e]] = (str(got.w), str(got.eta))
    assert found == {"u⊗o": ("0", "-u⊗o"), "w⊗o": ("0", "-w⊗o"),
                     "o⊗u": ("1⊗v", "-u⊗o"), "o⊗w": ("1⊗t", "-w⊗o")}
