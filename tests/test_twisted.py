import random
from fractions import Fraction as F

import pytest

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

from oracles import oracle_betti

ODD = ["s3", "s5", "s2xs3", "s3xs4"]
ALL = ["s2", "s3", "s4", "s5", "cp2", "s2xs3", "s3xs4"]


def random_xi(pd, rng):
    square = pd.square
    idx = square.basis.degree_indices(2 * pd.n - 2)
    return square.element({i: F(rng.randint(-4, 4)) for i in idx})


# --- truncation ----------------------------------------------------------------


def test_truncation_dimensions(s3, s2xs3):
    assert truncate_cone(cone_model(s3)).algebra.dim() == 4
    assert truncate_cone(cone_model(s2xs3)).algebra.dim() == 18


def test_cone_and_truncation_are_cached(s3):
    cone = cone_model(s3)
    assert cone_model(s3) is cone and s3._cone_model is cone
    trunc = truncate_cone(cone)
    assert truncate_cone(cone) is trunc and cone._truncation is trunc


@pytest.mark.parametrize("name", ALL)
def test_truncation_preserves_betti(name):
    cone = cone_model(preset_pd(name))
    trunc = truncate_cone(cone)
    top = cone.algebra.basis.max_degree()
    assert cohomology(trunc.algebra).betti_vector(top) == cohomology(cone.algebra).betti_vector(top)


# --- the twisted family ---------------------------------------------------------


@pytest.mark.parametrize("name", ODD)
def test_build_cxi_random_twists_pass_axioms(name):
    pd = preset_pd(name)
    rng = random.Random(2024)
    for _ in range(10):
        model = build_cxi(pd, random_xi(pd, rng))
        assert model.axioms.all_pass
        assert model.s1_square() == model.project_from_square(model.xi)


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
        assert str(model.algebra.basis.labels[model.s1_index]) == "S1"


@pytest.mark.parametrize("name", ODD)
def test_cxi_cohomology_independent_of_twist(name):
    pd = preset_pd(name)
    rng = random.Random(5)
    top = 2 * pd.n
    reference = build_cxi(pd, pd.square.zero()).betti(top)
    for _ in range(4):
        assert build_cxi(pd, random_xi(pd, rng)).betti(top) == reference


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
    assert ph.dimension == 1 and ph.target_dimension == 1
    # the image of [y] is the class of y (x) omega = y (x) xy
    (rep,) = ph.domain_representatives
    assert str(rep) == "y"
    image = s2xs3.square.from_label_coeffs({"y⊗xy": F(1)})
    assert ph.matrix.column(0) == ph.target_class_coordinates(image)
    from cdga_config.linalg import SparseMatrix

    assert ph.matrix.matmul(ph.inverse) == SparseMatrix.identity(1)


def test_phi_s3_zero_map(s3):
    ph = phi(s3)
    assert ph.dimension == 0 and ph.target_dimension == 0


def test_phi_s3xs4_square_invertible(s3xs4):
    ph = phi(s3xs4)
    assert ph.matrix.rows == ph.matrix.cols
    # the degree n-2 = 5 line is empty for this preset, so both sides vanish
    assert ph.dimension == 0


def test_phi_rejects_even(s2):
    with pytest.raises(OddDimension):
        phi(s2)


@pytest.mark.parametrize("name", ODD)
def test_phi_bijective_on_every_odd_preset(name):
    ph = phi(preset_pd(name))
    assert ph.matrix.rows == ph.matrix.cols == ph.dimension
    from cdga_config.linalg import SparseMatrix

    assert ph.matrix.matmul(ph.inverse) == SparseMatrix.identity(ph.dimension)


# --- twists attached to cohomology classes ------------------------------------------


def test_c_of_x_zero_is_c0(s2xs3):
    model = c_of_x(s2xs3, s2xs3.algebra.zero())
    assert model.s1_square().is_zero()


def test_c_of_x_scales_to_cq0(s2xs3):
    from cdga_config.algebra import same_structure

    q = F(3)
    model = c_of_x(s2xs3, s2xs3.algebra.element_from_label("y").scale(q))
    direct = build_cxi(
        s2xs3, s2xs3.square.from_label_coeffs({"y⊗xy": q})
    )
    assert model.s1_square() == model.project_from_square(
        s2xs3.square.from_label_coeffs({"y⊗xy": q})
    )
    assert same_structure(model.algebra, direct.algebra)


def test_c_of_x_s3xs4_passes_axioms(s3xs4):
    # degree n-2 = 5 is empty, so only the zero class exists
    model = c_of_x(s3xs4, s3xs4.algebra.zero())
    assert model.axioms.all_pass


def test_c_of_x_rejects_wrong_degree(s2xs3):
    with pytest.raises(WrongDegree):
        c_of_x(s2xs3, s2xs3.algebra.element_from_label("x"))


def test_c_of_x_rejects_non_cocycle():
    # the presets are formal, so fabricate a stand-in with d(a) = b; c_of_x
    # only touches n, the square and omega before the cocycle check fires
    from cdga_config.algebra import DGAlgebra, GradedBasis
    from cdga_config.products import tensor

    basis = GradedBasis(["1", "a", "b"], [0, 3, 4])
    algebra = DGAlgebra(basis, 0, [(0, i, i, 1) for i in range(3)],
                        diff=[(1, 2, 1)], name="nf")

    class Stub:
        n = 5

    stub = Stub()
    stub.algebra = algebra
    stub.square = tensor(algebra, algebra)
    stub.omega = algebra.element_from_label("b")
    with pytest.raises(NotACocycle):
        c_of_x(stub, algebra.element_from_label("a"))


# --- the equivalence ideal -----------------------------------------------------------


def test_equivalence_ideal_s3(s3):
    ideal = equivalence_ideal(s3)
    # every degree 2n-3 = 3 element is a cocycle: empty complement
    assert ideal.cocycle_complement == ()
    cone = ideal.cone
    y_y = cone.include_base(s3.square.from_label_coeffs({"y⊗y": F(1)}))
    s_y = cone.algebra.element_from_label("Sy")
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


# --- deciding equivalence --------------------------------------------------------------


def test_decide_equal_twists_trivial_witness(s2xs3):
    xi = s2xs3.square.from_label_coeffs({"y⊗xy": F(1)})
    witness = decide_xi_equivalence(s2xs3, xi, xi)
    assert isinstance(witness, EquivalentWitness)
    assert witness.w.is_zero() and witness.eta.is_zero()
    assert witness.quotients_isomorphic


def test_decide_diagonal_pair_s2xs3(s2xs3):
    square = s2xs3.square
    xi = square.from_label_coeffs({"y⊗xy": F(1)})
    xi2 = square.from_label_coeffs({"xy⊗y": F(-1)})
    witness = decide_xi_equivalence(s2xs3, xi, xi2)
    assert isinstance(witness, EquivalentWitness)
    diag_mult = square.multiply(witness.w, __diag(s2xs3))
    assert diag_mult + square.d(witness.eta) == xi - xi2
    # the difference is exactly (y (x) 1) . diag
    y_one = square.tensor_elements(s2xs3.algebra.element_from_label("y"), s2xs3.algebra.one())
    assert xi - xi2 == square.multiply(y_one, __diag(s2xs3))
    assert witness.difference_in_ideal
    assert witness.quotients_isomorphic


def __diag(pd):
    from cdga_config.poincare import diagonal_class

    return diagonal_class(pd).element


def test_decide_distinct_classes_not_decided(s2xs3):
    square = s2xs3.square
    xi = square.from_label_coeffs({"y⊗xy": F(1)})
    xi2 = square.from_label_coeffs({"y⊗xy": F(2)})
    assert isinstance(decide_xi_equivalence(s2xs3, xi, xi2), NotDecidedHere)


def test_decide_rejects_wrong_degree(s2xs3):
    with pytest.raises(WrongDegree):
        decide_xi_equivalence(
            s2xs3,
            s2xs3.square.from_label_coeffs({"x⊗y": F(1)}),
            s2xs3.square.zero(),
        )
