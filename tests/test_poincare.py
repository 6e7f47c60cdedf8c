import random
from fractions import Fraction as F

import pytest

from cdga_config.algebra import DGAlgebra, Element, GradedBasis
from cdga_config.errors import PDFailure
from cdga_config.linalg import invert, kernel_basis
from cdga_config.poincare import (
    algebra_as_square_module,
    check_pd,
    desuspended_module,
    diagonal_class,
    dual_basis,
    shriek_map,
)
from cdga_config.presets import PRESET_NAMES, preset_pd

ALL = list(PRESET_NAMES)
NONTRIVIAL = [n for n in ALL if n != "point"]


# --- duality verification ----------------------------------------------------


def test_check_pd_s2(s2):
    assert s2.n == 2
    assert s2.epsilon_value(s2.omega) == 1


def test_check_pd_s2xs3(s2xs3):
    assert s2xs3.n == 5
    assert str(s2xs3.omega) == "xy"


def test_check_pd_degenerate_truncation():
    # the degree-5 product preset with the top class dropped: the degree-2
    # line pairs with nothing and is flagged as the degenerate degree
    basis = GradedBasis(["1", "x", "y"], [0, 2, 3])
    mult = [(0, i, i, 1) for i in range(3)]
    algebra = DGAlgebra(basis, 0, mult, name="truncated", top_degree=3)
    with pytest.raises(PDFailure) as info:
        check_pd(algebra, 3, {"y": F(1)})
    assert info.value.kind == "DegenerateAt"
    assert info.value.degree == 2


def test_check_pd_non_square_pairing():
    basis = GradedBasis(["1", "x", "top"], [0, 2, 4])
    mult = [(0, i, i, 1) for i in range(3)]
    # x*x omitted: pairing in degree 2 is the zero 1x1 matrix
    algebra = DGAlgebra(basis, 0, mult, name="degenerate", top_degree=4)
    with pytest.raises(PDFailure) as info:
        check_pd(algebra, 4, {2: F(1)})
    assert info.value.kind == "DegenerateAt"
    assert info.value.degree == 2


def test_check_pd_orientation_not_closed():
    basis = GradedBasis(["1", "a", "t"], [0, 1, 2])
    mult = [(0, i, i, 1) for i in range(3)]
    algebra = DGAlgebra(basis, 0, mult, diff=[(1, 2, 1)], name="notclosed", top_degree=2)
    with pytest.raises(PDFailure) as info:
        check_pd(algebra, 2, {2: F(1)})
    assert info.value.kind == "OrientationNotClosed"


# --- dual bases ---------------------------------------------------------------


def test_dual_basis_s2(s2):
    duals = dual_basis(s2)
    assert [str(d) for d in duals] == ["x", "1"]


def test_dual_basis_s3(s3):
    assert [str(d) for d in dual_basis(s3)] == ["y", "1"]


def test_dual_basis_s2xs3_delta_table(s2xs3):
    duals = dual_basis(s2xs3)
    assert [str(d) for d in duals] == ["xy", "y", "x", "1"]
    # the defining Kronecker identity, verified directly
    alg = s2xs3.algebra
    for i in range(alg.dim()):
        for j in range(alg.dim()):
            value = s2xs3.epsilon_value(alg.multiply(alg.basis_element(i), duals[j]))
            assert value == (1 if i == j else 0)


@pytest.mark.parametrize("name", ALL)
def test_dual_basis_kronecker_all_presets(name):
    pd = preset_pd(name)
    duals = dual_basis(pd)
    alg = pd.algebra
    for i in range(alg.dim()):
        for j in range(alg.dim()):
            expected = 1 if i == j else 0
            assert pd.pairing(alg.basis_element(i), duals[j]) == expected


# --- diagonal classes ---------------------------------------------------------


def test_diagonal_s2xs3_expected_form(s2xs3):
    assert str(diagonal_class(s2xs3)) == "1⊗xy + x⊗y - y⊗x - xy⊗1"


def test_diagonal_s3(s3):
    assert str(diagonal_class(s3)) == "1⊗y - y⊗1"


def test_diagonal_s2(s2):
    assert str(diagonal_class(s2)) == "1⊗x + x⊗1"


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_diagonal_is_cocycle(name):
    pd = preset_pd(name)
    diag = diagonal_class(pd).element
    assert pd.square.d(diag).is_zero()


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_twist_symmetry(name):
    pd = preset_pd(name)
    diag = diagonal_class(pd).element
    assert pd.square.twist(diag) == diag.scale((-1) ** pd.n)


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_multiplication_into_diagonal_is_injective(name):
    pd = preset_pd(name)
    square = pd.square
    diag = diagonal_class(pd).element
    alg = pd.algebra
    for k in alg.basis.degrees_present():
        idx = alg.basis.degree_indices(k)
        target_idx = square.basis.degree_indices(k + pd.n)
        columns = []
        for i in idx:
            image = square.multiply(
                square.tensor_elements(alg.basis_element(i), alg.one()), diag
            )
            columns.append(image.vector(target_idx))
        if columns:
            rows = [list(row) for row in zip(*columns)]
            assert kernel_basis(rows, len(columns)) == []


@pytest.mark.parametrize("name", [n for n in NONTRIVIAL])
def test_top_degree_identity(name):
    # (a (x) 1) . diag = a (x) omega + omega (x) a for a of degree n-2
    pd = preset_pd(name)
    square = pd.square
    diag = diagonal_class(pd).element
    alg = pd.algebra
    for i in alg.basis.degree_indices(pd.n - 2):
        a = alg.basis_element(i)
        lhs = square.multiply(square.tensor_elements(a, alg.one()), diag)
        rhs = square.tensor_elements(a, pd.omega) + square.tensor_elements(pd.omega, a)
        assert lhs == rhs


def _random_change_of_basis(pd, rng):
    """Rebuild the algebra in a random degree-preserving basis; returns the
    new verified structure and the per-degree matrices (new in old coords)."""
    alg = pd.algebra
    blocks = {}
    for k in alg.basis.degrees_present():
        dim = len(alg.basis.degree_indices(k))
        while True:
            rows = [[F(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
            if invert(rows) is not None:
                blocks[k] = rows
                break
    # new basis vectors e'_q = sum_j blocks[k][q][j] e_j within each degree
    old_basis = alg.basis
    labels = [f"b{i}" for i in range(alg.dim())]
    new_basis = GradedBasis(labels, list(old_basis.degrees))

    def new_to_old(q):
        k = old_basis.degrees[q]
        idx = old_basis.degree_indices(k)
        pos = idx.index(q)
        return Element(alg, {
            idx[j]: blocks[k][pos][j] for j in range(len(idx))
            if blocks[k][pos][j]
        })

    def old_to_new_coords(elem):
        out = {}
        for k in {old_basis.degrees[i] for i in elem.coeffs}:
            idx = old_basis.degree_indices(k)
            from cdga_config.linalg import solve

            transpose = [list(row) for row in zip(*blocks[k])]
            sol = solve(transpose, elem.vector(idx), len(idx))
            assert sol is not None
            for pos, c in enumerate(sol):
                if c:
                    out[idx[pos]] = c
        return out

    mult = []
    for i in range(alg.dim()):
        for j in range(i, alg.dim()):
            product = alg.multiply(new_to_old(i), new_to_old(j))
            for k, c in old_to_new_coords(product).items():
                mult.append((i, j, k, c))
    diff = []
    for i in range(alg.dim()):
        for k, c in old_to_new_coords(alg.d(new_to_old(i))).items():
            diff.append((i, k, c))
    new_alg = DGAlgebra(new_basis, _find_unit(alg, new_to_old), mult, diff,
                        name=alg.name + "'", top_degree=alg.top_degree)
    epsilon = {}
    for q in range(alg.dim()):
        if old_basis.degrees[q] == pd.n:
            value = pd.epsilon_value(new_to_old(q))
            if value:
                epsilon[q] = value
    return check_pd(new_alg, pd.n, epsilon), new_to_old


def _find_unit(alg, new_to_old):
    for q in range(alg.dim()):
        if alg.basis.degrees[q] == 0 and new_to_old(q) == alg.one():
            return q
    raise AssertionError("change of basis must fix the unit")


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_diagonal_class_basis_independent(name):
    # recompute the diagonal class after random degree-preserving changes
    # of basis and push it back to the original coordinates
    pd = preset_pd(name)
    rng = random.Random(11)
    reference = diagonal_class(pd).element
    for _ in range(3):
        changed, new_to_old = _change_fixing_unit(pd, rng)
        diag2 = diagonal_class(changed).element
        pushed = pd.square.zero()
        for t, c in diag2.coeffs.items():
            i, j = changed.square.factors_of(t)
            pushed = pushed + pd.square.tensor_elements(new_to_old(i), new_to_old(j)).scale(c)
        assert pushed == reference


def _change_fixing_unit(pd, rng):
    # retry until the random block fixes the unit line (keeps ls structure valid)
    while True:
        try:
            return _random_change_of_basis(pd, rng)
        except AssertionError:
            continue


# --- the shriek map -----------------------------------------------------------


def test_shriek_s2xs3_values(s2xs3):
    f = shriek_map(s2xs3)
    source = f.source
    labels = list(source.basis.labels)
    x_idx = labels.index("s^-5(x)")
    xy_idx = labels.index("s^-5(xy)")
    sq = s2xs3.square
    assert f.images[x_idx].coeffs == sq.from_label_coeffs(
        {"x⊗xy": F(1), "xy⊗x": F(-1)}
    ).coeffs
    assert f.images[xy_idx].coeffs == sq.from_label_coeffs({"xy⊗xy": F(-1)}).coeffs


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_shriek_of_unit_is_diagonal(name):
    pd = preset_pd(name)
    f = shriek_map(pd)
    unit_idx = pd.algebra.unit
    assert f.images[unit_idx].coeffs == diagonal_class(pd).element.coeffs


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_desuspended_module_axioms(name):
    # associativity of the action on all triples + module Leibniz: this is
    # the sign-rule cross-validation for the desuspension
    pd = preset_pd(name)
    desuspended_module(pd).verify()
    algebra_as_square_module(pd).verify()
