"""Every stored scalar is canonical: an `int` when it is integral, a
`Fraction` otherwise, and never a `float` or a `bool`."""

from fractions import Fraction as F

import pytest

from cdga_config.cone import cone_model
from cdga_config.io import parse_element
from cdga_config.linalg import _accumulate
from cdga_config.poincare import diagonal_class, shriek_map
from cdga_config.presets import PRESET_NAMES, preset_pd
from cdga_config.products import diagonal_correspondence
from cdga_config.sullivan import (AffineSystem, Exists, Obstructed, Poly, check_table,
                                  iso_obstruction, s2xs3_table)
from cdga_config.twisted import build_cxi, truncate_cone


def assert_canonical(values, where):
    for value in values:
        if isinstance(value, Poly):
            assert_canonical(value.terms.values(), where)
        elif type(value) is not int:
            assert type(value) is F and value.denominator != 1, f"{where}: {value!r}"


def algebra_scalars(a):
    for rows in a._mult:
        for row in rows:
            yield from row.values()
    for row in a._diff:
        yield from row.values()


def element_scalars(elements):
    for elem in elements:
        yield from elem.coeffs.values()


def matrix_scalars(rows):
    return [v for row in rows for v in row]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_constructions_store_canonical_scalars(name):
    pd = preset_pd(name)
    assert_canonical(algebra_scalars(pd.algebra), "algebra")
    assert_canonical(pd.epsilon.values(), "orientation")
    assert_canonical(element_scalars([pd.omega, *pd.dual_basis]), "omega and dual basis")
    for k in pd.algebra.basis.degrees_present():
        assert_canonical(matrix_scalars(pd._pairing_inverse(k)), "pairing inverse")
    assert_canonical(algebra_scalars(pd.square), "square")
    assert_canonical(element_scalars([diagonal_class(pd).element]), "diagonal class")

    f = shriek_map(pd)
    assert_canonical(element_scalars(f.images), "shriek images")
    for r in range(f.source.ring.dim()):
        for m in range(f.source.dim()):
            assert_canonical(f.source.act_basis(r, m).values(), "module action")
    if pd.n == 0:
        return  # no cone over the point: its suspension would sit in degree -1

    cone = cone_model(pd)
    assert_canonical(algebra_scalars(cone.algebra), "cone")
    trunc = truncate_cone(cone)
    assert_canonical(algebra_scalars(trunc.algebra), "truncation")
    for rows in trunc.quotient.subspace.bases.values():
        assert_canonical((v for row in rows for v in row.values()), "truncated subspace")
    for row in trunc.quotient._images:
        assert_canonical(row.values(), "projection")


def test_twisted_model_at_a_fractional_twist_stores_canonical_scalars():
    pd = preset_pd("s2xs3")
    xi = parse_element(pd.square, "1/2*(y(x)xy) - 3/7*(xy(x)y)")
    model = build_cxi(pd, xi)
    assert_canonical(algebra_scalars(model.algebra), "C(xi)")
    assert_canonical(element_scalars([model.xi, model.s1_square()]), "C(xi) elements")
    assert_canonical((c for row in model.trunc.base_rows for c in row.values()), "C(xi) base rows")
    assert model.s1_square().coeffs == {model.algebra.basis.index("y⊗xy"): F(1, 2),
                                        model.algebra.basis.index("xy⊗y"): F(-3, 7)}


def test_table_memo_and_solver_results_store_canonical_scalars():
    table = s2xs3_table(F(3, 2), F(-1, 3))
    assert check_table(table).all_pass
    for diff in table.differentials:
        assert_canonical(diff.values(), "table differential")
    assert_canonical(element_scalars(table.evaluation), "evaluation")

    same = iso_obstruction(table, s2xs3_table(F(3, 2), F(-1, 3)))
    assert isinstance(same, Exists)
    assert_canonical(same.assignment.values(), "assignment")
    assert all(type(v) is int for v in same.assignment.values())
    # table is the source of one solve and the target of the other, so both
    # of its commutator halves are memoised
    for t1, t2 in ((table, s2xs3_table(F(1, 2), 0)), (s2xs3_table(F(1, 2), 0), table)):
        other = iso_obstruction(t1, t2)
        assert isinstance(other, Obstructed)
        assert_canonical([other.residual_constant], "residual constant")

    for elem in table._d.values():
        assert_canonical(elem.values(), "memoised D")
    for halves in (table._unknowns.images, table._psi_of_d, table._minus_d_of_psi):
        for elem in halves:
            assert_canonical(elem.values(), "memoised commutator half")


def test_integral_sums_and_products_are_stored_as_ints():
    half = F(1, 2)
    total = _accumulate({"a": half}, [("a", half), ("b", half * 4)])
    assert total == {"a": 1, "b": 2}
    assert_canonical(total.values(), "sum")
    x = Poly.variable(0)
    for poly in (x * half + x * half, Poly.const(half) * 2, (x * half).substitute({0: 4})):
        assert_canonical(poly.terms.values(), "polynomial")
    assert (x * half).substitute({0: 4}).terms == {(): 2}


def test_affine_system_keeps_rows_canonical():
    system = AffineSystem()
    system.add({0: 1, 1: F(1, 2), 2: F(1, 2)}, F(1, 2), "a")
    # substituting x1 = 1/2 + x2 leaves x0 = 1/4 - x2: the coefficient of
    # x2 in equation a becomes 1/2 - (1/2)(-1) = 1
    system.add({1: 1, 2: -1}, F(1, 2), "b")
    assert system.residues[0] == {2: -1}
    assert_canonical([*system.residues[0].values(), system.consts[0]], "residue a")
    system.add({2: -2}, F(-4), "c")
    for v, residue in system.residues.items():
        assert_canonical([*residue.values(), system.consts[v]], "residue")
    assert_canonical(system.determined.values(), "determined")
    assert system.determined == {0: F(-7, 4), 1: F(5, 2), 2: 2}


def test_shuffle_sign_is_an_int():
    sign = diagonal_correspondence(preset_pd("s2"), preset_pd("s3")).sign
    assert sign in (1, -1) and type(sign) is int
