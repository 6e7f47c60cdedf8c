from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from cdga_config.linalg import (
    SparseMatrix,
    betti_numbers,
    invert,
    kernel_basis,
    quotient_data,
    rank,
    rref,
    solve,
)

from oracles import (dense_kernel_basis, dense_matmul, dense_rank, dense_rref_basis, dense_solve,
                     pivot_coordinates)


def mat(rows):
    return SparseMatrix.from_rows([[F(v) for v in r] for r in rows])


# --- worked examples ---------------------------------------------------------


def test_rref_identity():
    m = SparseMatrix.identity(2)
    reduced, pivots, rk = rref(m)
    assert reduced == m
    assert pivots == [0, 1]
    assert rk == 2


def test_rref_zero():
    m = SparseMatrix(3, 3)
    reduced, pivots, rk = rref(m)
    assert reduced.is_zero()
    assert pivots == []
    assert rk == 0


def test_rref_rank_one():
    reduced, pivots, rk = rref(mat([[1, 2], [2, 4]]))
    assert reduced == mat([[1, 2], [0, 0]])
    assert pivots == [0]
    assert rk == 1


def test_kernel_identity_empty():
    assert kernel_basis(SparseMatrix.identity(4)) == []


def test_kernel_zero_matrix_standard_basis():
    vecs = kernel_basis(SparseMatrix(2, 3))
    assert vecs == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]


def test_kernel_single_row():
    (vec,) = kernel_basis(mat([[1, 1]]))
    # 1-dimensional kernel spanned by (1, -1) up to scale
    assert vec[0] == -vec[1] != 0


def test_solve_identity():
    b = [F(3), F(-2)]
    assert solve(SparseMatrix.identity(2), b) == b


def test_solve_inconsistent():
    assert solve(SparseMatrix(2, 2), [F(1), F(0)]) is None


def test_solve_scalar():
    assert solve(mat([[2]]), [F(1)]) == [F(1, 2)]


def test_quotient_empty_subspace():
    reps, proj = quotient_data([], 3)
    assert reps == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert proj == SparseMatrix.identity(3)


def test_quotient_full_subspace():
    reps, proj = quotient_data([[F(1), F(0)], [F(0), F(1)]], 2)
    assert reps == []
    assert proj.rows == 0 and proj.cols == 2


def test_quotient_line_in_plane():
    reps, proj = quotient_data([[F(1), F(1)]], 2)
    assert len(reps) == 1
    assert rank(proj) == 1
    # projection vanishes exactly on the subspace generator
    assert proj.apply([F(1), F(1)]) == [F(0)]
    # projection restricted to the representative is the identity
    assert proj.apply(reps[0]) == [F(1)]


def test_invert_and_singular():
    m = mat([[1, 1], [0, 2]])
    inv = invert(m)
    assert dense_matmul(inv, m) == SparseMatrix.identity(2).dense_rows()
    assert invert(mat([[1, 2], [2, 4]])) is None


def test_betti_numbers_two_term_acyclic():
    # Q --id--> Q has no cohomology
    dims = {0: 1, 1: 1}
    blocks = {0: SparseMatrix.identity(1)}
    assert betti_numbers(dims, blocks) == {0: 0, 1: 0}


# --- properties --------------------------------------------------------------

entries = st.integers(min_value=-4, max_value=4).map(F)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return SparseMatrix.from_rows(data)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    reduced, pivots, rk = rref(m)
    again, pivots2, rk2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots and rk2 == rk


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle(m):
    assert rank(m) == dense_rank(m.dense_rows())


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(m):
        assert all(v == 0 for v in m.apply(vec))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(entries, min_size=5, max_size=5))
def test_solve_produces_solutions(m, coeffs):
    # build a guaranteed-consistent right-hand side
    x = coeffs[: m.cols]
    b = m.apply(x)
    sol = solve(m, b)
    assert sol is not None
    assert m.apply(sol) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=0, max_size=3))
def test_quotient_projection_properties(subspace):
    reps, proj = quotient_data([list(map(F, v)) for v in subspace], 4)
    for v in subspace:
        assert all(c == 0 for c in proj.apply(list(map(F, v))))
    # projection restricted to representatives is the identity matrix
    for q, rep in enumerate(reps):
        image = proj.apply(rep)
        assert image[q] == 1 and all(c == 0 for i, c in enumerate(image) if i != q)
    assert len(reps) == 4 - dense_rank(subspace or [[0, 0, 0, 0]])


# --- mixed int and Fraction entries against the Fraction-only oracles --------

mixed_entries = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def mixed_rows(rows, cols):
    return st.lists(st.lists(mixed_entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def mixed_systems(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return draw(mixed_rows(rows, cols)), draw(st.lists(mixed_entries, min_size=rows,
                                                       max_size=rows))


def canonical(values):
    """Each value is an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is F and v.denominator != 1) for v in values)


@settings(max_examples=80, deadline=None)
@given(mixed_systems())
def test_mixed_entries_agree_with_fraction_oracles(system):
    data, b = system
    m = SparseMatrix.from_rows(data)
    assert canonical(v for _, _, v in m.entries())

    reduced, pivots, rk = rref(m)
    assert pivots == pivot_coordinates(data, m.cols) and rk == len(pivots)
    assert reduced.dense_rows()[:rk] == dense_rref_basis(data, m.cols)
    assert canonical(v for _, _, v in reduced.entries())

    kernel = kernel_basis(m)
    assert kernel == dense_kernel_basis(data, m.cols)
    assert all(canonical(vec) for vec in kernel)

    columns = [[row[c] for row in data] for c in range(m.cols)]
    x = solve(m, b)
    assert x == dense_solve(columns, b)
    assert x is None or canonical(x)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: mixed_rows(n, n)))
def test_mixed_inverse_agrees_with_fraction_oracle(data):
    n = len(data)
    inverse = invert(SparseMatrix.from_rows(data))
    if dense_rank(data) < n:
        assert inverse is None
        return
    columns = [[row[c] for row in data] for c in range(n)]
    for j in range(n):
        unit = [1 if i == j else 0 for i in range(n)]
        assert inverse.column(j) == dense_solve(columns, unit)
    assert canonical(v for _, _, v in inverse.entries())


# --- polynomials and rational functions in a family's parameters ---------------------


def test_poly_quotient_is_exact_division():
    from cdga_config.linalg import Poly

    a, b = Poly.variable(0), Poly.variable(1)
    assert (a * a - b * b).quotient(a - b) == a + b
    assert (a * b * F(3, 2)).quotient(b * 3) == a * F(1, 2)
    assert (a * a + b).quotient(a) is None
    assert a.quotient(b) is None
    assert Poly().quotient(a) == Poly()


def test_rational_functions_are_canonical():
    from cdga_config.linalg import Parameters, RationalFunction

    params = Parameters(("a", "b"))
    a, b = params.symbol(0), params.symbol(1)
    # constant results are scalars, so zero is the int 0
    assert a - a == 0 and type(a - a) is int
    assert (a * b) / (b * a) == 1 and type((a * b) / (b * a)) is int
    assert type((a + b) * F(1, 2) * 2 - b) is RationalFunction
    assert str((a * b - b * b) / (a - b)) == "b"
    assert str(a / (b * 2)) == "(1/2*a)/(b)"
    ratio = (a - b) / b
    assert F(ratio.num.value_at({0: 5, 1: 3}), ratio.den.value_at({0: 5, 1: 3})) == F(2, 3)


def test_rational_functions_record_zero_tests_and_divisors_as_guards():
    from cdga_config.linalg import Parameters

    params = Parameters(("a", "b"))
    a, b = params.symbol(0), params.symbol(1)
    # comparing with a scalar records nothing
    assert a != 1 and a + b != 0
    assert not params.guards
    assert bool(a - b)
    assert 1 / (a * 2 + 4) != a
    # kept monic: 2a + 4 is recorded as 2 + a
    assert [g.render(params.names) for g in params.guards] == [
        "a - b", "2 + a", "-1/2 + 2*a + a*a"]
    def hold_at(point):
        return all(guard.value_at(point) for guard in params.guards)

    assert hold_at({0: 5, 1: 3})
    assert not hold_at({0: 3, 1: 3}) and not hold_at({0: -2, 1: 3})


_poly_keys = st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(
    lambda key: tuple(sorted(key)))


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_poly_keys, mixed_entries, max_size=4),
       st.lists(mixed_entries, min_size=3, max_size=3), mixed_entries, mixed_entries)
def test_value_at_and_divide_agree_with_fraction_arithmetic(terms, point, a, b):
    from math import prod

    from cdga_config.linalg import Poly, _divide

    poly = Poly(terms)
    values = dict(enumerate(point))
    value = poly.value_at(values)
    assert value == sum(F(c) * prod(F(values[v]) for v in key) for key, c in terms.items())
    assert canonical([value])
    if b:
        assert _divide(a, b) == F(a) / F(b) and canonical([_divide(a, b)])
