import ast
from fractions import Fraction as F
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdga_config.algebra import _coboundaries_and_cocycles
from cdga_config.linalg import (
    _combine,
    _projection,
    _reduce,
    _residues,
    invert,
    kernel_basis,
    row_space_basis,
    rref,
    solve,
)

from oracles import (dense_identity, dense_kernel_basis, dense_matmul, dense_rank,
                     dense_rref_basis, dense_solve, pivot_coordinates)


def mat(rows):
    return [[F(v) for v in r] for r in rows]


def apply(rows, vec):
    return [sum((a * b for a, b in zip(row, vec)), F(0)) for row in rows]


def projection(subspace, n):
    """The class of each e_j of Q^n modulo span(subspace), in quotient
    coordinates, and the kept coordinates, as `quotient_dga` builds them."""
    kept, images = _projection(_residues(row_space_basis(subspace, n), range(n)), range(n))
    return images, kept


# --- worked examples ---------------------------------------------------------


def test_rref_identity():
    m = dense_identity(2)
    reduced, pivots = rref(m, 2)
    assert reduced == m
    assert pivots == [0, 1]


def test_rref_zero():
    reduced, pivots = rref([[0] * 3 for _ in range(3)], 3)
    assert reduced == [[0] * 3 for _ in range(3)]
    assert pivots == []


def test_rref_rank_one():
    reduced, pivots = rref(mat([[1, 2], [2, 4]]), 2)
    assert reduced == mat([[1, 2], [0, 0]])
    assert pivots == [0]


def test_kernel_identity_empty():
    assert kernel_basis(dense_identity(4), 4) == []


def test_kernel_zero_matrix_standard_basis():
    assert kernel_basis([[0] * 3 for _ in range(2)], 3) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    # a matrix without rows keeps its column count
    assert kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_kernel_single_row():
    (vec,) = kernel_basis(mat([[1, 1]]), 2)
    # 1-dimensional kernel spanned by (1, -1) up to scale
    assert vec[0] == -vec[1] != 0


def test_solve_identity():
    b = [F(3), F(-2)]
    assert solve(dense_identity(2), b, 2) == b


def test_solve_inconsistent():
    assert solve([[0, 0], [0, 0]], [F(1), F(0)], 2) is None


def test_solve_scalar():
    assert solve(mat([[2]]), [F(1)], 1) == [F(1, 2)]


def test_quotient_empty_subspace():
    # every coordinate is its own representative
    assert _residues(row_space_basis([], 3), range(3)) == {}
    images, kept = projection([], 3)
    assert kept == [0, 1, 2]
    assert images == [{0: 1}, {1: 1}, {2: 1}]


def test_quotient_full_subspace():
    assert _residues(row_space_basis(mat([[1, 0], [0, 1]]), 2), range(2)) == {0: {}, 1: {}}
    images, kept = projection(mat([[1, 0], [0, 1]]), 2)
    assert kept == [] and images == [{}, {}]


def test_quotient_line_in_plane():
    assert _residues(row_space_basis(mat([[1, 1]]), 2), range(2)) == {0: {1: -1}}
    images, kept = projection(mat([[1, 1]]), 2)
    assert kept == [1]
    # projection vanishes exactly on the subspace generator
    assert _combine({0: 1, 1: 1}, images) == {}
    assert _reduce({0: 1, 1: 1}, {0: {1: -1}}) == {}
    assert _reduce({0: 2, 1: 1}, {0: {1: -1}}) == {1: -1}
    # projection restricted to the representative is the identity
    assert _combine({1: 1}, images) == {0: 1}


def test_invert_and_singular():
    m = mat([[1, 1], [0, 2]])
    inv = invert(m)
    assert dense_matmul(inv, m) == dense_identity(2)
    assert invert(mat([[1, 2], [2, 4]])) is None
    assert invert([]) == []


def test_oracles_import_no_package_linear_algebra():
    # the oracles cross-check the package's eliminations, so they import
    # nothing from `linalg` and none of the routines that wrap it
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert "cdga_config.linalg" not in modules
    assert not names & {"linalg", "cohomology", "cocycle_vectors", "row_space_basis",
                        "kernel_basis"}


def test_betti_numbers_two_term_acyclic():
    # Q --id--> Q has no cohomology: the one cocycle, in degree 1, is the
    # one coboundary
    per_degree = _coboundaries_and_cocycles([{1: 1}, {}], {0: (0,), 1: (1,)})
    assert per_degree == {0: ([], []), 1: ([[1]], [[1]])}


# --- properties --------------------------------------------------------------

entries = st.integers(min_value=-4, max_value=4).map(F)


@st.composite
def matrices(draw, max_dim=5):
    """(rows, column count) of a nonempty matrix."""
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    data = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return data, cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    reduced, pivots = rref(*m)
    again, pivots2 = rref(reduced, m[1])
    assert again == reduced
    assert pivots2 == pivots


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert len(rref(*m)[1]) + len(kernel_basis(*m)) == m[1]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_matches_dense_oracle(m):
    assert len(rref(*m)[1]) == dense_rank(m[0])


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilate(m):
    for vec in kernel_basis(*m):
        assert all(v == 0 for v in apply(m[0], vec))


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(entries, min_size=5, max_size=5))
def test_solve_produces_solutions(m, coeffs):
    # build a guaranteed-consistent right-hand side
    rows, cols = m
    b = apply(rows, coeffs[:cols])
    sol = solve(rows, b, cols)
    assert sol is not None
    assert apply(rows, sol) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(entries, min_size=4, max_size=4), min_size=0, max_size=3))
def test_quotient_projection_properties(subspace):
    residues = _residues(row_space_basis(subspace, 4), range(4))
    images, kept = projection(subspace, 4)
    for v in subspace:
        assert _combine(dict(enumerate(v)), images) == {}
        assert _reduce({c: x for c, x in enumerate(v) if x}, residues) == {}
    # projection restricted to representatives is the identity matrix
    for q, j in enumerate(kept):
        assert _combine({j: 1}, images) == {q: 1}
    # the class of e_j is its reduction, read at the kept coordinates
    for j in range(4):
        assert images[j] == {kept.index(t): c for t, c in _reduce({j: 1}, residues).items()}
    assert len(kept) == 4 - dense_rank(subspace or [[0, 0, 0, 0]])


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
    ncols = len(data[0])

    reduced, pivots = rref(data, ncols)
    assert pivots == pivot_coordinates(data, ncols)
    assert reduced[:len(pivots)] == dense_rref_basis(data, ncols)
    assert all(canonical(row) for row in reduced)

    kernel = kernel_basis(data, ncols)
    assert kernel == dense_kernel_basis(data, ncols)
    assert all(canonical(vec) for vec in kernel)

    columns = [[row[c] for row in data] for c in range(ncols)]
    x = solve(data, b, ncols)
    assert x == dense_solve(columns, b)
    assert x is None or canonical(x)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: mixed_rows(n, n)))
def test_mixed_inverse_agrees_with_fraction_oracle(data):
    n = len(data)
    inverse = invert(data)
    if dense_rank(data) < n:
        assert inverse is None
        return
    columns = [[row[c] for row in data] for c in range(n)]
    for j in range(n):
        unit = [1 if i == j else 0 for i in range(n)]
        assert [row[j] for row in inverse] == dense_solve(columns, unit)
    assert all(canonical(row) for row in inverse)


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
    exact = sum(F(c) * prod(F(values[v]) for v in key) for key, c in terms.items())
    assert value == exact
    assert canonical([value])
    # the unreduced integer pair: a positive denominator, the same value,
    # and zero exactly when the numerator is
    num, den = poly.pair_at(values)
    assert type(num) is int and type(den) is int and den > 0
    assert F(num, den) == exact and (num == 0) is (exact == 0)
    if b:
        assert _divide(a, b) == F(a) / F(b) and canonical([_divide(a, b)])


def _fraction_value(poly, values):
    """A `Poly`'s value at a point, summed in `Fraction` arithmetic."""
    from math import prod

    return sum((F(c) * prod(F(values[v]) for v in key) for key, c in poly.terms.items()), F(0))


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_poly_keys, mixed_entries, max_size=3),
       st.dictionaries(_poly_keys, mixed_entries, min_size=1, max_size=3),
       st.lists(mixed_entries, min_size=3, max_size=3))
def test_rational_function_value_at_divides_its_numerator_by_its_denominator(num, den, point):
    """At a point of scalars where the denominator does not vanish, the
    value is the numerator's value over the denominator's, canonical."""
    from math import prod

    from cdga_config.linalg import Parameters, RationalFunction

    params = Parameters(("a", "b", "c"))
    symbols = [params.symbol(k) for k in range(3)]

    def built(terms):
        return sum((c * prod((symbols[v] for v in key), start=1) for key, c in terms.items()), 0)

    divisor = built(den)
    assume(divisor != 0)
    f = built(num) / divisor
    assume(type(f) is RationalFunction)
    values = dict(enumerate(point))
    assume(_fraction_value(f.den, values))
    value = f.value_at(values)
    assert value == _fraction_value(f.num, values) / _fraction_value(f.den, values)
    assert canonical([value])
