import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import cdga_config.algebra as algebra_module
from cdga_config.algebra import (
    DGAlgebra,
    Element,
    GradedBasis,
    _action_sweep,
    _generating_set,
    betti_vector,
    check_cdga,
    cohomology,
    same_structure,
)
from cdga_config.errors import MixedParents, NotAComplex, StructureError
from cdga_config.linalg import RationalFunction
from cdga_config.presets import PRESET_NAMES, preset_pd
from cdga_config.products import TensorAlgebra

from oracles import oracle_betti


def truncated_poly_sphere():
    """H of the 2-sphere: unit and one degree-2 class squaring to zero."""
    basis = GradedBasis(["1", "x"], [0, 2])
    return DGAlgebra(basis, 0, [(0, 0, 0, 1), (0, 1, 1, 1)], name="sphere2", top_degree=2)


def test_check_cdga_sphere_passes():
    assert check_cdga(truncated_poly_sphere()).all_pass


def test_check_cdga_presets_pass():
    for name in PRESET_NAMES:
        report = check_cdga(preset_pd(name).algebra)
        assert report.all_pass, (name, report.failed())


def test_check_cdga_odd_square_witnessed():
    # declaring a nonzero square on an odd generator violates graded
    # commutativity, with the pair (y, y) as witness
    basis = GradedBasis(["1", "y", "z"], [0, 3, 6])
    algebra = DGAlgebra(
        basis, 0,
        [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 1, 2, 1)],
        name="bad", top_degree=6,
    )
    report = check_cdga(algebra)
    failed = {c.axiom: c for c in report.failed()}
    assert "graded_commutativity" in failed
    assert "(y, y)" in failed["graded_commutativity"].witness


def test_simply_connected_flag_enforced():
    # flag set: degree 0 must be the unit line and degree 1 empty
    basis = GradedBasis(["1", "e", "x"], [0, 0, 2])
    mult = [(0, i, i, 1) for i in range(3)]
    with pytest.raises(StructureError):
        DGAlgebra(basis, 0, mult, simply_connected=True)
    basis2 = GradedBasis(["1", "a", "x"], [0, 1, 2])
    mult2 = [(0, i, i, 1) for i in range(3)]
    with pytest.raises(StructureError):
        DGAlgebra(basis2, 0, mult2, simply_connected=True)


def test_inconsistent_duplicate_product_rejected():
    basis = GradedBasis(["1", "a", "b", "ab"], [0, 1, 1, 2])
    entries = [(0, i, i, 1) for i in range(4)]
    # a*b = ab together with b*a = ab violates the Koszul sign for odd*odd
    entries += [(1, 2, 3, 1), (2, 1, 3, 1)]
    with pytest.raises(StructureError):
        DGAlgebra(basis, 0, entries, name="dup")


def test_unit_and_element_ops(s2xs3):
    alg = s2xs3.algebra
    x = alg.from_label_coeffs({"x": 1})
    y = alg.from_label_coeffs({"y": 1})
    assert alg.one() * x == x
    # Koszul sign (-1)^(2*3) = +1
    assert y * x == alg.from_label_coeffs({"xy": 1})
    assert x * x == alg.zero()
    assert (x + y) - x == y
    assert str(2 * x - y) == "2*x - y"


def test_tensor_element_ops(s3):
    square = s3.square
    y1 = square.from_label_coeffs({"y⊗1": F(1)})
    one_y = square.from_label_coeffs({"1⊗y": F(1)})
    assert y1 * one_y == square.from_label_coeffs({"y⊗y": F(1)})
    assert one_y * y1 == square.from_label_coeffs({"y⊗y": F(-1)})
    assert y1 * y1 == square.zero()


def test_mixed_parents_rejected(s2, s3):
    with pytest.raises(MixedParents):
        s2.algebra.one() + s3.algebra.one()


def test_cohomology_zero_differential_is_dimensions(s2xs3):
    betti = cohomology(s2xs3.algebra).betti_vector(5)
    assert betti == [1, 0, 1, 1, 0, 1]


def test_cohomology_acyclic_two_term():
    basis = GradedBasis(["a", "b"], [0, 1])
    algebra = DGAlgebra(basis, 0, [(0, 0, 0, 1), (0, 1, 1, 1)], diff=[(0, 1, 1)])
    assert cohomology(algebra).betti_vector(1) == [0, 0]


def test_cohomology_not_a_complex_raises():
    basis = GradedBasis(["a", "b", "c"], [0, 1, 2])
    mult = [(0, i, i, 1) for i in range(3)]
    algebra = DGAlgebra(basis, 0, mult, diff=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(NotAComplex) as info:
        cohomology(algebra)
    assert info.value.degree == 0


def test_cohomology_of_shriek_cone_for_s3(s3):
    from cdga_config.cone import cone_model

    cone = cone_model(s3)
    report = cohomology(cone.algebra)
    assert report.betti_vector(6) == [1, 0, 0, 1, 0, 0, 0]
    # brute-force dense oracle agrees degreewise
    assert oracle_betti(cone.algebra) == [1, 0, 0, 1, 0, 0, 0]


def test_cohomology_betti_independent_of_basis_order(s2xs3):
    # shuffle the within-degree order by relabeling, rebuild, compare
    alg = TensorAlgebra(s2xs3.algebra, s2xs3.algebra)
    rng = random.Random(7)
    tags = list(range(alg.dim()))
    rng.shuffle(tags)
    relabel = {l: f"g{t}_{l}" for l, t in zip(alg.basis.labels, tags)}
    pairs = [(relabel[l], d) for l, d in zip(alg.basis.labels, alg.basis.degrees)]
    new_basis = GradedBasis.build(sorted(pairs))
    to_new = {i: new_basis.index(relabel[l]) for i, l in enumerate(alg.basis.labels)}
    mult = [(to_new[i], to_new[j], to_new[k], c) for i, j, k, c in alg.mult_entries()]
    diff = [(to_new[i], to_new[j], c) for i, j, c in alg.diff_entries()]
    shuffled = DGAlgebra(new_basis, to_new[alg.unit], mult, diff, name="shuffled")
    top = alg.basis.max_degree()
    assert cohomology(shuffled).betti_vector(top) == cohomology(alg).betti_vector(top)


def test_multiply_assoc_comm_on_random_elements(s2xs3):
    # guard on the sparse arithmetic: bilinear extension stays associative
    # and graded commutative on random homogeneous elements
    alg = s2xs3.square
    rng = random.Random(3)

    def random_homogeneous(degree):
        idx = alg.basis.degree_indices(degree)
        return Element(alg, {i: F(rng.randint(-3, 3)) for i in idx})

    degrees = alg.basis.degrees_present()
    for _ in range(25):
        a, b, c = (random_homogeneous(rng.choice(degrees)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        da, db = a.degree(), b.degree()
        if da is not None and db is not None:
            sign = (-1) ** (da * db)
            assert a * b == (b * a).scale(sign)


def test_representatives_are_reduced_against_coboundaries(s3):
    from cdga_config.cone import cone_model

    cone = cone_model(s3)
    report = cohomology(cone.algebra)
    for entry in report.degrees.values():
        for cob in entry.coboundaries:
            # the leading coordinate of each (rref) coboundary is a pivot;
            # deterministic reduction clears it from every representative
            pivot = min(cob.coeffs)
            assert cob.coeffs[pivot] == 1
            for rep in entry.representatives:
                assert pivot not in rep.coeffs


# --- pinned witnesses and the naive cross-check ------------------------------


def _rebuild(alg, mult=None, diff=None):
    return DGAlgebra(alg.basis, alg.unit,
                     alg.mult_entries() if mult is None else mult,
                     alg.diff_entries() if diff is None else diff,
                     name=alg.name, top_degree=alg.top_degree)


def _with_product(alg, left, right, target, coeff):
    """`alg` with the stored constant of left*right on target replaced."""
    ix = alg.basis.index
    i, j, k = ix(left), ix(right), ix(target)
    mult = [(a, b, c, F(coeff) if (a, b, c) == (i, j, k) else v)
            for a, b, c, v in alg.mult_entries()]
    return _rebuild(alg, mult=mult)


def _with_extra_d(alg, source, target, coeff=1):
    ix = alg.basis.index
    return _rebuild(alg, diff=alg.diff_entries() + [(ix(source), ix(target), F(coeff))])


def _witnesses(alg):
    report = check_cdga(alg)
    return {c.axiom: c.witness for c in report.failed()}


def test_associativity_witness_pinned(cp2):
    from cdga_config.products import product_pd

    alg = product_pd(cp2, cp2).algebra
    broken = _with_product(alg, "1⊗x", "1⊗x", "1⊗x^2", 2)
    assert _witnesses(broken) == {"associativity": "(1⊗x, 1⊗x, x⊗1)"}


def test_leibniz_witness_pinned(s2, s2xs3):
    from cdga_config.cone import cone_model

    alg = cone_model(s2).algebra
    assert _witnesses(_with_product(alg, "S1", "1⊗x", "Sx", 2)) == {"leibniz": "(S1, 1⊗x)"}
    alg = cone_model(s2xs3).algebra
    assert _witnesses(_with_extra_d(alg, "1⊗x", "1⊗y")) == {"leibniz": "(1⊗x, 1⊗x)"}


def test_d_squared_witness_pinned(s2, s2xs3):
    from cdga_config.cone import cone_model

    alg = cone_model(s2).algebra
    assert _witnesses(_with_extra_d(alg, "1⊗x", "Sx")) == {"d_squared": "d²(S1) = Sx"}
    alg = cone_model(s2xs3).algebra
    assert _witnesses(_with_extra_d(alg, "1⊗y", "S1")) == {
        "d_squared": "d²(1⊗y) = 1⊗xy + x⊗y - y⊗x - xy⊗1",
        "leibniz": "(1⊗x, 1⊗y)",
    }


def _perturbations(alg, rng, count):
    """`count` seeded single-entry perturbations that keep degrees valid:
    a changed or removed structure constant, a new product entry, or a
    changed or new differential entry."""
    degs = alg.basis.degrees
    n = alg.dim()
    mult, diff = alg.mult_entries(), alg.diff_entries()
    new_products = [(i, j, k) for i in range(n) for j in range(i, n) for k in range(n)
                    if degs[k] == degs[i] + degs[j]]
    new_diffs = [(i, j) for i in range(n) for j in range(n) if degs[j] == degs[i] + 1]
    out = []
    while len(out) < count:
        kind = rng.randrange(4)
        delta = F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        if kind == 0 and mult:
            m = list(mult)
            at = rng.randrange(len(m))
            i, j, k, c = m[at]
            m[at] = (i, j, k, c + delta)
            out.append(_rebuild(alg, mult=m))
        elif kind == 1 and new_products:
            i, j, k = rng.choice(new_products)
            if any(e[:3] == (i, j, k) for e in mult):
                continue
            out.append(_rebuild(alg, mult=mult + [(i, j, k, delta)]))
        elif kind == 2 and diff:
            d = list(diff)
            at = rng.randrange(len(d))
            i, j, c = d[at]
            d[at] = (i, j, c + delta)
            out.append(_rebuild(alg, diff=d))
        elif kind == 3 and new_diffs:
            i, j = rng.choice(new_diffs)
            out.append(_rebuild(alg, diff=diff + [(i, j, delta)]))
    return out


def _module_failures(alg):
    """The message `ring_as_module(alg).verify()` raises (or None), and the
    one its shared sweep with `check_cdga` predicts from `check_cdga`'s
    witnesses: the first failing one of the unit, associativity, Leibniz
    and d squared, in that order."""
    from cdga_config.dgmodule import ring_as_module

    try:
        ring_as_module(alg).verify()
        raised = None
    except StructureError as exc:
        raised = str(exc)
    witnesses = _witnesses(alg)
    expected = None
    if "unit" in witnesses:
        expected = f"unit does not act as identity on {witnesses['unit'].split(' != ')[1]}"
    elif "associativity" in witnesses:
        expected = f"module action is not associative at {witnesses['associativity']}"
    elif "leibniz" in witnesses:
        expected = f"module Leibniz rule fails at {witnesses['leibniz']}"
    elif "d_squared" in witnesses:
        label = witnesses["d_squared"][len("d²("):].split(") = ")[0]
        expected = f"module differential does not square to zero at {label}"
    return raised, expected


def test_check_cdga_matches_naive_oracle_on_perturbations():
    from cdga_config.cone import cone_model
    from cdga_config.products import product_pd

    from oracles import naive_check_cdga

    rng = random.Random(20151)
    algebras = [product_pd(preset_pd(a), preset_pd(b)).algebra
                for a, b in (("s2", "s3"), ("cp2", "cp2"), ("s2", "s2xs3"))]
    algebras += [cone_model(preset_pd(p)).algebra for p in ("s2", "s3", "cp2")]
    failing = set()
    for alg in algebras:
        assert check_cdga(alg) == naive_check_cdga(alg)
        for broken in _perturbations(alg, rng, 12):
            report = check_cdga(broken)
            assert report == naive_check_cdga(broken), alg.name
            # A as a module over itself fails `verify` at the same tuple
            raised, expected = _module_failures(broken)
            assert raised == expected, alg.name
            failing.update(c.axiom for c in report.failed())
    # the sample reaches every axiom the perturbations can break
    assert failing >= {"associativity", "d_squared", "leibniz"}


def _rescaled(alg):
    """`alg` in the basis f_i = s_i e_i, with s_i cycling through 1, 1/3,
    7, 1/2 and 5 off the unit, so that its structure constants (and d,
    where there is one) have nontrivial denominators."""
    cycle = (F(1), F(1, 3), F(7), F(1, 2), F(5))
    scale = [F(1) if i == alg.unit else cycle[i % 5] for i in range(alg.dim())]
    mult = [(i, j, k, scale[i] * scale[j] * c / scale[k]) for i, j, k, c in alg.mult_entries()]
    diff = [(i, j, scale[i] * c / scale[j]) for i, j, c in alg.diff_entries()]
    return _rebuild(alg, mult=mult, diff=diff)


def test_check_cdga_matches_naive_oracle_on_rescaled_bases():
    from cdga_config.cone import cone_model
    from cdga_config.products import product_pd

    from oracles import naive_check_cdga

    rng = random.Random(31)
    algebras = [product_pd(preset_pd(a), preset_pd(b)).algebra
                for a, b in (("s2", "s3"), ("cp2", "s2"))]
    cones = [cone_model(preset_pd(p)).algebra for p in ("s2", "s2xs3")]
    failing = set()
    for alg in map(_rescaled, algebras + cones):
        assert any(c.denominator > 1 for *_, c in alg.mult_entries())
        assert not alg.diff_entries() or any(c.denominator > 1 for *_, c in alg.diff_entries())
        assert check_cdga(alg).all_pass
        assert check_cdga(alg) == naive_check_cdga(alg)
        for broken in _perturbations(alg, rng, 8):
            report = check_cdga(broken)
            assert report == naive_check_cdga(broken), alg.name
            failing.update(c.axiom for c in report.failed())
    assert failing >= {"associativity", "d_squared", "leibniz"}


def test_d_squared_witness_keeps_fractional_coefficients(s2xs3):
    from cdga_config.cone import cone_model

    alg = cone_model(s2xs3).algebra
    assert _witnesses(_with_extra_d(alg, "1⊗y", "S1", F(-5, 7))) == {
        "d_squared": "d²(1⊗y) = -5/7*1⊗xy - 5/7*x⊗y + 5/7*y⊗x + 5/7*xy⊗1",
        "leibniz": "(1⊗x, 1⊗y)",
    }


def test_check_cdga_sweeps_mixed_symbolic_and_fractional_entries():
    """The generic model C(Xi) over s2xs3, whose (S1, S1) row holds
    rational functions, in a rescaled basis: its table mixes them with
    Fractions, and the sweep runs on that table as it is. The report
    agrees with the naive one on the model and on seeded perturbations
    of it."""
    from cdga_config.cone import cone_model
    from cdga_config.linalg import RationalFunction
    from cdga_config.twisted import truncate_cone

    from oracles import naive_check_cdga

    alg = _rescaled(truncate_cone(cone_model(preset_pd("s2xs3"))).generic)
    constants = [c for *_, c in alg.mult_entries()]
    assert any(type(c) is RationalFunction for c in constants)
    assert any(type(c) is F for c in constants)
    assert check_cdga(alg).all_pass and check_cdga(alg) == naive_check_cdga(alg)
    rng = random.Random(77)
    failing = set()
    for broken in _perturbations(alg, rng, 12):
        report = check_cdga(broken)
        assert report == naive_check_cdga(broken)
        failing.update(c.axiom for c in report.failed())
    assert failing


# --- the tuples check_cdga passes over once the unit row is proven -----------


def _cxi_algebra():
    from cdga_config.twisted import build_cxi

    pd = preset_pd("s2xs3")
    xi = pd.square.from_label_coeffs({"y⊗xy": F(1), "xy⊗y": F(-1, 2)})
    return build_cxi(pd, xi).algebra


def _unit_breaking(alg, rng, count):
    """`count` seeded perturbations of the unit row: a changed constant of
    1*e_i on e_i, or a new term of 1*e_i on another basis element of the
    same degree. The unit check fails on each, so every sweep of
    `check_cdga` runs in full."""
    u = alg.unit
    degs = alg.basis.degrees
    n = alg.dim()
    mult = alg.mult_entries()
    out = []
    while len(out) < count:
        i = rng.randrange(n)
        delta = F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        others = [k for k in range(n) if degs[k] == degs[i] and k != i]
        if others and rng.randrange(2):
            out.append(_rebuild(alg, mult=mult + [(u, i, rng.choice(others), delta)]))
        else:
            out.append(_rebuild(alg, mult=[
                (a, b, c, v + delta if {a, b} == {u, i} and c == i else v)
                for a, b, c, v in mult]))
    return out


def _dual_numbers():
    """Q[e]/(e^2) in degree 0 times a degree-2 class x with x^2 = 0, with
    the unit stored at index 1 rather than 0."""
    basis = GradedBasis(["e", "1", "x"], [0, 0, 2])
    mult = [(1, 1, 1, 1), (0, 1, 0, 1), (1, 2, 2, 1)]
    return DGAlgebra(basis, 1, mult, name="dual", top_degree=2)


def test_check_cdga_matches_naive_oracle_on_cxi_perturbations():
    from oracles import naive_check_cdga

    alg = _cxi_algebra()
    rng = random.Random(8080)
    assert check_cdga(alg).all_pass
    failing = set()
    for broken in _perturbations(alg, rng, 30):
        report = check_cdga(broken)
        assert report == naive_check_cdga(broken)
        failing.update(c.axiom for c in report.failed())
    assert failing >= {"associativity", "d_squared", "leibniz"}


def test_check_cdga_matches_naive_oracle_when_the_unit_fails():
    from cdga_config.cone import cone_model

    from oracles import naive_check_cdga

    rng = random.Random(1505)
    algebras = [preset_pd("cp2").algebra, cone_model(preset_pd("s2")).algebra,
                _cxi_algebra(), _dual_numbers()]
    failing = set()
    for alg in algebras:
        assert check_cdga(alg) == naive_check_cdga(alg)
        for broken in _unit_breaking(alg, rng, 8):
            report = check_cdga(broken)
            assert report == naive_check_cdga(broken), alg.name
            assert not report.checks[0].ok
            failing.update(c.axiom for c in report.failed())
    assert failing >= {"unit", "associativity", "leibniz"}


def test_check_cdga_matches_naive_oracle_with_unit_off_index_zero():
    from oracles import naive_check_cdga

    alg = _dual_numbers()
    assert check_cdga(alg).all_pass
    rng = random.Random(62)
    for broken in _perturbations(alg, rng, 20):
        assert check_cdga(broken) == naive_check_cdga(broken)


def test_leibniz_sweeps_unit_pairs_when_d_of_the_unit_is_nonzero():
    # the exterior algebra on a, b with d(1) = a: the unit row is right,
    # but d(1*1) = a differs from d(1)*1 + 1*d(1) = 2a
    from oracles import naive_check_cdga

    basis = GradedBasis(["1", "a", "b", "ab"], [0, 1, 1, 2])
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (1, 2, 3, 1)]
    alg = DGAlgebra(basis, 0, mult, [(0, 1, 1)], name="ext", top_degree=2)
    assert _witnesses(alg) == {"leibniz": "(1, 1)"}
    assert check_cdga(alg) == naive_check_cdga(alg)


def test_graded_commutativity_witness_is_the_first_odd_square():
    # a*b = z is consistent with b*a = -z; only the square b^2 = z can fail
    from oracles import naive_check_cdga

    basis = GradedBasis(["1", "a", "b", "z"], [0, 3, 3, 6])
    mult = [(0, i, i, 1) for i in range(4)] + [(1, 2, 3, 1), (2, 2, 3, F(1, 2))]
    alg = DGAlgebra(basis, 0, mult, name="odd", top_degree=6)
    assert _witnesses(alg) == {"graded_commutativity": "(b, b)"}
    assert check_cdga(alg) == naive_check_cdga(alg)


# --- the signed product table against its input -----------------------------


def _table_sample():
    """Presets, a cone, a C(xi), a tensor square with odd*odd products and
    that square with fractional constants."""
    from cdga_config.cone import cone_model

    square = preset_pd("s3xs4").square
    return ([preset_pd(name).algebra for name in PRESET_NAMES]
            + [cone_model(preset_pd("s2xs3")).algebra, _cxi_algebra(), square, _rescaled(square)])


def test_product_table_is_the_koszul_signed_upper_half():
    odd_pairs = 0
    for alg in _table_sample():
        degs = alg.basis.degrees
        upper = {}
        for i, j, k, c in alg.mult_entries():
            upper.setdefault((i, j), {})[k] = c
        for i in range(alg.dim()):
            for j in range(i, alg.dim()):
                row = upper.get((i, j), {})
                sign = (-1) ** (degs[i] * degs[j])
                odd_pairs += bool(row) and sign == -1 and i != j
                assert alg._mult[i][j] == row
                assert alg._mult[j][i] == {k: sign * c for k, c in row.items()}, (alg.name, i, j)
        assert same_structure(DGAlgebra(alg.basis, alg.unit, alg.mult_entries(), alg.diff_entries()), alg)
        # the same constants given in the other order build the same table
        swapped = [(j, i, k, (-1) ** (degs[i] * degs[j]) * c) for i, j, k, c in alg.mult_entries()]
        assert _rebuild(alg, mult=swapped)._mult == alg._mult, alg.name
    assert odd_pairs


def test_odd_product_given_as_j_i_is_stored_sign_flipped_at_i_j():
    basis = GradedBasis(["1", "a", "b", "ab"], [0, 1, 1, 2])
    alg = DGAlgebra(basis, 0, [(0, i, i, 1) for i in range(4)] + [(2, 1, 3, F(1, 2))])
    assert alg._mult[2][1] == {3: F(1, 2)}
    assert alg._mult[1][2] == {3: F(-1, 2)}
    assert alg.mult_entries()[-1] == (1, 2, 3, F(-1, 2))
    assert (alg.basis_element(1) * alg.basis_element(2)).coeffs == {3: F(-1, 2)}
    assert check_cdga(alg).all_pass


# --- one product row set on an algebra's table ---------------------------------


def test_with_square_checks_its_row_as_the_entries_constructor_does():
    sphere = truncated_poly_sphere()
    for bad in ({1: 1}, {5: 1}):
        with pytest.raises(StructureError) as entries:
            DGAlgebra(sphere.basis, 0, sphere.mult_entries() + [(1, 1, k, c) for k, c in bad.items()])
        with pytest.raises(StructureError) as derived:
            sphere.with_square(1, bad, name="bad")
        assert str(derived.value) == str(entries.value)
    with pytest.raises(StructureError, match="mult index 2 out of range"):
        sphere.with_square(2, {}, name="bad")


def test_with_square_stores_canonical_nonzero_scalars():
    basis = GradedBasis(["1", "y", "z"], [0, 2, 4])
    a = DGAlgebra(basis, 0, [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1)], top_degree=4)
    b = a.with_square(1, {2: F(6, 3), 0: 0}, name="b")
    assert b._mult[1][1] == {2: 2} and type(b._mult[1][1][2]) is int
    assert b.name == "b" and b.top_degree == 4 and check_cdga(b).all_pass
    assert a._mult[1][1] == {}


def test_with_square_refuses_to_replace_a_nonzero_row(cp2):
    x = cp2.algebra.basis.index("x")
    assert cp2.algebra._mult[x][x]
    with pytest.raises(StructureError, match="the product x\\*x is already nonzero"):
        cp2.algebra.with_square(x, {}, name="bad")


# --- the generator lemma: restricted sweeps against the full sweep ------------


DATA = Path(__file__).parent / "data"


def _full_report(alg):
    """`check_cdga`'s report from the sweep over every index: the lemma is
    switched off by forming no generating set."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_module, "_generating_set", lambda a: None)
        return check_cdga(alg)


def _restricted_sweep(alg):
    """The failures that the sweep over the generating set finds: the
    unit, associativity, d squared and Leibniz, as `_action_sweep` gives
    them."""
    pair, drows, degs = alg._mult, alg._diff, alg.basis.degrees
    return _action_sweep(pair, pair, drows, drows, degs, degs, alg.unit,
                         _generating_set(alg), alg.unit)


def _lemma_inputs():
    """Every preset, its cone and its C(Xi) or C(0); the E(5, 2) fixtures
    and the cone of E(5, 2); the 72-dim cone of s2xs3 (x) s2."""
    from cdga_config.cone import cone_model
    from cdga_config.io import load_algebra_file
    from cdga_config.poincare import check_pd
    from cdga_config.products import product_pd
    from cdga_config.twisted import truncate_cone

    out = []
    for name in PRESET_NAMES:
        pd = preset_pd(name)
        out.append(pd.algebra)
        if pd.n:
            cone = cone_model(pd)
            out += [cone.algebra, truncate_cone(cone).generic]
    for fixture in ("e5_2.json", "e5_2_leibniz.json"):
        out.append(load_algebra_file(DATA / fixture)[0])
    e5_2 = check_pd(*load_algebra_file(DATA / "e5_2.json")[:3])
    out.append(cone_model(e5_2).algebra)
    out.append(cone_model(product_pd(preset_pd("s2xs3"), preset_pd("s2"))).algebra)
    return out


def test_the_restricted_sweep_gives_the_full_sweeps_report():
    inputs = _lemma_inputs()
    assert max(alg.dim() for alg in inputs) == 72
    restricted = 0
    for alg in inputs:
        report = check_cdga(alg)
        assert report == _full_report(alg), alg.name
        gens = _generating_set(alg)
        assert gens is not None, alg.name
        unit, assoc, _, leibniz = _restricted_sweep(alg)
        if report.all_pass:
            # the lemma, not the fallback, gave this report
            assert (unit, assoc, leibniz) == (None, None, None), alg.name
            restricted += 1
    # only the E(5, 2) copy that breaks the Leibniz rule fails
    assert restricted == len(inputs) - 1


def test_the_generating_set_spans_every_positive_degree():
    from cdga_config.cone import cone_model

    from oracles import dense_rank

    for alg in (preset_pd("s2xs3").algebra, cone_model(preset_pd("cp2")).algebra,
                _cxi_algebra()):
        gens = _generating_set(alg)
        degs = alg.basis.degrees
        assert all(degs[s] > 0 for s in gens)
        for k in alg.basis.degrees_present()[1:]:
            idx = alg.basis.degree_indices(k)
            vectors = [{s: 1} for s in gens if degs[s] == k]
            vectors += [alg._mult[s][j] for s in gens for j in alg.basis.degree_indices(k - degs[s])
                        if degs[s] < k]
            rows = [[v.get(i, 0) for i in idx] for v in vectors if
                    all(type(c) is not RationalFunction for c in v.values())]
            assert dense_rank(rows) == len(idx), (alg.name, k)
    # a generator of degree 2 of cp2: x alone generates the truncated polynomials
    assert [preset_pd("cp2").algebra.basis.labels[s]
            for s in _generating_set(preset_pd("cp2").algebra)] == ["x"]


def _ladder_cone(a, b):
    from cdga_config.cone import cone_model
    from cdga_config.products import product_pd

    return cone_model(product_pd(preset_pd(a), preset_pd(b))).algebra


def _fails_as_the_full_sweep(broken):
    """The report of `broken` fails and is the full sweep's, and the
    restricted sweep or the d squared check fails on it as well."""
    report = check_cdga(broken)
    assert not report.all_pass
    assert report == _full_report(broken)
    assert any(found is not None for found in _restricted_sweep(broken))
    return report


def test_a_doubled_product_of_two_non_generators_fails_as_in_the_full_sweep():
    alg = _ladder_cone("s2xs3", "cp2")
    gens = set(_generating_set(alg))
    n = alg.dim()
    products = [(i, j) for i in range(n) for j in range(i, n)
                if alg._mult[i][j] and not {i, j} & gens and alg.unit not in (i, j)]
    rng = random.Random(156)
    for i, j in rng.sample(products, 12):
        # the constructor derives (j, i) with the Koszul sign
        mult = [(a, b, c, 2 * v if (a, b) == (i, j) else v) for a, b, c, v in alg.mult_entries()]
        report = _fails_as_the_full_sweep(_rebuild(alg, mult=mult))
        assert not report.checks[2].ok, (alg.basis.labels[i], alg.basis.labels[j])


def test_a_changed_differential_on_a_non_generator_fails_as_in_the_full_sweep():
    # the 72-dim cone keeps this short: each failing report below takes
    # the full sweep twice, once as the fallback and once as the reference
    alg = _ladder_cone("s2xs3", "s2")
    gens = set(_generating_set(alg))
    degs = alg.basis.degrees
    sources = [i for i in range(alg.dim())
               if i not in gens and i != alg.unit and alg.basis.degree_indices(degs[i] + 1)]
    rng = random.Random(2015)
    failing = set()
    for _ in range(20):
        i = rng.choice(sources)
        t = rng.choice(alg.basis.degree_indices(degs[i] + 1))
        delta = F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        report = _fails_as_the_full_sweep(_rebuild(alg, diff=alg.diff_entries() + [(i, t, delta)]))
        failing.update(c.axiom for c in report.failed())
    assert "leibniz" in failing


def test_the_fallback_fixture_fails_associativity_at_todays_witness():
    from cdga_config.io import load_algebra_file

    alg = load_algebra_file(DATA / "cp2xcp2_doubled.json")[0]
    assert _generating_set(alg) is not None
    assert _witnesses(alg) == {"associativity": "(1⊗x, 1⊗x, x^2⊗1)"}
    assert check_cdga(alg) == _full_report(alg)


def test_no_generating_set_without_a_one_dimensional_unit_degree_or_with_d_of_1():
    assert _generating_set(_dual_numbers()) is None
    basis = GradedBasis(["1", "a", "b", "ab"], [0, 1, 1, 2])
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (1, 2, 3, 1)]
    assert _generating_set(DGAlgebra(basis, 0, mult, [(0, 1, 1)], top_degree=2)) is None
    assert _generating_set(DGAlgebra(basis, 0, mult, top_degree=2)) == [1, 2]


# --- Betti numbers from ranks ---------------------------------------------------


def _betti_inputs():
    """The inputs of the lemma test, and the truncation and the quotient by
    the diagonal of every preset but `point`, and E(5, 2)'s truncation."""
    from cdga_config.cone import cone_model
    from cdga_config.io import load_algebra_file
    from cdga_config.poincare import check_pd
    from cdga_config.twisted import quotient_by_diagonal, truncate_cone

    out = _lemma_inputs()
    for name in PRESET_NAMES:
        pd = preset_pd(name)
        if pd.n:
            trunc = truncate_cone(cone_model(pd))
            out += [trunc.algebra, quotient_by_diagonal(pd).algebra]
    e5_2 = check_pd(*load_algebra_file(DATA / "e5_2.json")[:3])
    out.append(truncate_cone(cone_model(e5_2)).algebra)
    return out


def test_betti_numbers_from_ranks_equal_the_dense_oracle_and_cohomology():
    for alg in _betti_inputs():
        betti = betti_vector(alg)
        assert betti == oracle_betti(alg) == cohomology(alg).betti_vector(), alg.name
        top = alg.basis.max_degree()
        assert betti_vector(alg, top + 3) == cohomology(alg).betti_vector(top + 3) == betti + [0] * 3
        assert betti_vector(alg, 1) == (betti + [0])[:2]


def test_betti_numbers_from_ranks_raise_not_a_complex_as_cohomology_does():
    basis = GradedBasis(["1", "a", "b", "c"], [0, 1, 2, 3])
    alg = DGAlgebra(basis, 0, [(0, i, i, 1) for i in range(4)], [(1, 2, 1), (2, 3, 1)],
                    top_degree=3)
    with pytest.raises(NotAComplex) as ranks:
        betti_vector(alg)
    with pytest.raises(NotAComplex) as full:
        cohomology(alg)
    assert str(ranks.value) == str(full.value)
