import random
from fractions import Fraction as F

import pytest

from cdga_config.algebra import DGAlgebra, GradedBasis, cocycle_vectors, cohomology
from cdga_config.cone import cone_model
from cdga_config.errors import MixedParents, StructureError
from cdga_config.presets import PRESET_NAMES, preset_pd
from cdga_config.products import product_pd
from cdga_config.quotients import Subcomplex, ideal_span, quotient_dga
from cdga_config.twisted import equivalence_ideal, quotient_by_diagonal, truncate_cone

import oracles


def two_stage_algebra():
    """Unit, a, b with d(a) = b: the smallest non-formal complex."""
    basis = GradedBasis(["1", "a", "b"], [0, 3, 4])
    return DGAlgebra(basis, 0, [(0, i, i, 1) for i in range(3)],
                     diff=[(1, 2, 1)], name="two-stage")


def test_subcomplex_rejects_non_closed_span():
    alg = two_stage_algebra()
    with pytest.raises(StructureError):
        Subcomplex(alg, [alg.from_label_coeffs({"a": 1})])


def test_subcomplex_rejects_vectors_of_another_algebra(s2, cp2):
    x2 = cp2.algebra.from_label_coeffs({"x^2": 1})
    with pytest.raises(MixedParents):
        Subcomplex(s2.algebra, [x2])


def test_ideal_span_rejects_generators_of_another_algebra(cp2):
    # x^2 has index 2 in cp2, which in its square is x(x)1
    x2 = cp2.algebra.from_label_coeffs({"x^2": 1})
    with pytest.raises(MixedParents):
        ideal_span(cp2.square, [x2])


def test_quotient_rejects_vectors_of_another_algebra(cp2):
    x2 = cp2.algebra.from_label_coeffs({"x^2": 1})
    with pytest.raises(MixedParents):
        quotient_dga(cp2.square, [x2])


def test_projection_and_lift_reject_elements_of_another_algebra(cp2):
    q = quotient_by_diagonal(cp2)
    with pytest.raises(MixedParents):
        q.projection(cp2.algebra.from_label_coeffs({"x^2": 1}))


def test_subcomplex_acyclic_two_stage():
    alg = two_stage_algebra()
    sub = Subcomplex(alg, [alg.from_label_coeffs({"a": 1}), alg.from_label_coeffs({"b": 1})])
    assert sub.dims() == {3: 1, 4: 1}
    assert sub.is_acyclic()
    assert sub.contains(alg.from_label_coeffs({"b": 1}).scale(F(7, 2)))
    assert not sub.contains(alg.one())


def test_subcomplex_reduce_is_canonical(s2xs3):
    square = s2xs3.square
    diag = s2xs3.diagonal
    sub = Subcomplex(square, ideal_span(square, [diag]))
    reduced = sub.reduce(diag)
    assert reduced.is_zero()
    survivor = square.from_label_coeffs({"x⊗y": F(1)})
    again = sub.reduce(sub.reduce(survivor))
    assert again == sub.reduce(survivor)


def test_quotient_rejects_non_ideal(s2):
    square = s2.square
    x_one = square.from_label_coeffs({"x⊗1": F(1)})
    # the line through x(x)1 is d-closed (d = 0) but not an ideal
    with pytest.raises(StructureError):
        quotient_dga(square, [x_one])


def test_quotient_rejects_unit_in_subspace(s2):
    alg = s2.algebra
    with pytest.raises(StructureError):
        quotient_dga(alg, ideal_span(alg, [alg.one()]))


def lift(q, elem):
    """The section of the quotient `q`: each quotient basis element to the
    ambient basis element it keeps."""
    return q.ambient.element({q.kept[i]: c for i, c in elem.coeffs.items()})


def test_quotient_projection_section_identities(s2xs3):
    from cdga_config.twisted import quotient_by_diagonal

    q = quotient_by_diagonal(s2xs3)
    for i in range(q.algebra.dim()):
        e = q.algebra.basis_element(i)
        assert q.projection(lift(q, e)) == e
    # projection kills exactly the ideal
    diag = s2xs3.diagonal
    assert q.projection(q.ambient.multiply(
        q.ambient.basis_element(3), diag)).is_zero()


def test_quotient_product_well_defined(s2xs3):
    # the induced product is independent of the chosen lift: shift a
    # degree-5 representative by the diagonal class and compare products
    from cdga_config.twisted import quotient_by_diagonal

    q = quotient_by_diagonal(s2xs3)
    diag = s2xs3.diagonal
    amb = q.ambient
    idx5 = [i for i, g in enumerate(q.kept) if amb.basis.degrees[g] == 5]
    assert idx5
    a = q.algebra.basis_element(idx5[0])
    lift_a = lift(q, a)
    shifted = lift_a + diag
    assert q.projection(shifted) == a  # same class, different representative
    for j in range(q.algebra.dim()):
        other = lift(q, q.algebra.basis_element(j))
        direct = q.algebra.multiply(a, q.algebra.basis_element(j))
        assert q.projection(amb.multiply(lift_a, other)) == direct
        assert q.projection(amb.multiply(shifted, other)) == direct


# --- cross-checks against the solve-based oracle ---------------------------------


def _oracle_probes(space, vectors, seed):
    """Every basis element, every spanning vector, and seeded random
    combinations of each (mixed degrees for the basis, one degree at a
    time for the spanning vectors)."""
    rng = random.Random(seed)
    probes = [space.basis_element(i) for i in range(space.dim())] + list(vectors)
    for _ in range(6):
        picks = rng.sample(range(space.dim()), min(3, space.dim()))
        probes.append(space.element({i: F(rng.randint(-3, 3), rng.randint(1, 3)) for i in picks}))
    by_degree = {}
    for v in vectors:
        by_degree.setdefault(v.degree(), []).append(v)
    for group in by_degree.values():
        total = space.zero()
        for v in group:
            total = total + v.scale(F(rng.randint(-3, 3), rng.randint(1, 3)))
        probes.append(total)
    return probes


def _check_against_oracle(space, vectors, sub, quotient=None, seed=0):
    for elem in _oracle_probes(space, vectors, seed):
        assert sub.contains(elem) == oracles.oracle_contains(space, vectors, elem), str(elem)
        assert sub.reduce(elem).coeffs == oracles.oracle_reduce(space, vectors, elem), str(elem)
        if quotient is not None:
            projected = quotient.projection(elem)
            lifted = {quotient.kept[q]: c for q, c in projected.coeffs.items()}
            assert lifted == oracles.oracle_reduce(space, vectors, elem), str(elem)
    if quotient is not None:
        assert list(quotient.kept) == oracles.oracle_kept(space, vectors)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_diagonal_ideal_matches_oracle(name):
    pd = preset_pd(name)
    square = pd.square
    vectors = ideal_span(square, [pd.diagonal])
    # the diagonal of the point is its unit, so that ideal has no quotient
    quotient = quotient_by_diagonal(pd) if name != "point" else None
    sub = quotient.subspace if quotient is not None else Subcomplex(square, vectors)
    _check_against_oracle(square, vectors, sub, quotient, seed=name)


@pytest.mark.parametrize("name", ["s3", "s5", "s2xs3", "s3xs4"])
def test_truncation_ideal_matches_oracle(name):
    pd = preset_pd(name)
    cone = cone_model(pd)
    alg = cone.algebra
    vectors = [alg.basis_element(i) for i in range(alg.dim())
               if alg.basis.degrees[i] >= 2 * pd.n - 1]
    quotient = truncate_cone(cone).quotient
    _check_against_oracle(alg, vectors, quotient.subspace, quotient, seed=name)


def test_equivalence_ideal_matches_oracle(s2xs3):
    ideal = equivalence_ideal(s2xs3)
    cone = ideal.truncation.cone
    vectors = (
        [cone.inclusion(s) for s in ideal.cocycle_complement]
        + [cone.inclusion(ds) for ds in ideal.complement_images if not ds.is_zero()]
        + list(ideal.diagonal_multiples)
        + list(ideal.positive_suspensions)
    )
    quotient = quotient_dga(cone.algebra, vectors)
    _check_against_oracle(cone.algebra, vectors, ideal.subcomplex, quotient, seed="equivalence")


def _random_closed_generators(space, rng, count):
    """`count` seeded random homogeneous vectors in positive degrees, each
    followed by its d-image when that is nonzero, so their span is closed
    under d (d^2 = 0)."""
    degrees = [k for k in space.basis.degrees_present() if k > 0]
    generators = []
    for _ in range(count):
        idx = space.basis.degree_indices(rng.choice(degrees))
        picks = rng.sample(idx, min(2, len(idx)))
        v = space.element({i: F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                           for i in picks})
        generators += [v, v.d()] if not v.d().is_zero() else [v]
    return generators


@pytest.mark.parametrize("seed", range(4))
def test_random_subspaces_of_a_cone_match_oracle(seed):
    # d-closed spans in positive degrees of the cone of s2 (x) s3; the ideal
    # they generate is then a proper differential ideal
    space = cone_model(product_pd(preset_pd("s2"), preset_pd("s3"))).algebra
    generators = _random_closed_generators(space, random.Random(seed), 3)
    _check_against_oracle(space, generators, Subcomplex(space, generators), seed=seed)
    vectors = ideal_span(space, generators)
    quotient = quotient_dga(space, vectors)
    _check_against_oracle(space, vectors, quotient.subspace, quotient, seed=seed)


@pytest.mark.parametrize("left, right", [("s2", "s3"), ("cp2", "s3")])
def test_cocycles_and_cohomology_match_oracle(left, right):
    # the cone of the product carries a nonzero differential
    space = cone_model(product_pd(preset_pd(left), preset_pd(right))).algebra
    report = cohomology(space)
    for k in range(space.basis.max_degree() + 1):
        idx = space.basis.degree_indices(k)
        if not idx:
            continue
        assert cocycle_vectors(space, k) == oracles.oracle_cocycles(space, k), k
        reps, cobs = oracles.oracle_cohomology(space, k)
        entry = report.degrees[k]
        assert [r.vector(idx) for r in entry.representatives] == reps, k
        assert [c.vector(idx) for c in entry.coboundaries] == cobs, k


@pytest.mark.parametrize("left, right", [("s2", "s3"), ("cp2", "s3"), ("s2xs3", "s2"),
                                         ("s3", "s3")])
def test_random_subcomplex_betti_matches_oracle(left, right):
    # seeded random d-closed spans of the cone of a product and the ideals
    # they generate; most of them carry cohomology
    space = cone_model(product_pd(preset_pd(left), preset_pd(right))).algebra
    rng = random.Random(f"{left}{right}")
    acyclic = []
    for count in (1, 2, 3, 4) * 2:
        generators = _random_closed_generators(space, rng, count)
        for sub in (Subcomplex(space, generators),
                    Subcomplex(space, ideal_span(space, generators))):
            expected = oracles.oracle_subcomplex_betti(sub)
            assert sub.betti() == expected, [str(g) for g in generators]
            assert sub.is_acyclic() == (not any(expected.values()))
            acyclic.append(sub.is_acyclic())
    assert not all(acyclic)


def _preset_ideals(pd):
    """The top ideal (even n), the truncation ideal and the equivalence
    ideal (odd n, 1-connected) of a duality algebra of positive dimension."""
    cone = cone_model(pd)
    ideals = [truncate_cone(cone).quotient.subspace]
    if pd.n % 2 == 0:
        ideals.append(quotient_dga(cone.algebra, ideal_span(
            cone.algebra, oracles.top_ideal_generators(cone))).subspace)
    elif pd.algebra.simply_connected:
        ideals.append(equivalence_ideal(pd).subcomplex)
    return ideals


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "point"])
def test_preset_ideal_betti_matches_oracle(name):
    # the point has formal dimension 0, so none of these ideals exist
    for sub in _preset_ideals(preset_pd(name)):
        expected = oracles.oracle_subcomplex_betti(sub)
        assert sub.betti() == expected
        assert not any(expected.values())
