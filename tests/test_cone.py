import pytest

from cdga_config.algebra import Element, GradedBasis, check_cdga, cohomology
from cdga_config.cone import cone_model, even_model, mapping_cone, top_ideal_generators
from cdga_config.dgmodule import DGModule, ModuleMap, ring_as_module
from cdga_config.errors import NotAModuleMap, OddDimension, StructureError
from cdga_config.poincare import desuspended_module
from cdga_config.presets import preset_pd
from cdga_config.quotients import ideal_span, quotient_dga
from cdga_config.twisted import quotient_by_diagonal

from oracles import oracle_betti

PRESETS = ["s2", "s3", "s4", "s5", "cp2", "s2xs3", "s3xs4"]


def test_zero_map_cone_is_direct_sum(s3):
    # cone of the zero map: differential leaves the parts alone and all
    # suspension products vanish
    source = desuspended_module(s3)
    target = ring_as_module(s3.square)
    zero = ModuleMap(source, target, [target.zero() for _ in range(source.dim())])
    cone = mapping_cone(zero)
    alg = cone.algebra
    for b in range(source.dim()):
        sb = alg.basis_element(cone.susp_to_cone[b])
        assert alg.d(sb).coeffs.keys() <= set(cone.susp_to_cone)
        for b2 in range(source.dim()):
            sb2 = alg.basis_element(cone.susp_to_cone[b2])
            assert (sb * sb2).is_zero()


def zero_map_into_square(pd, basis, changed=None):
    """The zero map from s^-n A into the square acting on itself, rebuilt on
    `basis`; `changed` = (r, m, row), given by labels, replaces e_r . e_m."""
    square = pd.square
    ring = ring_as_module(square)
    n = square.dim()
    action = [[ring.act_basis(r, m) for m in range(n)] for r in range(n)]
    if changed:
        r, m, row = changed
        index = square.basis.index
        action[index(r)][index(m)] = {index(k): c for k, c in row.items()}
    target = DGModule(square, basis, action, [ring.d_basis(i) for i in range(n)])
    source = desuspended_module(pd)
    return ModuleMap(source, target, [target.zero() for _ in range(source.dim())])


@pytest.mark.parametrize("changed", [
    ("y⊗1", "1⊗y", {"y⊗y": -1}),  # the Koszul sign of an odd product flipped
    ("1⊗y", "y⊗1", {"y⊗y": 1}),
    ("1⊗1", "y⊗y", {"y⊗y": 2}),  # the unit acting by 2
])
def test_cone_target_must_carry_the_multiplication_action(s3, changed):
    mapping_cone(zero_map_into_square(s3, s3.square.basis))
    with pytest.raises(NotAModuleMap) as info:
        mapping_cone(zero_map_into_square(s3, s3.square.basis, changed))
    assert str(info.value) == "cone target must carry the multiplication action"


def test_cone_target_must_be_the_ring_itself(s3):
    basis = s3.square.basis
    copy = GradedBasis(basis.labels, basis.degrees)
    with pytest.raises(NotAModuleMap) as info:
        mapping_cone(zero_map_into_square(s3, copy))
    assert str(info.value) == "cone target must be the ring itself"


def test_cone_s3_shape(s3):
    cone = cone_model(s3)
    assert cone.algebra.dim() == 6
    s_one = cone.algebra.basis.labels[cone.susp_to_cone[0]]
    assert s_one == "S1"
    delta = dict(cone.delta_table())
    assert str(delta["S1"]) == "1⊗y - y⊗1"
    assert cohomology(cone.algebra).betti_vector(3) == [1, 0, 0, 1]


def test_cone_s2xs3_delta_table_expected_values(s2xs3):
    cone = cone_model(s2xs3)
    assert cone.algebra.dim() == 20
    delta = {label: str(elem) for label, elem in cone.delta_table()}
    assert delta == {
        "S1": "1⊗xy + x⊗y - y⊗x - xy⊗1",
        "Sx": "x⊗xy - xy⊗x",
        "Sy": "-y⊗xy - xy⊗y",
        "Sxy": "-xy⊗xy",
    }
    assert cohomology(cone.algebra).betti_vector(10) == [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]
    assert oracle_betti(cone.algebra) == [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]


def test_cone_rejects_a_suspension_with_a_flipped_action_sign(monkeypatch, s2xs3):
    # rule (ii) comes from the suspension, rule (iii) is derived by hand:
    # one flipped sign in the suspension's action makes the two disagree
    from cdga_config import cone
    from cdga_config.poincare import check_pd

    real_suspend = cone.suspend

    def flipped(module, k, label=None):
        susp = real_suspend(module, k, label)
        r, b = susp.ring.basis.index("1⊗y"), susp.basis.index("s(s^-5(1))")
        action = [list(rows) for rows in susp._action]
        action[r][b] = {t: -c for t, c in action[r][b].items()}
        return DGModule(susp.ring, susp.basis, action, susp._diff, name=susp.name)

    monkeypatch.setattr(cone, "suspend", flipped)
    fresh = check_pd(s2xs3.algebra, s2xs3.n, s2xs3.epsilon)
    with pytest.raises(StructureError) as info:
        cone_model(fresh)
    assert str(info.value) == ("semi-trivial product is inconsistent: "
                               "inconsistent duplicate product entry for (S1, 1⊗y)")


@pytest.mark.parametrize("name", PRESETS)
def test_cone_passes_axioms(name):
    # the semi-trivial product needs every sign convention to line up;
    # associativity over all basis triples is the primary guard
    cone = cone_model(preset_pd(name))
    assert check_cdga(cone.algebra).all_pass


@pytest.mark.parametrize("name", PRESETS)
def test_semi_trivial_rule_derivations_agree(name):
    # rule (iii) directly vs derived from rule (ii) + commutativity
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
            action = source.act_basis(r, b)
            expected = Element(alg, {})
            sign = (-1) ** (bdeg[b] * rdeg[r])
            for t, c in action.items():
                expected = expected + Element(alg, {cone.susp_to_cone[t]: sign * c})
            assert direct == expected
            # and the commutativity route
            sign_comm = (-1) ** ((bdeg[b] + 1) * rdeg[r])
            assert direct == (er * sb).scale(sign_comm)


@pytest.mark.parametrize("name", PRESETS)
def test_inclusion_of_square_is_a_cochain_algebra_map(name):
    pd = preset_pd(name)
    cone = cone_model(pd)
    square = pd.square
    alg = cone.algebra
    for i in range(square.dim()):
        ei = square.basis_element(i)
        assert cone.include_base(square.d(ei)) == alg.d(cone.include_base(ei))
        for j in range(square.dim()):
            ej = square.basis_element(j)
            assert cone.include_base(square.multiply(ei, ej)) == (
                cone.include_base(ei) * cone.include_base(ej)
            )


@pytest.mark.parametrize("name", PRESETS)
def test_cone_betti_equals_quotient_model_betti(name):
    pd = preset_pd(name)
    cone = cone_model(pd)
    top = cone.algebra.basis.max_degree()
    assert cohomology(cone.algebra).betti_vector(top) == quotient_by_diagonal(pd).betti(top)


@pytest.mark.parametrize("name,expected", [("s2", [1, 0, 1]), ("s4", [1, 0, 0, 0, 1])])
def test_even_model_spheres(name, expected):
    pd = preset_pd(name)
    model = even_model(pd)
    top = len(expected) - 1
    assert model.betti(top) == expected
    assert oracle_betti(model.quotient.algebra)[: top + 1] == expected


def test_even_model_rejects_odd(s3):
    with pytest.raises(OddDimension):
        even_model(s3)


@pytest.mark.parametrize("name", ["s2", "s4", "cp2"])
def test_top_ideal_is_acyclic_differential_ideal(name):
    pd = preset_pd(name)
    cone = cone_model(pd)
    generators = top_ideal_generators(cone)
    quotient = quotient_dga(cone.algebra, ideal_span(cone.algebra, generators))
    assert quotient.subspace.is_acyclic()
    # quotient keeps the full cohomology
    top = cone.algebra.basis.max_degree()
    assert quotient.betti(top) == cohomology(cone.algebra).betti_vector(top)


def test_even_model_quotient_matches_cone_cohomology(cp2):
    model = even_model(cp2)
    top = model.cone.algebra.basis.max_degree()
    assert model.betti(top) == cohomology(model.cone.algebra).betti_vector(top)


@pytest.mark.parametrize("doubled, message", [
    ("1⊗1", "map does not preserve the unit"),
    ("x⊗y", "map is not multiplicative at (1⊗x, x⊗y)"),
    ("y⊗y", "map is not multiplicative at (1⊗x, y⊗y)"),
])
def test_verify_algebra_map_pins_multiplicativity_error(s2xs3, doubled, message):
    from cdga_config.cone import _verify_algebra_map
    from cdga_config.errors import StructureError

    cone = cone_model(s2xs3)
    square = s2xs3.square
    images = [cone.include_base(square.basis_element(t)) for t in range(square.dim())]
    _verify_algebra_map(square, cone.algebra, images)
    t = square.basis.index(doubled)
    images[t] = images[t].scale(2)
    with pytest.raises(StructureError) as info:
        _verify_algebra_map(square, cone.algebra, images)
    assert str(info.value) == message


@pytest.mark.parametrize("doubled, message", [
    ("xy⊗1", "map does not commute with d at S1"),
    ("Sy", "map does not commute with d at Sy"),
])
def test_verify_algebra_map_pins_cochain_error(s2xs3, doubled, message):
    from cdga_config.cone import _verify_algebra_map
    from cdga_config.errors import StructureError

    alg = cone_model(s2xs3).algebra
    images = [alg.basis_element(i) for i in range(alg.dim())]
    _verify_algebra_map(alg, alg, images)
    t = alg.basis.index(doubled)
    images[t] = images[t].scale(2)
    with pytest.raises(StructureError) as info:
        _verify_algebra_map(alg, alg, images)
    assert str(info.value) == message
