"""Pinned witnesses of the module checks, and a comparison of those checks
with the one-`Element`-at-a-time references in `oracles.py`.

Every check raises on its first failing tuple in a fixed order; the tests
below edit one entry of a valid module, map or cone and pin the exact
message. Perturbed copies are built through the public constructors from
`act_basis` and `d_basis`, so they do not depend on how a module stores
its tables.
"""

import random
from fractions import Fraction

import pytest

from cdga_config.algebra import DGAlgebra, GradedBasis
from cdga_config.cone import MappingCone, cone_model
from cdga_config.dgmodule import DGModule, ModuleMap, ring_as_module, suspend
from cdga_config.errors import NotAModuleMap, StructureError
from cdga_config.linalg import _exact
from cdga_config.poincare import algebra_as_square_module, check_pd, desuspended_module, shriek_map
from cdga_config.presets import PRESET_NAMES, preset_pd
from cdga_config.products import product_pd

from oracles import naive_verify_module, naive_verify_module_map


def tables(module):
    """The action and differential of a module as constructor input: one
    row per (ring, module) basis pair and one per module basis element."""
    action = [[module.act_basis(r, m) for m in range(module.dim())]
              for r in range(module.ring.dim())]
    diff = [module.d_basis(i) for i in range(module.dim())]
    return action, diff


def rebuilt(module, action, diff):
    """The module with the edited tables; an edit may cancel an entry or
    leave an integral Fraction, so entries are cleaned first, as the
    constructor requires."""
    def clean(row):
        return {k: _exact(c) for k, c in row.items() if c}

    return DGModule(module.ring, module.basis, [[clean(row) for row in rows] for rows in action],
                    [clean(row) for row in diff], name=module.name)


def small_ring():
    """1, a, b in degrees 0, 1, 2 with d a = b."""
    basis = GradedBasis(["1", "a", "b"], [0, 1, 2])
    return DGAlgebra(basis, 0, [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1)], [(1, 2, 1)])


def small_pd():
    """1, a, b, ab in degrees 0 to 3 with d a = b: a Poincare duality
    algebra of formal dimension 3 with a nonzero differential."""
    basis = GradedBasis(["1", "a", "b", "ab"], [0, 1, 2, 3])
    mult = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1), (1, 2, 3, 1)]
    return check_pd(DGAlgebra(basis, 0, mult, [(1, 2, 1)], name="L"), 3, {"ab": 1})


def failure(check, *args):
    """(exception type name, message) of the check, or None if it passes."""
    try:
        check(*args)
    except (StructureError, NotAModuleMap) as exc:
        return type(exc).__name__, str(exc)
    return None


# --- the tables a module is given ----------------------------------------------


def _algebras():
    """Every preset algebra and one cone."""
    return [preset_pd(name).algebra for name in PRESET_NAMES] + [cone_model(preset_pd("s3")).algebra]


@pytest.mark.parametrize("algebra", _algebras(), ids=[*PRESET_NAMES, "cone-s3"])
def test_ring_as_module_shares_the_ring_rows(algebra):
    module = ring_as_module(algebra)
    n = algebra.dim()
    assert all(module._action[r][m] is algebra._mult[r][m] for r in range(n) for m in range(n))
    assert all(module._diff[i] is algebra._diff[i] for i in range(n))


def test_suspension_shares_the_rows_whose_sign_is_one():
    module = desuspended_module(preset_pd("s2xs3"))
    rdegs = module.ring.basis.degrees
    pairs = [(r, m) for r in range(module.ring.dim()) for m in range(module.dim())]
    for k in (-2, 2, 1):
        susp = suspend(module, k)
        shared = {(r, m) for r, m in pairs if susp._action[r][m] is module._action[r][m]}
        assert shared == {(r, m) for r, m in pairs if k * rdegs[r] % 2 == 0 or not module._action[r][m]}
        assert all((susp._diff[i] is row) == (k % 2 == 0 or not row)
                   for i, row in enumerate(module._diff))
        assert all(susp.act_basis(r, m) == {t: (-1) ** (k * rdegs[r]) * c
                                            for t, c in module.act_basis(r, m).items()}
                   for r, m in pairs)


@pytest.mark.parametrize("edit, message", [
    (lambda action, diff: action.pop(), "module action and differential tables have the wrong shape"),
    (lambda action, diff: action[1].pop(), "module action and differential tables have the wrong shape"),
    (lambda action, diff: diff.append({}), "module action and differential tables have the wrong shape"),
    (lambda action, diff: action[1].__setitem__(1, {2: 0}),
     "module row entry 0 is not a nonzero canonical scalar"),
    (lambda action, diff: action[0].__setitem__(2, {2: Fraction(2, 1)}),
     "module row entry Fraction(2, 1) is not a nonzero canonical scalar"),
    (lambda action, diff: diff.__setitem__(1, {2: True}),
     "module row entry True is not a nonzero canonical scalar"),
    (lambda action, diff: action[1].__setitem__(1, {1: 1}), "module action violates degrees"),
    (lambda action, diff: diff.__setitem__(0, {2: 1}),
     "module differential does not raise degree by 1"),
], ids=["ring-rows", "module-rows", "differential-rows", "zero", "integral-fraction", "bool",
        "action-degree", "differential-degree"])
def test_constructor_checks_every_entry(edit, message):
    module = ring_as_module(small_ring())
    action, diff = tables(module)
    edit(action, diff)
    with pytest.raises(StructureError) as exc:
        DGModule(module.ring, module.basis, action, diff)
    assert str(exc.value) == message


# --- DGModule.verify -----------------------------------------------------------


def test_module_witness_on_a_hand_built_ring():
    module = ring_as_module(small_ring())
    action, diff = tables(module)
    action[1][1] = {2: 1}
    with pytest.raises(StructureError) as exc:
        rebuilt(module, action, diff).verify()
    assert str(exc.value) == "module action is not associative at (a, a, 1)"


@pytest.fixture(scope="module")
def s2xs3_module():
    return desuspended_module(preset_pd("s2xs3"))


def test_module_witness_at_the_unit(s2xs3_module):
    module = s2xs3_module
    action, diff = tables(module)
    m = module.basis.index("s^-5(x)")
    action[module.ring.unit][m] = {m: 2}
    with pytest.raises(StructureError) as exc:
        rebuilt(module, action, diff).verify()
    assert str(exc.value) == "unit does not act as identity on s^-5(x)"


def test_module_witness_at_associativity(s2xs3_module):
    module = s2xs3_module
    action, diff = tables(module)
    r, m = module.ring.basis.index("x⊗1"), module.basis.index("s^-5(1)")
    action[r][m] = {k: 2 * c for k, c in action[r][m].items()}
    with pytest.raises(StructureError) as exc:
        rebuilt(module, action, diff).verify()
    assert str(exc.value) == "module action is not associative at (1⊗y, x⊗1, s^-5(1))"


def test_module_witness_at_leibniz(s2xs3_module):
    module = s2xs3_module
    action, diff = tables(module)
    diff[module.basis.index("s^-5(x)")] = {module.basis.index("s^-5(y)"): 1}
    with pytest.raises(StructureError) as exc:
        rebuilt(module, action, diff).verify()
    assert str(exc.value) == "module Leibniz rule fails at (1⊗x, s^-5(1))"


def test_module_differential_must_square_to_zero():
    # a, b, c in degrees 0, 1, 2 over the point, with d a = b and d b = c:
    # the unit and the Leibniz rule hold, d d a = c does not vanish
    ring = preset_pd("point").algebra
    basis = GradedBasis(["a", "b", "c"], [0, 1, 2])
    module = DGModule(ring, basis, [[{0: 1}, {1: 1}, {2: 1}]], [{1: 1}, {2: 1}, {}])
    message = ("StructureError", "module differential does not square to zero at a")
    assert failure(module.verify) == message
    assert failure(naive_verify_module, module) == message


# --- ModuleMap.verify and the cone's delta squared ----------------------------


def test_module_map_witness_at_d():
    f = shriek_map(small_pd())
    images = list(f.images)
    images[1] = images[1].scale(2)
    with pytest.raises(NotAModuleMap) as exc:
        ModuleMap(f.source, f.target, images)
    assert str(exc.value) == "does not commute with d at s^-3(a)"


def test_module_map_witness_at_the_action():
    f = shriek_map(preset_pd("s2xs3"))
    images = list(f.images)
    images[1] = images[1].scale(2)
    with pytest.raises(NotAModuleMap) as exc:
        ModuleMap(f.source, f.target, images)
    assert str(exc.value) == "does not commute with the action at (1⊗x, s^-5(1))"


def test_cone_delta_squared_witness():
    f = shriek_map(small_pd())
    images = list(f.images)
    images[1] = images[1].scale(2)
    f.images = tuple(images)
    with pytest.raises(StructureError) as exc:
        MappingCone(f)
    assert str(exc.value) == "cone differential does not square to zero at s(s^-3(a))"


# --- agreement with the references on seeded perturbations --------------------

MODULE_PRESETS = ["s2", "s3", "cp2", "s2xs3", "s3xs4"]
CHANGES = [1, -1, 2, Fraction(1, 2)]


def perturbed_module(seed):
    """A preset module (or the module over `small_pd`) with one action entry
    or one differential entry changed in a degree the constructor accepts.
    From seed 24 on, the module is s2xs3 x s2 over its square, a ring of
    dimension 64."""
    rng = random.Random(seed)
    if seed >= 24:
        module = algebra_as_square_module(product_pd(preset_pd("s2xs3"), preset_pd("s2")))
    else:
        pd = small_pd() if seed % 6 == 5 else preset_pd(rng.choice(MODULE_PRESETS))
        module = rng.choice([desuspended_module, algebra_as_square_module])(pd)
    action, diff = tables(module)
    rdegs, degs = module.ring.basis.degrees, module.basis.degrees
    while True:
        if rng.random() < 0.7:
            r, m = rng.randrange(len(rdegs)), rng.randrange(len(degs))
            slots = module.basis.degree_indices(rdegs[r] + degs[m])
            table, key = action[r], m
        else:
            m = rng.randrange(len(degs))
            slots = module.basis.degree_indices(degs[m] + 1)
            table, key = diff, m
        if slots:
            break
    row = dict(table[key])
    k = rng.choice(slots)
    row[k] = row.get(k, 0) + rng.choice(CHANGES)
    table[key] = row
    return rebuilt(module, action, diff)


def perturbed_map(seed):
    """The shriek map of a preset (or of `small_pd`) with one coefficient of
    one image changed within the image's degree."""
    rng = random.Random(seed)
    pd = small_pd() if seed % 4 == 3 else preset_pd(rng.choice(MODULE_PRESETS))
    f = shriek_map(pd)
    images = list(f.images)
    i = rng.randrange(len(images))
    k = rng.choice(f.target.basis.degree_indices(f.source.basis.degrees[i]))
    coeffs = dict(images[i].coeffs)
    coeffs[k] = coeffs.get(k, 0) + rng.choice(CHANGES)
    images[i] = f.target.element(coeffs)
    return f.source, f.target, images


@pytest.mark.parametrize("seed", range(30))
def test_module_verify_agrees_with_the_reference(seed):
    module = perturbed_module(seed)
    assert failure(module.verify) == failure(naive_verify_module, module)


@pytest.mark.parametrize("seed", range(16))
def test_module_map_verify_agrees_with_the_reference(seed):
    source, target, images = perturbed_map(seed)
    assert failure(ModuleMap, source, target, images) == \
        failure(naive_verify_module_map, source, target, images)


@pytest.mark.parametrize("name", MODULE_PRESETS)
def test_unperturbed_modules_pass_both(name):
    pd = preset_pd(name)
    for module in (desuspended_module(pd), algebra_as_square_module(pd)):
        assert failure(module.verify) is None
        assert failure(naive_verify_module, module) is None
    f = shriek_map(pd)
    assert failure(naive_verify_module_map, f.source, f.target, list(f.images)) is None
