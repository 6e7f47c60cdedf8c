from fractions import Fraction as F
from pathlib import Path

import pytest

from cdga_config import products
from cdga_config.algebra import AlgebraMap, DGAlgebra, TensorAlgebra, check_cdga, same_structure
from cdga_config.errors import StructureError
from cdga_config.io import load_algebra_file
from cdga_config.poincare import check_pd
from cdga_config.presets import PRESET_NAMES, preset_pd
from cdga_config.products import diagonal_correspondence, product_pd

import oracles

TENSOR = "⊗"

PAIR_PRESETS = ["s2", "s3", "s4", "s5", "cp2"]


def test_tensor_with_unit_factor(point=None):
    point = preset_pd("point")
    s2 = preset_pd("s2")
    t = TensorAlgebra(s2.algebra, point.algebra)
    # isomorphic copy of the left factor with relabeled basis
    relabel = {"1": f"1{TENSOR}1", "x": f"x{TENSOR}1"}
    assert same_structure(s2.algebra, t, relabel)


def _squared():
    """Every preset, and two products of ladder size, s2xs3 (x) cp2 and
    s2xs3 (x) s3xs4, whose squares have dimension 144 and 256."""
    return [pytest.param(name, id=name) for name in PRESET_NAMES] + [
        pytest.param(spec, id="-".join(spec)) for spec in (("s2xs3", "cp2"), ("s2xs3", "s3xs4"))]


@pytest.mark.parametrize("spec", _squared())
def test_tensor_squares_match_the_all_pairs_loop(spec):
    pd = preset_pd(spec) if isinstance(spec, str) else product_pd(*map(preset_pd, spec))
    t = TensorAlgebra(pd.algebra, pd.algebra)
    reference = DGAlgebra(t.basis, t.unit, oracles.naive_tensor_mult(t))
    assert t.mult_entries() == reference.mult_entries()


def test_tensor_koszul_signs(s3):
    square = TensorAlgebra(s3.algebra, s3.algebra)
    y1 = square.from_label_coeffs({f"y{TENSOR}1": F(1)})
    oney = square.from_label_coeffs({f"1{TENSOR}y": F(1)})
    assert (y1 * y1).is_zero()
    assert oney * y1 == square.from_label_coeffs({f"y{TENSOR}y": F(-1)})


def test_tensor_s2_s3_is_the_product_preset(s2, s3, s2xs3):
    t = TensorAlgebra(s2.algebra, s3.algebra)
    relabel = {
        "1": f"1{TENSOR}1",
        "x": f"x{TENSOR}1",
        "y": f"1{TENSOR}y",
        "xy": f"x{TENSOR}y",
    }
    assert same_structure(s2xs3.algebra, t, relabel)


@pytest.mark.parametrize("left,right", [("s2", "s3"), ("s3", "s3"), ("cp2", "s2")])
def test_tensor_passes_axioms(left, right):
    t = TensorAlgebra(preset_pd(left).algebra, preset_pd(right).algebra)
    assert check_cdga(t).all_pass


@pytest.mark.parametrize(
    "names",
    [("s2", "s3", "cp2"), ("s3", "s3", "s3"), ("s2", "s2", "s5"), ("cp2", "s4", "s2"), ("s2xs3", "s2", "s3")],
)
def test_tensor_associative_up_to_relabeling(names):
    a, b, c = (preset_pd(n).algebra for n in names)
    left = TensorAlgebra(TensorAlgebra(a, b), c)
    right = TensorAlgebra(a, TensorAlgebra(b, c))
    relabel = {}
    for i in range(a.dim()):
        for j in range(b.dim()):
            for k in range(c.dim()):
                p = left.basis.labels[left.pair_index(left.left.pair_index(i, j), k)]
                q = right.basis.labels[right.pair_index(i, right.right.pair_index(j, k))]
                relabel[p] = q
    assert same_structure(left, right, relabel)


def test_product_pd_s2_s3_matches_preset(s2, s3, s2xs3):
    product = product_pd(s2, s3)
    assert product.n == 5
    relabel = {
        "1": f"1{TENSOR}1",
        "x": f"x{TENSOR}1",
        "y": f"1{TENSOR}y",
        "xy": f"x{TENSOR}y",
    }
    assert same_structure(s2xs3.algebra, product.algebra, relabel)


def test_product_pd_s3_s4_verifies(s3, s4):
    product = product_pd(s3, s4)
    assert product.n == 7
    assert check_cdga(product.algebra).all_pass


def test_product_with_point_returns_other_factor(s2):
    point = preset_pd("point")
    assert product_pd(s2, point) is s2
    assert product_pd(point, s2) is s2


@pytest.mark.parametrize("left,right", [("s2", "s3"), ("s3", "s3"), ("s2", "s2")])
def test_dual_basis_of_product_is_signed_tensor_of_duals(left, right):
    c, b = preset_pd(left), preset_pd(right)
    product = product_pd(c, b)
    t = product.algebra
    duals_c, duals_b = c.dual_basis, b.dual_basis
    for idx in range(t.dim()):
        i, j = t.factors_of(idx)
        expected = t.tensor_elements(duals_c[i], duals_b[j])
        dual = product.dual_basis[idx]
        ratios = set()
        assert dual.coeffs.keys() == expected.coeffs.keys()
        for k, v in dual.coeffs.items():
            ratios.add(v / expected.coeffs[k])
        assert len(ratios) == 1 and ratios.pop() in (F(1), F(-1))
        assert product.pairing(t.basis_element(idx), dual) == 1


def test_correspondence_s2_s3_sign_and_betti(s2, s3):
    report = diagonal_correspondence(s2, s3)
    assert report.sign in (F(1), F(-1))
    assert report.shuffle_multiplicative
    assert report.betti_agree
    assert report.quotient_betti_factors == [1, 0, 2, 2, 1, 3, 1, 1, 1, 0, 0]


def test_correspondence_s3_s3(s3):
    report = diagonal_correspondence(s3, s3)
    assert report.betti_agree
    assert report.shuffle_multiplicative
    assert report.product.n == 6 and report.product.algebra.left is s3.algebra


def test_correspondence_point_trivial(s2):
    point = preset_pd("point")
    report = diagonal_correspondence(s2, point)
    assert report.sign == 1
    assert report.betti_agree
    assert report.product is s2


PRESET_PAIRS = [(a, b) for i, a in enumerate(PAIR_PRESETS) for b in PAIR_PRESETS[i:]]


@pytest.mark.parametrize("left,right", PRESET_PAIRS)
def test_correspondence_all_preset_pairs(left, right):
    report = diagonal_correspondence(preset_pd(left), preset_pd(right))
    assert report.betti_agree
    assert report.shuffle_multiplicative
    assert report.sign in (F(1), F(-1))


def _record_shuffle(monkeypatch, edit=None):
    """Rebind `products._shuffle_rows` so that it hands out its rows after
    `edit(source, rows)` and records the source, target and rows it gave."""
    seen = {}
    original = products._shuffle_rows

    def recording(cc_bb, aa):
        rows = original(cc_bb, aa)
        if edit is not None:
            edit(cc_bb, rows)
        seen.update(source=cc_bb, target=aa, rows=rows)
        return rows

    monkeypatch.setattr(products, "_shuffle_rows", recording)
    return seen


@pytest.mark.parametrize("left,right", PRESET_PAIRS)
def test_shuffle_check_matches_oracle(monkeypatch, left, right):
    seen = _record_shuffle(monkeypatch)
    report = diagonal_correspondence(preset_pd(left), preset_pd(right))
    assert report.shuffle_multiplicative
    assert oracles.oracle_shuffle_multiplicative(seen["source"], seen["target"], seen["rows"])


def _flip_unit(source, rows):
    # the unit has degree 0, so the diagonals never meet it and only the
    # product check can notice the flip: f(1 * 1) = -f(1) != f(1) f(1)
    rows[source.unit] = {t: -c for t, c in rows[source.unit].items()}


def test_shuffle_check_rejects_a_flipped_sign(monkeypatch, s2, s3):
    seen = _record_shuffle(monkeypatch, _flip_unit)
    report = diagonal_correspondence(s2, s3)
    assert not report.shuffle_multiplicative
    assert not oracles.oracle_shuffle_multiplicative(seen["source"], seen["target"], seen["rows"])


def _duplicate_target(source, rows):
    rows[source.unit] = dict(rows[source.unit + 1])


def _double_unit(source, rows):
    rows[source.unit] = {t: 2 * c for t, c in rows[source.unit].items()}


@pytest.mark.parametrize("edit", [_duplicate_target, _double_unit], ids=["duplicate", "double"])
def test_shuffle_check_rejects_a_map_that_is_not_a_signed_permutation(monkeypatch, s2, s3, edit):
    _record_shuffle(monkeypatch, edit)
    with pytest.raises(StructureError, match="not a signed permutation"):
        diagonal_correspondence(s2, s3)


# --- the swap of a tensor square ----------------------------------------------

# the fattened sphere E(5, 2), and its copy that breaks the Leibniz rule
SWAP_INPUTS = [name for name in PRESET_NAMES if name != "point"] + ["e5_2", "e5_2_leibniz"]


def _swap_pd(name):
    if name.startswith("e5_2"):
        return check_pd(*load_algebra_file(Path(__file__).parent / "data" / f"{name}.json")[:3])
    return preset_pd(name)


def _swap_images(square, rows):
    return [square.element(row) for row in rows]


@pytest.mark.parametrize("name", SWAP_INPUTS)
def test_swap_is_an_involutive_algebra_map_that_fixes_the_diagonal_up_to_sign(name):
    pd = _swap_pd(name)
    square, swap = pd.square, pd.square.swap
    swap.verify()
    assert oracles.naive_verify_algebra_map(square, square, _swap_images(square, swap.rows)) is None
    assert swap.then(swap).rows == tuple({t: 1} for t in range(square.dim()))
    assert swap(pd.diagonal) == pd.diagonal.scale((-1) ** pd.n)


@pytest.mark.parametrize("name, message", [
    ("s2xs3", "map is not multiplicative at (1⊗x, y⊗y)"),
    ("s3xs4", "map is not multiplicative at (1⊗x, x⊗y)"),
    ("e5_2", "map does not commute with d at u⊗t"),
])
def test_a_swap_with_one_odd_sign_flipped_fails(name, message):
    """The first row e_i (x) e_j with i != j, both of odd degree, negated:
    `verify` and the check over every pair give the same witness."""
    pd = _swap_pd(name)
    square = pd.square
    odd = {i for i, d in enumerate(pd.algebra.basis.degrees) if d % 2}
    t = next(t for t in range(square.dim())
             if (pair := square.factors_of(t))[0] != pair[1] and set(pair) <= odd)
    rows = tuple({k: -c for k, c in row.items()} if s == t else row
                 for s, row in enumerate(square.swap.rows))
    with pytest.raises(StructureError) as info:
        AlgebraMap(square, square, rows).verify()
    assert str(info.value) == message
    with pytest.raises(StructureError) as info:
        oracles.naive_verify_algebra_map(square, square, _swap_images(square, rows))
    assert str(info.value) == message
