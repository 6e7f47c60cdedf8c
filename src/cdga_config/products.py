"""Tensor products of graded algebras with Koszul signs, products of
Poincare duality algebras, and the diagonal correspondence for products.

The tensor product multiplies by

    (a (x) b) . (a' (x) b') = (-1)^(|a'| |b|)  a a' (x) b b'

and differentiates by d(a (x) b) = da (x) b + (-1)^|a| a (x) db. Basis
pairs are ordered by (degree, left index, right index) so printed elements
list 1(x)top before top(x)1, matching the usual diagonal-class notation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .algebra import AlgebraMap, DGAlgebra, Element, GradedBasis
from .errors import CorrespondenceFailure, StructureError
from .linalg import Scalar, _combine, _divide

if TYPE_CHECKING:
    from .poincare import PDAlgebra

TENSOR = "⊗"


def _wrap(label: str) -> str:
    return f"({label})" if TENSOR in label else label


def tensor_label(la: str, lb: str) -> str:
    return f"{_wrap(la)}{TENSOR}{_wrap(lb)}"


class TensorAlgebra(DGAlgebra):
    """Koszul-signed tensor product of two DGAlgebras.

    Keeps factor bookkeeping: `pair_index(i, j)` is the basis index of
    e_i (x) e_j and `factors_of` inverts it.
    """

    def __init__(self, left: DGAlgebra, right: DGAlgebra, *, name: str = ""):
        self.left = left
        self.right = right
        ldeg, rdeg = left.basis.degrees, right.basis.degrees
        pairs = sorted(
            ((i, j) for i in range(left.dim()) for j in range(right.dim())),
            key=lambda p: (ldeg[p[0]] + rdeg[p[1]], p[0], p[1]),
        )
        self._pairs = tuple(pairs)
        self._pair_index = {p: t for t, p in enumerate(pairs)}
        labels = [tensor_label(left.basis.labels[i], right.basis.labels[j]) for i, j in pairs]
        degrees = [ldeg[i] + rdeg[j] for i, j in pairs]
        basis = GradedBasis(labels, degrees)

        top = None
        if left.top_degree is not None and right.top_degree is not None:
            top = left.top_degree + right.top_degree

        # only pairs whose factor products are both nonzero contribute
        index = self._pair_index
        lpairs = [(i, i2, row) for i, rows in enumerate(left._mult)
                  for i2, row in enumerate(rows) if row]
        rpairs = [(j, j2, row) for j, rows in enumerate(right._mult)
                  for j2, row in enumerate(rows) if row]
        mult = []
        for i, i2, lrow in lpairs:
            for j, j2, rrow in rpairs:
                t1, t2 = index[(i, j)], index[(i2, j2)]
                if t2 < t1:
                    continue
                sign = (-1) ** (ldeg[i2] * rdeg[j])
                for k, a in lrow.items():
                    for l, b in rrow.items():
                        mult.append((t1, t2, index[(k, l)], sign * a * b))

        diff = []
        for t, (i, j) in enumerate(pairs):
            for k, c in left._diff[i].items():
                diff.append((t, self._pair_index[(k, j)], c))
            sign = (-1) ** ldeg[i]
            for l, c in right._diff[j].items():
                diff.append((t, self._pair_index[(i, l)], sign * c))

        super().__init__(
            basis,
            self._pair_index[(left.unit, right.unit)],
            mult,
            diff,
            name=name or f"{left.name or '?'}{TENSOR}{right.name or '?'}",
            top_degree=top,
            simply_connected=left.simply_connected and right.simply_connected,
        )

    def pair_index(self, i: int, j: int) -> int:
        return self._pair_index[(i, j)]

    def factors_of(self, t: int) -> tuple[int, int]:
        return self._pairs[t]

    def tensor_elements(self, x: Element, y: Element) -> Element:
        """The element x (x) y (bilinear, no signs: signs live in products)."""
        if x.parent is not self.left or y.parent is not self.right:
            raise StructureError("factors live in the wrong algebras")
        coeffs = {}
        for i, a in x.coeffs.items():
            for j, b in y.coeffs.items():
                coeffs[self._pair_index[(i, j)]] = a * b
        return Element(self, coeffs)

    @property
    def swap(self) -> AlgebraMap:
        """The map a (x) b -> (-1)^(|a||b|) b (x) a (needs left == right)."""
        if self.left is not self.right:
            raise StructureError("swap needs both factors equal")
        degs = self.left.basis.degrees
        return AlgebraMap(self, self, tuple({self._pair_index[(j, i)]: (-1) ** (degs[i] * degs[j])}
                                            for i, j in self._pairs))


def _is_unit_algebra(a: DGAlgebra) -> bool:
    return a.dim() == 1 and a.basis.degrees[0] == 0


def product_pd(c, b):
    """Poincare duality structure on the tensor product of two PD algebras.

    Orientation: eps(u (x) v) = eps_C(u) eps_B(v) on the top degree, formal
    dimension n_C + n_B. A factor equal to the unit algebra returns the
    other factor unchanged.
    """
    from .poincare import check_pd

    if _is_unit_algebra(c.algebra):
        return b
    if _is_unit_algebra(b.algebra):
        return c
    ta = TensorAlgebra(c.algebra, b.algebra)
    n = c.n + b.n
    epsilon = {}
    for t in ta.basis.degree_indices(n):
        i, j = ta.factors_of(t)
        if c.algebra.basis.degrees[i] == c.n and b.algebra.basis.degrees[j] == b.n:
            value = c.epsilon.get(i, 0) * b.epsilon.get(j, 0)
            if value:
                epsilon[t] = value
    return check_pd(ta, n, epsilon)


@dataclass
class CorrespondenceReport:
    """Outcome of comparing the two diagonal data of a product.

    `sign` relates the shuffled tensor of the factor diagonals to the
    product diagonal: shuffle(diag_C (x) diag_B) = sign * diag_{C x B}.
    The sign is determined empirically per pair, never assumed.
    `product` is the product duality algebra the comparison was made on,
    as `product_pd` built it: the other factor when one factor is the
    unit algebra.
    """

    sign: Scalar
    shuffle_multiplicative: bool
    quotient_betti_factors: list[int]
    quotient_betti_product: list[int]
    product: PDAlgebra = field(compare=False, repr=False)

    @property
    def betti_agree(self) -> bool:
        return self.quotient_betti_factors == self.quotient_betti_product


def _shuffle_rows(cc_bb: TensorAlgebra, aa: TensorAlgebra) -> list[dict[int, Scalar]]:
    """Basis images of the Koszul shuffle (C(x)C)(x)(B(x)B) -> (C(x)B)(x)(C(x)B),

        (c1(x)c2)(x)(b1(x)b2) |-> (-1)^(|c2||b1|) (c1(x)b1)(x)(c2(x)b2),

    one coefficient row per basis index of the factor square."""
    cc: TensorAlgebra = cc_bb.left          # C (x) C
    bb: TensorAlgebra = cc_bb.right         # B (x) B
    a: TensorAlgebra = aa.left              # C (x) B
    cdeg = cc.left.basis.degrees
    bdeg = bb.left.basis.degrees
    rows = []
    for t in range(cc_bb.dim()):
        p, q = cc_bb.factors_of(t)
        c1, c2 = cc.factors_of(p)
        b1, b2 = bb.factors_of(q)
        target = aa.pair_index(a.pair_index(c1, b1), aa.right.pair_index(c2, b2))
        rows.append({target: (-1) ** (cdeg[c2] * bdeg[b1])})
    return rows


def diagonal_correspondence(c, b) -> CorrespondenceReport:
    """Check that the shuffle sends diag_C (x) diag_B onto the diagonal of
    the product, and that the two quotient models agree degreewise.

    Raises CorrespondenceFailure when the shuffled element is not a
    rational multiple of the product diagonal, and StructureError when the
    shuffle is not a signed permutation of the basis.
    """
    from .quotients import ideal_span, quotient_dga
    from .twisted import quotient_by_diagonal

    if _is_unit_algebra(c.algebra) or _is_unit_algebra(b.algebra):
        # a unit factor makes the shuffle the identity; both quotient
        # models are literally the quotient of the surviving factor
        survivor = b if _is_unit_algebra(c.algebra) else c
        betti = quotient_by_diagonal(survivor).betti(survivor.square.basis.max_degree())
        return CorrespondenceReport(
            sign=1,
            shuffle_multiplicative=True,
            quotient_betti_factors=betti,
            quotient_betti_product=list(betti),
            product=survivor,
        )

    a = product_pd(c, b)
    cc = c.square
    bb = b.square
    cc_bb = TensorAlgebra(cc, bb)
    aa = a.square

    diag_a = a.diagonal
    tensor_of_diagonals = cc_bb.tensor_elements(c.diagonal, b.diagonal)

    rows = _shuffle_rows(cc_bb, aa)
    # each row must be one entry of 1 or -1, e_t -> eps_t f_sigma(t), with
    # sigma a bijection onto the basis of the product square
    sigma = [t for row in rows for t in row]
    eps = [v for row in rows for v in row.values()]
    if (any(len(row) != 1 for row in rows) or sorted(sigma) != list(range(aa.dim()))
            or set(eps) - {1, -1}):
        raise StructureError("the shuffle is not a signed permutation of the basis")
    shuffled = Element(aa, _combine(tensor_of_diagonals.coeffs, rows))

    sign: Optional[Scalar] = None
    if shuffled.coeffs.keys() == diag_a.coeffs.keys():
        ratios = {_divide(shuffled.coeffs[k], diag_a.coeffs[k]) for k in shuffled.coeffs}
        if len(ratios) == 1:
            sign = ratios.pop()
    if sign is None:
        raise CorrespondenceFailure(str(shuffled), str(diag_a))

    # The shuffle sends e_t to eps_t f_sigma(t), so it is multiplicative
    # exactly when eps_i eps_j eps_k c = (f_sigma(i) f_sigma(j))_sigma(k) for
    # every term c e_k of every e_i e_j (each sign squares to 1): the
    # relabelled product row against the one it must equal.
    n = cc_bb.dim()
    multiplicative = all(
        {sigma[k]: eps[i] * eps[j] * eps[k] * c for k, c in cc_bb._mult[i][j].items()}
        == aa._mult[sigma[i]][sigma[j]]
        for i in range(n) for j in range(n))

    q_factors = quotient_dga(
        cc_bb, ideal_span(cc_bb, [tensor_of_diagonals]), name="factor-square/(diag)")
    q_product = quotient_by_diagonal(a)
    top = aa.basis.max_degree()
    return CorrespondenceReport(
        sign=sign,
        shuffle_multiplicative=multiplicative,
        quotient_betti_factors=q_factors.betti(top),
        quotient_betti_product=q_product.betti(top),
        product=a,
    )
