"""Products of Poincare duality algebras, and the diagonal correspondence
for products. The tensor product itself, with its Koszul signs, is
`algebra.TensorAlgebra`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .algebra import AlgebraMap, DGAlgebra, TensorAlgebra
from .errors import CorrespondenceFailure, StructureError
from .linalg import Scalar, _divide
from .poincare import PDAlgebra, check_pd
from .quotients import ideal_span, quotient_dga
from .twisted import quotient_by_diagonal


def _is_unit_algebra(a: DGAlgebra) -> bool:
    return a.dim() == 1 and a.basis.degrees[0] == 0


def product_pd(c, b):
    """Poincare duality structure on the tensor product of two PD algebras.

    Orientation: eps(u (x) v) = eps_C(u) eps_B(v) on the top degree, formal
    dimension n_C + n_B. A factor equal to the unit algebra returns the
    other factor unchanged.
    """
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
    # each row must be one entry of 1 or -1, e_t -> eps_t f_perm(t), with
    # perm a bijection onto the basis of the product square; the map's
    # constructor then checks that the shuffle keeps degrees
    perm = [t for row in rows for t in row]
    eps = [v for row in rows for v in row.values()]
    if (any(len(row) != 1 for row in rows) or sorted(perm) != list(range(aa.dim()))
            or set(eps) - {1, -1}):
        raise StructureError("the shuffle is not a signed permutation of the basis")
    sigma = AlgebraMap(cc_bb, aa, tuple(rows))
    shuffled = sigma(tensor_of_diagonals)

    sign: Optional[Scalar] = None
    if shuffled.coeffs.keys() == diag_a.coeffs.keys():
        ratios = {_divide(shuffled.coeffs[k], diag_a.coeffs[k]) for k in shuffled.coeffs}
        if len(ratios) == 1:
            sign = ratios.pop()
    if sign is None:
        raise CorrespondenceFailure(str(shuffled), str(diag_a))

    # The shuffle sends e_t to eps_t f_perm(t), so it is multiplicative
    # exactly when eps_i eps_j eps_k c = (f_perm(i) f_perm(j))_perm(k) for
    # every term c e_k of every e_i e_j (each sign squares to 1): the
    # relabelled product row against the one it must equal. The pairs
    # i <= j decide it: both tables store (j, i) as (-1)^(|i||j|) (i, j),
    # and the shuffle keeps degrees, so at (j, i) both sides are those at
    # (i, j) times one sign.
    n = cc_bb.dim()
    multiplicative = all(
        {perm[k]: eps[i] * eps[j] * eps[k] * c for k, c in cc_bb._mult[i][j].items()}
        == aa._mult[perm[i]][perm[j]]
        for i in range(n) for j in range(i, n))

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
