"""Odd-dimensional machinery: truncation of the cone, the twisted family
C(xi), the quotient-by-diagonal model, the comparison isomorphism on
cohomology, and the equivalence ideal.

The truncation keeps (A (x) A)^(<2n-1) plus the suspensions S a with
|a| < n. On it, products of two suspensions vanish for degree reasons with
one exception: (S1)^2 lands in degree 2n-2 and can be set to any xi there
when n is odd. For even n graded commutativity forces (S1)^2 = 0, so a
nonzero xi is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    AxiomReport,
    DGAlgebra,
    Element,
    check_cdga,
    cohomology,
    cocycle_vectors,
)
from .cone import MappingCone, _verify_algebra_map, cone_model
from .errors import (
    AxiomFailure,
    EvenDimensionNonzeroXi,
    NotACocycle,
    OddDimension,
    PhiNotBijective,
    StructureError,
    WrongDegree,
)
from .linalg import SparseMatrix, invert, quotient_data, row_space_basis, solve
from .poincare import PDAlgebra, diagonal_class
from .quotients import QuotientDGA, Subcomplex, ideal_span, quotient_dga


@dataclass
class TruncatedCone:
    """The cone modulo everything of degree >= 2n-1, with its projection."""

    cone: MappingCone
    quotient: QuotientDGA

    @property
    def algebra(self) -> DGAlgebra:
        return self.quotient.algebra


def truncate_cone(cone: MappingCone) -> TruncatedCone:
    """Quotient the cone by the span of all basis elements of degree
    >= 2n-1 (for 1-connected input that span is exactly omega (x) omega
    and S omega).

    Verifies the span is an acyclic sub-dg-module and that the projection
    preserves Betti numbers degreewise. The result is cached on the cone,
    in `cone._truncation`.
    """
    if cone._truncation is not None:
        return cone._truncation
    pd = cone.pd
    if pd is None:
        raise StructureError("cone does not carry Poincare duality data")
    cut = 2 * pd.n - 1
    alg = cone.algebra
    vectors = [
        alg.basis_element(i)
        for i in range(alg.dim())
        if alg.basis.degrees[i] >= cut
    ]
    quotient = quotient_dga(alg, vectors, name=f"{alg.name}|<{cut}")
    if not quotient.subspace.is_acyclic():
        raise StructureError("the truncated part is not acyclic")
    top = alg.basis.max_degree()
    if cohomology(alg).betti_vector(top) != cohomology(quotient.algebra).betti_vector(top):
        raise StructureError("truncation does not preserve cohomology")
    trunc = TruncatedCone(cone, quotient)
    cone._truncation = trunc
    return trunc


@dataclass
class TwistedModel:
    """The truncation with the product twisted so that (S1)^2 = xi.

    `algebra` carries the twisted product; `base_images` realise the map
    from the tensor square (projection on the algebra part, zero on the
    suspension), verified multiplicative at construction.
    """

    pd: PDAlgebra
    xi: Element
    algebra: DGAlgebra
    cone: MappingCone
    truncation: QuotientDGA
    s1_index: int
    base_images: tuple[Element, ...]
    axioms: AxiomReport

    def s1(self) -> Element:
        return self.algebra.basis_element(self.s1_index)

    def s1_square(self) -> Element:
        s1 = self.s1()
        return self.algebra.multiply(s1, s1)

    def project_from_square(self, x: Element) -> Element:
        """Image of an element of A (x) A in the twisted model."""
        projected = self.truncation.project(self.cone.include_base(x))
        return Element(self.algebra, projected.coeffs)

    def project_from_cone(self, x: Element) -> Element:
        projected = self.truncation.project(x)
        return Element(self.algebra, projected.coeffs)

    def betti(self, up_to: Optional[int] = None) -> list[int]:
        return cohomology(self.algebra).betti_vector(up_to)


def build_cxi(pd: PDAlgebra, xi: Element) -> TwistedModel:
    """The twisted model with (S1)^2 = xi, xi in (A (x) A)^(2n-2).

    Order of checks: a nonzero xi in even dimension is rejected first (the
    square of the odd-degree element S1 vanishes by graded commutativity),
    then the degree of xi is validated. The result passes the exhaustive
    CDGA axiom check, which is run here, and the map from the tensor square
    is verified to be a CDGA morphism.
    """
    square = pd.square
    if xi.parent is not square:
        raise StructureError("xi must live in the tensor square")
    if not xi.is_zero():
        if pd.n % 2 == 0:
            raise EvenDimensionNonzeroXi(
                f"(S1)^2 is forced to vanish for even formal dimension {pd.n}"
            )
        if xi.degree() != 2 * pd.n - 2:
            raise WrongDegree(
                f"xi must be homogeneous of degree {2 * pd.n - 2}, got {xi.degree()}"
            )

    cone = cone_model(pd)
    trunc = truncate_cone(cone)
    quotient = trunc.quotient
    semi = quotient.algebra

    s1_ambient = cone.susp_to_cone[pd.algebra.unit]
    try:
        s1_index = quotient.kept.index(s1_ambient)
    except ValueError:
        raise StructureError("the suspended unit was truncated away") from None

    xi_projected = quotient.project(cone.include_base(xi))

    mult = semi.mult_entries()
    for k, c in xi_projected.coeffs.items():
        mult.append((s1_index, s1_index, k, c))
    twisted = DGAlgebra(
        semi.basis,
        semi.unit,
        mult,
        semi.diff_entries(),
        name=f"C(xi) over {pd.algebra.name or 'A'}" if not xi.is_zero() else f"C(0) over {pd.algebra.name or 'A'}",
        top_degree=semi.top_degree,
    )

    report = check_cdga(twisted)
    if not report.all_pass:
        raise AxiomFailure(report)

    base_images = tuple(
        Element(twisted, quotient.project(cone.include_base(square.basis_element(t))).coeffs)
        for t in range(square.dim())
    )
    _verify_algebra_map(square, twisted, base_images)

    return TwistedModel(
        pd=pd,
        xi=xi,
        algebra=twisted,
        cone=cone,
        truncation=quotient,
        s1_index=s1_index,
        base_images=base_images,
        axioms=report,
    )


def quotient_by_diagonal(pd: PDAlgebra) -> QuotientDGA:
    """The quotient of the tensor square by the ideal generated by the
    diagonal class, with well-definedness of the induced product checked."""
    square = pd.square
    diag = diagonal_class(pd).element
    return quotient_dga(
        square, ideal_span(square, [diag]), name=f"{square.name}/(diag)"
    )


# --- the comparison isomorphism on cohomology ------------------------------


@dataclass
class PhiMap:
    """Matrix data of [a] -> [a (x) omega] from H^(n-2)(A) to
    H^(2n-2)(A (x) A) / (diagonal classes), in the chosen bases."""

    pd: PDAlgebra
    matrix: SparseMatrix
    inverse: SparseMatrix
    domain_representatives: tuple[Element, ...]
    target_dimension: int
    _target_reps: tuple[Element, ...]
    _target_cobs: tuple[Element, ...]
    _target_projection: SparseMatrix

    @property
    def dimension(self) -> int:
        return len(self.domain_representatives)

    def target_class_coordinates(self, elem: Element) -> list[Fraction]:
        """Coordinates of a degree-(2n-2) cocycle's class in the quotient
        basis; independent route for checking images of the map."""
        coords = _class_coordinates(
            self.pd.square, 2 * self.pd.n - 2, elem, self._target_reps, self._target_cobs
        )
        return self._target_projection.apply(coords)


def _class_coordinates(space, k: int, vec_elem: Element,
                       reps: Sequence[Element], cobs: Sequence[Element]) -> list[Fraction]:
    """Coordinates of a cocycle's class in the chosen representative basis,
    solved against representatives + coboundaries."""
    idx = space.basis.degree_indices(k)
    columns = [r.vector(idx) for r in reps] + [c.vector(idx) for c in cobs]
    target = vec_elem.vector(idx)
    coeffs = solve(SparseMatrix.from_columns(columns, len(idx)), target)
    if coeffs is None:
        raise StructureError("element is not a cocycle in the expected class space")
    return coeffs[: len(reps)]


def phi(pd: PDAlgebra) -> PhiMap:
    """The linear map [a] -> [a (x) omega] into the cohomology quotient by
    the diagonal ideal, verified square and invertible.

    Requires odd formal dimension and a 1-connected algebra; failing
    bijectivity raises PhiNotBijective with a witness, which must never
    happen for valid input.
    """
    if pd.n % 2 == 0:
        raise OddDimension(f"formal dimension {pd.n} is even")
    if not pd.algebra.simply_connected:
        raise StructureError("the comparison map requires a 1-connected algebra")

    alg = pd.algebra
    square = pd.square
    n = pd.n
    deg_dom = n - 2
    deg_tgt = 2 * n - 2

    h_alg = cohomology(alg).degrees.get(deg_dom)
    dom_reps = h_alg.representatives if h_alg else ()
    h_sq = cohomology(square).degrees.get(deg_tgt)
    tgt_reps = h_sq.representatives if h_sq else ()
    tgt_cobs = h_sq.coboundaries if h_sq else ()

    # image of the diagonal ideal inside H^(2n-2)
    diag = diagonal_class(pd).element
    ideal_rows = []
    idx_mid = square.basis.degree_indices(deg_dom)
    for vec in cocycle_vectors(square, deg_dom):
        z = Element(square, {i: c for i, c in zip(idx_mid, vec) if c})
        product = square.multiply(z, diag)
        if product.is_zero():
            continue
        coords = _class_coordinates(square, deg_tgt, product, tgt_reps, tgt_cobs)
        if any(coords):
            ideal_rows.append(coords)
    _, projection = quotient_data(ideal_rows, len(tgt_reps))

    columns = []
    for rep in dom_reps:
        image = square.tensor_elements(rep, pd.omega)
        if not square.d(image).is_zero():
            raise StructureError("a (x) omega failed to be a cocycle")
        coords = _class_coordinates(square, deg_tgt, image, tgt_reps, tgt_cobs)
        columns.append(projection.apply(coords))

    matrix = SparseMatrix.from_columns(columns, projection.rows)
    if matrix.rows != matrix.cols:
        kind = "NotSurjective" if matrix.rows > matrix.cols else "NotInjective"
        raise PhiNotBijective(kind, f"matrix is {matrix.rows}x{matrix.cols}")
    inverse = invert(matrix) if matrix.rows else SparseMatrix(0, 0)
    if inverse is None:
        from .linalg import kernel_basis

        null = kernel_basis(matrix)
        witness = None
        if null:
            parts = [
                f"{c}*[{dom_reps[i]}]" for i, c in enumerate(null[0]) if c
            ]
            witness = " + ".join(parts)
        raise PhiNotBijective("NotInjective", witness)
    return PhiMap(pd, matrix, inverse, tuple(dom_reps), matrix.rows,
                  tuple(tgt_reps), tuple(tgt_cobs), projection)


def c_of_x(pd: PDAlgebra, x: Element) -> TwistedModel:
    """The twisted model attached to a cohomology class of degree n-2,
    using the representative xi = x (x) omega."""
    if x.parent is not pd.algebra:
        raise StructureError("the class representative must live in A")
    if not x.is_zero() and x.degree() != pd.n - 2:
        raise WrongDegree(f"expected degree {pd.n - 2}, got {x.degree()}")
    if not pd.algebra.d(x).is_zero():
        raise NotACocycle(f"d({x}) = {pd.algebra.d(x)}")
    xi = pd.square.tensor_elements(x, pd.omega)
    return build_cxi(pd, xi)


# --- the equivalence ideal --------------------------------------------------


@dataclass
class EquivalenceIdeal:
    """The acyclic differential ideal S + dS + (diag)^(>n) + S(A^+) inside
    the cone, used to compare twisted models."""

    cone: MappingCone
    subcomplex: Subcomplex
    cocycle_complement: tuple[Element, ...]   # S, inside (A (x) A)^(2n-3)
    complement_images: tuple[Element, ...]    # d(S)
    diagonal_multiples: tuple[Element, ...]   # (a (x) b) diag for positive a (x) b
    positive_suspensions: tuple[Element, ...] # S a for a of positive degree

    def contains(self, elem: Element) -> bool:
        return self.subcomplex.contains(elem)

    def betti(self) -> dict[int, int]:
        return self.subcomplex.betti()


def equivalence_ideal(pd: PDAlgebra) -> EquivalenceIdeal:
    """Construct and verify the equivalence ideal.

    S is the rref-pivot complement of the cocycles in (A (x) A)^(2n-3),
    deterministic by construction; the ideal is verified closed under the
    differential and under multiplication by the whole cone, and acyclic.
    """
    if pd.n % 2 == 0:
        raise OddDimension(f"formal dimension {pd.n} is even")
    if not pd.algebra.simply_connected:
        raise StructureError("the equivalence ideal requires a 1-connected algebra")
    cone = cone_model(pd)
    square = pd.square
    alg = cone.algebra
    n = pd.n

    deg_s = 2 * n - 3
    idx_s = square.basis.degree_indices(deg_s)
    cocycles = row_space_basis(cocycle_vectors(square, deg_s), len(idx_s))
    reps, _ = quotient_data(cocycles, len(idx_s))
    complement = tuple(
        Element(square, {i: c for i, c in zip(idx_s, vec) if c}) for vec in reps
    )
    complement_images = tuple(square.d(s) for s in complement)

    diag = diagonal_class(pd).element
    diagonal_multiples = []
    for t in range(square.dim()):
        if square.basis.degrees[t] == 0:
            continue
        product = square.multiply(square.basis_element(t), diag)
        if not product.is_zero():
            diagonal_multiples.append(product)

    positive_suspensions = []
    for b in range(pd.algebra.dim()):
        if pd.algebra.basis.degrees[b] > 0:
            positive_suspensions.append(alg.basis_element(cone.susp_to_cone[b]))

    vectors = (
        [cone.include_base(s) for s in complement]
        + [cone.include_base(ds) for ds in complement_images if not ds.is_zero()]
        + [cone.include_base(m) for m in diagonal_multiples]
        + positive_suspensions
    )
    sub = Subcomplex(alg, vectors)
    if not sub.closed_under_multiplication():
        raise StructureError("equivalence ideal is not closed under multiplication")
    if not sub.is_acyclic():
        raise StructureError("equivalence ideal is not acyclic")
    return EquivalenceIdeal(
        cone=cone,
        subcomplex=sub,
        cocycle_complement=complement,
        complement_images=complement_images,
        diagonal_multiples=tuple(cone.include_base(m) for m in diagonal_multiples),
        positive_suspensions=tuple(positive_suspensions),
    )


# --- deciding equivalence of twists -----------------------------------------


@dataclass
class EquivalentWitness:
    """Certificate that two twists define the same class modulo the
    diagonal ideal: xi - xi2 = w . diag + d(eta), with the further check
    that both twisted models agree after quotienting the equivalence ideal.
    """

    w: Element
    eta: Element
    difference_in_ideal: bool
    quotients_isomorphic: bool


@dataclass
class NotDecidedHere:
    """The classes differ modulo the diagonal ideal. Equality of classes
    implies equivalence of the twisted models, but only that direction is
    known, so no non-equivalence claim is made at this level. The staged
    obstruction solver can settle tabled examples."""

    reason: str


def decide_xi_equivalence(pd: PDAlgebra, xi: Element, xi2: Element):
    """Decide whether [xi] = [xi2] in H^(2n-2)(A (x) A)/(diagonal classes).

    Returns an EquivalentWitness with the decomposition when they agree,
    NotDecidedHere otherwise.
    """
    square = pd.square
    n = pd.n
    want = 2 * n - 2
    for name, elem in (("xi", xi), ("xi2", xi2)):
        if elem.parent is not square:
            raise StructureError(f"{name} must live in the tensor square")
        if not elem.is_zero() and elem.degree() != want:
            raise WrongDegree(f"{name} must be homogeneous of degree {want}")
        if not square.d(elem).is_zero():
            raise NotACocycle(f"d({name}) != 0")

    difference = xi - xi2
    idx_tgt = square.basis.degree_indices(want)
    diag = diagonal_class(pd).element

    columns: list[list[Fraction]] = []
    column_meta: list[tuple[str, Element]] = []
    idx_mid = square.basis.degree_indices(n - 2)
    for vec in cocycle_vectors(square, n - 2):
        z = Element(square, {i: c for i, c in zip(idx_mid, vec) if c})
        product = square.multiply(z, diag)
        columns.append(product.vector(idx_tgt))
        column_meta.append(("diag", z))
    idx_pre = square.basis.degree_indices(want - 1)
    for i in idx_pre:
        image = square.d(square.basis_element(i))
        columns.append(image.vector(idx_tgt))
        column_meta.append(("exact", square.basis_element(i)))

    coeffs = solve(SparseMatrix.from_columns(columns, len(idx_tgt)), difference.vector(idx_tgt))
    if coeffs is None:
        return NotDecidedHere(
            "the twists define different classes modulo the diagonal ideal"
        )

    w = square.zero()
    eta = square.zero()
    for c, (kind, elem) in zip(coeffs, column_meta):
        if not c:
            continue
        if kind == "diag":
            w = w + elem.scale(c)
        else:
            eta = eta + elem.scale(c)
    if square.multiply(w, diag) + square.d(eta) != difference:
        raise StructureError("decomposition verification failed")

    ideal = equivalence_ideal(pd)
    in_ideal = ideal.contains(ideal.cone.include_base(difference))

    iso = _quotients_by_ideal_match(pd, ideal, xi, xi2)
    return EquivalentWitness(w=w, eta=eta, difference_in_ideal=in_ideal,
                             quotients_isomorphic=iso)


def _quotients_by_ideal_match(pd: PDAlgebra, ideal: EquivalenceIdeal,
                              xi: Element, xi2: Element) -> bool:
    """Compare C(xi)/I and C(xi2)/I by structure constants on the shared
    basis induced by the common truncation."""
    from .algebra import same_structure

    results = []
    for twist in (xi, xi2):
        model = build_cxi(pd, twist)
        projected = []
        for k, rows in ideal.subcomplex.bases.items():
            idx = ideal.cone.algebra.basis.degree_indices(k)
            for row in rows:
                amb = Element(ideal.cone.algebra, {i: c for i, c in zip(idx, row) if c})
                image = model.project_from_cone(amb)
                if not image.is_zero():
                    projected.append(image)
        results.append(quotient_dga(model.algebra, projected,
                                    name=f"{model.algebra.name}/I").algebra)
    return same_structure(results[0], results[1])
