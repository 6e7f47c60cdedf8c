"""Truncation of the cone, the twisted family C(xi), the
quotient-by-diagonal model, the comparison isomorphism on cohomology, and
the equivalence ideal.

The truncation keeps (A (x) A)^(<2n-1) plus the suspensions S a with
|a| < n. On it, products of two suspensions vanish for degree reasons with
one exception: (S1)^2 lands in degree 2n-2 and can be set to any xi there
when n is odd. For even n graded commutativity forces (S1)^2 = 0, so a
nonzero xi is rejected, and C(0) is the even-dimensional model
(`cone.even_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (
    AlgebraMap,
    AxiomReport,
    Coeffs,
    DGAlgebra,
    Element,
    betti_vector,
    check_cdga,
    cohomology,
    cocycle_vectors,
    same_structure,
)
from .cone import MappingCone, cone_model
from .errors import (
    AxiomFailure,
    EvenDimensionNonzeroXi,
    NotACocycle,
    OddDimension,
    PhiNotBijective,
    StructureError,
    WrongDegree,
    ZeroFormalDimension,
)
from .linalg import (Parameters, Scalar, _at_point, _columns, _combine, _projection, _residues,
                     invert, kernel_basis, row_space_basis, solve)
from .poincare import PDAlgebra
from .quotients import QuotientDGA, Subcomplex, ideal_span, quotient_dga


@dataclass(frozen=True)
class TruncatedCone:
    """The cone modulo everything of degree >= 2n-1, with its projection,
    and C(Xi), the whole family C(xi) as one model on it.

    `base_rows`, the rows of `cone.inclusion.then(quotient.projection)`,
    do not depend on xi: every C(xi) built on this truncation shares them.

    `generic` is C(Xi): the truncation with (S1)^2 = sum_t X_t *
    base_rows[t], S1 the basis element `s1_index`, with one symbol X_t
    (of a `linalg.Parameters`) for each basis element e_t of
    (A (x) A)^(2n-2), listed in `symbols`, so that C(xi) is this model at
    X_t = xi_t. In even formal dimension the family is {0}: there are no
    symbols, and the model is C(0), which `cone.even_model` returns.
    `axioms` is the report of `check_cdga` on it. `verified` says that
    it passed and so did `AlgebraMap.verify` of `base_rows` into it. Every
    C(xi) that is an instance of it takes its report (see `instance`).

    `betti` is the truncation's Betti vector in degrees 0 to the cone's
    top degree, computed once by `truncate_cone` for its check that the
    projection preserves Betti numbers. Every C(xi), verified or not,
    takes its Betti numbers from it (see `TwistedModel.betti`).

    This is the one owner of everything a C(xi) shares with its
    truncation: a `TwistedModel` keeps only its truncation, its twist,
    its algebra and its report, and reads the rest from here.
    """

    cone: MappingCone
    quotient: QuotientDGA
    base_rows: tuple[dict[int, Scalar], ...]
    generic: DGAlgebra
    s1_index: int
    symbols: tuple[int, ...]
    axioms: AxiomReport
    verified: bool
    betti: tuple[int, ...]

    @property
    def algebra(self) -> DGAlgebra:
        return self.quotient.algebra

    def instance(self, xi: Element) -> tuple[DGAlgebra, bool]:
        """C(xi), the truncation with (S1)^2 the image of xi under
        `base_rows` (`DGAlgebra.with_square`, unchecked beyond the
        entries of that row), and whether it is the verified C(Xi) at
        X_t = xi_t. xi's coefficients are rationals, or rational
        functions of one `Parameters`. The comparison is exact: C(xi) has
        C(Xi)'s basis, unit and rows of d, every product row but (S1, S1)
        is equal to C(Xi)'s (the same object, as both come from
        `with_square` on the truncation; `_same_but_square`), and its
        (S1, S1) row is C(Xi)'s evaluated at xi."""
        if xi.parent is not self.cone.ring:
            raise StructureError("element does not live in the ring")
        name = f"C({'0' if xi.is_zero() else 'xi'}) over {self.cone.pd.algebra.name or 'A'}"
        generic, s1 = self.generic, self.s1_index
        model = self.algebra.with_square(s1, _combine(xi.coeffs, self.base_rows), name=name)
        return model, (self.verified and _same_but_square(model, generic, s1)
                       and model._mult[s1][s1] == self.at(generic._mult[s1][s1], xi))

    def at(self, row: Coeffs, xi: Element) -> Coeffs:
        """`row`, a row of C(Xi) or of a quotient built from it, at
        X_t = xi_t."""
        return _at_point(row, {k: xi.coeffs.get(t, 0) for k, t in enumerate(self.symbols)})


def _same_but_square(model: DGAlgebra, generic: DGAlgebra, s1: int) -> bool:
    """Whether `model` has `generic`'s basis, unit, rows of d and every
    product row but (s1, s1), compared as objects first: each is the
    same object when both algebras come from `with_square` on one
    algebra."""
    rows, generic_rows = model._mult[s1], generic._mult[s1]
    return (model.basis is generic.basis and model.unit == generic.unit
            and model._diff == generic._diff
            and model._mult[:s1] == generic._mult[:s1]
            and model._mult[s1 + 1:] == generic._mult[s1 + 1:]
            and rows[:s1] == generic_rows[:s1] and rows[s1 + 1:] == generic_rows[s1 + 1:])


def truncate_cone(cone: MappingCone) -> TruncatedCone:
    """Quotient the cone by the span of all basis elements of degree
    >= 2n-1 (for 1-connected input that span is exactly omega (x) omega
    and S omega).

    Verifies the span is an acyclic sub-dg-module and that the projection
    preserves Betti numbers degreewise, then builds and checks C(Xi) on it
    (see `TruncatedCone`). The result is cached on the cone, in
    `cone._truncation`.
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
    cone_betti = betti_vector(alg, top)
    betti = betti_vector(quotient.algebra, top)
    if betti != cone_betti:
        raise StructureError("truncation does not preserve cohomology")
    base_rows = cone.inclusion.then(quotient.projection).rows
    try:
        s1_index = quotient.kept.index(cone.susp_to_cone[pd.algebra.unit])
    except ValueError:
        raise StructureError("the suspended unit was truncated away") from None
    square = pd.square
    symbols = square.basis.degree_indices(2 * pd.n - 2) if pd.n % 2 else ()
    params = Parameters([f"X[{square.basis.labels[t]}]" for t in symbols])
    row = _combine({t: params.symbol(k) for k, t in enumerate(symbols)}, base_rows)
    generic = quotient.algebra.with_square(s1_index, row,
                                           name=f"C(Xi) over {pd.algebra.name or 'A'}")
    axioms = check_cdga(generic)
    verified = axioms.all_pass
    if verified:
        try:
            AlgebraMap(square, generic, base_rows).verify()
        except StructureError:
            verified = False
    trunc = TruncatedCone(cone, quotient, base_rows, generic, s1_index, symbols, axioms, verified,
                          tuple(betti))
    cone._truncation = trunc
    return trunc


@dataclass
class TwistedModel:
    """The truncation `trunc` with the product twisted so that
    (S1)^2 = xi, and the report `axioms` that `build_cxi` gave it.

    `algebra` carries the twisted product; all else C(xi) shares with its
    truncation is read from `trunc`, its one owner: S1, the `base_rows`
    that give (S1)^2 as the image of xi, and the Betti vector (`betti`).
    """

    trunc: TruncatedCone
    xi: Element
    algebra: DGAlgebra
    axioms: AxiomReport

    def s1(self) -> Element:
        return self.algebra.basis_element(self.trunc.s1_index)

    def s1_square(self) -> Element:
        s1 = self.s1()
        return self.algebra.multiply(s1, s1)

    def betti(self, up_to: Optional[int] = None) -> list[int]:
        """The Betti numbers of `algebra` in degrees 0 to `up_to` (by
        default its top degree), as the rank route `betti_vector(algebra)`
        gives them, read from the truncation's vector.

        Why they are the truncation's. `build_cxi` makes `algebra` by
        `DGAlgebra.with_square` on the truncation, so its basis and its
        rows of d are the truncation's own objects; only the (S1, S1)
        product differs. `betti_vector` reads the degrees of the basis and
        the rows of d, and no product: its d^2 test and every block of d
        whose rank it takes are the truncation's, so each Betti number is.
        d^2 = 0 held there, in the two `betti_vector` calls of
        `truncate_cone`, and `check_cdga` tested it again on C(Xi), which
        shares these rows.
        The truncation's vector reaches the cone's top degree, which no
        basis element of the truncation exceeds; above it every Betti
        number is 0.
        """
        if up_to is None:
            up_to = self.algebra.basis.max_degree()
        kept = self.trunc.betti
        return [kept[k] if k < len(kept) else 0 for k in range(up_to + 1)]


def build_cxi(pd: PDAlgebra, xi: Element) -> TwistedModel:
    """The twisted model with (S1)^2 = xi, xi in (A (x) A)^(2n-2).

    The coefficients of xi are rationals, or rational functions of the
    symbols of one `linalg.Parameters`: then the model is the whole family
    C(xi(p)) at once (`sullivan.TableDocument.symbolic` builds its target so).
    Order of checks: a nonzero xi in even dimension is rejected first (the
    square of the odd-degree element S1 vanishes by graded commutativity),
    then the degree of xi is validated. Only the (S1, S1) product depends
    on xi: the model shares the truncation's basis, d and every other
    product row (`DGAlgebra.with_square`, which checks each entry of the
    new row).

    The result is a CDGA and the map from the tensor square is a CDGA
    morphism. Both are proved once for the whole family, on the generic
    model C(Xi) of the truncation (`TruncatedCone`), and per xi by an exact
    instance check (`TruncatedCone.instance`). When C(Xi) failed a check or
    the model is not an instance of it, `check_cdga` and
    `AlgebraMap.verify` run on this model itself, over the parameters
    for a family, so a failure raises the same `AxiomFailure` or
    `StructureError`, witness included, as when every C(xi) was checked
    on its own.

    Why an instance needs no check of its own. Let ev: Q[X] -> Q send X_t
    to xi_t. The entries of C(Xi) are rationals and, in the (S1, S1) row,
    polynomials of degree 1 in the X_t; the instance check shows that the
    tables of C(xi) are ev of those of C(Xi), entry by entry (a missing
    entry is 0). Every comparison that `check_cdga` and
    `AlgebraMap.verify` make, over all basis tuples, sets two sparse
    vectors side by side, each a sum of products of table entries times
    integers; there is no division. ev is a ring homomorphism, so each
    side computed on C(xi) is ev of the same side computed on C(Xi). For
    a family, ev may send X_t to xi_t(q, r) in Q[q, r] (or its field of
    fractions), and it is still a ring homomorphism. Both checks passed
    on C(Xi), so by their lemmas every comparison of their sweeps over all
    tuples holds there, in Q[X], and hence at xi: C(xi)'s report is
    C(Xi)'s, every axiom passing.
    """
    _check_twist(pd, xi)
    trunc = truncate_cone(cone_model(pd))
    twisted, covered = trunc.instance(xi)
    if covered:
        return TwistedModel(trunc, xi, twisted, trunc.axioms)
    report = check_cdga(twisted)
    if not report.all_pass:
        raise AxiomFailure(report)
    AlgebraMap(pd.square, twisted, trunc.base_rows).verify()
    return TwistedModel(trunc, xi, twisted, report)


def _check_twist(pd: PDAlgebra, xi: Element) -> None:
    """`build_cxi`'s preconditions on xi, in its order."""
    if xi.parent is not pd.square:
        raise StructureError("xi must live in the tensor square")
    if not xi.is_zero():
        if pd.n % 2 == 0:
            raise EvenDimensionNonzeroXi(
                f"(S1)^2 is forced to vanish for even formal dimension {pd.n}"
            )
        if xi.degree() != 2 * pd.n - 2:
            raise WrongDegree(
                f"xi must be homogeneous of degree {2 * pd.n - 2}, got {_degrees_found(xi)}"
            )


def _degrees_found(elem: Element) -> str:
    """The degree of a nonzero element, or the degrees of its terms when
    it is not homogeneous, for a `WrongDegree` message."""
    degrees = sorted({elem.parent.basis.degrees[i] for i in elem.coeffs})
    if len(degrees) == 1:
        return str(degrees[0])
    return f"terms of degrees {', '.join(map(str, degrees[:-1]))} and {degrees[-1]}"


def quotient_by_diagonal(pd: PDAlgebra) -> QuotientDGA:
    """The quotient of the tensor square by the ideal generated by the
    diagonal class, with well-definedness of the induced product checked.
    In formal dimension 0 the diagonal class is the unit of the square, so
    the quotient would be zero; that is a `ZeroFormalDimension`."""
    square = pd.square
    if pd.n == 0:
        unit = square.basis.labels[square.unit]
        raise ZeroFormalDimension(f"formal dimension 0: the diagonal class is the unit {unit}, "
                                  "so the quotient by it would be zero")
    return quotient_dga(
        square, ideal_span(square, [pd.diagonal]), name=f"{square.name}/(diag)"
    )


# --- the comparison isomorphism on cohomology ------------------------------


@dataclass
class PhiMap:
    """Matrix data of [a] -> [a (x) omega] from H^(n-2)(A) to
    H^(2n-2)(A (x) A) / (diagonal classes), in the chosen bases.

    `matrix` and `inverse` are dense rows. `_target_projection[j]` is the
    class of the j-th representative of H^(2n-2)(A (x) A) in quotient
    coordinates: the `linalg._projection` of the residue table of the
    diagonal classes, as `quotient_dga` builds its projection."""

    pd: PDAlgebra
    matrix: list[list[Scalar]]
    inverse: list[list[Scalar]]
    domain_representatives: tuple[Element, ...]
    _target_reps: tuple[Element, ...]
    _target_cobs: tuple[Element, ...]
    _target_projection: list[Coeffs]

    @property
    def dimension(self) -> int:
        return len(self.domain_representatives)

    def target_class_coordinates(self, elem: Element) -> list[Scalar]:
        """Coordinates of a degree-(2n-2) cocycle's class in the quotient
        basis; independent route for checking images of the map."""
        coords = _class_coordinates(
            self.pd.square, 2 * self.pd.n - 2, elem, self._target_reps, self._target_cobs
        )
        image = _combine(dict(enumerate(coords)), self._target_projection)
        return [image.get(q, 0) for q in range(self.dimension)]


def _class_coordinates(space, k: int, vec_elem: Element,
                       reps: Sequence[Element], cobs: Sequence[Element]) -> list[Scalar]:
    """Coordinates of a cocycle's class in the chosen representative basis,
    solved against representatives + coboundaries."""
    idx = space.basis.degree_indices(k)
    columns = [r.coeffs for r in reps] + [c.coeffs for c in cobs]
    coeffs = solve(_columns(columns, idx), vec_elem.vector(idx), len(columns))
    if coeffs is None:
        raise StructureError("element is not a cocycle in the expected class space")
    return coeffs[: len(reps)]


def _cocycles_times_diagonal(pd: PDAlgebra) -> list[tuple[Element, Element]]:
    """The pairs (z, z . diag), z running over the basis of the cocycles of
    degree n-2 of A (x) A that `cocycle_vectors` gives."""
    square = pd.square
    idx = square.basis.degree_indices(pd.n - 2)
    pairs = []
    for vec in cocycle_vectors(square, pd.n - 2):
        z = Element(square, {i: c for i, c in zip(idx, vec) if c})
        pairs.append((z, square.multiply(z, pd.diagonal)))
    return pairs


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
    ideal_rows = []
    for _, product in _cocycles_times_diagonal(pd):
        if product.is_zero():
            continue
        coords = _class_coordinates(square, deg_tgt, product, tgt_reps, tgt_cobs)
        if any(coords):
            ideal_rows.append(coords)
    dim_tgt = len(tgt_reps)
    kept, projection = _projection(_residues(row_space_basis(ideal_rows, dim_tgt), range(dim_tgt)),
                                   range(dim_tgt))

    columns = []
    for rep in dom_reps:
        image = square.tensor_elements(rep, pd.omega)
        if not square.d(image).is_zero():
            raise StructureError("a (x) omega failed to be a cocycle")
        coords = _class_coordinates(square, deg_tgt, image, tgt_reps, tgt_cobs)
        columns.append(_combine(dict(enumerate(coords)), projection))

    matrix = _columns(columns, range(len(kept)))
    if len(kept) != len(dom_reps):
        kind = "NotSurjective" if len(kept) > len(dom_reps) else "NotInjective"
        raise PhiNotBijective(kind, f"matrix is {len(kept)}x{len(dom_reps)}")
    inverse = invert(matrix)
    if inverse is None:
        null = kernel_basis(matrix, len(dom_reps))
        witness = None
        if null:
            parts = [
                f"{c}*[{dom_reps[i]}]" for i, c in enumerate(null[0]) if c
            ]
            witness = " + ".join(parts)
        raise PhiNotBijective("NotInjective", witness)
    return PhiMap(pd, matrix, inverse, tuple(dom_reps),
                  tuple(tgt_reps), tuple(tgt_cobs), projection)


def c_of_x(pd: PDAlgebra, x: Element) -> TwistedModel:
    """The twisted model attached to a cohomology class of degree n-2,
    using the representative xi = x (x) omega."""
    if x.parent is not pd.algebra:
        raise StructureError("the class representative must live in A")
    if not x.is_zero() and x.degree() != pd.n - 2:
        raise WrongDegree(f"expected degree {pd.n - 2}, got {_degrees_found(x)}")
    if not pd.algebra.d(x).is_zero():
        raise NotACocycle(f"d({x}) = {pd.algebra.d(x)}")
    xi = pd.square.tensor_elements(x, pd.omega)
    return build_cxi(pd, xi)


# --- the equivalence ideal --------------------------------------------------


@dataclass(frozen=True)
class EquivalenceIdeal:
    """The acyclic differential ideal I = S + dS + (diag)^(>n) + S(A^+)
    inside the cone, and everything else deciding two twists needs. None
    of it depends on the twists; `equivalence_ideal` builds it all at once.

    `truncation` is the cone's truncation, with C(Xi), that the rest is
    formed on. `matrix` is [z . diag | d e_i] over (A (x) A)^(2n-2), as
    dense rows, with one column per cocycle z of degree n-2 and one per
    basis element e_i of degree 2n-3. `columns` names, per column, the
    part of the witness its coefficient scales ("diag" for w, "exact" for
    eta) and the element it scales; its length is the column count, which
    a system without rows keeps. `generators` are the rref rows of I projected into the
    truncation, the zero ones dropped. `quotient` is C(Xi)/I, the quotient
    of the truncation's generic model by them. It is None when C(Xi) is
    not verified or its quotient failed a check; every comparison then
    takes the per-xi route (`_quotients_by_ideal_match`).
    """

    subcomplex: Subcomplex
    cocycle_complement: tuple[Element, ...]   # S, inside (A (x) A)^(2n-3)
    complement_images: tuple[Element, ...]    # d(S)
    diagonal_multiples: tuple[Element, ...]   # (a (x) b) diag for positive a (x) b
    positive_suspensions: tuple[Element, ...] # S a for a of positive degree
    truncation: TruncatedCone
    matrix: tuple[tuple[Scalar, ...], ...]
    columns: tuple[tuple[str, Element], ...]
    generators: tuple[Coeffs, ...]
    quotient: Optional[QuotientDGA]

    def contains(self, elem: Element) -> bool:
        return self.subcomplex.contains(elem)

    def betti(self) -> dict[int, int]:
        return self.subcomplex.betti()


def equivalence_ideal(pd: PDAlgebra) -> EquivalenceIdeal:
    """Construct and verify the equivalence ideal, with the system matrix,
    the projected generators and C(Xi)/I (see `EquivalenceIdeal`).

    S is the rref-pivot complement of the cocycles in (A (x) A)^(2n-3),
    deterministic by construction; the ideal is verified closed under the
    differential and under multiplication by the whole cone, and acyclic.
    It depends only on the duality algebra, so it is cached on the cone,
    in `cone._equivalence_ideal`. Its preconditions, odd formal dimension
    and a 1-connected algebra, are checked before anything is built.
    """
    if pd.n % 2 == 0:
        raise OddDimension(f"formal dimension {pd.n} is even")
    if not pd.algebra.simply_connected:
        raise StructureError("the equivalence ideal requires a 1-connected algebra")
    cone = cone_model(pd)
    if cone._equivalence_ideal is not None:
        return cone._equivalence_ideal
    square = pd.square
    alg = cone.algebra
    n = pd.n

    deg_s = 2 * n - 3
    idx_s = square.basis.degree_indices(deg_s)
    cocycles = row_space_basis(cocycle_vectors(square, deg_s), len(idx_s))
    pivots = _residues(cocycles, idx_s)
    complement = tuple(square.basis_element(i) for i in idx_s if i not in pivots)
    complement_images = tuple(square.d(s) for s in complement)

    diagonal_multiples = []
    for t in range(square.dim()):
        if square.basis.degrees[t] == 0:
            continue
        product = square.multiply(square.basis_element(t), pd.diagonal)
        if not product.is_zero():
            diagonal_multiples.append(cone.inclusion(product))

    positive_suspensions = []
    for b in range(pd.algebra.dim()):
        if pd.algebra.basis.degrees[b] > 0:
            positive_suspensions.append(alg.basis_element(cone.susp_to_cone[b]))

    vectors = (
        [cone.inclusion(s) for s in complement]
        + [cone.inclusion(ds) for ds in complement_images if not ds.is_zero()]
        + diagonal_multiples
        + positive_suspensions
    )
    sub = Subcomplex(alg, vectors)
    if not sub.closed_under_multiplication():
        raise StructureError("equivalence ideal is not closed under multiplication")
    if not sub.is_acyclic():
        raise StructureError("equivalence ideal is not acyclic")

    pairs = _cocycles_times_diagonal(pd)
    matrix = _columns([product.coeffs for _, product in pairs] + [square._diff[i] for i in idx_s],
                      square.basis.degree_indices(2 * n - 2))
    columns = ([("diag", z) for z, _ in pairs]
               + [("exact", square.basis_element(i)) for i in idx_s])

    trunc = truncate_cone(cone)
    projected = (_combine(gen, trunc.quotient.projection.rows)
                 for gens in sub.bases.values() for gen in gens)
    generators = tuple(g for g in projected if g)
    quotient = None
    if trunc.verified:
        try:
            quotient = _ideal_quotient(trunc.generic, generators)
        except StructureError:
            pass
    cone._equivalence_ideal = EquivalenceIdeal(
        subcomplex=sub,
        cocycle_complement=complement,
        complement_images=complement_images,
        diagonal_multiples=tuple(diagonal_multiples),
        positive_suspensions=tuple(positive_suspensions),
        truncation=trunc,
        matrix=tuple(map(tuple, matrix)),
        columns=tuple(columns),
        generators=generators,
        quotient=quotient,
    )
    return cone._equivalence_ideal


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
    NotDecidedHere otherwise. After the twists, the preconditions of
    `equivalence_ideal` are checked (odd formal dimension, a 1-connected
    algebra), before any solve, so every pair of twists on one algebra
    meets the same checks. The ideal, fetched once, owns the system's
    matrix, the projected generators and C(Xi)/I (`EquivalenceIdeal`); a
    decision solves the matrix for xi - xi2, verifies the decomposition,
    and compares two rows of C(Xi)/I evaluated at xi and at xi2
    (`_quotients_by_ideal_match`).
    """
    square = pd.square
    want = 2 * pd.n - 2
    for name, elem in (("xi", xi), ("xi2", xi2)):
        if elem.parent is not square:
            raise StructureError(f"{name} must live in the tensor square")
        if not elem.is_zero() and elem.degree() != want:
            raise WrongDegree(f"{name} must be homogeneous of degree {want}, "
                              f"got {_degrees_found(elem)}")
        if not square.d(elem).is_zero():
            raise NotACocycle(f"d({name}) != 0")

    ideal = equivalence_ideal(pd)
    difference = xi - xi2
    coeffs = solve(ideal.matrix, difference.vector(square.basis.degree_indices(want)),
                   len(ideal.columns))
    if coeffs is None:
        return NotDecidedHere(
            "the twists define different classes modulo the diagonal ideal"
        )

    w = square.zero()
    eta = square.zero()
    for c, (kind, elem) in zip(coeffs, ideal.columns):
        if not c:
            continue
        if kind == "diag":
            w = w + elem.scale(c)
        else:
            eta = eta + elem.scale(c)
    if square.multiply(w, pd.diagonal) + square.d(eta) != difference:
        raise StructureError("decomposition verification failed")

    in_ideal = ideal.contains(ideal.truncation.cone.inclusion(difference))
    iso = _quotients_by_ideal_match(pd, ideal, xi, xi2)
    return EquivalentWitness(w=w, eta=eta, difference_in_ideal=in_ideal,
                             quotients_isomorphic=iso)


def _ideal_quotient(model: DGAlgebra, generators: Sequence[Coeffs]) -> QuotientDGA:
    """`model`, C(Xi) or a C(xi) on the truncation, modulo the span of
    the projected generators of I, closure under d and multiplication
    checked by `quotient_dga`."""
    return quotient_dga(model, [Element(model, g) for g in generators], name=f"{model.name}/I")


def _quotients_by_ideal_match(pd: PDAlgebra, ideal: EquivalenceIdeal,
                              xi: Element, xi2: Element) -> bool:
    """Whether C(xi)/I and C(xi2)/I have the same structure constants on
    the basis they share: the truncation's basis modulo the generators of
    I projected into it.

    Both quotients are instances of C(Xi)/I, formed once per cone by
    `_ideal_quotient` on the generic model C(Xi), over rational functions
    in the X_t. The residue rows of I are rational, so forming the
    quotient only adds and multiplies table entries and never divides by
    a symbolic value. Let ev send X_t to xi_t, a ring homomorphism. If the
    tables of C(xi) are ev of those of C(Xi), then each residue, product
    row and d row that `quotient_dga` computes on C(xi) is ev of the one
    it computed on C(Xi). The closure residues on C(Xi) were identically
    zero, so they vanish at xi: C(xi)/I is well defined, with C(Xi)/I's
    basis and the tables of C(Xi)/I evaluated at xi. Only the (S1, S1)
    row of C(Xi) holds symbols, and of all the quotient's rows only the
    (S1, S1) row reads it; every other row of C(xi)/I is C(Xi)/I's own
    rational row. So the two quotients have the same structure constants
    exactly when C(Xi)/I's (S1, S1) row takes the same value at xi and at
    xi2.

    The premise is checked exactly per xi, by the instance check of
    `build_cxi`, `TruncatedCone.instance`, on the truncation that C(Xi)/I
    was formed on (`ideal.truncation`). When C(Xi) is not verified,
    its quotient failed a check, or either instance check fails, both
    quotients are formed per xi, by `_ideal_quotient` on `build_cxi`, and
    compared with `same_structure`.
    """
    if ideal.quotient is not None:
        rows = [_quotient_square_at(ideal, twist) for twist in (xi, xi2)]
        if None not in rows:
            return rows[0] == rows[1]
    quotients = [_ideal_quotient(build_cxi(pd, twist).algebra, ideal.generators).algebra
                 for twist in (xi, xi2)]
    return same_structure(quotients[0], quotients[1])


def _quotient_square_at(ideal: EquivalenceIdeal, xi: Element) -> Optional[Coeffs]:
    """The (S1, S1) row of C(xi)/I, as the row of the ideal's C(Xi)/I at
    xi, or None when C(xi) is not, at xi, the C(Xi) that C(Xi)/I was
    formed on."""
    trunc, quotient = ideal.truncation, ideal.quotient
    if not trunc.instance(xi)[1]:
        return None
    # S1 is kept: no vector spanning I has an S1 coordinate
    q1 = quotient.kept.index(trunc.s1_index)
    return trunc.at(quotient.algebra._mult[q1][q1], xi)
