"""Mapping cones with the semi-trivial product, and the even-dimensional
quotient model.

For a module map f: B -> R (target the ring itself), the cone is R + sB
with differential delta(a, sb) = (d a + f(b), -s db) and the product

    (i)   a . a'   as in R
    (ii)  a . sb   = (-1)^|a|      s(a . b)
    (iii) sb . a   = (-1)^(|b||a|) s(a . b)
    (iv)  sb . sb' = 0

Rule (iii) is supplied twice: once directly and once derived from (ii)
plus graded commutativity. The two derivations are stored into the same
one-sided table, so any disagreement aborts construction; the sign
convention is settled by internal consistency, never by a single
hand-written exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import DGAlgebra, Element, GradedBasis, _canonical_pair, check_cdga
from .dgmodule import ModuleMap, suspend
from .errors import AxiomFailure, MixedParents, NotAModuleMap, OddDimension, StructureError
from .linalg import _combine
from .poincare import PDAlgebra, shriek_map
from .quotients import QuotientDGA, Subcomplex, ideal_span, quotient_dga


class MappingCone:
    """Cone of a module map f: B -> R as a CDGA with bookkeeping maps.

    `algebra` is the cone itself; `ring_to_cone[i]` and `susp_to_cone[b]`
    locate the R-part and the suspended part inside the cone basis.
    """

    def __init__(self, f: ModuleMap, suspension_labels: Optional[Sequence[str]] = None,
                 *, name: str = "", pd: Optional[PDAlgebra] = None):
        ring = f.source.ring
        if f.target.basis is not ring.basis:
            raise NotAModuleMap("cone target must be the ring itself")
        rdeg = ring.basis.degrees
        for r, rows in enumerate(f.target._action):
            for m, row in enumerate(rows):
                # compared with the stored one-sided product row
                key, sign = _canonical_pair(r, m, rdeg[r], rdeg[m])
                if sign == -1:
                    row = {k: -c for k, c in row.items()}
                if row != ring._mult.get(key, {}):
                    raise NotAModuleMap("cone target must carry the multiplication action")
        source = f.source
        if suspension_labels is None:
            suspension_labels = [f"s({l})" for l in source.basis.labels]
        if len(suspension_labels) != source.dim():
            raise StructureError("one suspension label per source basis element")

        susp = suspend(source, 1, label=None)
        sdegs = susp.basis.degrees

        items = [(ring.basis.labels[i], ring.basis.degrees[i], ("r", i)) for i in range(ring.dim())]
        items += [(suspension_labels[b], sdegs[b], ("s", b)) for b in range(source.dim())]
        ordered = sorted(items, key=lambda it: it[1])
        labels = [it[0] for it in ordered]
        degrees = [it[1] for it in ordered]
        basis = GradedBasis(labels, degrees)
        ring_to_cone = [0] * ring.dim()
        susp_to_cone = [0] * source.dim()
        for pos, (_, _, tag) in enumerate(ordered):
            kind, idx = tag
            if kind == "r":
                ring_to_cone[idx] = pos
            else:
                susp_to_cone[idx] = pos

        bdeg = source.basis.degrees  # unsuspended degrees: the |b| in rule (iii)

        mult = []
        for i in range(ring.dim()):
            ci = ring_to_cone[i]
            for j in range(i, ring.dim()):
                for k, c in ring.mult_basis(i, j).items():
                    mult.append((ci, ring_to_cone[j], ring_to_cone[k], c))
        for r in range(ring.dim()):
            cr = ring_to_cone[r]
            sign_ii = (-1) ** rdeg[r]
            for b in range(source.dim()):
                row = source.act_basis(r, b)
                if not row:
                    continue
                cb = susp_to_cone[b]
                sign_iii = (-1) ** (bdeg[b] * rdeg[r])
                for t, c in row.items():
                    # rule (ii) and rule (iii); the constructor folds both
                    # into one canonical entry and aborts on disagreement
                    mult.append((cr, cb, susp_to_cone[t], sign_ii * c))
                    mult.append((cb, cr, susp_to_cone[t], sign_iii * c))

        diff = []
        for i in range(ring.dim()):
            for j, c in ring.d_basis(i).items():
                diff.append((ring_to_cone[i], ring_to_cone[j], c))
        for b in range(source.dim()):
            cb = susp_to_cone[b]
            for j, c in f.images[b].coeffs.items():
                diff.append((cb, ring_to_cone[j], c))
            for t, c in susp.d_basis(b).items():
                diff.append((cb, susp_to_cone[t], c))

        try:
            algebra = DGAlgebra(
                basis,
                ring_to_cone[ring.unit],
                mult,
                diff,
                name=name or f"C({f.source.name or 'f'})",
                top_degree=basis.max_degree() if len(basis) else None,
            )
        except StructureError as exc:
            raise StructureError(f"semi-trivial product is inconsistent: {exc}") from exc

        # delta squared is verified, never assumed
        for i, row in enumerate(algebra._diff):
            if _combine(row, algebra._diff):
                raise StructureError(
                    f"cone differential does not square to zero at {algebra.basis.labels[i]}"
                )

        self.algebra = algebra
        self.ring = ring
        self.source = source
        self.map = f
        self.ring_to_cone = tuple(ring_to_cone)
        self.susp_to_cone = tuple(susp_to_cone)
        self.pd = pd
        # the truncation of this cone, filled by `twisted.truncate_cone`
        self._truncation = None

    def include_base(self, x: Element) -> Element:
        """The inclusion R -> cone, r -> (r, 0)."""
        if x.parent is not self.ring:
            raise StructureError("element does not live in the ring")
        return Element(self.algebra, {self.ring_to_cone[i]: c for i, c in x.coeffs.items()})

    def delta_table(self) -> list[tuple[str, Element]]:
        """(suspension label, delta of it) for every suspension generator."""
        out = []
        for b in range(self.source.dim()):
            ci = self.susp_to_cone[b]
            out.append((self.algebra.basis.labels[ci], self.algebra.d(self.algebra.basis_element(ci))))
        return out

    def __repr__(self) -> str:
        return f"MappingCone({self.algebra.name}, dim {self.algebra.dim()})"


def mapping_cone(f: ModuleMap, suspension_labels: Optional[Sequence[str]] = None,
                 *, name: str = "") -> MappingCone:
    """Cone of a verified module map into the ring, with the semi-trivial
    product; delta squared and product consistency checked at build time."""
    return MappingCone(f, suspension_labels, name=name)


def cone_model(pd: PDAlgebra) -> MappingCone:
    """The cone of the shriek map with suspension labels 'S<a>'.

    Runs the full CDGA axiom check on the result; valid Poincare duality
    input must always pass, so a failure is raised, not reported. The cone
    is cached on the (immutable) duality structure, in `pd._cone_model`.
    """
    if pd._cone_model is not None:
        return pd._cone_model
    f = shriek_map(pd)
    labels = [f"S{l}" for l in pd.algebra.basis.labels]
    cone = MappingCone(f, labels, name=f"C({pd.algebra.name or 'A'})", pd=pd)
    report = check_cdga(cone.algebra)
    if not report.all_pass:
        raise AxiomFailure(report)
    pd._cone_model = cone
    return cone


@dataclass
class EvenModel:
    """Quotient of the cone by the acyclic ideal (omega (x) omega, S omega),
    for even formal dimension, with the induced inclusion of the square."""

    cone: MappingCone
    quotient: QuotientDGA
    ideal: Subcomplex
    inclusion_images: tuple[Element, ...]

    def betti(self, up_to: Optional[int] = None) -> list[int]:
        return self.quotient.betti(up_to)


def top_ideal_generators(cone: MappingCone) -> list[Element]:
    """The two generators omega (x) omega and S(omega) inside the cone."""
    pd = cone.pd
    if pd is None:
        raise StructureError("cone does not carry Poincare duality data")
    square = pd.square
    omega = pd.omega
    omega_omega = cone.include_base(square.tensor_elements(omega, omega))
    s_omega = Element(
        cone.algebra,
        {cone.susp_to_cone[b]: c for b, c in omega.coeffs.items()},
    )
    return [omega_omega, s_omega]


def even_model(pd: PDAlgebra) -> EvenModel:
    """Quotient model for even formal dimension.

    Verifies that the ideal generated by omega (x) omega and S(omega) is a
    differential ideal and acyclic, quotients the cone by it, and checks
    that a (x) b -> class of (a (x) b, 0) is a CDGA map.
    """
    if pd.n % 2 != 0:
        raise OddDimension(f"formal dimension {pd.n} is odd")
    cone = cone_model(pd)
    generators = top_ideal_generators(cone)
    vectors = ideal_span(cone.algebra, generators)
    quotient = quotient_dga(cone.algebra, vectors, name=f"{cone.algebra.name}/I")
    if not quotient.subspace.is_acyclic():
        raise StructureError("the top ideal is not acyclic")

    square = pd.square
    images = tuple(
        quotient.project(cone.include_base(square.basis_element(t)))
        for t in range(square.dim())
    )
    _verify_algebra_map(square, quotient.algebra, images)
    return EvenModel(cone, quotient, quotient.subspace, images)


def _verify_algebra_map(source: DGAlgebra, target: DGAlgebra, images: Sequence[Element]) -> None:
    """Check unit, multiplicativity and the cochain property on all basis
    pairs of a map given by images of basis elements, working on the raw
    coefficient dicts."""
    if images[source.unit] != target.one():
        raise StructureError("map does not preserve the unit")
    if any(x.parent is not target for x in images):
        raise MixedParents("images do not belong to the target algebra")
    rows = [x.coeffs for x in images]

    n = source.dim()
    for i in range(n):
        if _combine(source.d_basis(i), rows) != target.d_coeffs(rows[i]):
            raise StructureError(f"map does not commute with d at {source.basis.labels[i]}")
    for i in range(n):
        for j in range(i, n):
            if _combine(source.mult_basis(i, j), rows) != target.multiply_coeffs(rows[i], rows[j]):
                raise StructureError(
                    f"map is not multiplicative at ({source.basis.labels[i]}, {source.basis.labels[j]})"
                )
