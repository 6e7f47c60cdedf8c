"""Quotients of graded algebras by homogeneous subspaces, and graded
subcomplexes with their own cohomology.

Every quotient in the pipeline (by the diagonal ideal, by the acyclic
ideal of the even-dimensional model, by the top truncation, by the
equivalence ideal) goes through `quotient_dga`. A subspace keeps its
per-degree rref rows and one residue table built from them: row i is the
canonical representative of e_i modulo the subspace, which is e_i itself
at a non-pivot coordinate and minus the rest of its rref row at a pivot.
Reducing, testing membership, projecting, and building the quotient's
products and differential are each one `linalg._combine` through that
table. Representatives are the ambient basis vectors at the non-pivot
coordinates of the per-degree rref, so quotient bases keep their ambient
labels and all reports stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Coeffs, DGAlgebra, Element, GradedBasis, cohomology
from .errors import StructureError
from .linalg import Scalar, SparseMatrix, _combine, _pivots, betti_numbers, row_space_basis


def _by_degree(coeffs: Coeffs, degrees: Sequence[int]) -> dict[int, Coeffs]:
    """The homogeneous components of a coefficient dict, keyed by degree."""
    parts: dict[int, Coeffs] = {}
    for i, c in coeffs.items():
        parts.setdefault(degrees[i], {})[i] = c
    return parts


class Subcomplex:
    """A graded subspace of an algebra's underlying complex, with the
    restricted differential.

    `_residue[i]` is the canonical representative of e_i modulo the
    subspace, so the representative of any coefficient dict is its
    `_combine` through the table. Construction verifies d-closure by
    reducing each d-image; `betti` then measures the subcomplex itself, so
    `is_acyclic` certifies acyclicity of differential ideals.
    """

    def __init__(self, ambient: DGAlgebra, vectors: Sequence[Element]):
        self.ambient = ambient
        degrees = ambient.basis.degrees
        by_degree: dict[int, list[list[Scalar]]] = {}
        for v in vectors:
            for k, part in _by_degree(v.coeffs, degrees).items():
                idx = ambient.basis.degree_indices(k)
                by_degree.setdefault(k, []).append([part.get(i, 0) for i in idx])
        self.bases: dict[int, list[list[Scalar]]] = {}
        self._pivots: dict[int, list[int]] = {}
        self._residue: list[Coeffs] = [{i: 1} for i in range(ambient.dim())]
        for k, vecs in sorted(by_degree.items()):
            idx = ambient.basis.degree_indices(k)
            rows = row_space_basis(vecs, len(idx))
            if rows:
                self.bases[k] = rows
                self._pivots[k] = _pivots(rows)
                # every other pivot column of an rref row is zero, so a
                # pivot's residue lies on the non-pivot coordinates
                for row, p in zip(rows, self._pivots[k]):
                    pivot = idx[p]
                    self._residue[pivot] = {i: -v for i, v in zip(idx, row) if v and i != pivot}
        self._diff_blocks: dict[int, SparseMatrix] = {}
        self._verify_closed()

    def dims(self) -> dict[int, int]:
        return {k: len(rows) for k, rows in self.bases.items()}

    def _generators(self, k: int) -> list[Coeffs]:
        """The degree-k rref rows as ambient coefficient dicts."""
        idx = self.ambient.basis.degree_indices(k)
        return [{i: v for i, v in zip(idx, row) if v} for row in self.bases[k]]

    def _verify_closed(self):
        """d of every basis row must reduce to zero; its coordinates in the
        degree k+1 rows are then its entries at their pivots."""
        amb = self.ambient
        for k in self.bases:
            target = amb.basis.degree_indices(k + 1)
            target = [target[p] for p in self._pivots.get(k + 1, [])]
            cols = []
            for gen in self._generators(k):
                image = amb.d_coeffs(gen)
                if _combine(image, self._residue):
                    raise StructureError(
                        f"subspace is not closed under the differential in degree {k}"
                    )
                cols.append([image.get(t, 0) for t in target])
            self._diff_blocks[k] = SparseMatrix.from_columns(cols, len(target))

    def betti(self) -> dict[int, int]:
        dims = self.dims()
        blocks = {k: m for k, m in self._diff_blocks.items() if m.rows or m.cols}
        out = betti_numbers({k: dims.get(k, 0) for k in dims}, blocks)
        return {k: b for k, b in out.items()}

    def is_acyclic(self) -> bool:
        return all(b == 0 for b in self.betti().values())

    def contains(self, elem: Element) -> bool:
        return not _combine(elem.coeffs, self._residue)

    def reduce(self, elem: Element) -> Element:
        """Canonical representative of elem modulo the subspace."""
        return Element(elem.parent, _combine(elem.coeffs, self._residue))

    def closed_under_multiplication(self) -> bool:
        """Whether multiplying by every ambient basis element stays inside."""
        mult = self.ambient._mult
        for k in self.bases:
            for gen in self._generators(k):
                for rows in mult:
                    if _combine(_combine(gen, rows), self._residue):
                        return False
        return True


@dataclass
class QuotientDGA:
    """A quotient algebra together with projection and section maps.

    `kept` lists the ambient basis indices whose classes form the quotient
    basis; sections send a quotient basis element to that ambient basis
    element, and `project` is the canonical projection vanishing exactly on
    the subspace. `_images[i]` is the class of e_i in quotient coordinates.
    """

    ambient: DGAlgebra
    algebra: DGAlgebra
    kept: tuple[int, ...]
    subspace: Subcomplex
    _images: list[Coeffs]

    def project(self, elem: Element) -> Element:
        if elem.parent is not self.ambient:
            raise StructureError("element does not live in the ambient algebra")
        return Element(self.algebra, _combine(elem.coeffs, self._images))

    def lift(self, elem: Element) -> Element:
        if elem.parent is not self.algebra:
            raise StructureError("element does not live in the quotient")
        return Element(self.ambient, {self.kept[q]: c for q, c in elem.coeffs.items()})

    def betti(self, up_to: Optional[int] = None) -> list[int]:
        return cohomology(self.algebra).betti_vector(up_to)


def quotient_dga(ambient: DGAlgebra, vectors: Sequence[Element], *, name: str = "") -> QuotientDGA:
    """Quotient of `ambient` by the span of homogeneous `vectors`.

    The span must be a differential ideal for the quotient to carry a
    well-defined CDGA structure; both closure properties are verified
    explicitly (d of every spanning vector lands in the span, and so does
    the product with every ambient basis element). The kept basis is the
    indices that are their own residue; re-keying the subspace's residue
    table to quotient positions gives the class of every ambient basis
    element, and the products and d of kept basis elements are their
    ambient rows combined through it.
    """
    sub = Subcomplex(ambient, vectors)

    if not sub.closed_under_multiplication():
        raise StructureError("subspace is not closed under multiplication by the algebra")

    kept = [i for i, row in enumerate(sub._residue) if i in row]
    if ambient.unit not in kept:
        raise StructureError("the unit was quotiented away; the subspace is not a proper ideal")

    amb_basis = ambient.basis
    q_basis = GradedBasis(
        [amb_basis.labels[g] for g in kept], [amb_basis.degrees[g] for g in kept]
    )
    kept_pos = {g: q for q, g in enumerate(kept)}
    images = [{kept_pos[i]: c for i, c in row.items()} for row in sub._residue]

    mult_entries = []
    for qi, gi in enumerate(kept):
        rows = ambient._mult[gi]
        for qj in range(qi, len(kept)):
            for qk, c in _combine(rows[kept[qj]], images).items():
                mult_entries.append((qi, qj, qk, c))
    diff_entries = []
    for qi, gi in enumerate(kept):
        for qj, c in _combine(ambient._diff[gi], images).items():
            diff_entries.append((qi, qj, c))

    top = None
    if q_basis.degrees:
        top = max(q_basis.degrees)
    quotient = DGAlgebra(
        q_basis,
        kept_pos[ambient.unit],
        mult_entries,
        diff_entries,
        name=name or (ambient.name + "/~"),
        top_degree=top,
        simply_connected=False,
    )
    return QuotientDGA(ambient, quotient, tuple(kept), sub, images)


def ideal_span(ambient: DGAlgebra, generators: Sequence[Element]) -> list[Element]:
    """Spanning set of the ideal generated by `generators`: every product
    of a basis element with a generator, plus the generators themselves."""
    out = list(generators)
    for g in generators:
        for rows in ambient._mult:
            prod = _combine(g.coeffs, rows)
            if prod:
                out.append(Element(ambient, prod))
    return out
