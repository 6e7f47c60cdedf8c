"""Quotients of graded algebras by homogeneous subspaces, and graded
subcomplexes with their own cohomology.

Every quotient in the pipeline (by the diagonal ideal, by the acyclic
ideal of the even-dimensional model, by the top truncation, by the
equivalence ideal) goes through `quotient_dga`. The reduction modulo the
per-degree rref rows and the projection built from it come from `linalg`.
Representatives are the ambient basis vectors at the non-pivot coordinates
of the per-degree rref, so quotient bases keep their ambient labels and
all reports stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Coeffs, DGAlgebra, Element, GradedBasis, cohomology
from .errors import StructureError
from .linalg import Scalar, SparseMatrix, _pivots, _projection, _reduce, betti_numbers, row_space_basis


def _by_degree(coeffs: Coeffs, degrees: Sequence[int]) -> dict[int, Coeffs]:
    """The homogeneous components of a coefficient dict, keyed by degree."""
    parts: dict[int, Coeffs] = {}
    for i, c in coeffs.items():
        parts.setdefault(degrees[i], {})[i] = c
    return parts


class Subcomplex:
    """A graded subspace of an algebra's underlying complex, with the
    restricted differential.

    Construction verifies d-closure by reducing each d-image modulo the
    degree bases; `betti` then measures the subcomplex itself, so
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
        for k, vecs in sorted(by_degree.items()):
            rows = row_space_basis(vecs, len(ambient.basis.degree_indices(k)))
            if rows:
                self.bases[k] = rows
                self._pivots[k] = _pivots(rows)
        self._diff_blocks: dict[int, SparseMatrix] = {}
        self._verify_closed()

    def dims(self) -> dict[int, int]:
        return {k: len(rows) for k, rows in self.bases.items()}

    def _verify_closed(self):
        """d of every basis row must reduce to zero modulo the degree k+1
        rows; its coordinates there are its entries at their pivots."""
        for k, rows in self.bases.items():
            block = self.ambient.diff_block(k)
            target_rows = self.bases.get(k + 1, [])
            target_pivots = self._pivots.get(k + 1, [])
            cols = []
            for row in rows:
                image = block.apply(row)
                if any(_reduce(target_rows, target_pivots, image)):
                    raise StructureError(
                        f"subspace is not closed under the differential in degree {k}"
                    )
                cols.append([image[p] for p in target_pivots])
            self._diff_blocks[k] = SparseMatrix.from_columns(cols, len(target_rows))

    def betti(self) -> dict[int, int]:
        dims = self.dims()
        blocks = {k: m for k, m in self._diff_blocks.items() if m.rows or m.cols}
        out = betti_numbers({k: dims.get(k, 0) for k in dims}, blocks)
        return {k: b for k, b in out.items()}

    def is_acyclic(self) -> bool:
        return all(b == 0 for b in self.betti().values())

    def _reduce_coeffs(self, coeffs: Coeffs) -> Coeffs:
        """Canonical representative of a coefficient dict modulo the
        subspace, reduced degree by degree."""
        out = dict(coeffs)
        degrees = self.ambient.basis.degrees
        for k in sorted({degrees[i] for i in coeffs}):
            rows = self.bases.get(k)
            if not rows:
                continue
            idx = self.ambient.basis.degree_indices(k)
            vec = _reduce(rows, self._pivots[k], [out.get(i, 0) for i in idx])
            for c, i in enumerate(idx):
                if vec[c]:
                    out[i] = vec[c]
                else:
                    out.pop(i, None)
        return out

    def contains(self, elem: Element) -> bool:
        return not self._reduce_coeffs(elem.coeffs)

    def reduce(self, elem: Element) -> Element:
        """Canonical representative of elem modulo the subspace."""
        return Element(elem.parent, self._reduce_coeffs(elem.coeffs))

    def closed_under_multiplication(self) -> bool:
        """Whether multiplying by every ambient basis element stays inside."""
        amb = self.ambient
        for k, rows in self.bases.items():
            idx = amb.basis.degree_indices(k)
            for row in rows:
                gen = {i: v for i, v in zip(idx, row) if v}
                for m in range(amb.dim()):
                    if self._reduce_coeffs(amb.multiply_coeffs({m: 1}, gen)):
                        return False
        return True


@dataclass
class QuotientDGA:
    """A quotient algebra together with projection and section maps.

    `kept` lists the ambient basis indices whose classes form the quotient
    basis; sections send a quotient basis element to that ambient basis
    element, and `project` is the canonical projection vanishing exactly on
    the subspace.
    """

    ambient: DGAlgebra
    algebra: DGAlgebra
    kept: tuple[int, ...]
    subspace: Subcomplex
    _proj_blocks: dict[int, SparseMatrix]

    def project(self, elem: Element) -> Element:
        if elem.parent is not self.ambient:
            raise StructureError("element does not live in the ambient algebra")
        out: dict[int, Scalar] = {}
        amb = self.ambient.basis
        for k, part in sorted(_by_degree(elem.coeffs, amb.degrees).items()):
            block = self._proj_blocks.get(k)
            if block is None or block.rows == 0:
                continue
            res = block.apply([part.get(i, 0) for i in amb.degree_indices(k)])
            # the kept indices of degree k are the quotient's degree-k basis
            for q, v in zip(self.algebra.basis.degree_indices(k), res):
                if v:
                    out[q] = v
        return Element(self.algebra, out)

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
    the product with every ambient basis element). The kept basis and the
    projection blocks come from `linalg`'s quotient projection; products
    and d of kept basis elements are reduced on the raw coefficient dicts.
    """
    sub = Subcomplex(ambient, vectors)

    if not sub.closed_under_multiplication():
        raise StructureError("subspace is not closed under multiplication by the algebra")

    amb_basis = ambient.basis
    kept: list[int] = []
    proj_blocks: dict[int, SparseMatrix] = {}
    for k in amb_basis.degrees_present():
        idx = amb_basis.degree_indices(k)
        keep_cols, proj_blocks[k] = _projection(
            sub.bases.get(k, []), sub._pivots.get(k, []), len(idx))
        kept.extend(idx[c] for c in keep_cols)

    # kept was filled degree by degree, so it is already in basis order
    if ambient.unit not in kept:
        raise StructureError("the unit was quotiented away; the subspace is not a proper ideal")

    q_basis = GradedBasis(
        [amb_basis.labels[g] for g in kept], [amb_basis.degrees[g] for g in kept]
    )
    kept_pos = {g: q for q, g in enumerate(kept)}

    # Products and differential: the representatives are ambient basis
    # elements, so operate in the ambient, reduce, re-express.
    def reduce_to_quotient(coeffs: Coeffs) -> Coeffs:
        out = {}
        for i, c in sub._reduce_coeffs(coeffs).items():
            if i not in kept_pos:
                raise StructureError("reduction left support on a pivot coordinate")
            out[kept_pos[i]] = c
        return out

    mult_entries = []
    for qi, gi in enumerate(kept):
        for qj in range(qi, len(kept)):
            for qk, c in reduce_to_quotient(ambient.mult_basis(gi, kept[qj])).items():
                mult_entries.append((qi, qj, qk, c))
    diff_entries = []
    for qi, gi in enumerate(kept):
        for qj, c in reduce_to_quotient(ambient.d_basis(gi)).items():
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
    return QuotientDGA(ambient, quotient, tuple(kept), sub, proj_blocks)


def ideal_span(ambient: DGAlgebra, generators: Sequence[Element]) -> list[Element]:
    """Spanning set of the ideal generated by `generators`: every product
    of a basis element with a generator, plus the generators themselves."""
    out = list(generators)
    for g in generators:
        for m in range(ambient.dim()):
            prod = ambient.multiply(ambient.basis_element(m), g)
            if not prod.is_zero():
                out.append(prod)
    return out
