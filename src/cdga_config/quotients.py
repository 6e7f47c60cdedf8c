"""Quotients of graded algebras by homogeneous subspaces, and graded
subcomplexes with their own cohomology.

Every quotient in the pipeline (by the diagonal ideal, by the acyclic
ideal of the even-dimensional model, by the top truncation, by the
equivalence ideal) goes through `quotient_dga`. Representatives are the
ambient basis vectors at the non-pivot coordinates of the per-degree rref,
so quotient bases keep their ambient labels and all reports stay
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import DGAlgebra, Element, GradedBasis, cohomology
from .errors import StructureError
from .linalg import ONE, ZERO, SparseMatrix, betti_numbers, row_space_basis, solve


def homogeneous_parts(elem: Element) -> list[Element]:
    """Split an element into its homogeneous components, by degree."""
    parts: dict[int, dict] = {}
    degs = elem.parent.basis.degrees
    for i, c in elem.coeffs.items():
        parts.setdefault(degs[i], {})[i] = c
    return [Element(elem.parent, parts[d]) for d in sorted(parts)]


class Subcomplex:
    """A graded subspace of an algebra's underlying complex, with the
    restricted differential.

    Construction verifies d-closure by expressing each d-image in the
    degree bases; `betti` then measures the subcomplex itself, so
    `is_acyclic` certifies acyclicity of differential ideals.
    """

    def __init__(self, ambient, vectors: Sequence[Element]):
        self.ambient = ambient
        by_degree: dict[int, list[list[Fraction]]] = {}
        for v in vectors:
            if v.is_zero():
                continue
            for part in homogeneous_parts(v):
                k = part.degree()
                idx = ambient.basis.degree_indices(k)
                by_degree.setdefault(k, []).append(part.vector(idx))
        self.bases: dict[int, list[list[Fraction]]] = {}
        for k, vecs in sorted(by_degree.items()):
            dim = len(ambient.basis.degree_indices(k))
            rows = row_space_basis(vecs, dim)
            if rows:
                self.bases[k] = rows
        self._diff_blocks: dict[int, SparseMatrix] = {}
        self._verify_closed()

    def dims(self) -> dict[int, int]:
        return {k: len(rows) for k, rows in self.bases.items()}

    def dim_in_degree(self, k: int) -> int:
        return len(self.bases.get(k, ()))

    def _verify_closed(self):
        for k, rows in self.bases.items():
            idx = self.ambient.basis.degree_indices(k)
            target_rows = self.bases.get(k + 1, [])
            tgt_idx = self.ambient.basis.degree_indices(k + 1)
            cols = []
            for row in rows:
                img: dict[int, Fraction] = {}
                for c, i in enumerate(idx):
                    if row[c]:
                        for j, v in self.ambient.d_basis(i).items():
                            img[j] = img.get(j, ZERO) + row[c] * v
                img_vec = [img.get(i, ZERO) for i in tgt_idx]
                if any(img_vec):
                    coeffs = solve(
                        SparseMatrix.from_columns(target_rows, len(tgt_idx)), img_vec
                    )
                    if coeffs is None:
                        raise StructureError(
                            f"subspace is not closed under the differential in degree {k}"
                        )
                    cols.append(coeffs)
                else:
                    cols.append([ZERO] * len(target_rows))
            self._diff_blocks[k] = SparseMatrix.from_columns(cols, len(target_rows))

    def betti(self) -> dict[int, int]:
        dims = self.dims()
        blocks = {k: m for k, m in self._diff_blocks.items() if m.rows or m.cols}
        out = betti_numbers({k: dims.get(k, 0) for k in dims}, blocks)
        return {k: b for k, b in out.items()}

    def is_acyclic(self) -> bool:
        return all(b == 0 for b in self.betti().values())

    def contains(self, elem: Element) -> bool:
        for part in homogeneous_parts(elem):
            k = part.degree()
            idx = self.ambient.basis.degree_indices(k)
            rows = self.bases.get(k)
            if not rows:
                return False
            vec = part.vector(idx)
            if solve(SparseMatrix.from_columns(rows, len(idx)), vec) is None:
                return False
        return True

    def reduce(self, elem: Element) -> Element:
        """Canonical representative of elem modulo the subspace."""
        out = dict(elem.coeffs)
        for part in homogeneous_parts(elem):
            k = part.degree()
            rows = self.bases.get(k)
            if not rows:
                continue
            idx = self.ambient.basis.degree_indices(k)
            vec = [out.get(i, ZERO) for i in idx]
            for row in rows:
                p = next(c for c, v in enumerate(row) if v)
                if vec[p]:
                    coeff = vec[p]
                    vec = [a - coeff * b for a, b in zip(vec, row)]
            for c, i in enumerate(idx):
                if vec[c]:
                    out[i] = vec[c]
                else:
                    out.pop(i, None)
        return Element(elem.parent, out)

    def closed_under_multiplication(self) -> bool:
        """Whether multiplying by every ambient basis element stays inside."""
        amb = self.ambient
        for k, rows in self.bases.items():
            idx = amb.basis.degree_indices(k)
            for row in rows:
                gen = Element(amb, {i: v for i, v in zip(idx, row) if v})
                for m in range(amb.dim()):
                    if not self.contains(amb.multiply(amb.basis_element(m), gen)):
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
        out: dict[int, Fraction] = {}
        amb = self.ambient.basis
        kept_pos = {g: q for q, g in enumerate(self.kept)}
        for part in homogeneous_parts(elem):
            k = part.degree()
            idx = amb.degree_indices(k)
            block = self._proj_blocks.get(k)
            if block is None or block.rows == 0:
                continue
            res = block.apply(part.vector(idx))
            kept_here = [g for g in self.kept if amb.degrees[g] == k]
            for g, v in zip(kept_here, res):
                if v:
                    out[kept_pos[g]] = v
        return Element(self.algebra, out)

    def lift(self, elem: Element) -> Element:
        if elem.parent is not self.algebra:
            raise StructureError("element does not live in the quotient")
        return Element(self.ambient, {self.kept[q]: c for q, c in elem.coeffs.items()})

    def betti(self, up_to: Optional[int] = None) -> list[int]:
        return cohomology(self.algebra).betti_vector(up_to)


def quotient_dga(
    ambient: DGAlgebra,
    vectors: Sequence[Element],
    *,
    name: str = "",
    require_mult_ideal: bool = True,
) -> QuotientDGA:
    """Quotient of `ambient` by the span of homogeneous `vectors`.

    The span must be a differential ideal for the quotient to carry a
    well-defined CDGA structure; both closure properties are verified
    explicitly (d of every spanning vector lands in the span, and so does
    the product with every ambient basis element).
    """
    sub = Subcomplex(ambient, vectors)

    if require_mult_ideal and not sub.closed_under_multiplication():
        raise StructureError("subspace is not closed under multiplication by the algebra")

    amb_basis = ambient.basis
    kept: list[int] = []
    proj_blocks: dict[int, SparseMatrix] = {}
    for k in amb_basis.degrees_present():
        idx = amb_basis.degree_indices(k)
        rows = sub.bases.get(k, [])
        pivots = []
        for row in rows:
            pivots.append(next(c for c, v in enumerate(row) if v))
        pivot_set = set(pivots)
        keep_cols = [c for c in range(len(idx)) if c not in pivot_set]
        kept.extend(idx[c] for c in keep_cols)
        data = {}
        for q, c in enumerate(keep_cols):
            data[(q, c)] = ONE
            for i, p in enumerate(pivots):
                coeff = rows[i][c]
                if coeff:
                    data[(q, p)] = -coeff
        proj_blocks[k] = SparseMatrix(len(keep_cols), len(idx), data)

    # kept was filled degree by degree, so it is already in basis order
    if ambient.unit not in kept:
        raise StructureError("the unit was quotiented away; the subspace is not a proper ideal")

    q_basis = GradedBasis(
        [amb_basis.labels[g] for g in kept], [amb_basis.degrees[g] for g in kept]
    )
    kept_pos = {g: q for q, g in enumerate(kept)}

    # Products and differential: lift representatives (they are ambient
    # basis elements), operate in the ambient, reduce, re-express.
    def reduce_to_quotient(elem: Element) -> dict[int, Fraction]:
        reduced = sub.reduce(elem)
        out = {}
        for i, c in reduced.coeffs.items():
            if i not in kept_pos:
                raise StructureError("reduction left support on a pivot coordinate")
            out[kept_pos[i]] = c
        return out

    mult_entries = []
    for qi, gi in enumerate(kept):
        for qj, gj in enumerate(kept):
            if qj < qi:
                continue
            prod = ambient.multiply(ambient.basis_element(gi), ambient.basis_element(gj))
            for qk, c in reduce_to_quotient(prod).items():
                mult_entries.append((qi, qj, qk, c))
    diff_entries = []
    for qi, gi in enumerate(kept):
        image = ambient.d(ambient.basis_element(gi))
        for qj, c in reduce_to_quotient(image).items():
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
