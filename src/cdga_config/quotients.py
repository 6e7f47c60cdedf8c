"""Quotients of graded algebras by homogeneous subspaces, and graded
subcomplexes whose Betti numbers are read off the ranks of d
(`algebra._betti_numbers`).

Every quotient in the pipeline (by the diagonal ideal, by the top
truncation, which for even dimensions is the even-dimensional model, by
the equivalence ideal) goes through `quotient_dga`. A subspace keeps its
per-degree rref rows and their `linalg._residues` table, keyed by pivot:
each pivot's entry is the canonical representative of e_pivot modulo the
subspace, minus the rest of its rref row; every other e_i is its own.
Reducing and testing membership are `linalg._reduce` through that table,
and the rows of the quotient map, an `algebra.AlgebraMap`, are its
`linalg._projection`, through which the quotient's products and
differential are combined. Representatives are the ambient basis
vectors at the non-pivot coordinates of the per-degree rref, so quotient
bases keep their ambient labels and all reports stay deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import (AlgebraMap, Coeffs, DGAlgebra, Element, GradedBasis, _betti_numbers,
                      betti_vector)
from .errors import MixedParents, StructureError
from .linalg import Scalar, _combine, _projection, _reduce, _residues, row_space_basis


def _by_degree(coeffs: Coeffs, degrees: Sequence[int]) -> dict[int, Coeffs]:
    """The homogeneous components of a coefficient dict, keyed by degree."""
    parts: dict[int, Coeffs] = {}
    for i, c in coeffs.items():
        parts.setdefault(degrees[i], {})[i] = c
    return parts


class Subcomplex:
    """A graded subspace of an algebra's underlying complex, with the
    restricted differential.

    `bases[k]` holds the degree-k rref rows as ambient coefficient dicts.
    `_residues` is their residue table over every degree: each pivot maps
    to the canonical representative of its basis vector modulo the
    subspace, so the representative of any coefficient dict is its
    `_reduce` through the table. Construction verifies d-closure by
    reducing each d-image and keeps d on the subcomplex's own basis, its
    rref rows numbered in degree order (`_indices`), as rows in the
    `DGAlgebra._diff` layout. `betti` then measures the subcomplex itself,
    so `is_acyclic` certifies acyclicity of differential ideals.
    """

    def __init__(self, ambient: DGAlgebra, vectors: Sequence[Element]):
        if any(v.parent is not ambient for v in vectors):
            raise MixedParents("vectors do not belong to the ambient algebra")
        self.ambient = ambient
        degrees = ambient.basis.degrees
        by_degree: dict[int, list[list[Scalar]]] = {}
        for v in vectors:
            for k, part in _by_degree(v.coeffs, degrees).items():
                idx = ambient.basis.degree_indices(k)
                by_degree.setdefault(k, []).append([part.get(i, 0) for i in idx])
        self.bases: dict[int, list[Coeffs]] = {}
        self._pivots: dict[int, list[int]] = {}
        self._indices: dict[int, range] = {}
        size = 0
        self._residues: dict[int, Coeffs] = {}
        for k, vecs in sorted(by_degree.items()):
            idx = ambient.basis.degree_indices(k)
            rows = row_space_basis(vecs, len(idx))
            if rows:
                self.bases[k] = [{i: v for i, v in zip(idx, row) if v} for row in rows]
                self._indices[k] = range(size, size + len(rows))
                size += len(rows)
                residues = _residues(rows, idx)
                self._pivots[k] = list(residues)
                self._residues.update(residues)
        self._diff: list[Coeffs] = []
        self._verify_closed()

    def dims(self) -> dict[int, int]:
        return {k: len(rows) for k, rows in self.bases.items()}

    def _verify_closed(self):
        """d of every basis row must reduce to zero; its coordinates in the
        degree k+1 rows, its row of `_diff`, are then its entries at their pivots."""
        amb = self.ambient
        for k, gens in self.bases.items():
            position = dict(zip(self._pivots.get(k + 1, ()), self._indices.get(k + 1, ())))
            for gen in gens:
                image = amb.d_coeffs(gen)
                if _reduce(image, self._residues):
                    raise StructureError(
                        f"subspace is not closed under the differential in degree {k}"
                    )
                self._diff.append({j: image[t] for t, j in position.items() if t in image})

    def betti(self) -> dict[int, int]:
        """dim - rank d_k - rank d_(k-1) in every degree k the subcomplex spans."""
        return _betti_numbers(self._diff, self._indices)

    def is_acyclic(self) -> bool:
        return all(b == 0 for b in self.betti().values())

    def contains(self, elem: Element) -> bool:
        return not _reduce(elem.coeffs, self._residues)

    def reduce(self, elem: Element) -> Element:
        """Canonical representative of elem modulo the subspace."""
        return Element(elem.parent, _reduce(elem.coeffs, self._residues))

    def closed_under_multiplication(self) -> bool:
        """Whether multiplying by every ambient basis element stays inside."""
        mult = self.ambient._mult
        for gens in self.bases.values():
            for gen in gens:
                for rows in mult:
                    if _reduce(_combine(gen, rows), self._residues):
                        return False
        return True


@dataclass
class QuotientDGA:
    """A quotient algebra with its projection, the `AlgebraMap` that
    vanishes exactly on the subspace and sends e_i to its class in the
    quotient basis, the classes of the ambient basis elements `kept`."""

    ambient: DGAlgebra
    algebra: DGAlgebra
    kept: tuple[int, ...]
    subspace: Subcomplex
    projection: AlgebraMap

    def betti(self, up_to: Optional[int] = None) -> list[int]:
        return betti_vector(self.algebra, up_to)


def quotient_dga(ambient: DGAlgebra, vectors: Sequence[Element], *, name: str = "") -> QuotientDGA:
    """Quotient of `ambient` by the span of homogeneous `vectors`.

    The span must be a differential ideal for the quotient to carry a
    well-defined CDGA structure; both closure properties are verified
    explicitly (d of every spanning vector lands in the span, and so does
    the product with every ambient basis element). The kept basis and the
    class of every ambient basis element are the `_projection` of the
    subspace's residue table, and the products and d of kept basis
    elements are their ambient rows combined through it.
    """
    sub = Subcomplex(ambient, vectors)

    if not sub.closed_under_multiplication():
        raise StructureError("subspace is not closed under multiplication by the algebra")

    kept, images = _projection(sub._residues, range(ambient.dim()))
    if ambient.unit not in kept:
        raise StructureError("the unit was quotiented away; the subspace is not a proper ideal")

    amb_basis = ambient.basis
    q_basis = GradedBasis(
        [amb_basis.labels[g] for g in kept], [amb_basis.degrees[g] for g in kept]
    )

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
        kept.index(ambient.unit),
        mult_entries,
        diff_entries,
        name=name or (ambient.name + "/~"),
        top_degree=top,
        simply_connected=False,
    )
    return QuotientDGA(ambient, quotient, tuple(kept), sub,
                       AlgebraMap(ambient, quotient, tuple(images)))


def ideal_span(ambient: DGAlgebra, generators: Sequence[Element]) -> list[Element]:
    """Spanning set of the ideal generated by `generators`: every product
    of a basis element with a generator, plus the generators themselves."""
    if any(g.parent is not ambient for g in generators):
        raise MixedParents("generators do not belong to the ambient algebra")
    out = list(generators)
    for g in generators:
        for rows in ambient._mult:
            prod = _combine(g.coeffs, rows)
            if prod:
                out.append(Element(ambient, prod))
    return out
