"""Differential graded modules over a CDGA, suspensions, and module maps.

The sign conventions are the two rules everything else is derived from:

    r . (s^k m) = (-1)^(k |r|) s^k (r . m)
    d (s^k m)   = (-1)^k       s^k (d m)

Cone differentials and the module action on desuspended algebras are never
entered by hand; they are produced by applying these rules to a plain
action. Every `ModuleMap` checks on construction that it commutes with d
and with the action on all basis pairs, which is how each shriek map is
verified; `DGModule.verify` checks the module axioms themselves on demand.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .algebra import DGAlgebra, Element, GradedBasis
from .errors import NotAModuleMap, StructureError
from .linalg import Scalar, _combine, _exact

Coeffs = dict[int, Scalar]


class DGModule:
    """Graded module over a DGAlgebra with a compatible differential.

    `action[(r, m)]` holds the coefficients of e_r . e_m in the module
    basis; it is stored as `_action[r][m]`, so `_action[r]` gives the rows
    of the map m -> e_r . m, as `_diff` gives those of d. `verify()`
    checks unit action, associativity of the action over all (r, r', m)
    triples and the module Leibniz rule on all (r, m) pairs.
    """

    def __init__(
        self,
        ring: DGAlgebra,
        basis: GradedBasis,
        action: dict[tuple[int, int], Coeffs],
        diff: dict[int, Coeffs],
        *,
        name: str = "",
    ):
        self.ring = ring
        self.basis = basis
        self.name = name
        degs = basis.degrees
        rdegs = ring.basis.degrees
        # one row per (ring index, basis index); the zero action shares one
        # empty row, which is never mutated
        empty: Coeffs = {}
        table: list[list[Coeffs]] = [[empty] * len(degs) for _ in rdegs]
        for (r, m), row in action.items():
            clean = {k: _exact(c) for k, c in row.items() if c}
            for k, c in clean.items():
                if degs[k] != rdegs[r] + degs[m]:
                    raise StructureError("module action violates degrees")
            table[r][m] = clean
        self._action: tuple[tuple[Coeffs, ...], ...] = tuple(map(tuple, table))
        # one row per basis index, empty for cocycles
        rows: list[Coeffs] = [{} for _ in degs]
        for i, row in diff.items():
            clean = {j: _exact(c) for j, c in row.items() if c}
            for j in clean:
                if degs[j] != degs[i] + 1:
                    raise StructureError("module differential does not raise degree by 1")
            rows[i] = clean
        self._diff: tuple[Coeffs, ...] = tuple(rows)

    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> Element:
        return Element(self, coeffs)

    def zero(self) -> Element:
        return Element(self, {})

    def d_basis(self, i: int) -> Coeffs:
        return dict(self._diff[i])

    def act_basis(self, r: int, m: int) -> Coeffs:
        return dict(self._action[r][m])

    def verify(self) -> None:
        """Check unit, action associativity and the module Leibniz rule on
        every basis tuple, on the rows of the action, of the ring's product
        and of both differentials; raises StructureError on the first
        violation."""
        ring = self.ring
        act = self._action
        # act_t[m][r] = e_r . e_m: the action on e_m as a map of the ring
        act_t = [list(column) for column in zip(*act)]
        rlabels, labels = ring.basis.labels, self.basis.labels
        n, n_r = self.dim(), ring.dim()
        for m in range(n):
            if act[ring.unit][m] != {m: 1}:
                raise StructureError(f"unit does not act as identity on {labels[m]}")
        for r1 in range(n_r):
            for r2 in range(n_r):
                prod = ring.mult_basis(r1, r2)
                for m in range(n):
                    if _combine(prod, act_t[m]) != _combine(act[r2][m], act[r1]):
                        raise StructureError(
                            "module action is not associative at "
                            f"({rlabels[r1]}, {rlabels[r2]}, {labels[m]})"
                        )
        diff = self._diff
        negated = [{t: -c for t, c in row.items()} for row in diff]
        for r in range(n_r):
            dr = ring.d_basis(r)
            signed = negated if ring.basis.degrees[r] % 2 else diff
            for m in range(n):
                # d(e_r . e_m) against d(e_r) . e_m + (-1)^|e_r| e_r . d(e_m)
                rhs = _combine(signed[m], act[r], _combine(dr, act_t[m]))
                if _combine(act[r][m], diff) != rhs:
                    raise StructureError(
                        f"module Leibniz rule fails at ({rlabels[r]}, {labels[m]})"
                    )

    def __repr__(self) -> str:
        return f"DGModule({self.name or '?'}, dim {self.dim()} over {self.ring.name or '?'})"


def ring_as_module(ring: DGAlgebra) -> DGModule:
    """The algebra as a module over itself via multiplication."""
    action = {}
    for r in range(ring.dim()):
        for m in range(ring.dim()):
            row = ring.mult_basis(r, m)
            if row:
                action[(r, m)] = row
    diff = {i: ring.d_basis(i) for i in range(ring.dim()) if ring.d_basis(i)}
    return DGModule(ring, ring.basis, action, diff, name=ring.name)


def module_via_algebra_map(ring: DGAlgebra, target: DGAlgebra,
                           image_of_basis: Callable[[int], Element],
                           *, name: str = "") -> DGModule:
    """`target` as a module over `ring` through an algebra map on basis
    elements: e_r . m = image(e_r) * m computed in `target`."""
    action = {}
    for r in range(ring.dim()):
        img = image_of_basis(r)
        for m in range(target.dim()):
            prod = target.multiply(img, target.basis_element(m))
            if not prod.is_zero():
                action[(r, m)] = dict(prod.coeffs)
    diff = {i: target.d_basis(i) for i in range(target.dim()) if target.d_basis(i)}
    return DGModule(ring, target.basis, action, diff, name=name or target.name)


def suspend(module: DGModule, k: int, label: Optional[Callable[[str], str]] = None) -> DGModule:
    """k-th suspension: degrees drop by k, the action picks up (-1)^(k|r|)
    and the differential picks up (-1)^k."""
    if label is None:
        label = lambda l: f"s^{k}({l})" if k != 1 else f"s({l})"
    degs = [d - k for d in module.basis.degrees]
    if any(d < 0 for d in degs):
        raise StructureError("suspension would create negative degrees")
    basis = GradedBasis([label(l) for l in module.basis.labels], degs)
    ring = module.ring
    dsign = (-1) ** k
    action = {}
    for r, rows in enumerate(module._action):
        sign = (-1) ** (k * ring.basis.degrees[r])
        for m, row in enumerate(rows):
            if row:
                action[(r, m)] = {t: sign * c for t, c in row.items()}
    diff = {i: {j: dsign * c for j, c in row.items()} for i, row in enumerate(module._diff)}
    return DGModule(ring, basis, action, diff, name=f"s^{k}({module.name})")


class ModuleMap:
    """Degree-zero morphism of dg-modules over the same ring.

    Verified at construction to commute with the differentials and with the
    ring action on every (ring basis, source basis) pair.
    """

    def __init__(self, source: DGModule, target: DGModule, images: Sequence[Element]):
        if source.ring is not target.ring:
            raise NotAModuleMap("source and target have different ground rings")
        if len(images) != source.dim():
            raise NotAModuleMap("one image per source basis element is required")
        for i, img in enumerate(images):
            if img.parent is not target:
                raise NotAModuleMap("image does not live in the target module")
            if not img.is_zero() and img.degree() != source.basis.degrees[i]:
                raise NotAModuleMap(
                    f"image of {source.basis.labels[i]} is not of degree {source.basis.degrees[i]}"
                )
        self.source = source
        self.target = target
        self.images = tuple(images)
        self.verify()

    def verify(self) -> None:
        """Check f d = d f on every source basis element, then
        f(e_r . e_i) = e_r . f(e_i) on every (ring, source) basis pair, on
        the rows of the images, the actions and the differentials."""
        src, tgt, ring = self.source, self.target, self.source.ring
        rows = [img.coeffs for img in self.images]
        for i in range(src.dim()):
            if _combine(src._diff[i], rows) != _combine(rows[i], tgt._diff):
                raise NotAModuleMap(f"does not commute with d at {src.basis.labels[i]}")
        for r in range(ring.dim()):
            src_r, tgt_r = src._action[r], tgt._action[r]
            for i in range(src.dim()):
                if _combine(src_r[i], rows) != _combine(rows[i], tgt_r):
                    raise NotAModuleMap(
                        f"does not commute with the action at ({ring.basis.labels[r]}, {src.basis.labels[i]})"
                    )
