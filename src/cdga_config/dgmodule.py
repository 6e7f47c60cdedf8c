"""Differential graded modules over a CDGA, suspensions, and module maps.

The sign conventions are the two rules everything else is derived from:

    r . (s^k m) = (-1)^(k |r|) s^k (r . m)
    d (s^k m)   = (-1)^k       s^k (d m)

Cone differentials and the module action on desuspended algebras are never
entered by hand; they are produced by applying these rules to a plain
action, and the action axioms are re-verified on all basis tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import DGAlgebra, Element, GradedBasis
from .errors import NotAModuleMap, StructureError
from .linalg import ONE, _accumulate, _combine

Coeffs = dict[int, Fraction]


class DGModule:
    """Graded module over a DGAlgebra with a compatible differential.

    `action[(r, m)]` holds the coefficients of e_r . e_m in the module
    basis. `verify()` checks unit action, associativity of the action over
    all (r, r', m) triples and the module Leibniz rule on all (r, m) pairs.
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
        self._action: dict[tuple[int, int], Coeffs] = {}
        for (r, m), row in action.items():
            clean = {k: Fraction(c) for k, c in row.items() if c}
            for k, c in clean.items():
                if degs[k] != rdegs[r] + degs[m]:
                    raise StructureError("module action violates degrees")
            if clean:
                self._action[(r, m)] = clean
        # one row per basis index, empty for cocycles
        rows: list[Coeffs] = [{} for _ in degs]
        for i, row in diff.items():
            clean = {j: Fraction(c) for j, c in row.items() if c}
            for j in clean:
                if degs[j] != degs[i] + 1:
                    raise StructureError("module differential does not raise degree by 1")
            rows[i] = clean
        self._diff: tuple[Coeffs, ...] = tuple(rows)

    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> Element:
        return Element(self, coeffs)

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: ONE})

    def zero(self) -> Element:
        return Element(self, {})

    def d_basis(self, i: int) -> Coeffs:
        return dict(self._diff[i])

    def d(self, x: Element) -> Element:
        return Element(self, _combine(x.coeffs, self._diff))

    def act_basis(self, r: int, m: int) -> Coeffs:
        return dict(self._action.get((r, m), {}))

    def act(self, r: Element, m: Element) -> Element:
        if r.parent is not self.ring or m.parent is not self:
            raise StructureError("action arguments live in the wrong spaces")
        out: Coeffs = {}
        for ri, a in r.coeffs.items():
            for mi, b in m.coeffs.items():
                row = self._action.get((ri, mi))
                if row:
                    ab = a * b
                    _accumulate(out, ((k, ab * c) for k, c in row.items()))
        return Element(self, out)

    def verify(self) -> None:
        """Check unit, action associativity and the module Leibniz rule on
        every basis tuple; raises StructureError on the first violation."""
        ring = self.ring
        for m in range(self.dim()):
            if self.act_basis(ring.unit, m) != {m: ONE}:
                raise StructureError(f"unit does not act as identity on {self.basis.labels[m]}")
        n_r = ring.dim()
        for r1 in range(n_r):
            e1 = ring.basis_element(r1)
            for r2 in range(n_r):
                prod = ring.multiply(e1, ring.basis_element(r2))
                for m in range(self.dim()):
                    em = self.basis_element(m)
                    lhs = self.act(prod, em)
                    rhs = self.act(e1, self.act(ring.basis_element(r2), em))
                    if lhs != rhs:
                        raise StructureError(
                            "module action is not associative at "
                            f"({ring.basis.labels[r1]}, {ring.basis.labels[r2]}, {self.basis.labels[m]})"
                        )
        for r in range(n_r):
            er = ring.basis_element(r)
            der = ring.d(er)
            sign = (-1) ** ring.basis.degrees[r]
            for m in range(self.dim()):
                em = self.basis_element(m)
                lhs = self.d(self.act(er, em))
                rhs = self.act(der, em) + self.act(er, self.d(em)).scale(sign)
                if lhs != rhs:
                    raise StructureError(
                        "module Leibniz rule fails at "
                        f"({ring.basis.labels[r]}, {self.basis.labels[m]})"
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
    for (r, m), row in module._action.items():
        sign = (-1) ** (k * ring.basis.degrees[r])
        action[(r, m)] = {t: sign * c for t, c in row.items()}
    diff = {i: {j: dsign * c for j, c in row.items()} for i, row in enumerate(module._diff)}
    return DGModule(ring, basis, action, diff, name=f"s^{k}({module.name})")


class ModuleMap:
    """Degree-zero morphism of dg-modules over the same ring.

    Verified at construction to commute with the differentials and with the
    ring action on every (ring basis, source basis) pair.
    """

    def __init__(self, source: DGModule, target: DGModule, images: Sequence[Element],
                 *, verify: bool = True):
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
        if verify:
            self.verify()

    def apply(self, x: Element) -> Element:
        return Element(self.target, _combine(x.coeffs, [img.coeffs for img in self.images]))

    def verify(self) -> None:
        src, tgt, ring = self.source, self.target, self.source.ring
        for i in range(src.dim()):
            lhs = self.apply(src.d(src.basis_element(i)))
            rhs = tgt.d(self.images[i])
            if lhs != rhs:
                raise NotAModuleMap(f"does not commute with d at {src.basis.labels[i]}")
        for r in range(ring.dim()):
            er = ring.basis_element(r)
            for i in range(src.dim()):
                lhs = self.apply(src.act(er, src.basis_element(i)))
                rhs = tgt.act(er, self.images[i])
                if lhs != rhs:
                    raise NotAModuleMap(
                        f"does not commute with the action at ({ring.basis.labels[r]}, {src.basis.labels[i]})"
                    )
