"""Differential graded modules over a CDGA, suspensions, and module maps.

The sign conventions are the two rules everything else is derived from:

    r . (s^k m) = (-1)^(k |r|) s^k (r . m)
    d (s^k m)   = (-1)^k       s^k (d m)

Cone differentials and the module action on desuspended algebras are never
entered by hand; they are produced by applying these rules to a plain
action. A module keeps the rows it is given: the ring acting on itself
shares the ring's product table, and a suspension shares every row whose
sign is +1. A `ModuleMap` has image rows as an `algebra.AlgebraMap` does
but need not be multiplicative; it checks on construction that it commutes
with d and with the action on all basis pairs, verifying each shriek map;
`DGModule.verify` checks the module axioms on demand, with `check_cdga`'s sweep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import DGAlgebra, Element, GradedBasis, _action_sweep
from .errors import NotAModuleMap, StructureError
from .linalg import Scalar, _first_uncommuting, _negated

Coeffs = dict[int, Scalar]


class DGModule:
    """Graded module over a DGAlgebra with a compatible differential.

    `action[r][m]` is the row of e_r . e_m in the module basis and
    `diff[i]` the row of d e_i: the layout of the ring's product table
    `_mult`, so `_action[r]` gives the rows of m -> e_r . m. The rows are
    stored as given, never copied or re-cleaned, and must never be mutated.
    The constructor checks the shape of both tables and every entry: a
    nonzero canonical scalar (see `linalg`) at an index of the
    degree the rule asks for. `verify()` checks unit action, associativity
    of the action on (r, r', m) triples, the module Leibniz rule on (r, m)
    pairs and d squared zero, passing over only tuples that cannot fail.
    """

    def __init__(
        self,
        ring: DGAlgebra,
        basis: GradedBasis,
        action: Sequence[Sequence[Coeffs]],
        diff: Sequence[Coeffs],
        *,
        name: str = "",
    ):
        self.ring = ring
        self.basis = basis
        self.name = name
        degs = basis.degrees
        n = len(degs)
        rdegs = ring.basis.degrees
        if len(action) != len(rdegs) or any(len(rows) != n for rows in action) or len(diff) != n:
            raise StructureError("module action and differential tables have the wrong shape")
        for r, rows in enumerate(action):
            for m, row in enumerate(rows):
                if row:
                    self._check_row(row, rdegs[r] + degs[m], "module action violates degrees")
        for i, row in enumerate(diff):
            if row:
                self._check_row(row, degs[i] + 1,
                                "module differential does not raise degree by 1")
        self._action: tuple[tuple[Coeffs, ...], ...] = tuple(map(tuple, action))
        self._diff: tuple[Coeffs, ...] = tuple(diff)

    def _check_row(self, row: Coeffs, degree: int, message: str) -> None:
        degs = self.basis.degrees
        for k, c in row.items():
            if not (type(c) is int or type(c) is Fraction and c.denominator != 1) or not c:
                raise StructureError(f"module row entry {c!r} is not a nonzero canonical scalar")
            if not 0 <= k < len(degs) or degs[k] != degree:
                raise StructureError(message)

    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> Element:
        return Element(self, coeffs)

    def d_basis(self, i: int) -> Coeffs:
        return dict(self._diff[i])

    def act_basis(self, r: int, m: int) -> Coeffs:
        return dict(self._action[r][m])

    def verify(self) -> None:
        """Check the unit, associativity of the action, the module Leibniz
        rule and d squared zero with `check_cdga`'s sweep
        (`algebra._action_sweep`); raises StructureError at the first
        failing tuple of the first failing axiom, in that order."""
        ring = self.ring
        act, diff, unit = self._action, self._diff, ring.unit
        rows = ring._mult
        # every ring index, less the unit where its tuples are covered
        every = range(len(rows))
        if all(row == {r: 1} for r, row in enumerate(rows[unit])) and not ring._diff[unit]:
            every = [r for r in every if r != unit]
        covered_m = unit if act == rows and diff == ring._diff else -1
        unit_failure, sweep_assoc, dd, sweep_leibniz = _action_sweep(
            rows, act, ring._diff, diff, ring.basis.degrees, self.basis.degrees, unit, covered_m)
        assoc, leibniz = sweep_assoc(every), sweep_leibniz(every)
        rlabels, labels = ring.basis.labels, self.basis.labels
        if unit_failure is not None:
            raise StructureError(f"unit does not act as identity on {labels[unit_failure]}")
        if assoc:
            r1, r2, m = assoc
            raise StructureError(
                f"module action is not associative at ({rlabels[r1]}, {rlabels[r2]}, {labels[m]})")
        if leibniz:
            r, m = leibniz
            raise StructureError(f"module Leibniz rule fails at ({rlabels[r]}, {labels[m]})")
        if dd is not None:
            raise StructureError(f"module differential does not square to zero at {labels[dd]}")

    def __repr__(self) -> str:
        return f"DGModule({self.name or '?'}, dim {self.dim()} over {self.ring.name or '?'})"


def ring_as_module(ring: DGAlgebra) -> DGModule:
    """The algebra as a module over itself via multiplication; the module's
    tables are the ring's own rows."""
    return DGModule(ring, ring.basis, ring._mult, ring._diff, name=ring.name)


def suspend(module: DGModule, k: int, label: Optional[Callable[[str], str]] = None) -> DGModule:
    """k-th suspension: degrees drop by k, the action picks up (-1)^(k|r|)
    and the differential picks up (-1)^k. Only the rows whose sign is -1
    are new; the others are the module's own."""
    if label is None:
        label = lambda l: f"s^{k}({l})" if k != 1 else f"s({l})"
    degs = [d - k for d in module.basis.degrees]
    if any(d < 0 for d in degs):
        raise StructureError("suspension would create negative degrees")
    basis = GradedBasis([label(l) for l in module.basis.labels], degs)
    ring = module.ring
    action = [_negated(rows) if k * ring.basis.degrees[r] % 2 else rows
              for r, rows in enumerate(module._action)]
    diff = _negated(module._diff) if k % 2 else module._diff
    return DGModule(ring, basis, action, diff, name=f"s^{k}({module.name})")


class ModuleMap:
    """Degree-zero morphism of dg-modules over the same ring, e_i -> `rows[i]`,
    verified at construction to commute with the differentials and with the
    ring action on every (ring basis, source basis) pair."""

    def __init__(self, source: DGModule, target: DGModule, rows: Sequence[Coeffs]):
        if source.ring is not target.ring:
            raise NotAModuleMap("source and target have different ground rings")
        if len(rows) != source.dim():
            raise NotAModuleMap("one image per source basis element is required")
        tdegs = target.basis.degrees
        for label, d, row in zip(source.basis.labels, source.basis.degrees, rows):
            if any(not 0 <= k < len(tdegs) or tdegs[k] != d for k in row):
                raise NotAModuleMap(f"image of {label} is not of degree {d}")
        self.source = source
        self.target = target
        self.rows = tuple(rows)
        self.verify()

    def verify(self) -> None:
        """Check f d = d f on every source basis element, then
        f(e_r . e_i) = e_r . f(e_i) on every (ring, source) basis pair, on
        the rows of the images, the actions and the differentials; raises
        NotAModuleMap at the first failure, in that order."""
        src, tgt, ring, rows = self.source, self.target, self.source.ring, self.rows
        i = _first_uncommuting(src._diff, tgt._diff, rows)
        if i is not None:
            raise NotAModuleMap(f"does not commute with d at {src.basis.labels[i]}")
        for r, (src_r, tgt_r) in enumerate(zip(src._action, tgt._action)):
            i = _first_uncommuting(src_r, tgt_r, rows)
            if i is not None:
                raise NotAModuleMap("does not commute with the action at "
                                    f"({ring.basis.labels[r]}, {src.basis.labels[i]})")
