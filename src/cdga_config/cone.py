"""Mapping cones with the semi-trivial product, and the even-dimensional
model, C(0) on the cone's truncation (`twisted`).

For a module map f: B -> R (target the ring itself), the cone is R + sB
with differential delta(a, sb) = (d a + f(b), -s db) and the product

    (i)   a . a'   as in R
    (ii)  a . sb   = (-1)^|a|      s(a . b)
    (iii) sb . a   = (-1)^(|b||a|) s(a . b)
    (iv)  sb . sb' = 0

Rule (ii) is the action of the suspension `suspend(B, 1)`, so its sign
comes from the suspension sign rule of `dgmodule`; rule (iii) is derived
here by hand from the action of B. Each is graded commutativity applied to
the other, and the algebra constructor folds both into one entry per
unordered pair, so a disagreement aborts construction: every cone
cross-checks the suspension sign rule against an independent derivation,
never trusting a single hand-written exponent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from .algebra import AlgebraMap, DGAlgebra, Element, GradedBasis, check_cdga
from .dgmodule import ModuleMap, suspend
from .errors import AxiomFailure, NotAModuleMap, OddDimension, StructureError, ZeroFormalDimension
from .linalg import _first_not_squaring_to_zero
from .poincare import PDAlgebra, shriek_map

# the package's one import cycle: `twisted` builds on the cone, and
# `even_model`, which callers reach as `cone.even_model`, on `twisted`
if TYPE_CHECKING:
    from .twisted import TwistedModel


class MappingCone:
    """Cone of a module map f: B -> R as a CDGA with bookkeeping maps.

    `algebra` is the cone itself; the `AlgebraMap` `inclusion`, r -> (r, 0),
    and `susp_to_cone[b]` locate the R-part and the suspended part in it.

    Two caches hang off the cone: `_truncation`, the `TruncatedCone` that
    `twisted.truncate_cone` builds, and `_equivalence_ideal`, the
    `EquivalenceIdeal` that `twisted.equivalence_ideal` builds. Both are
    frozen. The ideal is the one owner of what deciding twists needs: the
    system matrix, I's generators projected into the truncation and
    C(Xi)/I, with the truncation they were formed on.
    """

    def __init__(self, f: ModuleMap, suspension_labels: Optional[Sequence[str]] = None,
                 *, name: str = "", pd: Optional[PDAlgebra] = None):
        ring = f.source.ring
        if f.target.basis is not ring.basis:
            raise NotAModuleMap("cone target must be the ring itself")
        if f.target._action != ring._mult:
            raise NotAModuleMap("cone target must carry the multiplication action")
        rdeg = ring.basis.degrees
        source = f.source
        if suspension_labels is None:
            suspension_labels = [f"s({l})" for l in source.basis.labels]
        if len(suspension_labels) != source.dim():
            raise StructureError("one suspension label per source basis element")

        susp = suspend(source, 1)
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
                for k, c in ring._mult[i][j].items():
                    mult.append((ci, ring_to_cone[j], ring_to_cone[k], c))
        for r, (rows, srows) in enumerate(zip(source._action, susp._action)):
            cr = ring_to_cone[r]
            for b, row in enumerate(rows):
                if row:
                    cb = susp_to_cone[b]
                    sign_iii = (-1) ** (bdeg[b] * rdeg[r])
                    # rule (ii) from the suspension, rule (iii) by hand
                    mult += ((cr, cb, susp_to_cone[t], c) for t, c in srows[b].items())
                    mult += ((cb, cr, susp_to_cone[t], sign_iii * c) for t, c in row.items())

        diff = []
        for i, row in enumerate(ring._diff):
            diff += ((ring_to_cone[i], ring_to_cone[j], c) for j, c in row.items())
        for b, row in enumerate(susp._diff):
            cb = susp_to_cone[b]
            diff += ((cb, ring_to_cone[j], c) for j, c in f.rows[b].items())
            diff += ((cb, susp_to_cone[t], c) for t, c in row.items())

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
        i = _first_not_squaring_to_zero(algebra._diff)
        if i is not None:
            raise StructureError(
                f"cone differential does not square to zero at {algebra.basis.labels[i]}"
            )

        self.algebra = algebra
        self.ring = ring
        self.source = source
        self.inclusion = AlgebraMap(ring, algebra, tuple({pos: 1} for pos in ring_to_cone))
        self.susp_to_cone = tuple(susp_to_cone)
        self.pd = pd
        # the truncation of this cone, filled by `twisted.truncate_cone`,
        # and its equivalence ideal, filled by `twisted.equivalence_ideal`
        self._truncation = None
        self._equivalence_ideal = None

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
    Formal dimension 0 has no cone: its S1 would sit in degree -1.
    """
    if pd._cone_model is not None:
        return pd._cone_model
    if pd.n == 0:
        unit = pd.algebra.basis.labels[pd.algebra.unit]
        raise ZeroFormalDimension(f"formal dimension 0: the cone would put S{unit} in degree -1")
    f = shriek_map(pd)
    labels = [f"S{l}" for l in pd.algebra.basis.labels]
    cone = MappingCone(f, labels, name=f"C({pd.algebra.name or 'A'})", pd=pd)
    report = check_cdga(cone.algebra)
    if not report.all_pass:
        raise AxiomFailure(report)
    pd._cone_model = cone
    return cone


def even_model(pd: PDAlgebra) -> TwistedModel:
    """The model for even formal dimension: C(0) on the truncation, built
    and checked by `twisted.build_cxi`. For 1-connected input the
    truncated span is the acyclic ideal (omega (x) omega, S omega). On
    other input, such as the torus, it need not be acyclic, and this
    raises `StructureError`, as `cxi --xi 0` does.
    """
    from .twisted import build_cxi

    if pd.n % 2 != 0:
        raise OddDimension(f"formal dimension {pd.n} is odd")
    return build_cxi(pd, pd.square.zero())
