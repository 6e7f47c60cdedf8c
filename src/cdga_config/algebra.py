"""Finite-dimensional graded-commutative algebras with differential.

An algebra is given by a labeled graded basis, sparse multiplication
structure constants and a sparse degree +1 differential. Structure
constants are stored one-sided (i <= j) with the Koszul sign applied on
lookup; this halves storage and makes inconsistent duplicate entries
impossible. The one commutativity failure that survives canonical storage
is a nonzero square of an odd generator, which `check_cdga` reports with
the offending pair as witness.

Axiom verification covers every basis tuple whose products can be
nonzero, walking degree blocks on the raw product and differential tables
(see `check_cdga`); failures are report entries, never exceptions.
Cohomology is computed degree by degree with deterministic representatives.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import MixedParents, NotAComplex, StructureError
from .linalg import (ONE, ZERO, SparseMatrix, _accumulate, _combine, _pivots, _reduce,
                     kernel_basis, row_space_basis)

Coeffs = dict[int, Fraction]


class GradedBasis:
    """Labeled graded basis, ordered by degree.

    Within a degree the construction order is preserved, so builders control
    the printed term order (tensor bases use factor-index order to match the
    usual diagonal-class notation).
    """

    __slots__ = ("labels", "degrees", "_index", "_by_degree")

    def __init__(self, labels: Sequence[str], degrees: Sequence[int]):
        if len(labels) != len(degrees):
            raise StructureError("labels and degrees differ in length")
        if len(set(labels)) != len(labels):
            raise StructureError("duplicate basis labels")
        for d in degrees:
            if not isinstance(d, int) or d < 0:
                raise StructureError(f"bad degree {d!r}")
        for a, b in zip(degrees, degrees[1:]):
            if b < a:
                raise StructureError("basis not sorted by degree")
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self._index = {lab: i for i, lab in enumerate(labels)}
        by_degree: dict[int, list[int]] = {}
        for i, d in enumerate(degrees):
            by_degree.setdefault(d, []).append(i)
        self._by_degree = {d: tuple(ix) for d, ix in by_degree.items()}

    @classmethod
    def build(cls, items: Iterable[tuple[str, int]]) -> "GradedBasis":
        """Stable-sort (label, degree) pairs by degree and build the basis."""
        ordered = sorted(items, key=lambda it: it[1])
        return cls([l for l, _ in ordered], [d for _, d in ordered])

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise StructureError(f"unknown basis label {label!r}") from None

    def degree_indices(self, k: int) -> tuple[int, ...]:
        return self._by_degree.get(k, ())

    def degrees_present(self) -> list[int]:
        return sorted(self._by_degree)

    def max_degree(self) -> int:
        return self.degrees[-1] if self.degrees else 0


class Element:
    """Sparse element of a graded algebra (or of anything with a basis)."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs: Mapping[int, Fraction]):
        self.parent = parent
        self.coeffs: Coeffs = {i: Fraction(c) for i, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self) -> bool:
        degs = {self.parent.basis.degrees[i] for i in self.coeffs}
        return len(degs) <= 1

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element; None for 0 or mixed terms."""
        degs = {self.parent.basis.degrees[i] for i in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def _check_parent(self, other: "Element"):
        if self.parent is not other.parent:
            raise MixedParents("elements belong to different parents")

    def __add__(self, other: "Element") -> "Element":
        self._check_parent(other)
        return Element(self.parent, _accumulate(dict(self.coeffs), other.coeffs.items()))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.parent, {i: -c for i, c in self.coeffs.items()})

    def scale(self, c) -> "Element":
        c = Fraction(c)
        if not c:
            return Element(self.parent, {})
        return Element(self.parent, {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_parent(other)
        return self.parent.multiply(self, other)

    def d(self) -> "Element":
        return self.parent.d(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.parent is other.parent
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.parent), tuple(sorted(self.coeffs.items()))))

    def vector(self, indices: Sequence[int]) -> list[Fraction]:
        """Coordinates along the given basis indices (zero elsewhere allowed
        only if the element is supported there)."""
        return [self.coeffs.get(i, ZERO) for i in indices]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            label = self.parent.basis.labels[i]
            mag = -c if c < 0 else c
            body = label if mag == 1 else f"{mag}*{label}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<{self}>"


def _canonical_pair(i: int, j: int, deg_i: int, deg_j: int) -> tuple[tuple[int, int], int]:
    """Canonical storage key for a product and the Koszul sign to apply."""
    if i <= j:
        return (i, j), 1
    return (j, i), (-1) ** (deg_i * deg_j)


class DGAlgebra:
    """Graded-commutative algebra with a degree +1 differential.

    `mult` entries are (i, j, k, c) meaning e_i * e_j = sum c e_k; only one
    of (i, j)/(j, i) is stored and the other order is derived with the
    Koszul sign. `diff` entries are (i, j, c) meaning d e_i = sum c e_j;
    they are stored as one row per basis index, empty for cocycles.
    """

    def __init__(
        self,
        basis: GradedBasis,
        unit: int,
        mult: Iterable[tuple[int, int, int, Fraction]],
        diff: Iterable[tuple[int, int, Fraction]] = (),
        *,
        name: str = "",
        top_degree: Optional[int] = None,
        simply_connected: bool = False,
    ):
        self.basis = basis
        self.name = name
        n = len(basis)
        if not (0 <= unit < n):
            raise StructureError("unit index out of range")
        if basis.degrees[unit] != 0:
            raise StructureError("unit must have degree 0")
        self.unit = unit
        if top_degree is not None and basis.degrees and basis.max_degree() > top_degree:
            raise StructureError("basis exceeds the declared top degree")
        self.top_degree = top_degree
        if simply_connected:
            if basis.degree_indices(0) != (unit,):
                raise StructureError("simply-connected flag set but degree 0 is not spanned by the unit")
            if basis.degree_indices(1):
                raise StructureError("simply-connected flag set but degree 1 is nonzero")
        self.simply_connected = simply_connected

        degs = basis.degrees
        table: dict[tuple[int, int], Coeffs] = {}
        for i, j, k, c in mult:
            c = Fraction(c)
            if not c:
                continue
            for idx in (i, j, k):
                if not (0 <= idx < n):
                    raise StructureError(f"mult index {idx} out of range")
            if degs[k] != degs[i] + degs[j]:
                raise StructureError(
                    f"product entry {basis.labels[i]}*{basis.labels[j]} -> {basis.labels[k]} violates degrees"
                )
            key, sign = _canonical_pair(i, j, degs[i], degs[j])
            row = table.setdefault(key, {})
            value = sign * c
            if k in row and row[k] != value:
                raise StructureError(
                    f"inconsistent duplicate product entry for ({basis.labels[i]}, {basis.labels[j]})"
                )
            row[k] = value
        self._mult = {key: row for key, row in table.items() if any(row.values())}

        dtable: dict[int, Coeffs] = {}
        for i, j, c in diff:
            c = Fraction(c)
            if not c:
                continue
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError("differential index out of range")
            if degs[j] != degs[i] + 1:
                raise StructureError(
                    f"differential entry {basis.labels[i]} -> {basis.labels[j]} does not raise degree by 1"
                )
            row = dtable.setdefault(i, {})
            row[j] = row.get(j, ZERO) + c
        self._diff = tuple(
            {j: c for j, c in dtable.get(i, {}).items() if c} for i in range(n)
        )

    # --- basic access ---------------------------------------------------

    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {self.unit: ONE})

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: ONE})

    def element_from_label(self, label: str) -> Element:
        return self.basis_element(self.basis.index(label))

    def element(self, coeffs: Mapping[int, Fraction]) -> Element:
        return Element(self, coeffs)

    def from_label_coeffs(self, pairs: Mapping[str, Fraction]) -> Element:
        return Element(self, {self.basis.index(l): c for l, c in pairs.items()})

    def mult_basis(self, i: int, j: int) -> Coeffs:
        """Structure constants of e_i * e_j with the Koszul sign applied."""
        degs = self.basis.degrees
        key, sign = _canonical_pair(i, j, degs[i], degs[j])
        row = self._mult.get(key)
        if not row:
            return {}
        if sign == 1:
            return dict(row)
        return {k: -c for k, c in row.items()}

    def multiply(self, x: Element, y: Element) -> Element:
        if x.parent is not self or y.parent is not self:
            raise MixedParents("elements do not belong to this algebra")
        return Element(self, self.multiply_coeffs(x.coeffs, y.coeffs))

    def multiply_coeffs(self, x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> Coeffs:
        """Product of two coefficient dicts in basis coordinates."""
        degs = self.basis.degrees
        mult = self._mult
        out: Coeffs = {}
        for i, a in x.items():
            for j, b in y.items():
                if i <= j:
                    row = mult.get((i, j))
                    ab = a * b
                else:
                    row = mult.get((j, i))
                    ab = a * b if (degs[i] * degs[j]) % 2 == 0 else -(a * b)
                if row:
                    _accumulate(out, ((k, ab * c) for k, c in row.items()))
        return out

    def d_basis(self, i: int) -> Coeffs:
        return dict(self._diff[i])

    def d(self, x: Element) -> Element:
        return Element(self, self.d_coeffs(x.coeffs))

    def d_coeffs(self, x: Mapping[int, Fraction]) -> Coeffs:
        """Differential of a coefficient dict in basis coordinates."""
        return _combine(x, self._diff)

    def diff_block(self, k: int) -> SparseMatrix:
        """Matrix of d from degree k to degree k+1 in basis coordinates."""
        src = self.basis.degree_indices(k)
        tgt = self.basis.degree_indices(k + 1)
        pos = {g: r for r, g in enumerate(tgt)}
        data = {}
        for c, i in enumerate(src):
            for j, v in self._diff[i].items():
                data[(pos[j], c)] = v
        return SparseMatrix(len(tgt), len(src), data)

    def mult_entries(self) -> list[tuple[int, int, int, Fraction]]:
        out = []
        for (i, j), row in sorted(self._mult.items()):
            for k in sorted(row):
                out.append((i, j, k, row[k]))
        return out

    def diff_entries(self) -> list[tuple[int, int, Fraction]]:
        out = []
        for i, row in enumerate(self._diff):
            for j in sorted(row):
                out.append((i, j, row[j]))
        return out

    def __repr__(self) -> str:
        return f"DGAlgebra({self.name or '?'}, dim {self.dim()})"


def same_structure(a: DGAlgebra, b: DGAlgebra, relabel: Optional[dict[str, str]] = None) -> bool:
    """Whether two algebras have identical structure constants, optionally
    identifying a-labels with b-labels through `relabel`."""
    if a.dim() != b.dim():
        return False
    mapping = {}
    for i, lab in enumerate(a.basis.labels):
        target = relabel.get(lab, lab) if relabel else lab
        if target not in b.basis._index:
            return False
        j = b.basis.index(target)
        if a.basis.degrees[i] != b.basis.degrees[j]:
            return False
        mapping[i] = j
    if mapping[a.unit] != b.unit:
        return False
    for i in range(a.dim()):
        for j in range(i, a.dim()):
            left = {mapping[k]: c for k, c in a.mult_basis(i, j).items()}
            if left != b.mult_basis(mapping[i], mapping[j]):
                return False
        left_d = {mapping[k]: c for k, c in a.d_basis(i).items()}
        if left_d != b.d_basis(mapping[i]):
            return False
    return True


# --- axiom verification --------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    ok: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    def failed(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.ok]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            line = f"{c.axiom}: {status}"
            if c.witness:
                line += f"  [{c.witness}]"
            out.append(line)
        return out


def check_cdga(a: DGAlgebra) -> AxiomReport:
    """CDGA axiom check over every basis tuple whose terms can be nonzero.

    Verifies the unit, graded commutativity, associativity, d squared zero
    and the Leibniz rule; each failing axiom reports its first failing
    tuple in lexicographic order as the witness. The checks run on the
    table of basis products and the rows of d, without building elements.

    Associativity and Leibniz iterate by degree block. A product landing
    above the top basis degree is zero, because the constructor rejects
    entries that do not add degrees, so both sides vanish on a triple of
    total degree above the top, and on a Leibniz pair whose degrees sum
    to the top or more (every term lies one degree higher). The basis is
    sorted by degree, so once the leading indices are fixed, the next
    indices of small enough degree form a prefix range. Inside the ranges
    a tuple is also passed over when every term on both sides has a zero
    factor (see the comments at each loop). No tuple that is passed over
    can fail, so the report, witnesses included, is the one a sweep over
    all basis tuples in lexicographic order gives.

    The checks run on integer tables: every structure constant is
    multiplied by the lcm D of their denominators, and every entry of d by
    the lcm E of theirs. Each axiom is homogeneous in these tables: the
    unit and graded commutativity are linear in the products (the unit row
    is compared with D), associativity is of degree 2 in the products, d
    squared of degree 2 in d, and the Leibniz rule of degree 1 in each. So
    both sides of each comparison are the rational ones times the same
    nonzero factor, and every verdict and witness tuple is the rational
    sweep's. The d squared witness prints the element recomputed from the
    unscaled rows.
    """
    labels = a.basis.labels
    degs = a.basis.degrees
    n = a.dim()
    top = a.basis.max_degree()
    checks = []

    def to_integers(rows):
        """The rows times the lcm of all their denominators, and that lcm."""
        scale = lcm(*(c.denominator for row in rows for c in row.values()))
        return [{k: c.numerator * (scale // c.denominator) for k, c in row.items()}
                for row in rows], scale

    # pair[i][j] = D * e_i * e_j with the Koszul sign applied (as
    # `mult_basis` gives it, built from the stored entries only), and its
    # transpose
    mult_rows, unit_scale = to_integers(list(a._mult.values()))
    empty: Coeffs = {}
    pair = [[empty] * n for _ in range(n)]
    for (i, j), row in zip(a._mult, mult_rows):
        pair[i][j] = row
        if j != i:
            odd = degs[i] * degs[j] % 2
            pair[j][i] = {k: -c for k, c in row.items()} if odd else row
    pair_t = [list(column) for column in zip(*pair)]
    drows, _ = to_integers(a._diff)

    def upto(d: int) -> int:
        """Number of basis indices of degree at most d (a prefix)."""
        return bisect_right(degs, d)

    witness = None
    for i in range(n):
        if pair[a.unit][i] != {i: unit_scale}:
            witness = f"1*{labels[i]} != {labels[i]}"
            break
    checks.append(AxiomCheck("unit", witness is None, witness))

    witness = None
    for i in range(n):
        for j in range(i, n):
            sign = (-1) ** (degs[i] * degs[j])
            if pair[i][j] != {k: sign * c for k, c in pair[j][i].items()}:
                witness = f"({labels[i]}, {labels[j]})"
                break
        if witness:
            break
    checks.append(AxiomCheck("graded_commutativity", witness is None, witness))

    # (e_i e_j) e_k against e_i (e_j e_k). For k in its degree range, the
    # left side can be nonzero only if e_m e_k != 0 for a term e_m of
    # e_i e_j, and the right side only if e_j e_k != 0; at every other k
    # both sides are zero, so only those partner indices are evaluated.
    partners = [[k for k, row in enumerate(pair[m]) if row] for m in range(n)]
    witness = None
    for i in range(n):
        pi = pair[i]
        for j in range(upto(top - degs[i])):
            pij = pi[j]
            pj = pair[j]
            limit = upto(top - degs[i] - degs[j])
            candidates = set(partners[j])
            for m in pij:
                candidates.update(partners[m])
            for k in sorted(candidates):
                if k >= limit:
                    break
                if _combine(pij, pair_t[k]) != _combine(pj[k], pi):
                    witness = f"({labels[i]}, {labels[j]}, {labels[k]})"
                    break
            if witness:
                break
        if witness:
            break
    checks.append(AxiomCheck("associativity", witness is None, witness))

    witness = None
    for i in range(n):
        if _combine(drows[i], drows):
            witness = f"d²({labels[i]}) = {Element(a, _combine(a._diff[i], a._diff))}"
            break
    checks.append(AxiomCheck("d_squared", witness is None, witness))

    # d(e_i e_j) against d(e_i) e_j + (-1)^|e_i| e_i d(e_j)
    negated = [{t: -c for t, c in row.items()} for row in drows]
    witness = None
    for i in range(n):
        di = drows[i]
        pi = pair[i]
        signed = negated if degs[i] % 2 else drows
        for j in range(upto(top - 1 - degs[i])):
            if not pi[j] and not di and not drows[j]:
                continue
            rhs = _combine(signed[j], pi, _combine(di, pair_t[j]))
            if _combine(pi[j], drows) != rhs:
                witness = f"({labels[i]}, {labels[j]})"
                break
        if witness:
            break
    checks.append(AxiomCheck("leibniz", witness is None, witness))

    return AxiomReport(tuple(checks))


# --- cohomology ------------------------------------------------------------


@dataclass(frozen=True)
class DegreeCohomology:
    betti: int
    representatives: tuple[Element, ...]
    coboundaries: tuple[Element, ...]


@dataclass(frozen=True)
class CohomologyReport:
    space: object
    degrees: dict[int, DegreeCohomology] = field(default_factory=dict)

    def betti(self, k: int) -> int:
        entry = self.degrees.get(k)
        return entry.betti if entry else 0

    def betti_vector(self, up_to: Optional[int] = None) -> list[int]:
        if up_to is None:
            up_to = max(self.degrees) if self.degrees else 0
        return [self.betti(k) for k in range(up_to + 1)]

    def total_rank(self) -> int:
        return sum(e.betti for e in self.degrees.values())


def cohomology(space: DGAlgebra) -> CohomologyReport:
    """Cohomology of a finite cochain complex with deterministic
    representatives, reduced against the coboundary basis.

    `space` is any DGAlgebra: algebras, cones and quotient algebras all
    qualify. Raises NotAComplex when d squared is nonzero.
    """
    basis = space.basis
    for i in range(len(basis)):
        dd_coeffs = space.d_coeffs(space.d_basis(i))
        if dd_coeffs:
            witness_terms = ", ".join(
                f"{c}*{basis.labels[k]}" for k, c in sorted(dd_coeffs.items())
            )
            raise NotAComplex(basis.degrees[i], (basis.labels[i], witness_terms))

    degrees = basis.degrees_present()
    report: dict[int, DegreeCohomology] = {}
    if not degrees:
        return CohomologyReport(space, report)

    outgoing = space.diff_block(-1)
    for k in range(0, basis.max_degree() + 1):
        incoming, outgoing = outgoing, space.diff_block(k)
        idx = basis.degree_indices(k)
        if not idx:
            report[k] = DegreeCohomology(0, (), ())
            continue
        dim = len(idx)

        # coboundaries: the span of the columns of the incoming block;
        # cocycles: the kernel of the outgoing one
        cob_rows = row_space_basis(incoming.transpose().dense_rows(), dim)
        pivots = _pivots(cob_rows)
        reduced = [_reduce(cob_rows, pivots, v) for v in kernel_basis(outgoing)]
        rep_rows = row_space_basis([r for r in reduced if any(r)], dim)

        def to_element(vec: list[Fraction]) -> Element:
            return Element(space, {idx[c]: v for c, v in enumerate(vec) if v})

        report[k] = DegreeCohomology(
            betti=len(rep_rows),
            representatives=tuple(to_element(v) for v in rep_rows),
            coboundaries=tuple(to_element(v) for v in cob_rows),
        )
    return CohomologyReport(space, report)


def betti_table(space, up_to: Optional[int] = None) -> list[int]:
    """Betti numbers of the complex underlying `space` as a flat list."""
    return cohomology(space).betti_vector(up_to)


def cocycle_vectors(space: DGAlgebra, k: int) -> list[list[Fraction]]:
    """Basis of the degree-k cocycles in degree-block coordinates."""
    return kernel_basis(space.diff_block(k))
