"""Finite-dimensional graded-commutative algebras with differential.

An algebra is given by a labeled graded basis, sparse multiplication
structure constants and a sparse degree +1 differential. The constructor
folds the given constants into one entry per unordered pair, which makes
inconsistent duplicate entries impossible, and then stores the product of
every ordered pair with the Koszul sign applied, so no reader decides a
sign again. The one commutativity failure that survives this is a nonzero
square of an odd generator, which `check_cdga` reports with the offending
pair as witness.

Axiom verification walks degree blocks on the raw product and
differential tables, over a generating set where its lemma applies and
else over every basis tuple whose products can be nonzero (see
`check_cdga`); failures are report entries, never exceptions. Betti
numbers are read off the ranks of the blocks of d (`betti_vector`), and
cohomology with deterministic representatives is computed degree by degree
for the callers that read them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import MixedParents, NotAComplex, StructureError
from .linalg import (RationalFunction, Scalar, _accumulate, _columns, _combine, _exact,
                     _first_not_squaring_to_zero, _negated, _reduce, _residues,
                     kernel_basis, row_space_basis, rref)

Coeffs = dict[int, Scalar]


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

    def __init__(self, parent, coeffs: Mapping[int, Scalar]):
        self.parent = parent
        self.coeffs: Coeffs = {i: _exact(c) for i, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

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
        c = _exact(c)
        if not c:
            return Element(self.parent, {})
        return Element(self.parent, {i: c * v for i, v in self.coeffs.items()})

    def __rmul__(self, c):
        if isinstance(c, Scalar):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Scalar):
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

    def vector(self, indices: Sequence[int]) -> list[Scalar]:
        """Coordinates along the given basis indices (zero elsewhere allowed
        only if the element is supported there)."""
        return [self.coeffs.get(i, 0) for i in indices]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            label = self.parent.basis.labels[i]
            if type(c) is RationalFunction:
                # a coefficient over a family's parameters has no sign
                parts.append(f"{'+ ' if parts else ''}({c})*{label}")
                continue
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


def _fold_products(basis: GradedBasis, mult: Iterable[tuple[int, int, int, Scalar]]
                   ) -> dict[tuple[int, int], Coeffs]:
    """Checked product entries (i, j, k, c), one row per unordered pair
    (i <= j) with the Koszul sign applied; zero constants are dropped."""
    n = len(basis)
    degs = basis.degrees
    table: dict[tuple[int, int], Coeffs] = {}
    for i, j, k, c in mult:
        c = _exact(c)
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
    return table


class DGAlgebra:
    """Graded-commutative algebra with a degree +1 differential.

    `mult` entries are (i, j, k, c) meaning e_i * e_j = sum c e_k; an
    entry may be given for either order, and the other order is derived
    with the Koszul sign. The products are stored as `_mult[i][j]`, the
    coefficients of e_i * e_j with that sign applied. `diff` entries are
    (i, j, c) meaning d e_i = sum c e_j; they are stored as one row per
    basis index, empty for cocycles. Rows of both tables are shared and
    never mutated.
    """

    def __init__(
        self,
        basis: GradedBasis,
        unit: int,
        mult: Iterable[tuple[int, int, int, Scalar]],
        diff: Iterable[tuple[int, int, Scalar]] = (),
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
        table = _fold_products(basis, mult)
        # (j, i) shares the (i, j) row unless both degrees are odd, and
        # zero products share one empty row
        empty: Coeffs = {}
        rows = [[empty] * n for _ in range(n)]
        for (i, j), row in table.items():
            rows[i][j] = row
            if j != i:
                rows[j][i] = {k: -c for k, c in row.items()} if degs[i] * degs[j] % 2 else row
        self._mult: tuple[tuple[Coeffs, ...], ...] = tuple(map(tuple, rows))

        dtable: dict[int, Coeffs] = {}
        for i, j, c in diff:
            c = _exact(c)
            if not c:
                continue
            if not (0 <= i < n and 0 <= j < n):
                raise StructureError("differential index out of range")
            if degs[j] != degs[i] + 1:
                raise StructureError(
                    f"differential entry {basis.labels[i]} -> {basis.labels[j]} does not raise degree by 1"
                )
            _accumulate(dtable.setdefault(i, {}), ((j, c),))
        self._diff = tuple(dtable.get(i, {}) for i in range(n))

    def with_square(self, i: int, coeffs: Mapping[int, Scalar], *, name: str) -> "DGAlgebra":
        """This algebra with e_i * e_i = sum c e_k, where e_i * e_i is zero
        here. The basis, the unit, the rows of d and every other product
        row are this algebra's own objects; the new row is checked as the
        entries constructor checks an entry."""
        n = len(self.basis)
        if not (0 <= i < n):
            raise StructureError(f"mult index {i} out of range")
        if self._mult[i][i]:
            label = self.basis.labels[i]
            raise StructureError(f"the product {label}*{label} is already nonzero")
        row = _fold_products(self.basis, ((i, i, k, c) for k, c in coeffs.items())).get((i, i), {})
        derived = DGAlgebra.__new__(DGAlgebra)
        derived.basis, derived.unit, derived._diff = self.basis, self.unit, self._diff
        derived.name, derived.top_degree = name, self.top_degree
        derived.simply_connected = self.simply_connected
        rows = self._mult[i]
        derived._mult = self._mult[:i] + (rows[:i] + (row,) + rows[i + 1:],) + self._mult[i + 1:]
        return derived

    # --- basic access ---------------------------------------------------

    def dim(self) -> int:
        return len(self.basis)

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {self.unit: 1})

    def basis_element(self, i: int) -> Element:
        return Element(self, {i: 1})

    def element(self, coeffs: Mapping[int, Scalar]) -> Element:
        return Element(self, coeffs)

    def from_label_coeffs(self, pairs: Mapping[str, Scalar]) -> Element:
        return Element(self, {self.basis.index(l): c for l, c in pairs.items()})

    def multiply(self, x: Element, y: Element) -> Element:
        if x.parent is not self or y.parent is not self:
            raise MixedParents("elements do not belong to this algebra")
        return Element(self, self.multiply_coeffs(x.coeffs, y.coeffs))

    def multiply_coeffs(self, x: Mapping[int, Scalar], y: Mapping[int, Scalar]) -> Coeffs:
        """Product of two coefficient dicts in basis coordinates."""
        mult = self._mult
        out: Coeffs = {}
        for i, a in x.items():
            rows = mult[i]
            for j, b in y.items():
                row = rows[j]
                if row:
                    _accumulate(out, row.items(), a * b)
        return out

    def d_basis(self, i: int) -> Coeffs:
        return dict(self._diff[i])

    def d(self, x: Element) -> Element:
        return Element(self, self.d_coeffs(x.coeffs))

    def d_coeffs(self, x: Mapping[int, Scalar]) -> Coeffs:
        """Differential of a coefficient dict in basis coordinates."""
        return _combine(x, self._diff)

    def mult_entries(self) -> list[tuple[int, int, int, Scalar]]:
        """The products e_i * e_j with i <= j, in sorted order."""
        out = []
        for i, rows in enumerate(self._mult):
            for j in range(i, len(rows)):
                row = rows[j]
                for k in sorted(row):
                    out.append((i, j, k, row[k]))
        return out

    def diff_entries(self) -> list[tuple[int, int, Scalar]]:
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
            left = {mapping[k]: c for k, c in a._mult[i][j].items()}
            if left != b._mult[mapping[i]][mapping[j]]:
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


def _action_sweep(rows, act, rdiff, diff, rdegs, degs, unit, first, covered_m):
    """The first failing tuple of each action axiom of a ring on a module.

    The ring has products `rows[i][j]` = e_i e_j (as `DGAlgebra._mult`),
    rows of d `rdiff`, degrees `rdegs` and unit index `unit`; the module has
    action rows `act[r][m]` = e_r . e_m, rows of d `diff` and degrees
    `degs`. Both bases are sorted by degree. Returns the first failure in
    lexicographic order, or None, of

    - the unit: m with 1 . e_m != e_m;
    - associativity: (r1, r2, m) with (e_r1 e_r2) . e_m != e_r1 . (e_r2 . e_m);
    - d squared: m with d d e_m != 0;
    - the Leibniz rule: (r, m) with
      d(e_r . e_m) != d(e_r) . e_m + (-1)^|e_r| e_r . d(e_m).

    A ring acting on itself has `act` = `rows` and `diff` = `rdiff`.

    `first` lists, in increasing order, the ring indices visited as r1 of
    an associativity triple and as r of a Leibniz pair; r2 and m range
    over every index. A caller that lists every ring index, or every
    one but a covered unit (see below), gets the first failures of a sweep
    over all tuples. `check_cdga` lists a generating set instead, shows by
    its lemma that the tuples left out cannot fail when the restricted
    ones pass, and sweeps again with every index when they do not.

    Associativity and Leibniz pass over tuples whose two sides are equal,
    so each first failure is the one a sweep over all tuples finds. Both
    sides are zero:

    - above the module's top degree, where both constructors allow no
      entry: on a triple whose degrees sum above it, and on a Leibniz pair
      whose degrees sum to it or more (every term lies one degree higher).
      The bases are sorted by degree, so once the leading indices are
      fixed, the next indices of small enough degree form a prefix range;
      r2's range leaves room for the module's lowest degree;
    - at m with e_r2 . e_m = 0 and e_t . e_m = 0 for every term e_t of
      e_r1 e_r2: only these partner indices m are evaluated;
    - on a Leibniz pair with e_r . e_m = 0, d e_r = 0 and d e_m = 0.

    Both sides are equal on a tuple with a unit factor once the unit row
    passed. The caller leaves the unit out of `first` only if the ring's
    unit row is {r: 1} for every r and d(1) = 0; r2 then passes over the
    unit as well. It passes the unit as `covered_m` only if the module is
    the ring itself; else -1, which matches no index. With the module's
    unit check passed as well, a triple with the unit as r1 or r2 has both
    sides e_r2 . e_m or e_r1 . e_m (e_r1 * 1 = 1 * e_r1: the algebra
    constructor derives one from the other with sign +1), and one ending
    in the unit has both sides e_r1 e_r2. A Leibniz pair with a unit
    factor has both sides d(e_m) or d(e_r) only if d(1) = 0 as well. When
    the module's unit check fails, every index is visited in every
    position.
    """
    n = len(degs)
    top, low = (degs[-1], degs[0]) if degs else (0, 0)
    unit_failure = next((m for m in range(n) if act[unit][m] != {m: 1}), None)
    if unit_failure is not None:
        first, covered_m = range(len(rows)), -1
    covered_r = -1 if unit in first else unit
    # act_t[m][r] = e_r . e_m: the action on e_m as a map of the ring
    act_t = [list(column) for column in zip(*act)]
    # partners[t]: the module indices m with e_t . e_m != 0
    partners = [[m for m, row in enumerate(act_rows) if row] for act_rows in act]

    def associativity():
        for r1 in first:
            products, act1 = rows[r1], act[r1]
            # bisect_right(degs, d) is the number of indices of degree at most d
            for r2 in range(bisect_right(rdegs, top - rdegs[r1] - low)):
                if r2 == covered_r:
                    continue
                prod, act2 = products[r2], act[r2]
                limit = bisect_right(degs, top - rdegs[r1] - rdegs[r2])
                candidates = set(partners[r2])
                for t in prod:
                    candidates.update(partners[t])
                candidates.discard(covered_m)
                for m in sorted(candidates):
                    if m >= limit:
                        break
                    if _combine(prod, act_t[m]) != _combine(act2[m], act1):
                        return r1, r2, m
        return None

    def leibniz():
        skip_m = -1 if rdiff[unit] else covered_m
        negated = _negated(diff)
        for r in first:
            act_r, dr = act[r], rdiff[r]
            signed = negated if rdegs[r] % 2 else diff
            for m in range(bisect_right(degs, top - 1 - rdegs[r])):
                if m == skip_m or not act_r[m] and not dr and not diff[m]:
                    continue
                # d(e_r . e_m) against d(e_r) . e_m + (-1)^|e_r| e_r . d(e_m)
                if _combine(act_r[m], diff) != _combine(signed[m], act_r, _combine(dr, act_t[m])):
                    return r, m
        return None

    return unit_failure, associativity(), _first_not_squaring_to_zero(diff), leibniz()


def _generating_set(a: DGAlgebra) -> Optional[list[int]]:
    """The generating set S of `check_cdga`'s lemma, in increasing index
    order, or None when A^0 is not Q.1 or d(1) != 0.

    S is chosen greedily by degree: a basis element e_i of degree k > 0
    joins S when the products e_s e_j with s already in S and
    |e_j| = k - |e_s| > 0 do not span it. A product with one term
    c e_t covers e_t directly; the rows with more terms, read modulo the
    covered elements, go through one `rref`, and the elements of degree k
    that are neither covered nor pivots join S. A row that holds a
    `RationalFunction` is left out of the test, so the products of
    rational rows span A^k, over Q and over the field of rational
    functions alike, and so at every point of a family.
    """
    basis, mult, degs = a.basis, a._mult, a.basis.degrees
    if basis.degree_indices(0) != (a.unit,) or a._diff[a.unit]:
        return None
    gens: list[int] = []
    for k in basis.degrees_present()[1:]:
        covered, rows = set(), []
        for s in gens:
            products = mult[s]
            for j in basis.degree_indices(k - degs[s]):
                row = products[j]
                if len(row) == 1:
                    (t, c), = row.items()
                    if type(c) is not RationalFunction:
                        covered.add(t)
                elif row and all(type(c) is not RationalFunction for c in row.values()):
                    rows.append(row)
        rest = [i for i in basis.degree_indices(k) if i not in covered]
        if rows and rest:
            pivots = set(rref([[row.get(i, 0) for i in rest] for row in rows], len(rest))[1])
            rest = [i for c, i in enumerate(rest) if c not in pivots]
        gens += rest
    return gens


def check_cdga(a: DGAlgebra) -> AxiomReport:
    """CDGA axiom check, on a generating set where its lemma applies and
    else over every basis tuple whose terms can be nonzero.

    Verifies the unit, graded commutativity, associativity, d squared zero
    and the Leibniz rule; each failing axiom reports its first failing
    tuple in lexicographic order as the witness. The checks run on the
    table of basis products and the rows of d, without building elements.

    All but graded commutativity are the axioms of A as a dg-module over
    itself, checked by `_action_sweep` on A's own tables; its docstring
    gives the argument for the tuples it passes over. Graded commutativity
    needs no sweep: the constructor derives the product of (e_j, e_i) from
    the one of (e_i, e_j) with the Koszul sign, so for i < j the
    comparison is an identity. Only a pair (e_i, e_i) with |e_i| odd can
    fail, and it fails exactly when e_i^2 != 0; only those squares are
    compared.

    The generator lemma. Premises: A^0 = Q.1, d(1) = 0, the unit row
    passed (1 e_x = e_x, and e_x 1 = e_x by construction), and S is a set
    of basis elements of positive degree such that for every k > 0, A^k
    is spanned by the products e_s e_j with s in S and |e_j| = k - |e_s|,
    e_j the unit included (`_generating_set`). Then

    - if (e_s e_x) e_y = e_s (e_x e_y) for every s in S and all x, y, A is
      associative;
    - if A is associative and d(e_s e_x) = d(e_s) e_x + (-1)^|e_s| e_s d(e_x)
      for every s in S and all x, the Leibniz rule holds on every pair.

    Proof, by induction on |a| for a in A, both sides being linear in a.
    For |a| = 0, a = c.1 and both identities hold by the unit and
    d(1) = 0. For |a| > 0, a is a sum of terms s a' with s in S and
    |a'| < |a|, so it suffices to take a = s a'. Associativity:
    ((s a') x) y = (s (a' x)) y = s ((a' x) y) = s (a' (x y)) = (s a')(x y),
    using the hypothesis on s three times and the induction on a' once.
    Leibniz: d((s a') x) = d(s (a' x)) = ds a' x + (-1)^|s| s d(a' x), and
    d(a' x) = da' x + (-1)^|a'| a' dx by induction; this is
    (ds a' + (-1)^|s| s da') x + (-1)^(|s|+|a'|) s a' dx
    = d(s a') x + (-1)^|a| (s a') dx, by associativity and the rule on s.

    So `check_cdga` sweeps associativity and Leibniz with r1 and r in S
    only. It falls back to the sweep over every index when A^0 != Q.1 or
    d(1) != 0 (no S is formed), when the unit row fails, or when any
    restricted tuple fails. A restricted sweep that passes thus shows what
    the full sweep would, and every failure is reported by the full sweep:
    every report and every witness is the full sweep's.

    Entries may be symbolic: with a `linalg.RationalFunction` entry the
    sweep runs over the field of rational functions, where a comparison
    passes only if it holds identically in the symbols
    (`twisted.TruncatedCone` checks a whole family this way). S is formed
    from rational rows only, so the lemma holds over that field too.
    """
    labels, degs, pair, drows = a.basis.labels, a.basis.degrees, a._mult, a._diff
    n = len(degs)

    def sweep(first):
        return _action_sweep(pair, pair, drows, drows, degs, degs, a.unit, first, a.unit)

    gens = _generating_set(a)
    found = None if gens is None else sweep(gens)
    # the lemma stands only if the unit and every restricted tuple passed;
    # d squared is checked on every index by either sweep
    if found is None or (found[0], found[1], found[3]) != (None, None, None):
        # the unit's tuples are covered only when d(1) = 0
        found = sweep(range(n) if drows[a.unit] else [r for r in range(n) if r != a.unit])
    unit, assoc, dd, leibniz = found

    def witness(index_tuple):
        return None if index_tuple is None else f"({', '.join(labels[i] for i in index_tuple)})"

    # pair[j][i] is +-pair[i][j] by construction: only odd squares can fail
    odd_square = next((i for i, d in enumerate(degs) if d % 2 and pair[i][i]), None)
    checks = (
        ("unit", None if unit is None else f"1*{labels[unit]} != {labels[unit]}"),
        ("graded_commutativity", witness(None if odd_square is None else (odd_square,) * 2)),
        ("associativity", witness(assoc)),
        ("d_squared",
         None if dd is None else f"d²({labels[dd]}) = {Element(a, _combine(drows[dd], drows))}"),
        ("leibniz", witness(leibniz)),
    )
    return AxiomReport(tuple(AxiomCheck(axiom, w is None, w) for axiom, w in checks))


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


def _coboundaries_and_cocycles(diff: Sequence[Mapping[int, Scalar]],
                               indices: Mapping[int, Sequence[int]]) -> dict[int, tuple]:
    """Per degree k of a cochain complex given by its rows of d (the
    `DGAlgebra._diff` layout) and each degree's basis indices: the rref
    rows spanning the coboundaries and a kernel basis of the cocycles, in
    degree-k block coordinates. b_k is the number of cocycles less the rows."""
    # the block of d out of degree k, one column per basis element
    blocks = {k: _columns([diff[i] for i in idx], indices.get(k + 1, ()))
              for k, idx in indices.items()}
    out = {}
    for k, idx in sorted(indices.items()):
        # coboundaries: the span of the columns of the incoming block;
        # cocycles: the kernel of the outgoing one
        images = list(zip(*blocks[k - 1])) if k - 1 in blocks else []
        out[k] = (row_space_basis(images, len(idx)), kernel_basis(blocks[k], len(idx)))
    return out


def _betti_numbers(diff: Sequence[Mapping[int, Scalar]],
                   indices: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """b_k = dim C^k - rank d_k - rank d_(k-1) in every degree k of a
    cochain complex given by its rows of d (the `DGAlgebra._diff` layout)
    and each degree's basis indices, with one `rref` per block of d: the
    nonzero rows of d out of degree k, read at the indices of degree k+1.
    When d squares to zero this is dim ker d_k - dim im d_(k-1)."""
    ranks = {}
    for k, idx in indices.items():
        images = [diff[i] for i in idx if diff[i]]
        target = indices.get(k + 1, ())
        ranks[k] = len(rref([[row.get(t, 0) for t in target] for row in images],
                            len(target))[1]) if images else 0
    return {k: len(idx) - ranks[k] - ranks.get(k - 1, 0) for k, idx in sorted(indices.items())}


def _require_complex(space: DGAlgebra) -> None:
    """Raise NotAComplex, with the first basis element whose d^2 is
    nonzero, unless d squares to zero."""
    basis = space.basis
    i = _first_not_squaring_to_zero(space._diff)
    if i is not None:
        dd_coeffs = space.d_coeffs(space._diff[i])
        witness_terms = ", ".join(f"{c}*{basis.labels[k]}" for k, c in sorted(dd_coeffs.items()))
        raise NotAComplex(basis.degrees[i], (basis.labels[i], witness_terms))


def betti_vector(space: DGAlgebra, up_to: Optional[int] = None) -> list[int]:
    """The Betti numbers of `space` in degrees 0 to `up_to` (by default its
    top degree), read off the ranks of d (`_betti_numbers`): the vector
    `cohomology(space).betti_vector(up_to)` gives, without cocycles or
    representatives. Raises NotAComplex when d squared is nonzero."""
    _require_complex(space)
    basis = space.basis
    betti = _betti_numbers(space._diff, basis._by_degree)
    if up_to is None:
        up_to = basis.max_degree()
    return [betti.get(k, 0) for k in range(up_to + 1)]


def cohomology(space: DGAlgebra) -> CohomologyReport:
    """Cohomology of a finite cochain complex with deterministic
    representatives, reduced against the coboundary basis, for callers
    that read the representatives; `betti_vector` gives the Betti numbers
    alone.

    `space` is any DGAlgebra: algebras, cones and quotient algebras all
    qualify. Raises NotAComplex when d squared is nonzero. The cocycles of
    `_coboundaries_and_cocycles` are reduced modulo its coboundaries.
    """
    basis = space.basis
    _require_complex(space)

    # a degree without basis elements has no cohomology
    report = {k: DegreeCohomology(0, (), ()) for k in range(max(basis.degrees, default=-1) + 1)}
    per_degree = _coboundaries_and_cocycles(space._diff, basis._by_degree)
    for k, (cob_rows, cocycles) in per_degree.items():
        idx = basis.degree_indices(k)
        dim = len(idx)
        residues = _residues(cob_rows, range(dim))
        reduced = []
        for v in cocycles:
            rep = _reduce({c: x for c, x in enumerate(v) if x}, residues)
            reduced.append([rep.get(c, 0) for c in range(dim)])
        rep_rows = row_space_basis([r for r in reduced if any(r)], dim)

        def to_element(vec: list[Scalar]) -> Element:
            return Element(space, {idx[c]: v for c, v in enumerate(vec) if v})

        report[k] = DegreeCohomology(
            betti=len(rep_rows),
            representatives=tuple(to_element(v) for v in rep_rows),
            coboundaries=tuple(to_element(v) for v in cob_rows),
        )
    return CohomologyReport(space, report)


def cocycle_vectors(space: DGAlgebra, k: int) -> list[list[Scalar]]:
    """Basis of the degree-k cocycles in degree-block coordinates."""
    idx = space.basis.degree_indices
    return kernel_basis(_columns([space._diff[i] for i in idx(k)], idx(k + 1)), len(idx(k)))
