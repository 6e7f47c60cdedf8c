"""Degree-truncated generator tables over a tensor square, their
verification, and the staged obstruction solver deciding whether two
tables admit an isomorphism fixing the base.

A table describes a free extension base (x) Lambda(generators) with a
differential given on each generator and an evaluation map into a twisted
model. Free-algebra elements are dictionaries

    (base index, sorted generator tuple) -> coefficient,

with Koszul signs produced mechanically when monomials are merged; odd
generators square to zero structurally, even generators admit powers.

The solver writes the most general degree-preserving multiplicative map
psi fixing the base (one unknown per matching-degree monomial per
generator), walks the generators in increasing degree, and turns each
coefficient of psi(D1 g) - D2(psi g) into an affine equation. Products of
unknowns appear only through psi of decomposables; once earlier unknowns
are pinned these become affine, and anything that stays nonlinear is
returned honestly as Unresolved. An inconsistent equation proves no such
map exists at all, which is the Obstructed verdict.

The same solver runs on tables whose coefficients are rational functions
of a family's parameters; `classify_example` decides its whole family that
way and evaluates the verdict at each pair of values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

from .algebra import Element, same_structure
from .errors import IncompatibleTables, StructureError
from .io import TableDocument
from .linalg import (Parameters, Poly, RationalFunction, Scalar, _accumulate, _at_point,
                     _columns, _divide, _exact, _reduce, invert)
from .presets import preset_table
from .products import TensorAlgebra
from .twisted import TwistedModel, _same_but_square

Monomial = tuple[int, tuple[int, ...]]
FreeElt = dict  # Monomial -> coefficient (a Scalar or RationalFunction, or a Poly in the solver)


# --- the affine system ------------------------------------------------------


class InconsistentSystem(Exception):
    def __init__(self, constant: Scalar, provenance: str):
        self.constant = constant
        self.provenance = provenance
        super().__init__(f"0 = {constant} ({provenance})")


class AffineSystem:
    """Incrementally reduced affine system  sum coeffs . x = const, kept as
    a residue table over the unknowns (see `linalg._residues`).

    Each pivot v has `residues[v]` and `consts[v]`, with
    x_v = consts[v] + sum of residues[v][w] * x_w, and the table is kept
    fully reduced: no residue holds a pivot. So an equation is reduced by
    `linalg._reduce` through the table, its constant moved by the pivots'
    `consts`, and an unknown is determined exactly when its residue is
    empty; `determined` maps those unknowns to their values. Inserting an
    equation that reduces to 0 = c with c nonzero raises
    InconsistentSystem; that is a proof of unsolvability.
    """

    def __init__(self):
        self.residues: dict[int, dict[int, Scalar]] = {}
        self.consts: dict[int, Scalar] = {}
        self.determined: dict[int, Scalar] = {}

    def add(self, coeffs: dict[int, Scalar], const: Scalar, provenance: str
            ) -> list[tuple[int, Scalar]]:
        """Insert one equation; returns newly determined (var, value) pairs."""
        residues, consts = self.residues, self.consts
        # determined unknowns, whose residues are empty, are substituted first
        for v in sorted((v for v in coeffs if v in residues), key=lambda v: bool(residues[v])):
            const -= coeffs[v] * consts[v]
        coeffs, const = _reduce(coeffs, residues), _exact(const)
        if not coeffs:
            if const:
                raise InconsistentSystem(const, provenance)
            return []
        pivot = min(coeffs)
        p = coeffs.pop(pivot)
        # x_pivot = const / p - sum of (c / p) x_w
        if p == 1:
            residue = {w: -c for w, c in coeffs.items()}
        else:
            # a -1 pivot only flips signs; any other needs a true division
            inv = -1 if p == -1 else _divide(1, p)
            residue = {w: _exact(-c * inv) for w, c in coeffs.items()}
            const = _exact(const * inv)
        # substitute the new pivot into the residues that hold it
        newly = []
        for v, held in residues.items():
            factor = held.get(pivot)
            if factor:
                del held[pivot]
                _accumulate(held, residue.items(), factor)
                consts[v] = _exact(consts[v] + factor * const)
                if not held:
                    newly.append((v, consts[v]))
        residues[pivot], consts[pivot] = residue, const
        if not residue:
            newly.append((pivot, const))
        self.determined.update(newly)
        return newly


# --- generator tables --------------------------------------------------------


@dataclass(frozen=True)
class _Unknowns:
    """The solver's unknowns for one base, generator list and cap:
    `names[var]`, psi of each generator as a sum of unknown * monomial,
    and the unknowns that multiply the generator itself in its own
    image."""

    names: dict[int, str]
    images: list[FreeElt]
    diagonal: frozenset[int]


@dataclass(frozen=True)
class GeneratorTable:
    """A free extension of the tensor square by finitely many generators,
    truncated at `degree_cap`, together with an evaluation into a twisted
    model.

    The table keeps what the obstruction solver derives from it in every
    solve it takes part in: D of each single monomial (`_d`, read through
    `monomial_d`), the text of each monomial (`_text`, read through
    `monomial_str`), the unknowns of psi (`_unknowns`), and the table's
    half of the commutator psi(D1 g) - D2(psi g) for each generator g:
    psi(D g) when the table is the source (`_psi_of_d`), -D(psi g) when it
    is the target (`_minus_d_of_psi`). All of it depends only on `base`,
    `gens`, `differentials` and `degree_cap`, which a frozen table never
    changes; the dicts inside `differentials` are treated as immutable.
    The caches belong to the table and are freed with it; a copy made with
    `dataclasses.replace` starts with empty ones.
    """

    base: TensorAlgebra
    gens: tuple[tuple[str, int], ...]
    differentials: tuple[FreeElt, ...]
    target: Optional[TwistedModel]
    evaluation: tuple[Element, ...]
    degree_cap: int
    name: str = ""
    _d: dict[Monomial, FreeElt] = field(default_factory=dict, init=False, repr=False,
                                        compare=False)
    _text: dict[Monomial, str] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)
    # the document and the rational values that `TableDocument.table`
    # built this table at, set there and nowhere else; `check_table` may
    # take the document's report for the table (`_document_report`). A
    # copy made with `dataclasses.replace` was built by no document.
    _built_from: Optional[tuple[TableDocument, dict[str, Scalar]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.differentials) != len(self.gens):
            raise StructureError("one differential per generator is required")
        if self.target is not None and len(self.evaluation) != len(self.gens):
            raise StructureError("one evaluation per generator is required")
        for label, degree in self.gens:
            if degree <= 0:
                raise StructureError(f"generator {label} must have positive degree")

    # -- monomial helpers ---------------------------------------------------

    def gen_degree(self, g: int) -> int:
        return self.gens[g][1]

    def gen_label(self, g: int) -> str:
        return self.gens[g][0]

    def monomial_degree(self, mono: Monomial) -> int:
        b, gens = mono
        return self.base.basis.degrees[b] + sum(self.gen_degree(g) for g in gens)

    def monomial_str(self, mono: Monomial) -> str:
        """The monomial as text, cached in `_text`."""
        text = self._text.get(mono)
        if text is not None:
            return text
        b, gens = mono
        parts = []
        i = 0
        while i < len(gens):
            j = i
            while j < len(gens) and gens[j] == gens[i]:
                j += 1
            power = j - i
            label = self.gen_label(gens[i])
            parts.append(label if power == 1 else f"{label}^{power}")
            i = j
        if b != self.base.unit or not parts:
            base_label = self.base.basis.labels[b]
            parts.append(base_label if "*" not in base_label else f"({base_label})")
        text = self._text[mono] = "*".join(parts)
        return text

    def element_str(self, elem: FreeElt) -> str:
        if not elem:
            return "0"
        parts = []
        for mono in sorted(elem, key=lambda m: (self.monomial_degree(m), m[1], m[0])):
            c = elem[mono]
            body = self.monomial_str(mono)
            if c == 1:
                term = body
            elif c == -1:
                term = f"-{body}"
            else:
                term = f"{c}*{body}"
            parts.append(term)
        return " + ".join(parts).replace("+ -", "- ")

    def base_elt(self, b: int) -> FreeElt:
        return {(b, ()): 1}

    def gen_elt(self, g: int) -> FreeElt:
        return {(self.base.unit, (g,)): 1}

    def _merge_gens(self, g1: tuple[int, ...], g2: tuple[int, ...]):
        """Sort the concatenation with Koszul swap signs; None when an odd
        generator repeats."""
        items = list(g1) + list(g2)
        sign = 1
        # insertion sort, counting weighted swaps
        for i in range(1, len(items)):
            j = i
            while j > 0 and items[j - 1] > items[j]:
                sign *= (-1) ** (self.gen_degree(items[j - 1]) * self.gen_degree(items[j]))
                items[j - 1], items[j] = items[j], items[j - 1]
                j -= 1
        for a, b in zip(items, items[1:]):
            if a == b and self.gen_degree(a) % 2 == 1:
                return None
        return sign, tuple(items)

    def mul(self, x: FreeElt, y: FreeElt) -> FreeElt:
        out: FreeElt = {}
        degs = self.base.basis.degrees
        for (b1, g1), c1 in x.items():
            deg_g1 = sum(self.gen_degree(g) for g in g1)
            for (b2, g2), c2 in y.items():
                merged = self._merge_gens(g1, g2)
                if merged is None:
                    continue
                sign, gens = merged
                row = self.base._mult[b1][b2]
                if not row:
                    continue
                coeff = c1 * c2
                if sign * (-1) ** (deg_g1 * degs[b2]) < 0:
                    coeff = -coeff
                _accumulate(out, (((k, gens), coeff * cb) for k, cb in row.items()))
        return out

    def product(self, *factors: FreeElt) -> FreeElt:
        acc = {(self.base.unit, ()): 1}
        for f in factors:
            acc = self.mul(acc, f)
        return acc

    def d(self, x: FreeElt) -> FreeElt:
        """Differential extended as a derivation: base differential on the
        base, table differentials on the generators."""
        out: FreeElt = {}
        for mono, c in x.items():
            _accumulate(out, self.monomial_d(mono).items(), c)
        return out

    def monomial_d(self, mono: Monomial) -> FreeElt:
        """D of one monomial with coefficient 1, cached in `_d`. The
        returned dict is shared: do not mutate it."""
        out = self._d.get(mono)
        if out is None:
            out = self._d[mono] = self._derive(mono)
        return out

    def _derive(self, mono: Monomial) -> FreeElt:
        b, gens = mono
        out: FreeElt = {(j, gens): v for j, v in self.base.d_basis(b).items()}
        sign = (-1) ** self.base.basis.degrees[b]
        for p, g in enumerate(gens):
            left: FreeElt = {(b, gens[:p]): 1}
            right: FreeElt = {(self.base.unit, gens[p + 1:]): 1}
            term = self.mul(self.mul(left, self.differentials[g]), right)
            s = sign * (-1) ** sum(self.gen_degree(h) for h in gens[:p])
            _accumulate(out, term.items(), s)
        return out

    def apply_images(self, x: FreeElt, images: Sequence[FreeElt], lift=None) -> FreeElt:
        """Image of x under the multiplicative map that fixes the base and
        sends generator g to images[g]; `lift`, when given, converts the
        coefficients of x to the coefficient ring of the images."""
        total: FreeElt = {}
        for (b, gens), c in x.items():
            acc: FreeElt = {(b, ()): c if lift is None else lift(c)}
            for g in gens:
                acc = self.mul(acc, images[g])
                if not acc:
                    break
            _accumulate(total, acc.items())
        return total

    # -- the solver's cached data (see the class docstring) ------------------

    @cached_property
    def _unknowns(self) -> _Unknowns:
        """One unknown per monomial of each generator's degree, numbered
        by generator and then in `monomials_of_degree` order, so tables
        with one base, generator list and cap have equal unknowns."""
        names: dict[int, str] = {}
        images: list[FreeElt] = []
        diagonal: set[int] = set()
        by_degree: dict[int, list[Monomial]] = {}
        for g, (label, degree) in enumerate(self.gens):
            if degree not in by_degree:
                by_degree[degree] = self.monomials_of_degree(degree)
            image: FreeElt = {}
            for mono in by_degree[degree]:
                var = len(names)
                names[var] = f"psi({label})[{self.monomial_str(mono)}]"
                image[mono] = Poly.variable(var)
                if mono == (self.base.unit, (g,)):
                    diagonal.add(var)
            images.append(image)
        return _Unknowns(names, images, frozenset(diagonal))

    @cached_property
    def _psi_of_d(self) -> list[FreeElt]:
        """psi(D g) for every generator g, with psi g in the unknowns."""
        images = self._unknowns.images
        return [self.apply_images(dg, images, Poly.const) for dg in self.differentials]

    @cached_property
    def _minus_d_of_psi(self) -> list[FreeElt]:
        """-D(psi g) for every generator g, with psi g in the unknowns."""
        halves = []
        for image in self._unknowns.images:
            half: FreeElt = {}
            for mono, unknown in image.items():
                _accumulate(half, self.monomial_d(mono).items(), -unknown)
            halves.append(half)
        return halves

    def evaluate(self, x: FreeElt) -> Element:
        """Extend the evaluation multiplicatively over monomials."""
        if self.target is None:
            raise StructureError("table has no evaluation target")
        model = self.target
        if model.trunc.cone.ring is not self.base:
            raise StructureError("table base is not the ring of its evaluation target")
        total = model.algebra.zero()
        for (b, gens), c in x.items():
            acc = Element(model.algebra, model.trunc.base_rows[b])
            for g in gens:
                acc = model.algebra.multiply(acc, self.evaluation[g])
                if acc.is_zero():
                    break
            total = total + acc.scale(c)
        return total

    def monomials_of_degree(self, degree: int) -> list[Monomial]:
        """All monomials of the given total degree within the cap,
        enumerated deterministically (generator exponents, then base)."""
        if degree > self.degree_cap:
            raise StructureError("requested degree exceeds the cap")
        results: list[Monomial] = []

        def rec(g: int, remaining: int, chosen: tuple[int, ...]):
            if g == len(self.gens):
                for b in self.base.basis.degree_indices(remaining):
                    results.append((b, chosen))
                return
            rec(g + 1, remaining, chosen)
            gd = self.gen_degree(g)
            limit = 1 if gd % 2 == 1 else remaining // gd if gd else 0
            count = 1
            while count <= limit and count * gd <= remaining:
                rec(g + 1, remaining - count * gd, chosen + (g,) * count)
                count += 1

        rec(0, degree, ())
        results.sort(key=lambda m: (len(m[1]), m[1], m[0]))
        return results


# --- verification -------------------------------------------------------------


@dataclass(frozen=True)
class TableCheck:
    generator: str
    d_squared_ok: bool
    d_squared_witness: Optional[str]
    cochain_ok: bool
    cochain_witness: Optional[str]

    @property
    def ok(self) -> bool:
        return self.d_squared_ok and self.cochain_ok


@dataclass(frozen=True)
class TableReport:
    checks: tuple[TableCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            d2 = "pass" if c.d_squared_ok else f"FAIL ({c.d_squared_witness})"
            ev = "pass" if c.cochain_ok else f"FAIL ({c.cochain_witness})"
            out.append(f"{c.generator}: D²=0 {d2}; evaluation cochain {ev}")
        return out


def check_table(table: GeneratorTable) -> TableReport:
    """Verify D squared zero and the evaluation cochain identity on every
    generator; failures become report entries with expanded witnesses.

    A table that `TableDocument.table` built at rational values is
    first compared exactly with the document's table over its parameters
    (`TableDocument.symbolic`), evaluated at the table's values
    (`_document_report`). When the two agree and the document's report,
    `check_table` of that symbolic table run once, passed, the table
    gets that report. Why it is the table's: both checks compare sums of
    products of table entries; there is no division. Evaluation at a
    point is a ring homomorphism, so a symbolic identity holds at every
    point. Guards do not matter here: a zero test only drops an entry
    that is already zero. Every other table (the symbolic report failed,
    the table differs from the symbolic one at its values, or it was
    built by no document) is swept generator by generator here.
    """
    report = _document_report(table)
    if report is not None:
        return report
    checks = []
    for g in range(len(table.gens)):
        dd = table.d(table.differentials[g])
        d2_ok = not dd
        d2_wit = None if d2_ok else table.element_str(dd)
        ev_ok, ev_wit = True, None
        if table.target is not None:
            lhs = table.evaluate(table.differentials[g])
            rhs = table.target.algebra.d(table.evaluation[g])
            diff = lhs - rhs
            ev_ok = diff.is_zero()
            if not ev_ok:
                ev_wit = f"m(D{table.gen_label(g)}) - d(m {table.gen_label(g)}) = {diff}"
        checks.append(TableCheck(table.gen_label(g), d2_ok, d2_wit, ev_ok, ev_wit))
    return TableReport(tuple(checks))


def _document_report(table: GeneratorTable) -> Optional[TableReport]:
    """The report of the document that built `table`, when it passed and
    `table` is the document's symbolic table at the table's values; else
    None. Compared exactly: the base, the generators and the target's
    truncation, the same object, which owns the cone and the rows of the
    base elements' images that `evaluate` reads; each differential and
    each evaluation element with the symbolic one evaluated there; the
    target's basis, unit, rows of d and every product row but (S1, S1)
    with the symbolic target's, which are the truncation's own objects
    (`twisted._same_but_square`); its (S1, S1) row with the symbolic row
    evaluated there; and the parent of every evaluation element."""
    if table._built_from is None:
        return None
    document, values = table._built_from
    symbolic = document.symbolic
    if symbolic is None or not document.report.all_pass:
        return None
    point = {k: values[name] for k, name in enumerate(document.parameters)}
    target, model = table.target, symbolic.target
    algebra, generic, s1 = target.algebra, model.algebra, model.trunc.s1_index
    if (table.base is symbolic.base and table.gens == symbolic.gens and target.trunc is model.trunc
            and _same_but_square(algebra, generic, s1)
            and algebra._mult[s1][s1] == _at_point(generic._mult[s1][s1], point)
            and all(image.parent is algebra for image in table.evaluation)
            and [image.coeffs for image in table.evaluation]
            == [_at_point(image.coeffs, point) for image in symbolic.evaluation]
            and table.differentials == tuple(_at_point(d, point) for d in symbolic.differentials)):
        return document.report
    return None


# --- the staged obstruction solver ---------------------------------------------


@dataclass
class Exists:
    verdict = "exists"
    assignment: dict[str, Scalar]
    generator_images: dict[str, str]


@dataclass
class Obstructed:
    verdict = "obstructed"
    trace: list[str]
    residual_constant: Scalar
    at_generator: str


@dataclass
class Unresolved:
    verdict = "unresolved"
    trace: list[str]
    residual: list[str]


ObstructionResult = Union[Exists, Obstructed, Unresolved]


def _compatible(t1: GeneratorTable, t2: GeneratorTable) -> None:
    if t1.degree_cap != t2.degree_cap:
        raise IncompatibleTables("degree caps differ")
    if tuple(t1.gens) != tuple(t2.gens):
        raise IncompatibleTables("generator lists differ")
    if t1.base is not t2.base and not same_structure(t1.base, t2.base):
        raise IncompatibleTables("base algebras differ")


def _render(trace: list[tuple]) -> list[str]:
    """The solver's trace as text. An entry is a tuple of strings and
    values, kept apart until the end so that a trace over a family's
    parameters can be rendered at each point (see `_FamilyVerdict`)."""
    return ["".join(map(str, entry)) for entry in trace]


@dataclass(frozen=True)
class _Obstruction:
    """An Obstructed verdict with its trace and constant not yet rendered."""

    trace: list[tuple]
    constant: object
    at_generator: str

    def rendered(self) -> Obstructed:
        return Obstructed(trace=_render(self.trace), residual_constant=self.constant,
                          at_generator=self.at_generator)


@dataclass(frozen=True)
class _Witness:
    """An Exists verdict with psi of each generator of `table` not yet
    rendered."""

    table: GeneratorTable
    assignment: dict[str, object]
    images: list[FreeElt]

    def rendered(self) -> Exists:
        table = self.table
        return Exists(assignment=self.assignment,
                      generator_images={table.gen_label(g): table.element_str(image)
                                        for g, image in enumerate(self.images)})


def iso_obstruction(t1: GeneratorTable, t2: GeneratorTable) -> ObstructionResult:
    """Decide whether some isomorphism psi with psi D1 = D2 psi fixes the
    base and sends t1 to t2.

    Unknowns are created for every matching-degree monomial per generator;
    generators are processed in increasing degree and each coefficient of
    psi(D1 g) - D2(psi g) is fed to the affine system after substituting
    already-determined unknowns. Equations that stay nonlinear are parked
    and retried after every stage. Verdicts: Exists carries a re-verified
    witness, Obstructed carries the inconsistent constraint (a proof that
    no base-fixing map commutes with the differentials), Unresolved is the
    honest leftover.
    """
    result = _staged_solve(t1, t2)
    return result if isinstance(result, Unresolved) else result.rendered()


def _staged_solve(t1: GeneratorTable, t2: GeneratorTable
                  ) -> Union[_Witness, _Obstruction, Unresolved]:
    """`iso_obstruction` with an Exists or Obstructed verdict left
    unrendered. The tables' coefficients may be rational functions of one
    `Parameters`: the same steps then decide the whole family at once (see
    `classify_example`)."""
    _compatible(t1, t2)
    ngen = len(t1.gens)

    # identical differentials admit the identity; verify and return it
    # before any staging, so a residual nonlinearity cannot hide a witness
    if tuple(t1.differentials) == tuple(t2.differentials):
        identity = [{(t2.base.unit, (g,)): 1} for g in range(ngen)]
        if _verify_witness(t1, t2, identity):
            unknowns = t2._unknowns
            assignment = {name: 1 if var in unknowns.diagonal else 0
                          for var, name in unknowns.names.items()}
            return _Witness(t2, assignment, identity)

    # the unknowns depend only on the base, the generators and the cap,
    # which `_compatible` requires to agree, so t1's half of the
    # commutator and t2's half are in the same unknowns
    unknowns = t2._unknowns
    var_names, psi_images = unknowns.names, unknowns.images
    psi_of_d1, minus_d2_of_psi = t1._psi_of_d, t2._minus_d_of_psi

    system = AffineSystem()
    trace: list[tuple] = []
    pending: list[tuple[str, Poly]] = []

    def feed(poly: Poly, provenance: str) -> Optional[_Obstruction]:
        reduced = poly.substitute(system.determined)
        if not reduced:
            return None
        aff = reduced.affine()
        if aff is None:
            pending.append((provenance, poly))
            return None
        const, linear = aff
        try:
            newly = system.add(linear, -const, provenance)
        except InconsistentSystem as exc:
            trace.append(("inconsistent: 0 = ", exc.constant, f"  [{provenance}]"))
            return _Obstruction(trace, exc.constant, provenance.split(":", 1)[0])
        for var, value in newly:
            trace.append((f"{var_names[var]} = ", value))
        return None

    def retry_pending() -> Optional[_Obstruction]:
        changed = True
        while changed:
            changed = False
            for prov, poly in list(pending):
                reduced = poly.substitute(system.determined)
                if not reduced:
                    pending.remove((prov, poly))
                    changed = True
                    continue
                if reduced.affine() is not None:
                    pending.remove((prov, poly))
                    result = feed(poly, prov)
                    if result is not None:
                        return result
                    changed = True
        return None

    order = sorted(range(ngen), key=lambda g: (t1.gen_degree(g), g))
    for g in order:
        label = t1.gen_label(g)
        trace.append((f"-- stage {label} (degree {t1.gen_degree(g)})",))
        # psi(D1 g) - D2(psi g), with psi g = sum of unknown * monomial
        commutator = _accumulate(dict(psi_of_d1[g]), minus_d2_of_psi[g].items())
        for mono in sorted(commutator, key=lambda m: (t2.monomial_degree(m), m[1], m[0])):
            prov = f"{label}: coefficient of {t2.monomial_str(mono)}"
            result = feed(commutator[mono], prov)
            if result is not None:
                return result
        result = retry_pending()
        if result is not None:
            return result

    result = retry_pending()
    if result is not None:
        return result
    if pending:
        residual = [
            f"{prov}: {poly.substitute(system.determined).render(var_names)} = 0"
            for prov, poly in pending
        ]
        return Unresolved(trace=_render(trace), residual=residual)

    # assemble a concrete witness: free diagonal unknowns default to 1,
    # other free unknowns to 0, and the table fixes the pivots
    residues = system.residues
    assignment = {var: 1 if var in unknowns.diagonal else 0
                  for var in var_names if var not in residues}
    for v, residue in residues.items():
        assignment[v] = _exact(sum((c * assignment[w] for w, c in residue.items()),
                                   system.consts[v]))

    numeric_images: list[FreeElt] = []
    for g in range(ngen):
        img: FreeElt = {}
        for mono, poly in psi_images[g].items():
            value = poly.substitute(assignment)
            aff = value.affine()
            coeff = aff[0] if aff else 0
            if coeff:
                img[mono] = coeff
        numeric_images.append(img)

    if not _verify_witness(t1, t2, numeric_images):
        return Unresolved(trace=_render(trace),
                          residual=["candidate assignment failed re-verification"])

    named = {var_names[v]: value for v, value in sorted(assignment.items())}
    return _Witness(t2, named, numeric_images)


def _verify_witness(t1: GeneratorTable, t2: GeneratorTable,
                    images: Sequence[FreeElt]) -> bool:
    """Substituted witness must satisfy psi D1 = D2 psi exactly on every
    generator and have an invertible linear part in each degree."""
    for g in range(len(t1.gens)):
        lhs = t2.apply_images(t1.differentials[g], images)
        rhs = t2.d(images[g])
        if lhs != rhs:
            return False

    degrees = sorted({d for _, d in t1.gens})
    for deg in degrees:
        gens_here = [g for g in range(len(t1.gens)) if t1.gen_degree(g) == deg]
        # the linear part: the coefficient of each generator in each image
        linear = _columns([images[g] for g in gens_here], [(t2.base.unit, (g,)) for g in gens_here])
        if invert(linear) is None:
            return False
    return True


# --- the worked family over the five-dimensional product preset -----------------


def s2xs3_table(q, r) -> GeneratorTable:
    """Generator table for the twisted model with (S1)^2 = q(y(x)xy) + r(xy(x)y)
    over the degree-five product preset: the packaged table document
    `s2xs3_table.json` (`presets.preset_table`, parsed once per process)
    with its parameters set to q and r. The table and its target C(q, r)
    are built on every call, C(q, r) checked by `twisted.build_cxi`.
    `check_table` gives the table the document's report, `check_table`
    of the table over q and r, run once per process, after an exact check
    that the table is that one at (q, r).

    The top generator h kills u^2 plus the twisting class: its differential
    carries -q, -r so that the evaluation is a cochain map onto the model
    where (S1)^2 = xi.
    """
    return preset_table().table({"q": q, "r": r})


def classify_example(q_values: Sequence) -> list[list[ObstructionResult]]:
    """Pairwise obstruction verdicts for the one-parameter family: the
    diagonal must come out Exists and every off-diagonal pair Obstructed.

    Each value is put into canonical form once (`linalg._exact`, so it
    may be anything `Fraction` takes), and that form is both the value of
    its table and its coordinate at the family's points. Each value's
    C(q,0) is built once per call, in order, by the document
    (`io.TableDocument.target`, checked by `twisted.build_cxi`). A value's
    generator table is built only when one of its pairs takes
    `iso_obstruction`, at most once per call, on that value's C(q,0).
    Two solves run with q kept symbolic (no target; see
    `linalg.Parameters`): the table in q1 against itself, whose verdict
    serves the diagonal pairs, and the table in q1 against the table in
    q2, whose verdict serves the off-diagonal pairs. The two have their
    own symbols, so their guards stay apart. Both verdicts depend on the
    table document alone, so they are kept with it
    (`TableDocument.family_verdicts`): the document comes from
    `presets.preset_table`, and only the first call in a process parses it
    and runs the two solves. A pair takes its family's verdict evaluated
    at (q_i) or (q_i, q_j) when no guard of that family vanishes there
    and, for an Obstructed verdict, the residual does not either
    (`_FamilyVerdict`). Then each of the pair's zero tests comes out as in
    the symbolic solve, so the evaluated verdict is the one
    `iso_obstruction` returns. Every other pair gets `iso_obstruction`
    itself: on `s2xs3_table.json` that is each pair with a zero, (0, 0)
    included, and each off-diagonal pair of equal values.
    """
    document = preset_table()
    qs = [_exact(q) for q in q_values]
    targets = [document.target({"q": q, "r": 0}) for q in qs]
    diagonal = _family_verdict(document, ("q1",))
    off_diagonal = _family_verdict(document, ("q1", "q2")) if len(qs) > 1 else None
    tables: dict[int, GeneratorTable] = {}

    def table(i: int) -> GeneratorTable:
        if i not in tables:
            tables[i] = document.table({"q": qs[i], "r": 0}, targets[i])
        return tables[i]

    matrix = []
    for i, q in enumerate(qs):
        row = []
        for j, r in enumerate(qs):
            family, point = (diagonal, {0: q}) if i == j else (off_diagonal, {0: q, 1: r})
            result = None if family is None else family.at(point)
            row.append(result or iso_obstruction(table(i), table(j)))
        matrix.append(row)
    return matrix


def _family_verdict(document: TableDocument, names: tuple[str, ...]
                    ) -> Optional[_FamilyVerdict]:
    """One solve of the document's table with q symbolic and r = 0: q1 in
    the first table, and q2 in the second when `names` has two symbols,
    else the first table again. None when the verdict is Unresolved. The
    verdict is kept in the document's memo, so each runs once."""
    memo = document.family_verdicts
    if names not in memo:
        params = Parameters(names)
        tables = [document.table({"q": params.symbol(k), "r": 0}) for k in range(len(names))]
        verdict = _staged_solve(tables[0], tables[-1])
        memo[names] = None if isinstance(verdict, Unresolved) else _FamilyVerdict(params, verdict)
    return memo[names]


class _FamilyVerdict:
    """An Exists or Obstructed verdict of `_staged_solve` over the symbols
    of one `Parameters`, prepared once to be evaluated at many points.

    At a point where no guard vanishes, the numeric solve takes every
    branch that the symbolic one took, so its verdict is this one with
    each value evaluated there. An Obstructed verdict also needs its
    residual constant to be nonzero there; where it vanishes, the numeric
    solve goes on past that equation.

    The result's containers (the trace, or the assignment and the
    generator images) are rendered here, once, with every part that holds
    no rational function in place; a part that holds one is a slot: the
    positions of its numerator and denominator among the polynomials `at`
    evaluates. At each point, `at` evaluates every guard, then each
    distinct numerator and denominator once, each as an unreduced integer
    pair (`Poly.pair_at`): a guard vanishes there when its pair's
    numerator is 0, and a slot whose numerator is a/b and denominator c/d
    there is the one division (a*d)/(b*c). It then copies the prebuilt
    containers and fills in the slots, so every result has containers of
    its own.
    """

    def __init__(self, params: Parameters, verdict: Union[_Witness, _Obstruction]):
        # the guards come first, so `at` stops at the first one that vanishes
        self._polys: dict[Poly, int] = {guard: k for k, guard in enumerate(params.guards)}
        self._guards = len(self._polys)
        self._slots: dict[tuple[int, int], None] = {}
        self._verdict = verdict
        if isinstance(verdict, _Obstruction):
            self._constant = self._slot(verdict.constant)
            self._trace = _render(verdict.trace)
            self._trace_slots = [(k, [self._slot(part) if type(part) is RationalFunction
                                      else str(part) for part in entry])
                                 for k, entry in enumerate(verdict.trace)
                                 if any(type(part) is RationalFunction for part in entry)]
        else:
            table = verdict.table
            self._assignment = {name: None if type(v) is RationalFunction else v
                                for name, v in verdict.assignment.items()}
            self._assignment_slots = [(name, self._slot(v)) for name, v in verdict.assignment.items()
                                      if type(v) is RationalFunction]
            self._images, self._image_slots = {}, []
            for g, image in enumerate(verdict.images):
                label = table.gen_label(g)
                if any(type(c) is RationalFunction for c in image.values()):
                    self._images[label] = None
                    self._image_slots.append(
                        (label, {mono: self._slot(c) for mono, c in image.items()}))
                else:
                    self._images[label] = table.element_str(image)

    def _slot(self, value):
        """A scalar as it is; a rational function as the positions of its
        numerator and denominator among the polynomials `at` evaluates."""
        if type(value) is not RationalFunction:
            return value
        polys = self._polys
        slot = polys.setdefault(value.num, len(polys)), polys.setdefault(value.den, len(polys))
        self._slots[slot] = None
        return slot

    def at(self, point: dict[int, Scalar]) -> Optional[ObstructionResult]:
        """The verdict at `point` (symbol id -> value), or None when the
        point needs a solve of its own."""
        pairs = []
        for k, poly in enumerate(self._polys):
            pair = poly.pair_at(point)
            if k < self._guards and not pair[0]:
                return None
            pairs.append(pair)

        quotients = {}
        for slot in self._slots:
            (a, b), (c, d) = pairs[slot[0]], pairs[slot[1]]
            quotients[slot] = _divide(a * d, b * c)

        def value(slot):
            return quotients[slot] if type(slot) is tuple else slot

        verdict = self._verdict
        if isinstance(verdict, _Obstruction):
            constant = value(self._constant)
            if not constant:
                return None
            trace = list(self._trace)
            for k, parts in self._trace_slots:
                trace[k] = "".join(part if type(part) is str else str(quotients[part])
                                   for part in parts)
            return Obstructed(trace=trace, residual_constant=constant,
                              at_generator=verdict.at_generator)
        assignment = dict(self._assignment)
        for name, slot in self._assignment_slots:
            assignment[name] = quotients[slot]
        images = dict(self._images)
        for label, image in self._image_slots:
            images[label] = verdict.table.element_str({mono: value(c) for mono, c in image.items()})
        return Exists(assignment=assignment, generator_images=images)
