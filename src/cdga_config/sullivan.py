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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import Element
from .errors import IncompatibleTables, StructureError
from .io import load_table_file
from .linalg import ONE, ZERO, SparseMatrix, _accumulate, invert
from .presets import table_preset_path
from .products import TensorAlgebra
from .twisted import TwistedModel

Monomial = tuple[int, tuple[int, ...]]
FreeElt = dict  # Monomial -> coefficient (Fraction, or Poly in the solver)


# --- polynomial coefficients for the solver ---------------------------------


class Poly:
    """Multivariate polynomial over the rationals with integer variable ids.

    Keys are sorted tuples of variable ids (with repetition for powers);
    the empty tuple is the constant term. Only tiny degrees ever occur:
    unknowns enter linearly and meet each other only through products of
    generator images.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[tuple[int, ...], Fraction]] = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], Fraction]) -> "Poly":
        """Wrap a dict whose values are already known to be nonzero."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, c) -> "Poly":
        c = Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v: int) -> "Poly":
        return cls({(v,): ONE})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._of(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly._of({k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly._of({k: v * other for k, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in self.terms.items():
            _accumulate(out, ((tuple(sorted(k1 + k2)), v1 * v2)
                              for k2, v2 in other.terms.items()))
        return Poly._of(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def substitute(self, values: dict[int, Fraction]) -> "Poly":
        """Evaluate the variables that `values` assigns a rational to."""
        out: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in self.terms.items():
            rest = []
            for v in key:
                value = values.get(v)
                if value is None:
                    rest.append(v)
                else:
                    coeff = coeff * value
            _accumulate(out, ((tuple(rest), coeff),))
        return Poly._of(out)

    def degree(self) -> int:
        return max((len(k) for k in self.terms), default=0)

    def affine(self) -> Optional[tuple[Fraction, dict[int, Fraction]]]:
        """(constant, linear coefficients), or None when degree >= 2."""
        const = ZERO
        linear: dict[int, Fraction] = {}
        for key, coeff in self.terms.items():
            if len(key) == 0:
                const = coeff
            elif len(key) == 1:
                linear[key[0]] = coeff
            else:
                return None
        return const, linear

    def render(self, names: dict[int, str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            mono = "*".join(names.get(v, f"x{v}") for v in key)
            if not key:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


class InconsistentSystem(Exception):
    def __init__(self, constant: Fraction, provenance: str):
        self.constant = constant
        self.provenance = provenance
        super().__init__(f"0 = {constant} ({provenance})")


class AffineSystem:
    """Incrementally reduced affine system  sum coeffs . x = const.

    Rows are keyed by pivot variable and kept fully reduced: each row holds
    its pivot with coefficient 1, no other row's pivot and no determined
    variable. So a variable is determined exactly when its row has no
    other support, and reducing an equation subtracts each pivot row it
    touches once, in any order. Inserting an equation that reduces to
    0 = c with c nonzero raises InconsistentSystem; that is a proof of
    unsolvability.
    """

    def __init__(self):
        self.rows: dict[int, tuple[dict[int, Fraction], Fraction, str]] = {}
        self.determined: dict[int, Fraction] = {}

    def _reduce(self, coeffs: dict[int, Fraction], const: Fraction):
        determined, rows = self.determined, self.rows
        out: dict[int, Fraction] = {}
        for v, c in coeffs.items():
            value = determined.get(v)
            if value is None:
                out[v] = c
            else:
                const -= c * value
        # a pivot row holds no other pivot, so subtracting it changes no
        # other pivot's coefficient and removes its own
        for v in [v for v in out if v in rows]:
            rc, rconst, _ = rows[v]
            factor = out[v]
            negated = -factor
            _accumulate(out, ((w, negated * c) for w, c in rc.items()))
            const -= factor * rconst
        return out, const

    def _promote_determined(self) -> list[tuple[int, Fraction]]:
        new = []
        while True:
            fresh = [pivot for pivot, (coeffs, _, _) in self.rows.items() if len(coeffs) == 1]
            if not fresh:
                return new
            for pivot in fresh:
                const = self.rows.pop(pivot)[1]
                self.determined[pivot] = const
                new.append((pivot, const))
            for pivot, (coeffs, const, prov) in list(self.rows.items()):
                for v in fresh:
                    c = coeffs.pop(v, None)
                    if c is not None:
                        const -= c * self.determined[v]
                self.rows[pivot] = (coeffs, const, prov)

    def add(self, coeffs: dict[int, Fraction], const: Fraction, provenance: str
            ) -> list[tuple[int, Fraction]]:
        """Insert one equation; returns newly determined (var, value) pairs."""
        coeffs, const = self._reduce(coeffs, const)
        if not coeffs:
            if const:
                raise InconsistentSystem(const, provenance)
            return []
        pivot = min(coeffs)
        inv = ONE / coeffs[pivot]
        if inv != 1:
            coeffs = {v: c * inv for v, c in coeffs.items()}
            const *= inv
        # eliminate the new pivot from existing rows
        for other_pivot, (rc, rconst, prov) in list(self.rows.items()):
            factor = rc.get(pivot)
            if factor:
                negated = -factor
                _accumulate(rc, ((w, negated * c) for w, c in coeffs.items()))
                rconst -= factor * const
                self.rows[other_pivot] = (rc, rconst, prov)
        self.rows[pivot] = (coeffs, const, provenance)
        return self._promote_determined()


# --- generator tables --------------------------------------------------------


@dataclass(frozen=True)
class _Unknowns:
    """The solver's unknowns for one table layout: `names[var]`, psi of
    each generator as a sum of unknown * monomial, and the unknowns that
    multiply the generator itself in its own image."""

    names: dict[int, str]
    images: list[FreeElt]
    diagonal: frozenset[int]


class _TableMemo:
    """A table's memo; see `GeneratorTable`."""

    __slots__ = ("d", "text", "unknowns", "psi_of_d", "minus_d_of_psi")

    def __init__(self):
        self.d: dict[Monomial, FreeElt] = {}
        self.text: dict[Monomial, str] = {}
        self.unknowns: Optional[_Unknowns] = None
        self.psi_of_d: Optional[list[FreeElt]] = None
        self.minus_d_of_psi: Optional[list[FreeElt]] = None


@dataclass
class GeneratorTable:
    """A free extension of the tensor square by finitely many generators,
    truncated at `degree_cap`, together with an evaluation into a twisted
    model.

    `_memo` holds what the obstruction solver derives from the table in
    every solve it takes part in: D of each single monomial (`monomial_d`),
    the text of each monomial (`monomial_str`), the layout of the unknowns
    of psi (`_unknowns`), and the table's half of the commutator
    psi(D1 g) - D2(psi g) for each generator g: psi(D g) when the table is
    the source (`_psi_of_d`), -D(psi g) when it is the target
    (`_minus_d_of_psi`). All of it depends only on `base`, `gens`,
    `differentials` and `degree_cap`, and assigning any of these empties
    the memo, so a table can be rebuilt by assigning a new `differentials`
    tuple; the dicts inside a tuple are treated as immutable once
    assigned. The memo is owned by the table and freed with it.
    """

    base: TensorAlgebra
    gens: tuple[tuple[str, int], ...]
    differentials: tuple[FreeElt, ...]
    target: Optional[TwistedModel]
    evaluation: tuple[Element, ...]
    degree_cap: int
    name: str = ""
    _memo: "_TableMemo" = field(init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name in ("base", "gens", "differentials", "degree_cap"):
            object.__setattr__(self, "_memo", _TableMemo())

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
        """The monomial as text, from the memo (see the class docstring)."""
        text = self._memo.text.get(mono)
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
        text = self._memo.text[mono] = "*".join(parts)
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
        return {(b, ()): ONE}

    def gen_elt(self, g: int) -> FreeElt:
        return {(self.base.unit, (g,)): ONE}

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
                row = self.base.mult_basis(b1, b2)
                if not row:
                    continue
                coeff = c1 * c2
                if sign * (-1) ** (deg_g1 * degs[b2]) < 0:
                    coeff = -coeff
                _accumulate(out, (((k, gens), coeff * cb) for k, cb in row.items()))
        return out

    def product(self, *factors: FreeElt) -> FreeElt:
        acc = {(self.base.unit, ()): ONE}
        for f in factors:
            acc = self.mul(acc, f)
        return acc

    def scale(self, x: FreeElt, c) -> FreeElt:
        if not c:
            return {}
        return {k: c * v for k, v in x.items()}

    def add(self, *elts: FreeElt) -> FreeElt:
        out: FreeElt = {}
        for e in elts:
            _accumulate(out, e.items())
        return out

    def d(self, x: FreeElt) -> FreeElt:
        """Differential extended as a derivation: base differential on the
        base, table differentials on the generators."""
        out: FreeElt = {}
        for mono, c in x.items():
            _accumulate(out, ((k, c * v) for k, v in self.monomial_d(mono).items()))
        return out

    def monomial_d(self, mono: Monomial) -> FreeElt:
        """D of one monomial with coefficient 1, from the memo (see the
        class docstring). The returned dict is shared: do not mutate it."""
        memo = self._memo.d
        out = memo.get(mono)
        if out is None:
            out = memo[mono] = self._derive(mono)
        return out

    def _derive(self, mono: Monomial) -> FreeElt:
        b, gens = mono
        out: FreeElt = {(j, gens): v for j, v in self.base.d_basis(b).items()}
        sign = (-1) ** self.base.basis.degrees[b]
        for p, g in enumerate(gens):
            left: FreeElt = {(b, gens[:p]): ONE}
            right: FreeElt = {(self.base.unit, gens[p + 1:]): ONE}
            term = self.mul(self.mul(left, self.differentials[g]), right)
            s = sign * (-1) ** sum(self.gen_degree(h) for h in gens[:p])
            _accumulate(out, ((k, s * v) for k, v in term.items()))
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

    # -- the solver's memoised data (see the class docstring) ---------------

    def _unknowns(self) -> "_Unknowns":
        """One unknown per monomial of each generator's degree, numbered
        by generator and then in `monomials_of_degree` order."""
        memo = self._memo
        if memo.unknowns is None:
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
            memo.unknowns = _Unknowns(names, images, frozenset(diagonal))
        return memo.unknowns

    def _psi_of_d(self) -> list[FreeElt]:
        """psi(D g) for every generator g, with psi g in the unknowns."""
        memo = self._memo
        if memo.psi_of_d is None:
            images = self._unknowns().images
            memo.psi_of_d = [self.apply_images(dg, images, Poly.const)
                             for dg in self.differentials]
        return memo.psi_of_d

    def _minus_d_of_psi(self) -> list[FreeElt]:
        """-D(psi g) for every generator g, with psi g in the unknowns."""
        memo = self._memo
        if memo.minus_d_of_psi is None:
            halves = []
            for image in self._unknowns().images:
                half: FreeElt = {}
                for mono, unknown in image.items():
                    _accumulate(half, ((k, unknown * -v)
                                       for k, v in self.monomial_d(mono).items()))
                halves.append(half)
            memo.minus_d_of_psi = halves
        return memo.minus_d_of_psi

    def evaluate(self, x: FreeElt) -> Element:
        """Extend the evaluation multiplicatively over monomials."""
        if self.target is None:
            raise StructureError("table has no evaluation target")
        model = self.target
        total = model.algebra.zero()
        for (b, gens), c in x.items():
            acc = model.project_from_square(self.base.basis_element(b))
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
    generator; failures become report entries with expanded witnesses."""
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


# --- the staged obstruction solver ---------------------------------------------


@dataclass
class Exists:
    verdict = "exists"
    assignment: dict[str, Fraction]
    generator_images: dict[str, str]


@dataclass
class Obstructed:
    verdict = "obstructed"
    trace: list[str]
    residual_constant: Fraction
    at_generator: str


@dataclass
class Unresolved:
    verdict = "unresolved"
    trace: list[str]
    residual: list[str]


ObstructionResult = Union[Exists, Obstructed, Unresolved]


def _compatible(t1: GeneratorTable, t2: GeneratorTable) -> None:
    from .algebra import same_structure

    if t1.degree_cap != t2.degree_cap:
        raise IncompatibleTables("degree caps differ")
    if tuple(t1.gens) != tuple(t2.gens):
        raise IncompatibleTables("generator lists differ")
    if t1.base is not t2.base and not same_structure(t1.base, t2.base):
        raise IncompatibleTables("base algebras differ")


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
    _compatible(t1, t2)
    ngen = len(t1.gens)

    # identical differentials admit the identity; verify and return it
    # before any staging, so a residual nonlinearity cannot hide a witness
    if tuple(t1.differentials) == tuple(t2.differentials):
        identity = [{(t2.base.unit, (g,)): ONE} for g in range(ngen)]
        if _verify_witness(t1, t2, identity):
            unknowns = t2._unknowns()
            assignment = {name: ONE if var in unknowns.diagonal else ZERO
                          for var, name in unknowns.names.items()}
            images = {t1.gen_label(g): t2.element_str(identity[g]) for g in range(ngen)}
            return Exists(assignment=assignment, generator_images=images)

    # the layout of the unknowns depends only on the base, the generators
    # and the cap, which `_compatible` requires to agree, so t1's half of
    # the commutator and t2's half are in the same unknowns
    unknowns = t2._unknowns()
    var_names, psi_images = unknowns.names, unknowns.images
    psi_of_d1, minus_d2_of_psi = t1._psi_of_d(), t2._minus_d_of_psi()

    system = AffineSystem()
    trace: list[str] = []
    pending: list[tuple[str, Poly]] = []

    def feed(poly: Poly, provenance: str) -> Optional[Obstructed]:
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
            trace.append(f"inconsistent: 0 = {exc.constant}  [{provenance}]")
            return Obstructed(trace=trace, residual_constant=exc.constant,
                              at_generator=provenance.split(":", 1)[0])
        for var, value in newly:
            trace.append(f"{var_names[var]} = {value}")
        return None

    def retry_pending() -> Optional[Obstructed]:
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
        trace.append(f"-- stage {label} (degree {t1.gen_degree(g)})")
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
        return Unresolved(trace=trace, residual=residual)

    # assemble a concrete witness: free diagonal unknowns default to 1,
    # other free unknowns to 0, pivot rows then fix the rest
    assignment = dict(system.determined)
    for var in var_names:
        if var in assignment or var in system.rows:
            continue
        assignment[var] = ONE if var in unknowns.diagonal else ZERO
    for pivot, (coeffs, const, _) in sorted(system.rows.items(), reverse=True):
        value = const
        for v, c in coeffs.items():
            if v == pivot:
                continue
            value -= c * assignment[v]
        assignment[pivot] = value

    numeric_images: list[FreeElt] = []
    for g in range(ngen):
        img: FreeElt = {}
        for mono, poly in psi_images[g].items():
            value = poly.substitute(assignment)
            aff = value.affine()
            coeff = aff[0] if aff else ZERO
            if coeff:
                img[mono] = coeff
        numeric_images.append(img)

    if not _verify_witness(t1, t2, numeric_images):
        return Unresolved(trace=trace,
                          residual=["candidate assignment failed re-verification"])

    named = {var_names[v]: value for v, value in sorted(assignment.items())}
    images = {t1.gen_label(g): t2.element_str(numeric_images[g]) for g in range(ngen)}
    return Exists(assignment=named, generator_images=images)


def _verify_witness(t1: GeneratorTable, t2: GeneratorTable,
                    images: Sequence[FreeElt]) -> bool:
    """Substituted witness must satisfy psi D1 = D2 psi exactly on every
    generator and have an invertible linear part in each degree."""
    for g in range(len(t1.gens)):
        lhs = t2.apply_images(t1.differentials[g], images)
        rhs = t2.d(images[g])
        if t2.add(lhs, {k: -v for k, v in rhs.items()}):
            return False

    degrees = sorted({d for _, d in t1.gens})
    for deg in degrees:
        gens_here = [g for g in range(len(t1.gens)) if t1.gen_degree(g) == deg]
        data = {}
        for col, g in enumerate(gens_here):
            for row, g2 in enumerate(gens_here):
                coeff = images[g].get((t2.base.unit, (g2,)), ZERO)
                if coeff:
                    data[(row, col)] = coeff
        if invert(SparseMatrix(len(gens_here), len(gens_here), data)) is None:
            return False
    return True


# --- the worked family over the five-dimensional product preset -----------------


def s2xs3_table(q, r) -> GeneratorTable:
    """Generator table for the twisted model with (S1)^2 = q(y(x)xy) + r(xy(x)y)
    over the degree-five product preset, loaded from the packaged table
    document `s2xs3_table.json` with its parameters set to q and r.

    The top generator h kills u^2 plus the twisting class: its differential
    carries -q, -r so that the evaluation is a cochain map onto the model
    where (S1)^2 = xi.
    """
    return load_table_file(table_preset_path(), {"q": Fraction(q), "r": Fraction(r)})


def classify_example(q_values: Sequence) -> list[list[ObstructionResult]]:
    """Pairwise obstruction verdicts for the one-parameter family: the
    diagonal must come out Exists and every off-diagonal pair Obstructed."""
    tables = [s2xs3_table(q, 0) for q in q_values]
    matrix = []
    for t_row in tables:
        row = []
        for t_col in tables:
            row.append(iso_obstruction(t_row, t_col))
        matrix.append(row)
    return matrix
