"""Exact linear algebra over the rationals.

Everything downstream (cohomology, dual bases, quotients, the obstruction
solver) reduces to one elimination, reduced row echelon form, and what is
read off it: kernel bases, row-space bases and their residue tables,
linear solves and inverses. A rank is the number of pivots of `rref`;
Betti numbers are read off the ranks of the blocks of d
(`algebra._betti_numbers`). Matrices are small (a few hundred
columns per degree at most), so rational Gauss-Jordan elimination on dense
rows is the tool; no floats anywhere.

There are two forms and no matrix class. An elimination (`rref`,
`kernel_basis`, `solve`, `invert`, `row_space_basis`) takes a matrix as
its dense rows with the column count passed alongside, so a matrix
without rows keeps its shape; `_columns` lays sparse vectors out as the
columns of one. A linear map is sparse image rows, one dict per basis
element, applied by `_combine`.

Reduction modulo a row space has one form too, the residue table that
`_residues` reads off rref rows: each pivot maps to the canonical
representative of its basis vector, and every other basis vector is its
own. `_reduce` reduces a sparse vector through it (cohomology
representatives, subcomplex membership, the obstruction solver's
equations), and `_projection` turns it into a quotient map (quotient
algebras, φ's target).

Every stored scalar is exact and canonical (`Scalar`): an `int` when it is
integral and a `Fraction` only otherwise, never a `float` or a `bool`.
A computation over a whole family of inputs replaces some scalars with
`RationalFunction`s in the family's parameters; the same code then runs
over that field (see the end of this module).
Almost all structure constants are small integers, and native `int`
arithmetic costs a fraction of `Fraction` arithmetic. `_exact` puts a
value into this form, and every true division goes through a `Fraction`
and is normalised back (`_divide`). `str` of a scalar is the same in both
forms, so printed output does not depend on which one is stored.

All functions are pure and deterministic: identical input produces
identical pivots, kernel vectors and residue tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Optional, Sequence

Scalar = int | Fraction


def _exact(c) -> Scalar:
    """c in canonical form: an int when it is integral, a Fraction
    otherwise. Takes anything `Fraction` takes, so a bool becomes 0 or 1
    and a float its exact binary value. A `RationalFunction` is canonical
    by construction and is returned as it is."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if type(c) is RationalFunction:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _divide(a: Scalar, b: Scalar) -> Scalar:
    """a / b in canonical form; b must be nonzero. Two scalars are divided
    as one integer numerator over one integer denominator; a
    `RationalFunction` b divides through its own arithmetic."""
    if type(b) is RationalFunction:
        return _exact(Fraction(a) / b)
    num, den = a.numerator * b.denominator, a.denominator * b.numerator
    return num // den if not num % den else Fraction(num, den)


# The helpers with a leading underscore (the sparse primitives below and the
# rref reduction further down) are private so that per-function tracing of
# the public API does not wrap the innermost loops of the package.


def _accumulate(out: dict, terms: Iterable[tuple[object, object]], factor=1) -> dict:
    """Add `factor` times each (key, value) term into the sparse dict `out`
    in place, dropping keys whose value cancels to zero; returns `out`.
    `factor * row` is `_accumulate(out, row.items(), factor)`, with no
    scaled term built apart. Values and the factor may be any exact ring
    elements, such as scalars or solver polynomials; an integral Fraction
    is stored as its int (see `Scalar`)."""
    scaled = factor != 1
    for key, value in terms:
        if scaled:
            value = factor * value
        old = out.get(key)
        if old is not None:
            value = old + value
            if not value:
                del out[key]
                continue
        elif not value:
            continue
        if type(value) is Fraction and value.denominator == 1:
            value = value.numerator
        out[key] = value
    return out


def _combine(coeffs: dict, rows, out: Optional[dict] = None) -> dict:
    """sum of c * rows[m] over the entries m: c of `coeffs`, added into
    `out` (a new dict by default): the image of a sparse vector under the
    linear map whose basis images are `rows`."""
    if out is None:
        out = {}
    for m, c in coeffs.items():
        row = rows[m]
        if row:
            _accumulate(out, row.items(), c)
    return out


def _negated(rows) -> tuple[dict, ...]:
    """The rows with every coefficient negated; empty rows are shared."""
    return tuple({t: -c for t, c in row.items()} if row else row for row in rows)


def _first_not_squaring_to_zero(diff) -> Optional[int]:
    """The first i with d(d e_i) != 0, where d is given by its rows
    `diff`; None if d squares to zero."""
    return next((i for i, row in enumerate(diff) if _combine(row, diff)), None)


def _first_uncommuting(src_op, tgt_op, rows) -> Optional[int]:
    """The first i with f(src_op(e_i)) != tgt_op(f(e_i)), where f is the
    linear map with basis images `rows` and each operator is given by its
    rows; None if f intertwines the two operators."""
    for i, row in enumerate(src_op):
        if _combine(row, rows) != _combine(rows[i], tgt_op):
            return i
    return None


def _rref_dense(rows: list[list[Scalar]], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns).
    Rows of canonical scalars stay canonical."""
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        sel = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                sel = r
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pivot = rows[pivot_row][col]
        if pivot != 1:
            inv = _divide(1, pivot)
            rows[pivot_row] = [_exact(v * inv) for v in rows[pivot_row]]
        prow = rows[pivot_row]
        # an int row minus an int multiple of an int row is an int row, and
        # an int plus a non-integral Fraction is not integral, so a row can
        # only turn non-canonical when the factor or the pivot row holds a
        # Fraction
        integral = all(type(v) is int for v in prow)
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                row = [a - factor * b for a, b in zip(rows[r], prow)]
                rows[r] = row if integral and type(factor) is int else [_exact(v) for v in row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


def _dense(rows: Iterable[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """New rows of canonical scalars; every row must have `ncols` entries."""
    out = [list(map(_exact, row)) for row in rows]
    for row in out:
        if len(row) != ncols:
            raise ValueError("row length does not match the column count")
    return out


def _columns(vectors: Sequence[Mapping], keys: Sequence) -> list[list[Scalar]]:
    """Dense rows of the matrix whose column j is the sparse vector
    `vectors[j]` read at `keys`: row r holds the entries at keys[r], and
    entries at other keys are left out. With no keys there are no rows,
    so the caller passes len(vectors) as the column count."""
    rows = [[0] * len(vectors) for _ in keys]
    row_at = dict(zip(keys, rows))
    for c, vec in enumerate(vectors):
        for key, v in vec.items():
            row = row_at.get(key)
            if row is not None:
                row[c] = v
    return rows


def rref(rows: Sequence[Sequence[Scalar]], ncols: int) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form over exact rationals of the matrix with
    the given rows and `ncols` columns: (new rows, pivot columns). The
    rank is the number of pivots."""
    return _rref_dense(_dense(rows, ncols), ncols)


def kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right kernel {v : m v = 0} of the matrix m with the
    given rows and `ncols` columns, one vector per free column.

    Vector k for free column j has k[j] = 1 and k[p] = -R[i][j] for each
    pivot (i, p); vectors are ordered by increasing free column, so the
    kernel of a zero matrix, or of one without rows, is the standard basis.
    """
    reduced, pivots = _rref_dense(_dense(rows, ncols), ncols)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for row, p in zip(reduced, pivots):
            if row[j]:
                vec[p] = -row[j]
        basis.append(vec)
    return basis


def solve(rows: Sequence[Sequence[Scalar]], b: Sequence[Scalar], ncols: int) -> Optional[list[Scalar]]:
    """Some x with m x = b, free coordinates set to zero, where m has the
    given rows and `ncols` columns; None if b is not in the image of m."""
    if len(b) != len(rows):
        raise ValueError("right-hand side length does not match row count")
    augmented = _dense(rows, ncols)
    for row, v in zip(augmented, b):
        row.append(_exact(v))
    augmented, pivots = _rref_dense(augmented, ncols + 1)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, p in zip(augmented, pivots):
        x[p] = row[ncols]
    return x


def invert(rows: Sequence[Sequence[Scalar]]) -> Optional[list[list[Scalar]]]:
    """Rows of the inverse of the square matrix with the given rows, or
    None if it is singular."""
    n = len(rows)
    augmented = _dense(rows, n)
    for i, row in enumerate(augmented):
        row.extend(1 if j == i else 0 for j in range(n))
    augmented, pivots = _rref_dense(augmented, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in augmented]


def row_space_basis(vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> list[list[Scalar]]:
    """Canonical (rref) basis of the span of the given vectors."""
    rows, pivots = _rref_dense(_dense(vectors, ambient_dim), ambient_dim)
    return rows[: len(pivots)]


def _residues(rows: Sequence[Sequence[Scalar]], keys: Sequence) -> dict:
    """The residue table of the rref `rows`, whose columns are named by
    `keys`: each pivot's key maps to minus the rest of its row. That is
    the canonical representative of the pivot's basis vector modulo the
    row space, the unique one that is zero at every pivot, as every other
    pivot column of an rref row is zero. Every other key is its own
    representative."""
    out = {}
    for row in rows:
        p = next(c for c, v in enumerate(row) if v)
        out[keys[p]] = {keys[c]: -v for c, v in enumerate(row) if v and c != p}
    return out


def _reduce(vector: Mapping, residues: Mapping) -> dict:
    """The canonical representative of the sparse `vector` modulo the row
    space with the residue table `residues`, as a new dict: the entries
    off the pivots, plus each pivot entry times its residue, the pivots
    taken in the vector's order. No entry of `vector` is tested for zero,
    so reducing over a family's parameters records no guard of its own."""
    out, pivots = {}, {}
    for key, c in vector.items():
        (pivots if key in residues else out)[key] = c
    return _combine(pivots, residues, out) if pivots else out


def _projection(residues: Mapping, keys: Sequence) -> tuple[list, list[dict]]:
    """The quotient map of the span of `keys` modulo the row space with the
    residue table `residues`: (the kept keys, those that are not pivots;
    the image row of each key, in the positions of the kept keys)."""
    kept = [key for key in keys if key not in residues]
    position = {key: q for q, key in enumerate(kept)}
    images = [{position[t]: c for t, c in residues[key].items()} if key in residues
              else {position[key]: 1} for key in keys]
    return kept, images


# --- polynomials and rational functions ----------------------------------------


class Poly:
    """Multivariate polynomial with integer variable ids and exact
    coefficients (`Scalar`s, or `RationalFunction`s in a family's
    parameters).

    Keys are sorted tuples of variable ids (with repetition for powers);
    the empty tuple is the constant term. The obstruction solver's unknowns
    enter linearly and meet each other only through products of generator
    images, and a family has one or two parameters, so only tiny degrees
    ever occur.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict[tuple[int, ...], Scalar]] = None):
        self.terms = {k: _exact(v) for k, v in (terms or {}).items() if v}

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], Scalar]) -> "Poly":
        """Wrap a dict whose values are already known to be nonzero and
        canonical."""
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def const(cls, c) -> "Poly":
        c = _exact(c)
        return cls._of({(): c} if c else {})

    @classmethod
    def variable(cls, v: int) -> "Poly":
        return cls._of({(v,): 1})

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
        if isinstance(other, Poly):
            out: dict[tuple[int, ...], Scalar] = {}
            for k1, v1 in self.terms.items():
                _accumulate(out, ((tuple(sorted(k1 + k2)), v1 * v2)
                                  for k2, v2 in other.terms.items()))
            return Poly._of(out)
        if not isinstance(other, (int, Fraction, RationalFunction)):
            return NotImplemented
        if not other:
            return Poly()
        return Poly._of({k: _exact(v * other) for k, v in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def substitute(self, values: dict[int, Scalar]) -> "Poly":
        """Evaluate the variables that `values` assigns a value to."""
        out: dict[tuple[int, ...], Scalar] = {}
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

    def pair_at(self, values: dict[int, Scalar]) -> tuple[int, int]:
        """The value when `values` assigns every variable a scalar, for a
        polynomial with scalar coefficients, as an integer pair (num, den)
        with den > 0, summed over the integers and not reduced: the value
        is num/den, and it is zero exactly when num == 0."""
        num, den = 0, 1
        for key, coeff in self.terms.items():
            n, d = coeff.numerator, coeff.denominator
            for v in key:
                value = values[v]
                n, d = n * value.numerator, d * value.denominator
            num, den = num * d + n * den, den * d
        return num, den

    def value_at(self, values: dict[int, Scalar]) -> Scalar:
        """The value when `values` assigns every variable a scalar, for a
        polynomial with scalar coefficients: `pair_at` divided once."""
        return _divide(*self.pair_at(values))

    def affine(self) -> Optional[tuple[Scalar, dict[int, Scalar]]]:
        """(constant, linear coefficients), or None when degree >= 2."""
        const = 0
        linear: dict[int, Scalar] = {}
        for key, coeff in self.terms.items():
            if len(key) == 0:
                const = coeff
            elif len(key) == 1:
                linear[key[0]] = coeff
            else:
                return None
        return const, linear

    def quotient(self, divisor: "Poly") -> Optional["Poly"]:
        """self / divisor when the nonzero `divisor` divides self exactly,
        else None: long division on leading terms in the lexicographic
        order with variable 0 largest, in which a key compares as its
        negated ids."""
        lead = max(divisor.terms, key=_lex)
        lead_coeff = divisor.terms[lead]
        rest = dict(self.terms)
        out: dict[tuple[int, ...], Scalar] = {}
        while rest:
            key = max(rest, key=_lex)
            factor = list(key)
            for v in lead:
                if v not in factor:
                    return None
                factor.remove(v)
            factor = tuple(factor)
            c = out[factor] = _divide(rest[key], lead_coeff)
            _accumulate(rest, ((tuple(sorted(factor + k)), -c * v)
                               for k, v in divisor.terms.items()))
        return Poly._of(out)

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


def _lex(key: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-v for v in key)


_ONE = Poly.const(1)


class Parameters:
    """The symbols of one computation over a family, numbered from 0, and
    the guards that the computation's zero tests recorded.

    A guard is a polynomial in the symbols: the numerator of a value that
    was tested for zero (and, being a `RationalFunction`, found nonzero) or
    divided by. At a point where no guard vanishes, the same computation
    over the rationals takes every branch that the one over the symbols
    took, so each of its values is the symbolic value evaluated there: its
    numerator's value over its denominator's. Guards are kept monic and
    without repeats, in the order they were first recorded.
    """

    def __init__(self, names: Sequence[str]):
        self.names = dict(enumerate(names))
        self.guards: dict[Poly, None] = {}

    def symbol(self, k: int) -> "RationalFunction":
        return RationalFunction(Poly.variable(k), _ONE, self)

    def record(self, poly: Poly) -> None:
        lead = poly.terms[max(poly.terms, key=_lex)]
        self.guards[poly if lead == 1 else poly * _divide(1, lead)] = None


class RationalFunction:
    """A non-constant rational function num/den in the symbols of one
    `Parameters`, exact like a `Scalar`, with a denominator whose leading
    coefficient is 1.

    Arithmetic with scalars and with rational functions of the same
    `Parameters` gives a canonical value: a `Scalar` when the result is
    constant, so a zero is always the int 0 and a `RationalFunction` is
    never zero. Testing one for zero (`bool`) records its numerator as a
    guard, and dividing by one records its numerator too. Comparing one
    with a scalar gives False without a guard: the callers compare with
    1 and -1 only to skip a multiplication by the value, which gives the
    same result. Only an exact division cancels the denominator against
    the numerator, so equal values can differ in form; they are never
    hashed, and `==` tests the difference for zero.
    """

    __slots__ = ("num", "den", "params")

    def __init__(self, num: Poly, den: Poly, params: Parameters):
        self.num, self.den, self.params = num, den, params

    def _new(self, num: Poly, den: Poly):
        if not num:
            return 0
        quotient = num if den == _ONE else num.quotient(den)
        if quotient is not None:
            if set(quotient.terms) == {()}:
                return quotient.terms[()]
            return RationalFunction(quotient, _ONE, self.params)
        lead = den.terms[max(den.terms, key=_lex)]
        if lead != 1:
            inv = _divide(1, lead)
            num, den = num * inv, den * inv
        return RationalFunction(num, den, self.params)

    def __bool__(self) -> bool:
        self.params.record(self.num)
        return True

    def __eq__(self, other) -> bool:
        if type(other) is RationalFunction:
            return not (self - other)
        return False

    __hash__ = None

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den, self.params)

    def __add__(self, other):
        if type(other) is RationalFunction:
            if self.den == other.den:
                return self._new(self.num + other.num, self.den)
            return self._new(self.num * other.den + other.num * self.den, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._new(self.num + self.den * other, self.den)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is RationalFunction:
            return self._new(self.num * other.num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den, self.params) if other else 0
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is RationalFunction:
            self.params.record(other.num)
            return self._new(self.num * other.den, self.den * other.num)
        if isinstance(other, (int, Fraction)):
            return self * _divide(1, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            self.params.record(self.num)
            return self._new(self.den * other, self.num)
        return NotImplemented

    def value_at(self, values: dict[int, Scalar]) -> Scalar:
        """The value when `values` assigns every symbol, at a point where
        the denominator does not vanish. At a point of scalars the
        numerator's and the denominator's integer pairs (`Poly.pair_at`)
        a/b and c/d give the value as one division, (a*d)/(b*c). A value
        may itself be a `RationalFunction` (of another `Parameters`): the
        numerator and the denominator are then evaluated by ring
        arithmetic and divided once, and that division records its guard
        as any division by a `RationalFunction` does."""
        if all(type(v) is not RationalFunction for v in values.values()):
            (a, b), (c, d) = self.num.pair_at(values), self.den.pair_at(values)
            return _divide(a * d, b * c)
        num, den = (_exact(sum(c * prod(values[v] for v in key) for key, c in poly.terms.items()))
                    for poly in (self.num, self.den))
        if type(num) is RationalFunction or type(den) is RationalFunction:
            return num / den
        return _divide(num, den)

    def __str__(self) -> str:
        num = self.num.render(self.params.names)
        if self.den == _ONE:
            return num
        return f"({num})/({self.den.render(self.params.names)})"

    __repr__ = __str__


def _at_point(row: dict, point: dict[int, Scalar]) -> dict:
    """A new dict: `row` with each `RationalFunction` value evaluated at
    `point` (symbol id -> value), the values that vanish there dropped."""
    return _accumulate({}, ((k, c.value_at(point) if type(c) is RationalFunction else c)
                            for k, c in row.items()))
