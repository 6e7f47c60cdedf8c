"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology, dual bases, quotients, the obstruction
solver) reduces to the four operations here: reduced row echelon form,
kernel bases, linear solves and quotient data. Matrices are small (a few
hundred columns per degree at most), so rational Gauss-Jordan elimination
on dense rows is the tool; no floats anywhere.

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
identical pivots, kernel vectors and quotient representatives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

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


def _accumulate(out: dict, terms: Iterable[tuple[object, object]]) -> dict:
    """Add (key, value) terms into the sparse dict `out` in place, dropping
    keys whose value cancels to zero; returns `out`. Values may be any
    exact ring elements, such as scalars or solver polynomials; an
    integral Fraction is stored as its int (see `Scalar`)."""
    for key, value in terms:
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
            _accumulate(out, ((t, c * v) for t, v in row.items()))
    return out


class SparseMatrix:
    """Immutable sparse rational matrix.

    Entries are stored as a mapping (row, col) -> nonzero scalar; zero
    entries are never stored, and `entries()` lists positions in sorted
    order so two equal matrices have identical printed forms.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: dict[tuple[int, int], Scalar] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Scalar] = {}
        for (r, c), v in (data or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside a {rows}x{cols} matrix")
            v = _exact(v)
            if v:
                clean[(r, c)] = v
        self._data = clean

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> "SparseMatrix":
        nrows = len(rows)
        ncols = cols if cols is not None else (len(rows[0]) if rows else 0)
        data = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = v
        return cls(nrows, ncols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]], rows: int | None = None) -> "SparseMatrix":
        ncols = len(columns)
        nrows = rows if rows is not None else (len(columns[0]) if columns else 0)
        data = {}
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = v
        return cls(nrows, ncols, data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    def entries(self) -> list[tuple[int, int, Scalar]]:
        return [(r, c, self._data[(r, c)]) for (r, c) in sorted(self._data)]

    def entry(self, r: int, c: int) -> Scalar:
        return self._data.get((r, c), 0)

    def dense_rows(self) -> list[list[Scalar]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._data.items():
            out[r][c] = v
        return out

    def column(self, j: int) -> list[Scalar]:
        return [self.entry(i, j) for i in range(self.rows)]

    def apply(self, vector: Sequence[Scalar]) -> list[Scalar]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * self.rows
        for (r, c), v in self._data.items():
            if vector[c]:
                out[r] += v * vector[c]
        return [_exact(v) for v in out]

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self._data.items()})

    def is_zero(self) -> bool:
        return not self._data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self._data.items()))))

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self._data)} entries)"


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


def rref(m: SparseMatrix) -> tuple[SparseMatrix, list[int], int]:
    """Reduced row echelon form of m over exact rationals.

    Returns (rref matrix, pivot columns, rank).
    """
    rows, pivots = _rref_dense(m.dense_rows(), m.cols)
    return SparseMatrix.from_rows(rows, m.cols), pivots, len(pivots)


def rank(m: SparseMatrix) -> int:
    return rref(m)[2]


def kernel_basis(m: SparseMatrix) -> list[list[Scalar]]:
    """Basis of the right kernel {v : m v = 0}, one vector per free column.

    Vector k for free column j has k[j] = 1 and k[p] = -R[i][j] for each
    pivot (i, p); vectors are ordered by increasing free column, so the
    kernel of a zero matrix is the standard basis.
    """
    reduced, pivots, _ = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for j in free:
        vec = [0] * m.cols
        vec[j] = 1
        for i, p in enumerate(pivots):
            coeff = reduced.entry(i, j)
            if coeff:
                vec[p] = -coeff
        basis.append(vec)
    return basis


def solve(m: SparseMatrix, b: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """Some x with m x = b, free coordinates set to zero; None if b is not
    in the image of m."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    rows = m.dense_rows()
    for i, v in enumerate(b):
        rows[i].append(_exact(v))
    rows, pivots = _rref_dense(rows, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for i, p in enumerate(pivots):
        x[p] = rows[i][m.cols]
    return x


def invert(m: SparseMatrix) -> Optional[SparseMatrix]:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        return None
    n = m.rows
    rows = m.dense_rows()
    for i in range(n):
        rows[i].extend(1 if j == i else 0 for j in range(n))
    rows, pivots = _rref_dense(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    data = {}
    for i in range(n):
        for j in range(n):
            v = rows[i][n + j]
            if v:
                data[(i, j)] = v
    return SparseMatrix(n, n, data)


def row_space_basis(vectors: Iterable[Sequence[Scalar]], ambient_dim: int) -> list[list[Scalar]]:
    """Canonical (rref) basis of the span of the given vectors."""
    rows = [list(map(_exact, v)) for v in vectors]
    for v in rows:
        if len(v) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
    if not rows:
        return []
    rows, pivots = _rref_dense(rows, ambient_dim)
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


def quotient_data(
    subspace: Sequence[Sequence[Scalar]], ambient_dim: int
) -> tuple[list[list[Scalar]], SparseMatrix]:
    """Representatives and projection for ambient / span(subspace).

    Representatives are the standard basis vectors at the lexicographically
    earliest non-pivot coordinates of the subspace rref, so quotient output
    is reproducible. The projection matrix vanishes exactly on the subspace
    span and restricts to the identity on the representatives.
    """
    residues = _residues(row_space_basis(subspace, ambient_dim), range(ambient_dim))
    keep = [j for j in range(ambient_dim) if j not in residues]
    position = {j: q for q, j in enumerate(keep)}
    data = {(q, j): 1 for q, j in enumerate(keep)}
    for p, residue in residues.items():
        for j, v in residue.items():
            data[(position[j], p)] = v
    reps = [[1 if i == j else 0 for i in range(ambient_dim)] for j in keep]
    return reps, SparseMatrix(len(keep), ambient_dim, data)


def betti_numbers(
    dims: dict[int, int], differentials: dict[int, SparseMatrix]
) -> dict[int, int]:
    """Betti numbers of a cochain complex given per-degree dimensions and
    the degree +1 differential blocks (differentials[k]: deg k -> deg k+1).

    betti[k] = dim ker(d_k) - rank(d_{k-1}); missing blocks count as zero
    maps. Degrees with dimension zero are reported as zero.
    """
    ranks = {k: rank(m) for k, m in differentials.items() if m.rows and m.cols}
    out = {}
    for k, dim in dims.items():
        if dim == 0:
            out[k] = 0
            continue
        rk_out = ranks.get(k, 0)
        rk_in = ranks.get(k - 1, 0)
        out[k] = dim - rk_out - rk_in
    return out


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

    def value_at(self, values: dict[int, Scalar]) -> Scalar:
        """The value when `values` assigns every variable a scalar, for a
        polynomial with scalar coefficients: summed over the integers as
        one numerator over one denominator, and divided once."""
        num, den = 0, 1
        for key, coeff in self.terms.items():
            n, d = coeff.numerator, coeff.denominator
            for v in key:
                value = values[v]
                n, d = n * value.numerator, d * value.denominator
            num, den = num * d + n * den, den * d
        return _divide(num, den)

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
        the denominator does not vanish."""
        return _divide(self.num.value_at(values), self.den.value_at(values))

    def __str__(self) -> str:
        num = self.num.render(self.params.names)
        if self.den == _ONE:
            return num
        return f"({num})/({self.den.render(self.params.names)})"

    __repr__ = __str__
