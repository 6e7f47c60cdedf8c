"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology, dual bases, quotients, the obstruction
solver) reduces to the four operations here: reduced row echelon form,
kernel bases, linear solves and quotient data. Matrices are tiny (well
under 200 columns per degree), so plain rational Gaussian elimination is
the right tool; no fraction-free tricks, no floats anywhere.

All functions are pure and deterministic: identical input produces
identical pivots, kernel vectors and quotient representatives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# The helpers with a leading underscore (the sparse primitives below and the
# rref reduction further down) are private so that per-function tracing of
# the public API does not wrap the innermost loops of the package.


def _accumulate(out: dict, terms: Iterable[tuple[object, object]]) -> dict:
    """Add (key, value) terms into the sparse dict `out` in place, dropping
    keys whose value cancels to zero; returns `out`. Values may be any
    exact ring elements, such as Fractions or solver polynomials."""
    for key, value in terms:
        old = out.get(key)
        if old is None:
            if value:
                out[key] = value
        else:
            value = old + value
            if value:
                out[key] = value
            else:
                del out[key]
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

    Entries are stored as a mapping (row, col) -> nonzero Fraction; zero
    entries are never stored, and `entries()` lists positions in sorted
    order so two equal matrices have identical printed forms.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, data: dict[tuple[int, int], Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in (data or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside a {rows}x{cols} matrix")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self._data = clean

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]], cols: int | None = None) -> "SparseMatrix":
        nrows = len(rows)
        ncols = cols if cols is not None else (len(rows[0]) if rows else 0)
        data = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = Fraction(v)
        return cls(nrows, ncols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Fraction | int]], rows: int | None = None) -> "SparseMatrix":
        ncols = len(columns)
        nrows = rows if rows is not None else (len(columns[0]) if columns else 0)
        data = {}
        for j, col in enumerate(columns):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = Fraction(v)
        return cls(nrows, ncols, data)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    def entries(self) -> list[tuple[int, int, Fraction]]:
        return [(r, c, self._data[(r, c)]) for (r, c) in sorted(self._data)]

    def entry(self, r: int, c: int) -> Fraction:
        return self._data.get((r, c), ZERO)

    def dense_rows(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._data.items():
            out[r][c] = v
        return out

    def column(self, j: int) -> list[Fraction]:
        return [self.entry(i, j) for i in range(self.rows)]

    def apply(self, vector: Sequence[Fraction]) -> list[Fraction]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [ZERO] * self.rows
        for (r, c), v in self._data.items():
            if vector[c]:
                out[r] += v * vector[c]
        return out

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self._data.items()})

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        data: dict[tuple[int, int], Fraction] = {}
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (r, c), v in other._data.items():
            by_row.setdefault(r, []).append((c, v))
        for (r, k), v in self._data.items():
            _accumulate(data, (((r, c), v * w) for c, w in by_row.get(k, ())))
        return SparseMatrix(self.rows, other.cols, data)

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


def _rref_dense(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
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
        inv = ONE / rows[pivot_row][col]
        if inv != 1:
            rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                prow = rows[pivot_row]
                rows[r] = [a - factor * b for a, b in zip(rows[r], prow)]
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


def kernel_basis(m: SparseMatrix) -> list[list[Fraction]]:
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
        vec = [ZERO] * m.cols
        vec[j] = ONE
        for i, p in enumerate(pivots):
            coeff = reduced.entry(i, j)
            if coeff:
                vec[p] = -coeff
        basis.append(vec)
    return basis


def solve(m: SparseMatrix, b: Sequence[Fraction | int]) -> Optional[list[Fraction]]:
    """Some x with m x = b, free coordinates set to zero; None if b is not
    in the image of m."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    rows = m.dense_rows()
    for i, v in enumerate(b):
        rows[i].append(Fraction(v))
    rows, pivots = _rref_dense(rows, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
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
        rows[i].extend(ONE if j == i else ZERO for j in range(n))
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


def row_space_basis(vectors: Iterable[Sequence[Fraction]], ambient_dim: int) -> list[list[Fraction]]:
    """Canonical (rref) basis of the span of the given vectors."""
    rows = [list(map(Fraction, v)) for v in vectors]
    for v in rows:
        if len(v) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
    if not rows:
        return []
    rows, pivots = _rref_dense(rows, ambient_dim)
    return rows[: len(pivots)]


def _pivots(rows: Sequence[Sequence[Fraction]]) -> list[int]:
    """Pivot column of each rref row: the position of its first nonzero
    entry."""
    return [next(c for c, v in enumerate(row) if v) for row in rows]


def _reduce(rows: Sequence[Sequence[Fraction]], pivots: Sequence[int],
            vec: Sequence[Fraction]) -> list[Fraction]:
    """Canonical representative of vec modulo the span of the rref `rows`
    with the given pivots: the unique one that is zero at every pivot.
    Each pivot column is zero in the other rows, so one pass suffices."""
    out = list(vec)
    for row, p in zip(rows, pivots):
        coeff = out[p]
        if coeff:
            out = [a - coeff * b for a, b in zip(out, row)]
    return out


def _projection(rows: Sequence[Sequence[Fraction]], pivots: Sequence[int], dim: int
                ) -> tuple[list[int], SparseMatrix]:
    """The non-pivot coordinates of the rref `rows`, in increasing order,
    and the matrix of `_reduce` read off at those coordinates: it vanishes
    exactly on the row space and is the identity on the kept coordinates."""
    pivot_set = set(pivots)
    keep = [j for j in range(dim) if j not in pivot_set]
    data = {}
    for q, j in enumerate(keep):
        data[(q, j)] = ONE
        for row, p in zip(rows, pivots):
            if row[j]:
                data[(q, p)] = -row[j]
    return keep, SparseMatrix(len(keep), dim, data)


def quotient_data(
    subspace: Sequence[Sequence[Fraction]], ambient_dim: int
) -> tuple[list[list[Fraction]], SparseMatrix]:
    """Representatives and projection for ambient / span(subspace).

    Representatives are the standard basis vectors at the lexicographically
    earliest non-pivot coordinates of the subspace rref, so quotient output
    is reproducible. The projection matrix vanishes exactly on the subspace
    span and restricts to the identity on the representatives.
    """
    reduced = row_space_basis(subspace, ambient_dim)
    keep, projection = _projection(reduced, _pivots(reduced), ambient_dim)
    reps = [[ONE if i == j else ZERO for i in range(ambient_dim)] for j in keep]
    return reps, projection


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction], ambient_dim: int
            ) -> Optional[list[Fraction]]:
    """Coefficients expressing target in the given vectors, or None."""
    m = SparseMatrix.from_columns(list(vectors), ambient_dim)
    return solve(m, list(target))


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
