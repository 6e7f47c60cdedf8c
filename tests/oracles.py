"""Independent oracles for derived expected values.

Deliberately self-contained dense rational elimination: nothing here
imports the package's linear algebra, so Betti numbers and ranks computed
through this module cross-check the library's kernel/image path rather
than restating it. The quotient and cohomology references find pivots
and representatives by solving linear systems, not by reducing against
rref rows as the package does. `naive_check_cdga` is the exception: it
uses the package's `Element` arithmetic, one product at a time, to
cross-check the table-driven loops of `check_cdga`.
"""

from fractions import Fraction


def dense_rank(rows):
    """Rank by plain forward elimination on dense rational rows."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        sel = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        piv = m[row][col]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col] / piv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def dense_solve_consistent(rows, rhs):
    """Whether rhs lies in the column span of the matrix given by rows."""
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    return dense_rank(aug) == dense_rank(rows)


def dense_solve(columns, target):
    """Some x with sum_j x[j] * columns[j] = target (free unknowns zero), or
    None: Gauss-Jordan elimination on the augmented matrix."""
    n = len(columns)
    m = [[Fraction(col[i]) for col in columns] + [Fraction(t)] for i, t in enumerate(target)]
    x = [Fraction(0)] * n
    row = 0
    pivots = []
    for col in range(n + 1):
        sel = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        if col == n:
            return None
        m[row], m[sel] = m[sel], m[row]
        m[row] = [v / m[row][col] for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    for r, p in enumerate(pivots):
        x[p] = m[r][n]
    return x


def pivot_coordinates(vectors, dim):
    """The rref pivot columns of the span of `vectors`: the coordinates c
    whose entries are no combination of the entries at earlier coordinates."""
    columns = [[Fraction(v[c]) for v in vectors] for c in range(dim)]
    return [c for c in range(dim) if dense_solve(columns[:c], columns[c]) is None]


def dense_reduce(vectors, vec, dim):
    """The unique vector congruent to `vec` modulo span(vectors) that is zero
    at every pivot coordinate, by one solve restricted to the pivots."""
    pivots = pivot_coordinates(vectors, dim)
    x = dense_solve([[v[p] for p in pivots] for v in vectors], [vec[p] for p in pivots])
    return [vec[c] - sum((xj * v[c] for xj, v in zip(x, vectors)), Fraction(0))
            for c in range(dim)]


def _degree_part(coeffs, idx):
    return [coeffs.get(i, Fraction(0)) for i in idx]


def oracle_contains(space, vectors, elem):
    """Whether elem lies in the graded span of the homogeneous parts of
    `vectors`: one solve per degree of elem."""
    for k in sorted({space.basis.degrees[i] for i in elem.coeffs}):
        idx = space.basis.degree_indices(k)
        columns = [_degree_part(v.coeffs, idx) for v in vectors]
        if dense_solve(columns, _degree_part(elem.coeffs, idx)) is None:
            return False
    return True


def oracle_reduce(space, vectors, elem):
    """Coefficients of the canonical representative of elem modulo the
    graded span of `vectors`, degree by degree (see `dense_reduce`)."""
    out = {}
    for k in sorted({space.basis.degrees[i] for i in elem.coeffs}):
        idx = space.basis.degree_indices(k)
        parts = [_degree_part(v.coeffs, idx) for v in vectors]
        rep = dense_reduce(parts, _degree_part(elem.coeffs, idx), len(idx))
        out.update({i: c for i, c in zip(idx, rep) if c})
    return out


def oracle_kept(space, vectors):
    """The ambient indices at the non-pivot coordinates of each degree, in
    basis order: the basis a quotient by the span keeps."""
    kept = []
    for k in space.basis.degrees_present():
        idx = space.basis.degree_indices(k)
        pivots = pivot_coordinates([_degree_part(v.coeffs, idx) for v in vectors], len(idx))
        kept += [i for c, i in enumerate(idx) if c not in pivots]
    return kept


def oracle_cocycles(space, k):
    """Kernel basis of the degree-k block in the documented order: one
    vector per free column j, with 1 at j and minus the coefficients that
    express column j in the pivot columns."""
    dims, blocks = complex_blocks(space)
    block = blocks[k]
    columns = [[row[c] for row in block] for c in range(dims[k])]
    pivots = [c for c in range(dims[k]) if dense_solve(columns[:c], columns[c]) is None]
    basis = []
    for j in range(dims[k]):
        if j in pivots:
            continue
        x = dense_solve([columns[p] for p in pivots], columns[j])
        vec = [Fraction(0)] * dims[k]
        vec[j] = Fraction(1)
        for p, c in zip(pivots, x):
            vec[p] = -c
        basis.append(vec)
    return basis


def dense_rref_basis(vectors, dim):
    """The nonzero rows of the reduced row echelon form of the vectors:
    each is the canonical representative of a unit vector e_p at a pivot
    p, taken modulo the span of the other pivots' unit vectors."""
    pivots = pivot_coordinates(vectors, dim)
    rows = []
    for p in pivots:
        # the vector of the span that is 1 at p and 0 at the other pivots
        want = [Fraction(1) if q == p else Fraction(0) for q in pivots]
        x = dense_solve([[v[q] for q in pivots] for v in vectors], want)
        rows.append([sum((xj * v[c] for xj, v in zip(x, vectors)), Fraction(0))
                     for c in range(dim)])
    return rows


def oracle_cohomology(space, k):
    """(representatives, coboundaries) of degree k as dense vectors: the
    rref basis of the coboundaries, and the rref basis of the cocycles'
    canonical representatives modulo the coboundaries."""
    dims, blocks = complex_blocks(space)
    dim = dims[k]
    images = [[row[c] for row in blocks[k - 1]] for c in range(dims[k - 1])] if k > 0 else []
    reduced = [dense_reduce(images, z, dim) for z in oracle_cocycles(space, k)]
    return (dense_rref_basis([r for r in reduced if any(r)], dim),
            dense_rref_basis(images, dim))


def complex_blocks(space):
    """Per-degree dimensions and dense differential blocks of a space with
    `.basis` and `.d_basis`."""
    basis = space.basis
    top = basis.max_degree()
    dims = {}
    blocks = {}
    for k in range(top + 1):
        idx = basis.degree_indices(k)
        dims[k] = len(idx)
        tgt = basis.degree_indices(k + 1)
        tpos = {g: r for r, g in enumerate(tgt)}
        block = [[Fraction(0)] * len(idx) for _ in range(len(tgt))]
        for c, i in enumerate(idx):
            for j, v in space.d_basis(i).items():
                block[tpos[j]][c] = v
        blocks[k] = block
    return dims, blocks


def oracle_betti(space):
    """Betti numbers via dense rank computations only."""
    dims, blocks = complex_blocks(space)
    top = max(dims)
    ranks = {k: dense_rank(blocks[k]) for k in blocks if blocks[k]}
    out = []
    for k in range(top + 1):
        dim = dims.get(k, 0)
        if dim == 0:
            out.append(0)
            continue
        rk_out = ranks.get(k, 0)
        rk_in = ranks.get(k - 1, 0)
        out.append(dim - rk_out - rk_in)
    return out


def naive_check_cdga(algebra):
    """The CDGA axiom report computed one `Element` product at a time.

    Every basis tuple is visited in lexicographic order, with no degree
    pruning and no shared tables, and the witness of the first failure is
    formatted as `check_cdga` documents it; the two reports must agree.
    """
    from cdga_config.algebra import AxiomCheck, AxiomReport

    labels = algebra.basis.labels
    degs = algebra.basis.degrees
    n = algebra.dim()
    e = [algebra.basis_element(i) for i in range(n)]
    one = algebra.one()

    def first(axiom, tuples, failure):
        for t in tuples:
            witness = failure(*t)
            if witness:
                return AxiomCheck(axiom, False, witness)
        return AxiomCheck(axiom, True, None)

    checks = []
    checks.append(first(
        "unit", ((i,) for i in range(n)),
        lambda i: f"1*{labels[i]} != {labels[i]}" if one * e[i] != e[i] else None))
    checks.append(first(
        "graded_commutativity", ((i, j) for i in range(n) for j in range(i, n)),
        lambda i, j: f"({labels[i]}, {labels[j]})"
        if e[i] * e[j] != (e[j] * e[i]).scale((-1) ** (degs[i] * degs[j])) else None))
    checks.append(first(
        "associativity", ((i, j, k) for i in range(n) for j in range(n) for k in range(n)),
        lambda i, j, k: f"({labels[i]}, {labels[j]}, {labels[k]})"
        if (e[i] * e[j]) * e[k] != e[i] * (e[j] * e[k]) else None))
    checks.append(first(
        "d_squared", ((i,) for i in range(n)),
        lambda i: f"d²({labels[i]}) = {e[i].d().d()}" if not e[i].d().d().is_zero() else None))
    checks.append(first(
        "leibniz", ((i, j) for i in range(n) for j in range(n)),
        lambda i, j: f"({labels[i]}, {labels[j]})"
        if (e[i] * e[j]).d() != e[i].d() * e[j] + (e[i] * e[j].d()).scale((-1) ** degs[i])
        else None))
    return AxiomReport(tuple(checks))
