"""Independent oracles for derived expected values.

Deliberately self-contained dense rational elimination: nothing here
imports the package's linear algebra, so Betti numbers and ranks computed
through this module cross-check the library's kernel/image path rather
than restating it. `naive_check_cdga` is the exception: it uses the
package's `Element` arithmetic, one product at a time, to cross-check the
table-driven loops of `check_cdga`.
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
