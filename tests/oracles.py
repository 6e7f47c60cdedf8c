"""Independent oracles for derived expected values.

Deliberately self-contained dense rational elimination: nothing here
imports the package's linear algebra, so Betti numbers and ranks computed
through this module cross-check the library's kernel/image path rather
than restating it. The quotient and cohomology references find pivots
and representatives by solving linear systems, not by reducing against
rref rows as the package does. `naive_check_cdga`,
`naive_verify_module`, `naive_verify_module_map` and
`oracle_shuffle_multiplicative` are the exceptions: they use the
package's `Element` arithmetic, one product at a time, to cross-check the
row-based loops of `check_cdga`, `DGModule.verify` and `ModuleMap.verify`
and the signed-permutation test of `diagonal_correspondence`.
`naive_verify_algebra_map` checks a map of CDGAs the same way, on every
pair i <= j, against the generating-set sweep of `AlgebraMap.verify`.
`naive_tensor_mult` restates the tensor product's Koszul rule over every
pair of product basis elements, against the sparse loop of
`TensorAlgebra`. `oracle_check_table` keeps the per-value sweep of
`check_table`, run on every table, against the symbolic report that
`check_table` gives a table document's instances. `top_ideal_generators`
builds the generators of the even model's reference ideal the same way.
`oracle_decide_xi_equivalence` and
`oracle_quotients_match` keep the per-twist route of deciding two twists:
they set up the system afresh and solve it with `dense_solve`, and form
each C(xi)/I with the package's `build_cxi` and `quotient_dga`.
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


def dense_kernel_basis(rows, ncols):
    """Kernel basis of a dense matrix in the documented order: one vector
    per free column j, with 1 at j and minus the coefficients that express
    column j in the pivot columns."""
    columns = [[row[c] for row in rows] for c in range(ncols)]
    pivots = [c for c in range(ncols) if dense_solve(columns[:c], columns[c]) is None]
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = dense_solve([columns[p] for p in pivots], columns[j])
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for p, c in zip(pivots, x):
            vec[p] = -c
        basis.append(vec)
    return basis


def oracle_cocycles(space, k):
    """Kernel basis of the degree-k block (see `dense_kernel_basis`)."""
    dims, blocks = complex_blocks(space)
    return dense_kernel_basis(blocks[k], dims[k])


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


def oracle_subcomplex_betti(sub):
    """Betti numbers of a `Subcomplex`, keyed by the degrees it spans: the
    rank of its rref rows of degree k, written densely in the ambient basis
    of degree k, minus the `dense_rank`s of the d-images of its rows of
    degrees k and k-1, each image written densely in the ambient basis of
    the degree above."""
    space = sub.ambient
    basis = space.basis
    dims, ranks = {}, {}
    for k, gens in sub.bases.items():
        rows = [[gen.get(i, 0) for i in basis.degree_indices(k)] for gen in gens]
        tpos = {g: r for r, g in enumerate(basis.degree_indices(k + 1))}
        images = []
        for row in rows:
            image = [Fraction(0)] * len(tpos)
            for i, c in zip(basis.degree_indices(k), row):
                for j, v in space.d_basis(i).items():
                    image[tpos[j]] += c * v
            images.append(image)
        dims[k] = dense_rank(rows)
        ranks[k] = dense_rank(images)
    return {k: dims[k] - ranks[k] - ranks.get(k - 1, 0) for k in dims}


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


def _module_act(module, r, m):
    """r . m for elements r of the ring and m of the module, summed one
    `act_basis` term at a time."""
    from cdga_config.algebra import Element

    out = Element(module, {})
    for ri, a in r.coeffs.items():
        for mi, b in m.coeffs.items():
            out = out + Element(module, module.act_basis(ri, mi)).scale(a * b)
    return out


def _module_d(module, x):
    """d x for an element of the module, one `d_basis` row at a time."""
    from cdga_config.algebra import Element

    out = Element(module, {})
    for i, c in x.coeffs.items():
        out = out + Element(module, module.d_basis(i)).scale(c)
    return out


def naive_verify_module(module):
    """`DGModule.verify` computed one `Element` at a time: the unit on every
    m, associativity on every (r1, r2, m), the Leibniz rule on every (r, m)
    and d squared on every m, in lexicographic order, raising the same
    first StructureError."""
    from cdga_config.algebra import Element
    from cdga_config.errors import StructureError

    ring = module.ring
    rlabels, mlabels = ring.basis.labels, module.basis.labels
    e = [ring.basis_element(r) for r in range(ring.dim())]
    em = [Element(module, {m: 1}) for m in range(module.dim())]
    for m in range(module.dim()):
        if _module_act(module, ring.one(), em[m]) != em[m]:
            raise StructureError(f"unit does not act as identity on {mlabels[m]}")
    for r1 in range(ring.dim()):
        for r2 in range(ring.dim()):
            for m in range(module.dim()):
                lhs = _module_act(module, e[r1] * e[r2], em[m])
                rhs = _module_act(module, e[r1], _module_act(module, e[r2], em[m]))
                if lhs != rhs:
                    raise StructureError(
                        "module action is not associative at "
                        f"({rlabels[r1]}, {rlabels[r2]}, {mlabels[m]})")
    for r in range(ring.dim()):
        sign = (-1) ** ring.basis.degrees[r]
        for m in range(module.dim()):
            lhs = _module_d(module, _module_act(module, e[r], em[m]))
            rhs = (_module_act(module, e[r].d(), em[m])
                   + _module_act(module, e[r], _module_d(module, em[m])).scale(sign))
            if lhs != rhs:
                raise StructureError(f"module Leibniz rule fails at ({rlabels[r]}, {mlabels[m]})")
    for m in range(module.dim()):
        if not _module_d(module, _module_d(module, em[m])).is_zero():
            raise StructureError(f"module differential does not square to zero at {mlabels[m]}")


def naive_verify_module_map(source, target, images):
    """`ModuleMap.verify` computed one `Element` at a time: d on every
    source basis element, then the action on every (r, i), raising the same
    first NotAModuleMap."""
    from cdga_config.algebra import Element
    from cdga_config.errors import NotAModuleMap

    ring = source.ring
    labels = source.basis.labels

    def apply(x):
        out = Element(target, {})
        for i, c in x.coeffs.items():
            out = out + images[i].scale(c)
        return out

    ei = [Element(source, {i: 1}) for i in range(source.dim())]
    for i in range(source.dim()):
        if apply(_module_d(source, ei[i])) != _module_d(target, images[i]):
            raise NotAModuleMap(f"does not commute with d at {labels[i]}")
    for r in range(ring.dim()):
        er = ring.basis_element(r)
        for i in range(source.dim()):
            if apply(_module_act(source, er, ei[i])) != _module_act(target, er, images[i]):
                raise NotAModuleMap(
                    f"does not commute with the action at ({ring.basis.labels[r]}, {labels[i]})")


def naive_verify_algebra_map(source, target, images):
    """The check of a map of CDGAs given by `Element` images, one product
    at a time over every basis pair i <= j: the parent of the images, the
    unit, d on every basis element, then products, raising the first
    StructureError that `AlgebraMap.verify` raises. It checks no degrees."""
    from cdga_config.algebra import Element
    from cdga_config.errors import MixedParents, StructureError

    if any(x.parent is not target for x in images):
        raise MixedParents("images do not belong to the target algebra")
    if images[source.unit] != target.one():
        raise StructureError("map does not preserve the unit")

    def apply(x):
        out = Element(target, {})
        for i, c in x.coeffs.items():
            out = out + images[i].scale(c)
        return out

    labels = source.basis.labels
    e = [source.basis_element(i) for i in range(source.dim())]
    for i, x in enumerate(e):
        if apply(source.d(x)) != target.d(images[i]):
            raise StructureError(f"map does not commute with d at {labels[i]}")
    for i in range(len(e)):
        for j in range(i, len(e)):
            if apply(e[i] * e[j]) != images[i] * images[j]:
                raise StructureError(f"map is not multiplicative at ({labels[i]}, {labels[j]})")


def oracle_shuffle_multiplicative(source, target, rows):
    """Whether the linear map with basis images `rows` (coefficient dicts
    in `target`) satisfies f(e_i e_j) = f(e_i) f(e_j) on every pair of
    basis elements of `source`, one `Element` product at a time. It
    assumes nothing about the shape of the images."""
    from cdga_config.algebra import Element

    images = [Element(target, row) for row in rows]

    def apply(x):
        out = Element(target, {})
        for t, c in x.coeffs.items():
            out = out + images[t].scale(c)
        return out

    e = [source.basis_element(i) for i in range(source.dim())]
    return all(apply(x * y) == fx * fy
               for x, fx in zip(e, images) for y, fy in zip(e, images))


def naive_tensor_mult(t):
    """The product entries (t1, t2, k, c) of a `TensorAlgebra` with
    t1 <= t2, by visiting every such pair of its basis and applying
    (a (x) b) . (a' (x) b') = (-1)^(|a'| |b|) a a' (x) b b'."""
    left, right = t.left, t.right
    ldeg, rdeg = left.basis.degrees, right.basis.degrees
    pairs = [t.factors_of(x) for x in range(t.dim())]
    mult = []
    for t1, (i, j) in enumerate(pairs):
        for t2 in range(t1, len(pairs)):
            i2, j2 = pairs[t2]
            sign = (-1) ** (ldeg[i2] * rdeg[j])
            for k, a in left._mult[i][i2].items():
                for l, b in right._mult[j][j2].items():
                    mult.append((t1, t2, t.pair_index(k, l), sign * a * b))
    return mult


def dense_identity(n):
    """The n x n identity matrix as dense rows."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def dense_matmul(a, b):
    """The product of two matrices given as dense rows, as dense rational
    rows; `b` has at least one row or `a` has none."""
    ncols = len(b[0]) if b else 0
    return [[sum((Fraction(row[k]) * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(ncols)] for row in a]


def oracle_quotients_match(pd, xi, xi2):
    """Whether C(xi)/I and C(xi2)/I have the same structure constants,
    each quotient formed on its own C(xi) by `quotient_dga`."""
    from cdga_config.algebra import Element, same_structure
    from cdga_config.quotients import quotient_dga
    from cdga_config.twisted import build_cxi, equivalence_ideal

    ideal = equivalence_ideal(pd)
    quotients = []
    for twist in (xi, xi2):
        model = build_cxi(pd, twist)
        projected = []
        for gens in ideal.subcomplex.bases.values():
            for gen in gens:
                image = model.trunc.quotient.projection(Element(ideal.truncation.cone.algebra, gen))
                if not image.is_zero():
                    projected.append(Element(model.algebra, image.coeffs))
        quotients.append(quotient_dga(model.algebra, projected,
                                      name=f"{model.algebra.name}/I").algebra)
    return same_structure(quotients[0], quotients[1])


def oracle_decide_xi_equivalence(pd, xi, xi2):
    """(w, eta, difference_in_ideal, quotients_isomorphic) with
    xi - xi2 = w . diag + d(eta), or None when the difference is not of
    that form. The system [z . diag | d e_i] is built for this pair, with
    the cocycle basis of `oracle_cocycles`, which is the package's (see
    `test_cocycles_and_cohomology_match_oracle`), so that w is written in
    the same z."""
    from cdga_config.algebra import Element
    from cdga_config.twisted import equivalence_ideal

    square, n = pd.square, pd.n
    idx_tgt = square.basis.degree_indices(2 * n - 2)
    diag = pd.diagonal
    columns, parts = [], []
    idx_mid = square.basis.degree_indices(n - 2)
    for vec in oracle_cocycles(square, n - 2):
        z = Element(square, {i: c for i, c in zip(idx_mid, vec) if c})
        columns.append(square.multiply(z, diag).vector(idx_tgt))
        parts.append(("w", z))
    for i in square.basis.degree_indices(2 * n - 3):
        columns.append(square.d(square.basis_element(i)).vector(idx_tgt))
        parts.append(("eta", square.basis_element(i)))
    difference = xi - xi2
    x = dense_solve(columns, difference.vector(idx_tgt))
    if x is None:
        return None
    found = {"w": square.zero(), "eta": square.zero()}
    for c, (part, elem) in zip(x, parts):
        found[part] = found[part] + elem.scale(c)
    ideal = equivalence_ideal(pd)
    return (found["w"], found["eta"],
            ideal.contains(ideal.truncation.cone.inclusion(difference)),
            oracle_quotients_match(pd, xi, xi2))


def oracle_check_table(table):
    """D squared zero and the evaluation cochain identity on every
    generator of this table, computed on its own entries at its values,
    with the witnesses `check_table` formats."""
    from cdga_config.sullivan import TableCheck, TableReport

    checks = []
    for g in range(len(table.gens)):
        label = table.gen_label(g)
        dd = table.d(table.differentials[g])
        ev_ok, ev_wit = True, None
        if table.target is not None:
            diff = table.evaluate(table.differentials[g]) - \
                table.target.algebra.d(table.evaluation[g])
            ev_ok = diff.is_zero()
            if not ev_ok:
                ev_wit = f"m(D{label}) - d(m {label}) = {diff}"
        checks.append(TableCheck(label, not dd, table.element_str(dd) if dd else None,
                                 ev_ok, ev_wit))
    return TableReport(tuple(checks))


def oracle_fm2_betti(pd):
    """The Betti numbers of F(M, 2) in degrees 0 to 2n, in closed form
    from those of A alone: b_k = [t^k](P^2 - t^n P), P the Poincare
    polynomial of `oracle_betti(pd.algebra)`. The shriek map
    a -> diag.(1 (x) a) is injective on cohomology, so the long exact
    sequence of the cone splits into H(A (x) A) minus a copy of H(A)
    shifted up by n."""
    poly = oracle_betti(pd.algebra)
    out = [0] * (2 * pd.n + 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(poly):
            out[i + j] += a * b
        out[pd.n + i] -= a
    return out


def top_ideal_generators(cone):
    """omega (x) omega and S omega inside the cone of a duality algebra,
    the generators of the ideal that the paper quotients the cone by in
    even formal dimension, built with the package's `Element` arithmetic."""
    pd = cone.pd
    omega_omega = cone.inclusion(pd.square.tensor_elements(pd.omega, pd.omega))
    s_omega = cone.algebra.element({cone.susp_to_cone[b]: c for b, c in pd.omega.coeffs.items()})
    return [omega_omega, s_omega]
