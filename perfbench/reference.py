"""Answers the benchmark checks jobs against, derived by hand.

Nothing here imports `cdga_config`: the expected values come from the
Poincare polynomials of the shipped presets, written out below, and from
closed forms, so a defect in the package cannot also move its reference.

A polynomial is a list of coefficients, index = degree. For the presets
the differential is zero, so the Poincare polynomial is also the number of
basis elements in each degree.
"""

from __future__ import annotations

from fractions import Fraction

# name -> (formal dimension, Poincare polynomial)
PRESETS: dict[str, tuple[int, list[int]]] = {
    "point": (0, [1]),
    "s2": (2, [1, 0, 1]),
    "s3": (3, [1, 0, 0, 1]),
    "s4": (4, [1, 0, 0, 0, 1]),
    "s5": (5, [1, 0, 0, 0, 0, 1]),
    "cp2": (4, [1, 0, 1, 0, 1]),
    "s2xs3": (5, [1, 0, 1, 1, 0, 1]),
    "s3xs4": (7, [1, 0, 0, 1, 1, 0, 0, 1]),
}


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def kunneth(*names: str) -> tuple[int, list[int]]:
    """Formal dimension and Poincare polynomial of a tensor product of
    presets: dimensions add and polynomials multiply."""
    n, poly = 0, [1]
    for name in names:
        m, p = PRESETS[name]
        n, poly = n + m, poly_mul(poly, p)
    return n, poly


def fm2_betti(n: int, poly: list[int]) -> list[int]:
    """Betti numbers of F(M,2): b_k = [t^k](P(t)^2 - t^n P(t)).

    The shriek map a -> diag.(1 (x) a) is injective on cohomology, so the
    cone's long exact sequence splits into H(A (x) A) minus a copy of H(A)
    shifted up by n."""
    out = poly_mul(poly, poly)
    out += [0] * max(0, n + len(poly) - len(out))
    for k, c in enumerate(poly):
        out[n + k] -= c
    return out


def same_betti(got: list[int], want: list[int]) -> bool:
    """Equal up to trailing zeros (the package pads to the top degree)."""
    def trim(v: list[int]) -> list[int]:
        v = list(v)
        while v and v[-1] == 0:
            v.pop()
        return v
    return trim(got) == trim(want)


def cone_dim(poly: list[int]) -> int:
    """Basis size of the cone A (x) A + S A."""
    d = sum(poly)
    return d * d + d


def truncated_cone_dim(n: int, poly: list[int]) -> int:
    """Basis size of the cone with degrees >= 2n-1 cut away: the square
    keeps degrees below 2n-1 and S a (degree |a|+n-1) needs |a| < n."""
    square = poly_mul(poly, poly)
    return sum(square[: 2 * n - 1]) + sum(poly[:n])


def triples_in_degree(degrees: list[int], top: int | None) -> int:
    """Index triples (i, j, k) with deg i + deg j + deg k <= top, counted
    from the degree histogram instead of visiting all n^3 of them."""
    n = len(degrees)
    if top is None:
        return n ** 3
    hist: dict[int, int] = {}
    for d in degrees:
        hist[d] = hist.get(d, 0) + 1
    pairs: dict[int, int] = {}
    for a, x in hist.items():
        for b, y in hist.items():
            pairs[a + b] = pairs.get(a + b, 0) + x * y
    return sum(x * y for s, x in pairs.items() for c, y in hist.items() if s + c <= top)


def cone_degrees(n: int, poly: list[int]) -> list[int]:
    """Basis degrees of the cone of the shriek map: the square's degrees
    and |a| + n - 1 for each basis element a."""
    degrees = [k for k, c in enumerate(poly_mul(poly, poly)) for _ in range(c)]
    degrees += [k + n - 1 for k, c in enumerate(poly) for _ in range(c)]
    return sorted(degrees)


# --- the worked example on s2xs3 -------------------------------------------
#
# In A (x) A with (a (x) b)(c (x) d) = (-1)^(|b||c|) ac (x) bd and
# diag = 1 (x) xy + x (x) y - y (x) x - xy (x) 1, both cocycles of degree 3
# satisfy (y (x) 1).diag = (1 (x) y).diag = y (x) xy + xy (x) y. So
# w = a(y (x) 1) + b(1 (x) y) gives w.diag = (a + b)(y (x) xy + xy (x) y),
# and y (x) xy alone is not a multiple of it: a twist by t(y (x) xy),
# t != 0, changes the class modulo the diagonal ideal.

def w_times_diagonal(a: Fraction, b: Fraction) -> dict[str, Fraction]:
    c = a + b
    return {"y⊗xy": c, "xy⊗y": c}
