"""Poincare duality structure: orientation, dual basis, diagonal class and
the shriek map into the tensor square.

The diagonal class is

    diag = sum_i (-1)^|a_i|  a_i (x) a_i*

for any homogeneous basis {a_i} with dual basis {a_i*} characterised by
eps(a_i . a_j*) = delta_ij. The shriek map sends s^-n a to diag . (1 (x) a)
and is a module map over the tensor square; its matrix is derived from the
suspension sign rules, never written down by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional

from .algebra import DGAlgebra, Element
from .dgmodule import DGModule, ModuleMap, ring_as_module, suspend
from .errors import ModuleMapViolation, NotAModuleMap, PDFailure, StructureError
from .linalg import Scalar, _accumulate, _columns, _combine, _divide, _exact, invert, kernel_basis
from .products import TensorAlgebra, tensor


class PDAlgebra:
    """A verified Poincare duality CDGA with cached dual-basis data.

    Built through `check_pd`; carries the formal dimension n, the
    orientation functional on degree n, the normalized top class omega with
    eps(omega) = 1, and the dual basis solved per complementary-degree
    block as one exact linear system.
    """

    def __init__(self, algebra: DGAlgebra, n: int, epsilon: dict[int, Scalar]):
        self.algebra = algebra
        self.n = n
        self.epsilon = {i: _exact(c) for i, c in epsilon.items() if c}
        # per degree k, the rows of the inverse of the degree k pairing
        # matrix (None if singular), filled by `_pairing_inverse`
        self._pairing_inverses: dict[int, Optional[list[list[Scalar]]]] = {}
        # the cone of the shriek map, filled by `cone.cone_model`
        self._cone_model = None

    def epsilon_value(self, x: Element) -> Scalar:
        """Apply the orientation functional to the degree-n part of x."""
        total = 0
        for i, c in x.coeffs.items():
            v = self.epsilon.get(i)
            if v:
                total += c * v
        return _exact(total)

    def pairing(self, x: Element, y: Element) -> Scalar:
        return self.epsilon_value(self.algebra.multiply(x, y))

    @cached_property
    def omega(self) -> Element:
        """Generator of the top degree rescaled so eps(omega) = 1; the
        earliest basis element with nonzero eps breaks ties."""
        for i in self.algebra.basis.degree_indices(self.n):
            v = self.epsilon.get(i)
            if v:
                return Element(self.algebra, {i: _divide(1, v)})
        raise PDFailure("NoOrientationClass")

    def _pairing_matrix(self, k: int) -> list[list[Scalar]]:
        """Rows of eps(a_i . a_j) with one column per a_i of degree k and
        one row per a_j of degree n-k."""
        alg = self.algebra
        cols_idx = alg.basis.degree_indices(self.n - k)
        return _columns([{j: self.pairing(alg.basis_element(i), alg.basis_element(j))
                          for j in cols_idx} for i in alg.basis.degree_indices(k)], cols_idx)

    def _pairing_inverse(self, k: int) -> Optional[list[list[Scalar]]]:
        """Rows of the inverse of the degree k pairing matrix, None if it
        is singular; inverted once per degree."""
        if k not in self._pairing_inverses:
            self._pairing_inverses[k] = invert(self._pairing_matrix(k))
        return self._pairing_inverses[k]

    @cached_property
    def dual_basis(self) -> tuple[Element, ...]:
        """a_i* per basis element, with eps(a_i . a_j*) = delta_ij."""
        alg = self.algebra
        duals: list[Optional[Element]] = [None] * alg.dim()
        for k in alg.basis.degrees_present():
            inverse = self._pairing_inverse(k)
            if inverse is None:
                raise PDFailure("DegenerateAt", k)
            cols_idx = alg.basis.degree_indices(self.n - k)
            for i, row in zip(alg.basis.degree_indices(k), inverse):
                duals[i] = Element(alg, dict(zip(cols_idx, row)))
        return tuple(duals)  # type: ignore[arg-type]

    @cached_property
    def square(self) -> TensorAlgebra:
        """The tensor square A (x) A, cached so diagonal data share a parent."""
        return tensor(self.algebra, self.algebra, name=f"{self.algebra.name or 'A'}²")

    def __repr__(self) -> str:
        return f"PDAlgebra({self.algebra.name or '?'}, n={self.n})"


def check_pd(
    algebra: DGAlgebra, n: int, epsilon: Mapping[int, Scalar] | Mapping[str, Scalar]
) -> PDAlgebra:
    """Verify the Poincare duality axioms and return the verified structure.

    Checks eps(d A^(n-1)) = 0, then non-degeneracy of the multiplication
    pairing in every complementary pair of degrees: the pairing matrix must
    be square and invertible. Raises PDFailure with a witness otherwise.
    """
    eps: dict[int, Scalar] = {}
    for key, value in epsilon.items():
        idx = algebra.basis.index(key) if isinstance(key, str) else key
        if algebra.basis.degrees[idx] != n:
            raise StructureError("orientation functional supported outside degree n")
        value = _exact(value)
        if value:
            eps[idx] = value
    pd = PDAlgebra(algebra, n, eps)
    if not eps:
        raise PDFailure("NoOrientationClass")

    for i in algebra.basis.degree_indices(n - 1):
        image = algebra.d(algebra.basis_element(i))
        value = pd.epsilon_value(image)
        if value:
            raise PDFailure(
                "OrientationNotClosed",
                n - 1,
                f"eps(d {algebra.basis.labels[i]}) = {value}",
            )

    max_deg = algebra.basis.max_degree() if algebra.dim() else 0
    if max_deg > n:
        raise PDFailure("DegenerateAt", max_deg, "basis above the formal dimension")
    # scan the degrees that carry elements: a dimension mismatch is reported
    # at the degree whose elements pair with nothing
    for k in algebra.basis.degrees_present():
        rows_idx = algebra.basis.degree_indices(k)
        cols_idx = algebra.basis.degree_indices(n - k)
        if len(rows_idx) != len(cols_idx):
            raise PDFailure(
                "DegenerateAt", k,
                f"dim A^{k} = {len(rows_idx)} but dim A^{n - k} = {len(cols_idx)}",
            )
        if pd._pairing_inverse(k) is None:
            null = kernel_basis(pd._pairing_matrix(k), len(rows_idx))
            witness = None
            if null:
                witness = str(
                    Element(algebra, {i: c for i, c in zip(rows_idx, null[0]) if c})
                )
            raise PDFailure("DegenerateAt", k, witness)

    pd.omega  # force normalization now; raises if the top class is missing
    return pd


def dual_basis(pd: PDAlgebra) -> tuple[Element, ...]:
    return pd.dual_basis


@dataclass(frozen=True)
class DiagonalClass:
    """The diagonal class as an element of the tensor square."""

    element: Element

    def __str__(self) -> str:
        return str(self.element)


def diagonal_class(pd: PDAlgebra) -> DiagonalClass:
    """diag = sum_i (-1)^|a_i| a_i (x) a_i* in (A (x) A)^n."""
    square = pd.square
    degs = pd.algebra.basis.degrees
    coeffs: dict[int, Scalar] = {}
    for i in range(pd.algebra.dim()):
        sign = (-1) ** degs[i]
        _accumulate(coeffs, ((square.pair_index(i, j), sign * c)
                             for j, c in pd.dual_basis[i].coeffs.items()))
    return DiagonalClass(Element(square, coeffs))


def algebra_as_square_module(pd: PDAlgebra) -> DGModule:
    """A as a module over A (x) A through the multiplication map:
    (e_i (x) e_j) . e_m = e_i e_j e_m."""
    square, alg = pd.square, pd.algebra
    # columns[m][k] = e_k e_m
    columns = list(zip(*alg._mult))
    action = [[_combine(alg._mult[i][j], column) for column in columns]
              for i, j in map(square.factors_of, range(square.dim()))]
    return DGModule(square, alg.basis, action, alg._diff, name=f"{alg.name or 'A'} as module")


def desuspended_module(pd: PDAlgebra) -> DGModule:
    """s^-n A with the action and differential given by the sign rules."""
    return suspend(algebra_as_square_module(pd), -pd.n,
                   label=lambda l: f"s^-{pd.n}({l})")


def shriek_map(pd: PDAlgebra) -> ModuleMap:
    """The module map s^-n A -> A (x) A, s^-n a -> diag . (1 (x) a).

    The images are read off the square's product table. Verification
    (cochain + action-compatible on all pairs) is part of the construction;
    a failure indicates a sign-convention bug upstream.
    """
    square = pd.square
    source = desuspended_module(pd)
    target = ring_as_module(square)
    diag = diagonal_class(pd).element.coeffs
    unit = pd.algebra.unit
    images = [Element(target, square.multiply_coeffs(diag, {square.pair_index(unit, a): 1}))
              for a in range(pd.algebra.dim())]
    try:
        return ModuleMap(source, target, images)
    except NotAModuleMap as exc:
        raise ModuleMapViolation(str(exc)) from exc
