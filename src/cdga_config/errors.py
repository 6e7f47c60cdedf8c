"""Exception types shared across the package.

Each type carries the CLI's exit status for it as `exit_status`: 1 for a
parse error (`ParseError` and its subclasses), 3 for a violated precondition
(`PreconditionError` and its subclasses), 2 for every other, a failed check.
"""

from __future__ import annotations


class CdgaError(Exception):
    """Base class for all errors raised by this package."""

    exit_status = 2


class ParseError(CdgaError):
    """An input file or expression could not be parsed or validated."""

    exit_status = 1


class PreconditionError(CdgaError):
    """An operation was asked of input outside the domain it requires."""

    exit_status = 3


class ExpressionParseError(ParseError):
    """An element expression in the micro-grammar is malformed."""


class StructureError(CdgaError):
    """Structurally invalid algebra data (bad index, degree mismatch,
    inconsistent duplicate product entry, product above the top degree)."""


class MixedParents(CdgaError):
    """Two elements of different parent algebras were combined."""


class NotAComplex(CdgaError):
    """The differential does not square to zero."""

    def __init__(self, degree, witness):
        self.degree = degree
        self.witness = witness
        super().__init__(f"d² != 0 in degree {degree}: d²({witness[0]}) = {witness[1]}")


class AxiomFailure(CdgaError):
    """A CDGA axiom check failed where the contract requires it to pass."""

    def __init__(self, report):
        self.report = report
        failed = ", ".join(c.axiom for c in report.checks if not c.ok)
        super().__init__(f"CDGA axioms failed: {failed}")


class PDFailure(CdgaError):
    """Poincare duality verification failed."""

    def __init__(self, kind, degree=None, witness=None):
        self.kind = kind          # "DegenerateAt" | "OrientationNotClosed" | "NoOrientationClass"
        self.degree = degree
        self.witness = witness
        msg = kind if degree is None else f"{kind}({degree})"
        if witness is not None:
            msg += f", witness {witness}"
        super().__init__(msg)


class NotAModuleMap(CdgaError):
    """A claimed dg-module morphism fails the chain or linearity condition."""


class ModuleMapViolation(CdgaError):
    """The shriek map failed its module-map identity; indicates a sign bug."""


class OddDimension(PreconditionError):
    """The even-dimensional pipeline was invoked with odd formal dimension."""


class ZeroFormalDimension(PreconditionError):
    """A construction that needs formal dimension at least 1 was requested
    in formal dimension 0: a cone model, where the suspended unit would sit
    in degree -1, or the quotient of the square by the diagonal class,
    which is then the unit."""


class EvenDimensionNonzeroXi(PreconditionError):
    """A nonzero twisting class was requested in even formal dimension,
    where the square of the suspended unit is forced to vanish."""


class WrongDegree(PreconditionError):
    """An element does not live in the degree the operation requires."""


class NotACocycle(PreconditionError):
    """An element required to be closed has nonzero differential."""


class PhiNotBijective(CdgaError):
    """The comparison map between cohomology quotients is not bijective."""

    def __init__(self, kind, witness=None):
        self.kind = kind          # "NotInjective" | "NotSurjective"
        self.witness = witness
        super().__init__(kind if witness is None else f"{kind}: {witness}")


class CorrespondenceFailure(CdgaError):
    """The shuffled product of two diagonal classes does not match the
    diagonal class of the tensor product algebra."""

    def __init__(self, shuffled, diagonal):
        self.shuffled = shuffled
        self.diagonal = diagonal
        super().__init__(f"shuffle image {shuffled} vs diagonal {diagonal}")


class IncompatibleTables(CdgaError):
    """Two generator tables do not share base, generators and degree cap."""
