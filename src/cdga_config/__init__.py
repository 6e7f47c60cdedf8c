"""Exact rational models of two-point configuration spaces.

Given a Poincare duality algebra over the rationals, the package builds
and verifies the diagonal class, the mapping cone of the shriek map with
its semi-trivial product, the truncated cone with the twisted family on
it (for even dimensions only C(0), the even-dimensional model),
quotient-by-diagonal models, tensor products with their diagonal
correspondence, and the staged obstruction solver that separates the
twisted family pairwise.

All arithmetic is exact; nothing here touches floating point.
"""

__version__ = "0.1.0"

from .algebra import (
    AxiomReport,
    CohomologyReport,
    DGAlgebra,
    Element,
    GradedBasis,
    betti_vector,
    check_cdga,
    cohomology,
)
from .cone import MappingCone, cone_model, even_model, mapping_cone
from .dgmodule import DGModule, ModuleMap, ring_as_module, suspend
from .linalg import Scalar, kernel_basis, rref, solve
from .poincare import PDAlgebra, check_pd, shriek_map
from .products import CorrespondenceReport, TensorAlgebra, diagonal_correspondence, product_pd
from .quotients import QuotientDGA, Subcomplex, ideal_span, quotient_dga
from .sullivan import (
    GeneratorTable,
    Obstructed,
    Exists,
    Unresolved,
    check_table,
    classify_example,
    iso_obstruction,
    s2xs3_table,
)
from .twisted import (
    EquivalenceIdeal,
    EquivalentWitness,
    NotDecidedHere,
    TwistedModel,
    build_cxi,
    c_of_x,
    decide_xi_equivalence,
    equivalence_ideal,
    phi,
    quotient_by_diagonal,
    truncate_cone,
)
