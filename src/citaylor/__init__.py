"""Taylor resolutions, higher homotopies, and resolutions over complete
intersection quotients, with exact arithmetic throughout."""

from .poly import (
    GF,
    QQ,
    ParseError,
    Polynomial,
    PolyRing,
    PrimeField,
)
from .matrix import LabeledGradedMatrix
from .report import Report
from .taylor import (
    BasisElement,
    MonomialIdeal,
    TaylorComplex,
    monomial_ideal,
    taylor_complex,
    verify_taylor,
)
from .homotopy import (
    CompleteIntersectionData,
    HomotopySystem,
    LiftMatrix,
    NonHomogeneous,
    NotInIdeal,
    average_lifts,
    complete_intersection,
    compute_lift,
    homotopy_system,
    lift_matrix,
    lift_matrix_from_rows,
    verify_homotopy_system,
)
from .shamash import (
    NoStableTail,
    ShamashResolution,
    matrix_factorization,
    phi_squared_check,
    rank_formula,
    shamash_basis,
    shamash_differential,
    shamash_resolution,
)
from .quotient import (
    BadPrime,
    CapExceeded,
    GradedExactness,
    GroebnerBasis,
    buchberger,
    check_exactness,
    graded_piece_basis,
    normal_form,
)

__version__ = "0.1.0"
