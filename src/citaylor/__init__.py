"""Taylor resolutions, higher homotopies, and resolutions over complete
intersection quotients, with exact arithmetic throughout."""

from .poly import (
    GF,
    QQ,
    Monomial,
    NotDivisible,
    ParseError,
    Polynomial,
    PolyRing,
    PrimeField,
    mono_divide,
    mono_lcm,
)
from .matrix import LabeledGradedMatrix, scalar_matrix
from .report import Report
from .taylor import (
    MonomialIdeal,
    SubsetLabel,
    TaylorComplex,
    monomial_ideal,
    taylor_basis,
    taylor_complex,
    taylor_differential,
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
    DPIndex,
    NoStableTail,
    ShamashBasisElement,
    ShamashResolution,
    betti_bound,
    matrix_factorization,
    minimality_check,
    phi_squared_check,
    rank_formula,
    shamash_basis,
    shamash_differential,
    shamash_resolution,
    tail_periodicity,
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
