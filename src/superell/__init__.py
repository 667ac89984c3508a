"""Exact-arithmetic toolkit for superelliptic curves over finite fields.

Classification of hyperelliptic curves as ordinary / superspecial via
the Frobenius coefficient matrix and rational-point counts, the
canonical representation of the automorphism group of y^m = x^p - x
with an irreducibility decision procedure, and exact evaluation of the
covering-space formulas, divisor bounds and finite divisibility
searches that arise when classifying curves with many automorphisms.
"""

from .ff import (
    FieldDescriptor,
    FieldElement,
    FieldMismatchError,
    NonPrimeModulusError,
    WorkBudgetError,
    frobenius,
    make_field,
)
from .poly import Polynomial, is_squarefree, poly_gcd, poly_pow, roots_in_field
from .linalg import FieldMatrix
from .curve import (
    ASQ,
    GENERAL,
    HYPERELLIPTIC,
    INFINITY,
    CurveAutomorphism,
    InvalidCurveError,
    PointCount,
    SuperellipticCurve,
    UnsupportedModelError,
    apply_automorphism,
    count_points,
    enumerate_points,
    genus,
    orbit_partition,
)
from .cartier import (
    CrosscheckReport,
    HasseWittMatrix,
    InseparableModelError,
    PRankClass,
    classify_p_rank,
    crosscheck_superspecial,
    hasse_witt,
)
from .canrep import (
    DifferentialBasis,
    IrreducibilityVerdict,
    MeatAxeInconclusive,
    RepresentationModule,
    build_basis,
    canonical_module,
    commutant_dimension,
    decide_irreducibility,
    divisor_table,
    explicit_invariant_subspace,
    generator_matrix,
)
from .ramify import (
    CoverProfile,
    FormulaResult,
    case_equation_check,
    deuring_shafarevich,
    lambda_value,
    mu_value,
    riemann_hurwitz,
)
from .casecheck import (
    BoundReport,
    SearchSpec,
    aut_bound_ordinary,
    case_closed_forms,
    divisibility_bound,
    run_search,
    subcase1_ordinarity_bound,
)
from .exprparse import ParseError, parse_curve, parse_poly, render_poly

__version__ = "0.1.0"
