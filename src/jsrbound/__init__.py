"""Certified two-sided bounds for the joint spectral radius.

The joint spectral radius of a finite set of square matrices measures the
fastest exponential growth rate achievable by long products drawn from the
set.  This package computes rigorous lower and upper bounds from finite
product enumeration, quantifies how far the set is from having a common
invariant subspace, and turns that quantity into an a-priori accuracy
certificate for the bounds.
"""

from .bounds import (
    BoundReport,
    gelfand_upper,
    kronecker_bounds,
    sandwich,
    spectral_lower,
    trace_estimate,
    zero_radius_test,
)
from .certificates import (
    CertifiedInterval,
    GammaEstimate,
    StepPlan,
    certified_interval,
    eta_p,
    nu_p,
    plan_steps,
    protasov_gamma,
)
from .core import (
    DEFAULT_WORD_BUDGET,
    MatrixSet,
    NormKind,
    Word,
    as_matrix,
    enumerate_products,
    load_matrix_set,
    matrix_set_norm,
    max_over_products,
    operator_norm,
    parse_matrix_set,
    product_of_word,
    spectral_radius,
    word_from_index,
)
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    InputFormatError,
    JsrError,
    NoCertificateError,
    UnsupportedDimensionError,
)
from .families import (
    FamilyChiBound,
    control_pair,
    indecomposable,
    row_sign_flip_bound,
    row_sign_flip_family,
    row_substitution_bound,
    row_substitution_family,
)
from .geometry import sphere_net, support_radius_upper
from .irreducibility import (
    BurnsideReport,
    ChiEstimate,
    CrosscheckReport,
    burnside_irreducible,
    chi_measure,
    invariant_subspace_search_2d,
    lemma1_crosscheck,
    reach_products,
    reach_set,
    sphere_profile,
)
from .oracle import OracleInterval, brute_force_interval, inscribed_radius

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "BurnsideReport",
    "CertifiedInterval",
    "ChiEstimate",
    "ConvergenceError",
    "CrosscheckReport",
    "DEFAULT_WORD_BUDGET",
    "FamilyChiBound",
    "GammaEstimate",
    "InputFormatError",
    "JsrError",
    "MatrixSet",
    "NoCertificateError",
    "NormKind",
    "OracleInterval",
    "StepPlan",
    "UnsupportedDimensionError",
    "Word",
    "as_matrix",
    "brute_force_interval",
    "burnside_irreducible",
    "certified_interval",
    "chi_measure",
    "control_pair",
    "enumerate_products",
    "eta_p",
    "gelfand_upper",
    "indecomposable",
    "inscribed_radius",
    "invariant_subspace_search_2d",
    "kronecker_bounds",
    "lemma1_crosscheck",
    "load_matrix_set",
    "matrix_set_norm",
    "max_over_products",
    "nu_p",
    "operator_norm",
    "parse_matrix_set",
    "plan_steps",
    "product_of_word",
    "protasov_gamma",
    "reach_products",
    "reach_set",
    "row_sign_flip_bound",
    "row_sign_flip_family",
    "row_substitution_bound",
    "row_substitution_family",
    "sandwich",
    "spectral_lower",
    "spectral_radius",
    "sphere_net",
    "sphere_profile",
    "support_radius_upper",
    "trace_estimate",
    "word_from_index",
    "zero_radius_test",
]
