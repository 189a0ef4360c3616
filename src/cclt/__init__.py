"""cclt: verification-grade error bounds for the combinatorial CLT.

Exact distributions of permutation statistics, matrix permanents, explicit
characteristic-function inequalities, and a certified normal-approximation
constant pipeline, all cross-checked against brute-force oracles.
"""

from .analytic import (
    MomentIntegrals,
    damped_moment_integrals,
    kappa,
    taylor_remainder_check,
    v_of_w,
)
from .constants import (
    LYAPUNOV_COEFFICIENT,
    THEOREM_C1,
    THEOREM_C2,
    BoundReport,
    ConstantsReport,
    ThetaEntry,
    berry_esseen_bound,
    sampling_bound_specialized,
    smoothing_bound,
    theorem_constants,
)
from .errors import (
    CapExceededError,
    CcltError,
    ConvergenceError,
    DegenerateMatrixError,
    IndexRangeError,
    InvalidMatrixError,
    MatrixParseError,
    ParameterError,
)
from .exact import (
    AtomDistribution,
    DeltaReport,
    enumerate_distribution,
    kolmogorov_distance,
    monte_carlo_delta,
    normal_cdf,
)
from .identity import (
    ComplexScoreMatrix,
    FTerms,
    IdentityCheck,
    IdentityTerms,
    beta_quadruple,
    f_residual,
    f_terms,
    identity_check,
    identity_terms,
    swap_identity_check,
)
from .matrixio import infer_format, load_complex_matrix, load_score_matrix
from .permanents import (
    CfEvaluation,
    ClosedFormBounds,
    cf_diff_bound_closed,
    cf_diff_bound_integral,
    charfn,
    charfn_bound,
    evaluate_cf,
    gauss_cf,
    h_ell,
    permanent,
    restricted_sum_check,
)
from .scores import (
    GammaProfile,
    SamplingScores,
    ScoreMatrix,
    from_sampling,
)

__version__ = "0.1.0"

__all__ = [
    "AtomDistribution",
    "BoundReport",
    "CapExceededError",
    "CcltError",
    "CfEvaluation",
    "ClosedFormBounds",
    "ComplexScoreMatrix",
    "ConstantsReport",
    "ConvergenceError",
    "DegenerateMatrixError",
    "DeltaReport",
    "FTerms",
    "GammaProfile",
    "IdentityCheck",
    "IdentityTerms",
    "IndexRangeError",
    "InvalidMatrixError",
    "LYAPUNOV_COEFFICIENT",
    "MatrixParseError",
    "MomentIntegrals",
    "ParameterError",
    "SamplingScores",
    "ScoreMatrix",
    "THEOREM_C1",
    "THEOREM_C2",
    "ThetaEntry",
    "berry_esseen_bound",
    "beta_quadruple",
    "cf_diff_bound_closed",
    "cf_diff_bound_integral",
    "charfn",
    "charfn_bound",
    "damped_moment_integrals",
    "enumerate_distribution",
    "evaluate_cf",
    "f_residual",
    "f_terms",
    "from_sampling",
    "gauss_cf",
    "h_ell",
    "identity_check",
    "identity_terms",
    "infer_format",
    "kappa",
    "kolmogorov_distance",
    "load_complex_matrix",
    "load_score_matrix",
    "monte_carlo_delta",
    "normal_cdf",
    "permanent",
    "restricted_sum_check",
    "sampling_bound_specialized",
    "smoothing_bound",
    "swap_identity_check",
    "taylor_remainder_check",
    "theorem_constants",
    "v_of_w",
]
