"""Numerical toolkit for matrix and operator-valued entropy inequalities."""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    C1,
    C2,
    C3,
    OPERATOR_CONVEX,
    OUTSIDE_CLASS,
    DividedDifferenceTable,
    Interval,
    ScalarFunction,
    builtin,
    divided_differences,
    from_spec,
)
from .channels import (  # noqa: F401
    KrausChannel,
    apply_channel,
    operator_jensen_check,
    pushforward,
    random_unital_channel,
)
from .characterizations import (  # noqa: F401
    BivariateFunctional,
    eval_functional,
    integral_relation_check,
    taylor_relation_check,
)
from .entropy import (  # noqa: F401
    MatrixEnsemble,
    ProductEnsemble,
    conditional_entropy,
    efron_stein_quantity,
    expectation,
    interpolation_derivative_scan,
    matrix_phi_entropy,
    operator_phi_entropy,
    variance,
)
from .errors import (  # noqa: F401
    ClassGateError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    PhiLabError,
    SingularOperatorError,
)
from .frechet import (  # noqa: F401
    SuperOperatorMatrix,
    chain_rule_check,
    finite_diff_oracle,
    frechet_d1,
    frechet_d2,
    frechet_d3,
    inversion_derivative_check,
    partial_derivative_check,
    superop_inverse,
    superop_matrix,
)
from .reports import VerificationReport  # noqa: F401
from .sampling import (  # noqa: F401
    haar_unitary,
    rng_for,
    sample_coupled_ensembles,
    sample_ensemble,
    sample_hermitian,
    sample_product,
    sample_psd,
)
from .spectral import (  # noqa: F401
    LoewnerVerdict,
    SpectralDecomposition,
    apply_scalar_function,
    hs_inner,
    loewner_compare,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    schatten_norm,
    spectral_decompose,
    trace,
)
from .suite import (  # noqa: F401
    RunConfig,
    SuiteReport,
    check,
    counterexample_search,
    replay_witness,
    run_suite,
)
