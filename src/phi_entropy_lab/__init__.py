"""Numerical toolkit for matrix and operator-valued entropy inequalities."""

__version__ = "0.1.0"

from .catalog import (  # noqa: F401
    C1,
    C2,
    C3,
    OPERATOR_CONVEX,
    OUTSIDE_CLASS,
    Interval,
    ScalarFunction,
    builtin,
    from_spec,
)
from .channels import (  # noqa: F401
    KrausChannel,
    pushforward,
    random_unital_channel,
)
from .characterizations import (  # noqa: F401
    BivariateFunctional,
    eval_functional,
)
from .entropy import (  # noqa: F401
    MatrixEnsemble,
    ProductEnsemble,
    efron_stein_quantity,
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
    derivative_inverse,
    finite_diff_oracle,
    frechet_d1,
    frechet_d2,
    frechet_d3,
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
    SpectralDecomposition,
    apply_scalar_function,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    schatten_norm,
    spectral_decompose,
)
from .suite import (  # noqa: F401
    RunConfig,
    SuiteReport,
    check,
    counterexample_search,
    replay_witness,
    run_suite,
)
