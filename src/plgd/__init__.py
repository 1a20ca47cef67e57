"""Certified fixed-step gradient descent on composite problems.

The library estimates regularity constants (bounded/Lipschitz Jacobians,
coercive tangent Grams, Lipschitz gradients, Polyak-Lojasiewicz lower
bounds) for maps and objectives, runs gradient descent on compositions,
and verifies the quantitative convergence and distance-to-initialization
guarantees those constants imply against the observed trajectory.
"""

from .descent import (
    BoundVerdicts,
    ConstantsLedger,
    DescentTrace,
    Verdict,
    build_ledger,
    closest_optimum,
    minimal_ledger,
    monitor_rows,
    predicted_iterations,
    run,
)
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    InvalidDataset,
    MissingCertificate,
    NotSelfAdjoint,
    NumericFailure,
    PlgdError,
    SolverCapExceeded,
)
from .integrand import (
    Dataset,
    Integrand,
    gan_integrand,
    gaussian_nll,
    integral_functional,
    least_squares,
    negate,
    softmax_ce,
    vae_integrand,
)
from .model import (
    Model,
    NTKGram,
    fd_check_model,
    induce,
    linear_disc,
    linear_model,
    ntk_gram,
    random_features,
    shallow_disc,
    shallow_net,
    vae_model,
)
from .objective import (
    PLReport,
    ScalarObjective,
    check_pl,
    estimate_lg,
    quadratic,
)
from .problems import (
    PrototypeProblem,
    analytic_certificates,
    check_gradients,
    gan_discriminator,
    make_certificates,
    sampled_certificates,
    supervised,
    vae,
)
from .smoothmap import (
    Ball,
    CertValue,
    MapCertificate,
    SmoothMap,
    certify,
    conditioning_at,
    estimate_bj,
    estimate_lj,
    estimate_uc,
    fd_check,
    jacobian_norm,
    sample_ball,
)
from .space import (
    LinOp,
    WeightedSpace,
    adjoint_defect,
    coercivity,
    op_norm,
)

__version__ = "0.1.0"
