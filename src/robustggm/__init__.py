"""Robust sparse Gaussian graphical modeling.

Gamma-divergence weighted precision-matrix estimation with a
majorize-minimize outer loop and a weighted graphical-lasso inner
solver, multivariate-t (tlasso) and nonparanormal baselines, a
scale-free contaminated-data benchmark generator, and support-recovery
metrics.  See the `rggm` command-line tool for the batch workflow.
"""

from .baselines import (
    NpnConfig,
    TlassoConfig,
    fit_nonparanormal,
    fit_tlasso,
    npn_delta,
    npn_transform,
)
from .errors import (
    DegenerateColumn,
    DegenerateSample,
    DegenerateScatter,
    DimensionMismatch,
    EmptyDataset,
    InputError,
    MaxStepsExceeded,
    NonPositiveDiagonal,
    NotPositiveDefinite,
    RobustGgmError,
    SupportCollision,
)
from .gamma_mm import (
    FitResult,
    SolutionPath,
    compute_weights,
    diagonal_start,
    fit,
    mm_step,
    robust_init,
    solution_path,
    weighted_scatter,
)
from .glasso import GlassoProblem, GlassoSolution, glasso_objective, kkt_residual, solve
from .matcore import SpdFactor, inv_spd, quad_form, spd_factorize
from .metrics import (
    EdgeSet,
    common_edges,
    edge_set,
    mse_offdiag,
    normalize,
    score_point,
    total_agreement,
)
from .objective import (
    KernelInput,
    ModelParams,
    RobustConfig,
    default_subgradient,
    dp_objective,
    ell2_closed_form,
    kernel_norm,
    log_density,
    neg_gamma_loglik,
    penalized_gamma_objective,
    score,
)
from .simgen import GroundTruth, SimSpec, ba_graph, derive_rng, generate, make_precision, sample_contaminated

__version__ = "0.1.0"
