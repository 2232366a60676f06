"""Tabular multivariate distributional RL over energy-distance MMD geometry.

Discrete weighted atom sets represent per-state return distributions;
dynamic programming and TD learning operate on categorical (fixed
support) and equally weighted particle representations, with MMD
projections onto probability or mass-1 signed weights over a fixed
support.
"""

from .dp import (
    CategoricalEngine,
    DpReport,
    EwpConfig,
    categorical_dp_solve,
    ewp_init,
    ewp_random_solve,
    ewp_random_step,
    exact_bellman,
    point_init,
)
from .errors import (
    ConsistencyError,
    InvalidInputError,
    SolverError,
    SupportBlowupError,
)
from .evaluation import (
    MeshReport,
    ScalarDist,
    cramer_distance,
    mc_oracle_fn,
    mesh_and_bound,
    mmd_u_statistic,
    sup_mmd,
    zeroshot_scalar,
)
from .kernels import (
    KernelSpec,
    energy_kernel,
    gram,
    mmd,
    mmd_squared,
)
from .measures import (
    DiscreteMeasure,
    ReturnDistFn,
    SupportMap,
    as_probability,
    categorical,
    empirical,
    mixture,
    pushforward,
    weights_on_support,
)
from .mdp import (
    TabularMDP,
    dsm_mdp,
    random_mdp,
    rng_stream,
    rollout_returns,
    successor_feature_means,
)
from .projections import (
    SignedProjector,
    SimplexProjector,
    project,
    project_signed,
    project_simplex,
)
from .td import (
    StepSchedule,
    TdReport,
    TdState,
    categorical_td_run,
    ewp_mmd_sq_gradient,
    ewp_mmd_sq_objective,
    ewp_td_run,
    init_td_state,
)

__version__ = "0.1.0"
