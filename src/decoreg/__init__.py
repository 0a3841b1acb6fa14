"""Recovery guarantees for decomposable analysis priors.

Solves the penalized inverse problem 0.5 ||y - Phi x||^2 + lambda ||L^* x||_A
for decomposable norms (l1, group l1-l2, nuclear), constructs dual
certificates from the irrepresentability minimizers, and verifies the
uniqueness and noise-stability guarantees with explicitly computed constants.
"""

from .certificates import (
    DualCertificate,
    build_certificate,
    certificate_quality,
    write_certificate_csv,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    ScenarioResult,
    difference_operator_1d,
    difference_operator_2d,
    first_order_residual,
    generate_scenario,
    noise_in_ball,
    oracle_solve,
    parseval_frame_analysis,
    run_scenario,
    vanishing_penalty,
)
from .guarantees import (
    BoundCheck,
    BoundCheckReport,
    StabilityBound,
    UniquenessVerdict,
    assemble_total_constant,
    bregman_to_l2,
    prediction_bregman_bounds,
    stability_constants,
    strong_nsp_check,
    uniqueness_from_certificate,
    verify_bounds,
)
from .linops import (
    LinearOperator,
    Subspace,
    identity,
    image_basis,
    kernel_basis,
    read_operator_csv,
    restricted_injectivity_constant,
    write_operator_csv,
)
from .norms import (
    DecomposableNorm,
    DecompositionModel,
    Membership,
    bregman,
    coercivity_constant,
    decompose_at,
    dual_norm_value,
    group,
    l1,
    norm_from_config,
    norm_value,
    nuclear,
    project_dual_ball,
    project_primal_ball,
    subdiff_membership,
)
from .solver import (
    ICSolution,
    Problem,
    SolveReport,
    SolverOptions,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized,
    solve_penalized_many,
)

__version__ = "0.1.0"
