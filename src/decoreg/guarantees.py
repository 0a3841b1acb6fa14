"""Numerical verdicts for uniqueness and noise stability.

Uniqueness comes in two forms, checked in decreasing strength:

* a strong null-space condition: norm(L_S^* h) - <L_T^* h, e> > 0 for every
  nonzero kernel element h of phi, in the primal norm that the directional
  derivative produces (``strong_nsp_check``).
* a certificate criterion: a valid source condition with saturation < 1
  together with restricted injectivity.

Stability: with lambda = c * eps the distance of any minimizer to the
generating signal is at most C * eps where

    C = C1 (2 + c ||eta||) + C2 (1 + c ||eta|| / 2)^2 / (c (1 - saturation)),

with C1 = 1 / C_Phi and C2 = (||Phi|| + C_Phi) / (C_L C_Phi C_A) extracted
from the proof chain: C_Phi the injectivity constant of phi on ker(L_S0^*),
C_L the smallest nonzero singular value of L_S0^*, C_A the coercivity
constant of the norm.  In frame mode C_L is the square root of the lower
frame bound (``stability_constants``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .certificates import DualCertificate
from .linops import (
    LinearOperator,
    Subspace,
    image_basis,
    kernel_basis,
    numerical_rank,
    restricted_injectivity_constant,
)
from .norms import (
    DecomposableNorm,
    _bregman_value,
    coercivity_constant,
)
from .solver import ICContext, SolveReport, SolverOptions, _min_dual_norm_affine

__all__ = [
    "STATUS_UNIQUE",
    "STATUS_UNDECIDED",
    "STATUS_VIOLATED",
    "UniquenessVerdict",
    "strong_nsp_check",
    "uniqueness_from_certificate",
    "StabilityBound",
    "assemble_total_constant",
    "stability_constants",
    "prediction_bregman_bounds",
    "bregman_to_l2",
    "BoundCheck",
    "BoundCheckReport",
    "verify_bounds",
]

STATUS_UNIQUE = "unique_certified"
STATUS_UNDECIDED = "undecided"
STATUS_VIOLATED = "violated"

# how far below 1 the strong null-space program must certify its value
_NSP_MARGIN = 1e-6


class UniquenessVerdict(NamedTuple):
    status: str
    witness: np.ndarray | None = None


def _violated(ker: Subspace, c: np.ndarray) -> UniquenessVerdict:
    h = ker.basis @ c
    return UniquenessVerdict(STATUS_VIOLATED, witness=h / np.linalg.norm(h))


def strong_nsp_check(
    phi: LinearOperator,
    l_op: LinearOperator,
    T: Subspace,
    e,
    norm: DecomposableNorm,
    opts: SolverOptions | None = None,
    joint: tuple[float, float] | None = None,
) -> UniquenessVerdict:
    """Decide g(h) = norm(L_S^* h) - <L_T^* h, e> > 0 for unit kernel vectors.

    With K an orthonormal basis of ker(phi), A_S = P_S L^* K and
    q = K^T L P_T e, g(K c) = norm(A_S c) - <q, c> is convex and positively
    homogeneous, so the condition holds exactly when A_S has full column rank
    and min{dual_norm(w) : A_S^T w = q} < 1, the program of the joint
    irrepresentability chain, which decides it in any kernel dimension.
    value + gap below 1 - margin is unique; value - gap of at least 1 is
    violated, witnessed by A_S^+ w' for the program's dual candidate w';
    anything else is undecided.  A rank-deficient A_S is violated along its
    kernel.  ``joint``, the (value, gap) of ``minimize_ic_full`` when the
    caller has it, ranges over the same set, so a value that proves
    uniqueness is used without solving again.  The check takes no model
    context: it must run where ``ic_context`` raises, needing no restricted
    injectivity.
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    ker = kernel_basis(phi)
    k = ker.dim
    if k == 0:
        return UniquenessVerdict(STATUS_UNIQUE)

    S = T.complement()
    a_full = l_op.entries.T @ ker.basis          # P x k, L^* restricted to the kernel
    a_s = S.projector_matrix() @ a_full
    q = a_full.T @ T.project(e)
    u, s, vt = np.linalg.svd(a_s)
    if numerical_rank(s) < k:
        # g(c) = -<q, c> on ker(A_S)
        c = vt[-1]
        return _violated(ker, -c if q @ c < 0 else c)
    if joint is not None and joint[0] + joint[1] < 1.0 - _NSP_MARGIN:
        return UniquenessVerdict(STATUS_UNIQUE)

    w_p = u[:, :k] @ ((vt @ q) / s)
    _, value, gap, _, w_dual = _min_dual_norm_affine(
        norm, w_p, u[:, k:], opts or SolverOptions()
    )
    if value + gap < 1.0 - _NSP_MARGIN:
        return UniquenessVerdict(STATUS_UNIQUE)
    if value - gap >= 1.0:
        return _violated(ker, vt.T @ ((u[:, :k].T @ w_dual) / s))
    return UniquenessVerdict(STATUS_UNDECIDED)


def uniqueness_from_certificate(cert: DualCertificate, c_phi: float) -> UniquenessVerdict:
    """Certificate criterion: saturation < 1 plus restricted injectivity."""
    if cert.saturation < 1.0 and c_phi > 0.0:
        return UniquenessVerdict(STATUS_UNIQUE)
    return UniquenessVerdict(STATUS_UNDECIDED)


class StabilityBound(NamedTuple):
    """All constants entering the error bound ||x - x0|| <= total_c * eps."""

    c: float
    eta_norm: float
    saturation: float
    c_phi: float
    c_l: float
    c_a: float
    phi_norm: float
    c1: float
    c2: float
    total_c: float


def assemble_total_constant(
    c1: float, c2: float, c: float, eta_norm: float, saturation: float
) -> float:
    """Combine the pieces: C1 (2 + c eta) + C2 (1 + c eta / 2)^2 / (c (1 - sat))."""
    if not c > 0:
        raise ValueError("coupling c must be positive")
    if not saturation < 1.0:
        raise ValueError("no stability guarantee: saturation reaches 1")
    return c1 * (2.0 + c * eta_norm) + c2 * (1.0 + c * eta_norm / 2.0) ** 2 / (
        c * (1.0 - saturation)
    )


def stability_constants(
    ctx: ICContext,
    norm: DecomposableNorm,
    cert: DualCertificate,
    c: float,
    frame: bool = False,
) -> StabilityBound:
    """Every constant of the error bound for the model ``ctx.T`` and a
    certificate.  With ``frame``, L^* must have ker(L^*) = {0}, so it is the
    analysis operator of a frame with lower frame bound a = sigma_min(L^*)^2:
    C_L becomes sqrt(a), and C_Phi is taken over the image of the dual frame
    restricted to the model.
    """
    if not cert.saturation < 1.0:
        raise ValueError("no stability guarantee: certificate saturates")

    phi, l_op = ctx.phi, ctx.l_op
    if frame:
        s = np.linalg.svd(l_op.entries, compute_uv=False)  # those of L^* too
        if numerical_rank(s) < l_op.rows:
            raise ValueError("frame mode requires ker(L^*) = {0}")
        frame_op = l_op.entries @ l_op.entries.T
        dual_frame = np.linalg.solve(frame_op, l_op.entries)
        sub = image_basis(LinearOperator(dual_frame @ ctx.T.projector_matrix()))
        c_phi = restricted_injectivity_constant(phi, sub)
        c_l = float(s[-1])
    else:
        c_phi, c_l = ctx.c_phi, ctx.c_l

    if not c_phi > 0:
        raise ValueError("no stability guarantee: restricted injectivity fails")

    phi_norm = float(np.linalg.norm(phi.entries, 2))
    c_a = coercivity_constant(norm)
    eta_norm = float(np.linalg.norm(cert.eta))
    # an infinite C_Phi or C_L (an absent error component) gives 1/inf = 0
    c1 = 1.0 / c_phi
    c2 = (1.0 + phi_norm / c_phi) / (c_l * c_a)
    total_c = assemble_total_constant(c1, c2, c, eta_norm, cert.saturation)
    return StabilityBound(
        c=float(c),
        eta_norm=eta_norm,
        saturation=cert.saturation,
        c_phi=float(c_phi),
        c_l=float(c_l),
        c_a=c_a,
        phi_norm=phi_norm,
        c1=c1,
        c2=c2,
        total_c=total_c,
    )


def prediction_bregman_bounds(epsilon: float, c: float, eta_norm: float) -> tuple[float, float]:
    """Noise-level bounds on the Bregman distance and the prediction error:

    bregman <= eps (1 + c ||eta|| / 2)^2 / c,   prediction <= eps (2 + c ||eta||).
    """
    if not c > 0:
        raise ValueError("coupling c must be positive")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    breg = epsilon * (1.0 + c * eta_norm / 2.0) ** 2 / c
    pred = epsilon * (2.0 + c * eta_norm)
    return breg, pred


def bregman_to_l2(bregman_value: float, saturation: float, c_a: float) -> float:
    """Convert a Bregman distance into a bound on the inactive-space error:
    ||L_S0^* (x - x0)|| <= D / (C_A (1 - saturation))."""
    if not saturation < 1.0:
        raise ValueError("no stability guarantee: saturation reaches 1")
    if not c_a > 0:
        raise ValueError("coercivity constant must be positive")
    if bregman_value < 0:
        raise ValueError("bregman_value must be nonnegative")
    return bregman_value / (c_a * (1.0 - saturation))


class BoundCheck(NamedTuple):
    observed: float
    bound: float
    passed: bool


class BoundCheckReport(NamedTuple):
    epsilon: float
    c: float
    preconditions_ok: bool
    reason: str | None
    prediction: BoundCheck
    bregman: BoundCheck
    model_error: BoundCheck
    l2: BoundCheck

    @property
    def pass_all(self) -> bool:
        return self.preconditions_ok and all(
            chk.passed
            for chk in (self.prediction, self.bregman, self.model_error, self.l2)
        )


def _check(observed: float, bound: float, slack: float) -> BoundCheck:
    return BoundCheck(
        observed=float(observed),
        bound=float(bound),
        passed=bool(observed <= bound * (1.0 + 1e-6) + slack),
    )


def verify_bounds(
    ctx: ICContext,
    norm: DecomposableNorm,
    x0,
    cert: DualCertificate,
    epsilon: float,
    report: SolveReport,
    bound: StabilityBound,
) -> BoundCheckReport:
    """Compare the four observed errors of a solved instance against their
    theoretical bounds, at the c and ||eta|| ``bound`` was built with.

    The preconditions are checked, not assumed: the solve used lambda =
    c * epsilon (a vanishing penalty at epsilon = 0) on data within epsilon
    of phi x0; a violation marks the report invalid rather than raising.  A
    slack of 1e-6 (1 + ||x0||) absorbs solver inexactness.  ``ctx`` is the
    context of the model T0 at L^* x0, whose complement S0 carries the model
    error.  The caller checks once that ``cert.alpha`` is a subgradient at
    L^* x0, as ``run_scenario`` does with ``bregman``.
    """
    phi, l_op = ctx.phi, ctx.l_op
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    problem = report.problem
    c = bound.c
    slack = 1e-6 * (1.0 + float(np.linalg.norm(x0)))

    pre_ok = True
    reason = None
    data_scale = 1.0 + float(np.linalg.norm(problem.phi.entries.T @ problem.y))
    if epsilon > 0:
        lam_expected = c * epsilon
        if abs(problem.lam - lam_expected) > 1e-9 * (1.0 + lam_expected):
            pre_ok = False
            reason = f"lambda = {problem.lam} does not match c * epsilon = {lam_expected}"
    else:
        if problem.lam > 1e-7 * data_scale:
            pre_ok = False
            reason = "epsilon = 0 requires a vanishing penalty"
    noise = float(np.linalg.norm(problem.y - phi.apply(x0)))
    if pre_ok and noise > epsilon * (1.0 + 1e-9) + 1e-12 * data_scale:
        pre_ok = False
        reason = f"noise level {noise} exceeds epsilon = {epsilon}"

    breg_bound, pred_bound = prediction_bregman_bounds(max(epsilon, 0.0), c, bound.eta_norm)

    x_star = report.x_star
    u_star = l_op.T.apply(x_star)
    u0 = l_op.T.apply(x0)
    observed_pred = float(np.linalg.norm(phi.apply(x_star) - phi.apply(x0)))
    observed_breg = _bregman_value(norm, u_star, u0, cert.alpha)

    observed_ls0 = float(np.linalg.norm(ctx.S.project(u_star - u0)))
    ls0_bound = bregman_to_l2(breg_bound, bound.saturation, bound.c_a)

    observed_l2 = float(np.linalg.norm(x_star - x0))
    l2_bound = bound.total_c * epsilon

    return BoundCheckReport(
        epsilon=float(epsilon),
        c=c,
        preconditions_ok=pre_ok,
        reason=reason,
        prediction=_check(observed_pred, pred_bound, slack),
        bregman=_check(observed_breg, breg_bound, slack),
        model_error=_check(observed_ls0, ls0_bound, slack),
        l2=_check(observed_l2, l2_bound, slack),
    )
