"""Numerical verdicts for uniqueness and noise stability.

Uniqueness comes in three forms, checked in decreasing strength:

* a strong null-space condition: norm(L_S^* h) - <L_T^* h, e> > 0 for every
  nonzero kernel element h of phi.  With a trivial kernel it is vacuous;
  with a one-dimensional kernel two sign evaluations decide it exactly; in
  higher dimension a multi-start projected descent can only certify "up to
  sampling".  The inequality is evaluated with the primal norm on L_S^* h,
  which is what the directional-derivative computation produces.
* a certificate criterion: a valid source condition with saturation < 1
  together with restricted injectivity.
* its separable weakening: for norms splitting additively on S = V + W it is
  enough that the dual norm of alpha stays below 1 on V, at the price of
  restricted injectivity on ker(L_{V^perp}^*).

Stability: with lambda = c * eps the distance of any minimizer to the
generating signal is at most C * eps where

    C = C1 (2 + c ||eta||) + C2 (1 + c ||eta|| / 2)^2 / (c (1 - saturation)),

with C1 = 1 / C_Phi and C2 = (||Phi|| + C_Phi) / (C_L C_Phi C_A) extracted
from the proof chain: C_Phi the injectivity constant of phi on ker(L_S0^*),
C_L the smallest nonzero singular value of L_S0^*, C_A the coercivity
constant of the norm.  In frame mode (ker(L^*) = {0} with lower frame bound
a) C_L is replaced by sqrt(a) and the injectivity subspace becomes the image
of the dual frame restricted to the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import DualCertificate
from .linops import (
    LinearOperator,
    Subspace,
    image_basis,
    kernel_basis,
    operator_norm,
    restricted_injectivity_constant,
)
from .norms import (
    DecomposableNorm,
    bregman,
    coercivity_constant,
    decompose_at,
    dual_norm_value,
    is_separable,
    norm_subgradient,
    norm_value,
)
from .solver import ICContext, SolveReport, ic_context

__all__ = [
    "STATUS_UNIQUE",
    "STATUS_SAMPLED",
    "STATUS_UNDECIDED",
    "STATUS_VIOLATED",
    "UniquenessVerdict",
    "NspOptions",
    "strong_nsp_check",
    "uniqueness_from_certificate",
    "separable_uniqueness",
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
STATUS_SAMPLED = "unique_up_to_sampling"
STATUS_UNDECIDED = "undecided"
STATUS_VIOLATED = "violated"


@dataclass(frozen=True, eq=False)
class UniquenessVerdict:
    status: str
    witness: np.ndarray | None = None


@dataclass
class NspOptions:
    restarts: int = 64
    steps: int = 400
    margin: float = 1e-6


def strong_nsp_check(
    phi: LinearOperator,
    l_op: LinearOperator,
    T: Subspace,
    e,
    norm: DecomposableNorm,
    opts: NspOptions | None = None,
    ctx: ICContext | None = None,
) -> UniquenessVerdict:
    """Minimize g(h) = norm(L_S^* h) - <L_T^* h, e> over unit kernel vectors.

    Kernel dimension zero is vacuously unique.  Dimension one is decided
    exactly by the two sign evaluations.  Higher dimensions run a
    deterministic multi-start projected subgradient descent on the sphere and
    can only report "unique up to sampling" when the sampled minimum clears
    the margin; a nonpositive value anywhere yields a violated verdict with
    the witness kernel direction.  ``ctx`` is the ``ic_context`` of T when
    the caller already has it; only its S is used.
    """
    opts = opts or NspOptions()
    e = np.asarray(e, dtype=float).reshape(-1)
    ker = kernel_basis(phi)
    k = ker.dim
    if k == 0:
        return UniquenessVerdict(STATUS_UNIQUE)

    S = ctx.S if ctx is not None else T.complement()
    a_full = l_op.entries.T @ ker.basis          # P x k, L^* restricted to the kernel
    a_s = S.projector_matrix() @ a_full
    q = a_full.T @ T.project(e)

    def value(c: np.ndarray) -> float:
        return norm_value(norm, a_s @ c) - float(q @ c)

    def classify(best: float, c_best: np.ndarray, exhaustive: bool) -> UniquenessVerdict:
        if best <= 0.0:
            h = ker.basis @ c_best
            return UniquenessVerdict(STATUS_VIOLATED, witness=h / np.linalg.norm(h))
        if best > opts.margin:
            return UniquenessVerdict(STATUS_UNIQUE if exhaustive else STATUS_SAMPLED)
        return UniquenessVerdict(STATUS_UNDECIDED)

    if k == 1:
        plus = value(np.array([1.0]))
        minus = value(np.array([-1.0]))
        if plus <= minus:
            return classify(plus, np.array([1.0]), exhaustive=True)
        return classify(minus, np.array([-1.0]), exhaustive=True)

    a_norm = float(np.linalg.norm(a_s, 2))
    step0 = 1.0 / (1.0 + a_norm)
    best = np.inf
    c_best = np.zeros(k)
    for restart in range(opts.restarts):
        rng = np.random.default_rng(restart)
        c = rng.standard_normal(k)
        c /= np.linalg.norm(c)
        for t in range(opts.steps):
            for cand in (c, -c):
                val = value(cand)
                if val < best:
                    best = val
                    c_best = cand.copy()
            sg = a_s.T @ norm_subgradient(norm, a_s @ c) - q
            c = c - (step0 / np.sqrt(t + 1.0)) * sg
            nc = np.linalg.norm(c)
            if nc == 0.0:
                break
            c /= nc
    return classify(best, c_best, exhaustive=False)


def uniqueness_from_certificate(cert: DualCertificate, c_phi: float) -> UniquenessVerdict:
    """Certificate criterion: saturation < 1 plus restricted injectivity."""
    if cert.saturation < 1.0 and c_phi > 0.0:
        return UniquenessVerdict(STATUS_UNIQUE)
    return UniquenessVerdict(STATUS_UNDECIDED)


def _coordinate_set(sub: Subspace, tol: float = 1e-10) -> list[int] | None:
    """Coordinate indices spanned by the subspace, or None when it is not
    coordinate-aligned."""
    p = sub.projector_matrix()
    diag = np.diag(p)
    off = p - np.diag(diag)
    if np.max(np.abs(off), initial=0.0) > tol:
        return None
    coords = []
    for i, d in enumerate(diag):
        if abs(d - 1.0) <= tol:
            coords.append(i)
        elif abs(d) > tol:
            return None
    return coords


def separable_uniqueness(
    cert: DualCertificate,
    V: Subspace,
    W: Subspace,
    norm: DecomposableNorm,
    phi: LinearOperator,
    l_op: LinearOperator,
) -> UniquenessVerdict:
    """Weakened certificate criterion for separable norms on S = V + W.

    Certifies uniqueness when dual_norm(P_V alpha) < 1 and phi is injective
    on ker(L_{V^perp}^*).  The split must be coordinate-aligned (whole blocks
    for the group norm) and must reproduce the certificate's inactive space.
    """
    if not is_separable(norm):
        raise ValueError(f"{norm.kind} norm is not separable")
    p = norm.ambient_dim
    if V.ambient_dim != p or W.ambient_dim != p:
        raise ValueError("V and W must live in the analysis space")
    cross = V.basis.T @ W.basis
    if cross.size and np.max(np.abs(cross)) > 1e-10:
        raise ValueError("V and W are not orthogonal")
    v_coords = _coordinate_set(V)
    w_coords = _coordinate_set(W)
    if v_coords is None or w_coords is None:
        raise ValueError("V and W must be coordinate-aligned for a separable norm")
    if norm.kind == "group":
        for b in norm.blocks:
            for part in (v_coords, w_coords):
                hit = len(set(b) & set(part))
                if hit not in (0, len(b)):
                    raise ValueError("split must not cut group blocks")

    s_basis = np.hstack([V.basis, W.basis])
    S = Subspace(p, s_basis)
    sat_s = dual_norm_value(norm, S.project(cert.alpha))
    if abs(sat_s - cert.saturation) > 1e-6 * (1.0 + cert.saturation):
        raise ValueError("V and W do not partition the certificate's inactive space")
    # coordinates outside V + W must belong to the model part, where the
    # certificate attains unit magnitude (per coordinate or per block)
    outside = sorted(set(range(p)) - set(v_coords) - set(w_coords))
    if norm.kind == "l1":
        bad = [i for i in outside if abs(abs(cert.alpha[i]) - 1.0) > 1e-6]
    else:
        bad = []
        for b in norm.blocks:
            if set(b) <= set(outside):
                if abs(np.linalg.norm(cert.alpha[list(b)]) - 1.0) > 1e-6:
                    bad.extend(b)
    if bad:
        raise ValueError("V and W do not partition the certificate's inactive space")

    sat_v = dual_norm_value(norm, V.project(cert.alpha))
    v_perp = V.complement()
    ls_adj = LinearOperator((l_op.entries @ v_perp.projector_matrix()).T)
    c_phi_v = restricted_injectivity_constant(phi, kernel_basis(ls_adj))
    if sat_v < 1.0 and c_phi_v > 0.0:
        return UniquenessVerdict(STATUS_UNIQUE)
    return UniquenessVerdict(STATUS_UNDECIDED)


@dataclass(frozen=True)
class StabilityBound:
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
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    T0: Subspace,
    cert: DualCertificate,
    c: float,
    frame_mode: float | None = None,
    ctx: ICContext | None = None,
) -> StabilityBound:
    """Compute every constant of the error bound for one model and certificate.

    C_Phi and C_L are read from ``ctx``, the ``ic_context`` of T0 (built
    when not given); C_L is +inf when L_S0 vanishes, since that error
    component is then absent.  ``frame_mode``, when given, is the lower
    frame bound a of the analysis operator; it requires ker(L^*) = {0},
    replaces C_L by sqrt(a) and takes the injectivity constant over the
    image of the dual frame restricted to the model subspace.
    """
    if not cert.saturation < 1.0:
        raise ValueError("no stability guarantee: certificate saturates")

    if frame_mode is None:
        ctx = ctx or ic_context(phi, l_op, T0)
        c_phi, c_l = ctx.c_phi, ctx.c_l
    else:
        a = float(frame_mode)
        if not a > 0:
            raise ValueError("frame lower bound must be positive")
        if kernel_basis(l_op.T).dim != 0:
            raise ValueError("frame mode requires ker(L^*) = {0}")
        frame_op = l_op.entries @ l_op.entries.T
        dual_frame = np.linalg.solve(frame_op, l_op.entries)
        sub = image_basis(LinearOperator(dual_frame @ T0.projector_matrix()))
        c_phi = restricted_injectivity_constant(phi, sub)
        c_l = float(np.sqrt(a))

    if not c_phi > 0:
        raise ValueError("no stability guarantee: restricted injectivity fails")

    phi_norm = operator_norm(phi)
    c_a = coercivity_constant(norm)
    eta_norm = float(np.linalg.norm(cert.eta))
    if np.isinf(c_phi):
        c1 = 0.0
        ratio = 0.0
    else:
        c1 = 1.0 / c_phi
        ratio = phi_norm / c_phi
    c2 = 0.0 if np.isinf(c_l) else (1.0 + ratio) / (c_l * c_a)
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


@dataclass(frozen=True)
class BoundCheck:
    observed: float
    bound: float
    passed: bool


@dataclass(frozen=True, eq=False)
class BoundCheckReport:
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
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    x0,
    cert: DualCertificate,
    epsilon: float,
    c: float,
    report: SolveReport,
    bound: StabilityBound,
    slack: float | None = None,
    ctx: ICContext | None = None,
) -> BoundCheckReport:
    """Compare the four observed errors of a solved instance against their
    theoretical bounds.

    Preconditions are verified, not assumed: the solve must have used
    lambda = c * epsilon (a vanishing penalty stands in at epsilon = 0) on
    data within epsilon of phi x0.  Violated preconditions mark the report
    invalid rather than raising; failed comparisons are recorded with
    passed = False.  ``slack`` absorbs solver inexactness on top of the
    relative tolerance of each comparison.  The model error is measured on
    S0, the complement of the model at L^* x0: ``ctx.S`` when the caller
    has that model's ``ic_context``.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    problem = report.problem
    if slack is None:
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

    eta_norm = float(np.linalg.norm(cert.eta))
    breg_bound, pred_bound = prediction_bregman_bounds(max(epsilon, 0.0), c, eta_norm)

    x_star = report.x_star
    u_star = l_op.T.apply(x_star)
    u0 = l_op.T.apply(x0)
    observed_pred = float(np.linalg.norm(phi.apply(x_star) - phi.apply(x0)))
    observed_breg = bregman(norm, u_star, u0, cert.alpha, tol=1e-6)

    S0 = ctx.S if ctx is not None else decompose_at(norm, u0).T.complement()
    observed_ls0 = float(np.linalg.norm(S0.project(u_star - u0)))
    ls0_bound = bregman_to_l2(breg_bound, bound.saturation, bound.c_a)

    observed_l2 = float(np.linalg.norm(x_star - x0))
    l2_bound = bound.total_c * epsilon

    return BoundCheckReport(
        epsilon=float(epsilon),
        c=float(c),
        preconditions_ok=pre_ok,
        reason=reason,
        prediction=_check(observed_pred, pred_bound, slack),
        bregman=_check(observed_breg, breg_bound, slack),
        model_error=_check(observed_ls0, ls0_bound, slack),
        l2=_check(observed_l2, l2_bound, slack),
    )
