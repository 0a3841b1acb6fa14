"""Dual certificates for the penalized analysis problem.

A certificate is a pair (eta, alpha) satisfying the source equation
Phi^* eta = L alpha with alpha a subgradient of the norm at L^* x.  The
constructive route assembles one from the irrepresentability minimizers:

    eta   = Phi Xi L_T0 e0 + z
    alpha = e0 + Gamma e0 + P_S0 u + pinv(L_S0) Phi^* z

with (u, z) either the joint minimizer, the u-only minimizer, or zero.  The
source equation then holds by construction for any feasible (u, z); the
achieved irrepresentability value is exactly the dual norm of alpha on the
inactive space (its "saturation"), and 1 - saturation is the margin entering
the stability constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linops import LinearOperator, Subspace
from .norms import DecomposableNorm, dual_norm_value, subdiff_membership
from .solver import (
    ICContext,
    ICSolution,
    SolverOptions,
    ic_context,
    minimize_ic_full,
    minimize_ic_u,
)

__all__ = [
    "DualCertificate",
    "SourceCheck",
    "build_certificate",
    "check_source_condition",
    "certificate_quality",
    "write_certificate_csv",
    "read_certificate_csv",
]

CERTIFICATE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Certificate data: eta in the measurement space, alpha in the analysis
    space, the measured saturation dual_norm(P_S alpha) and the source
    equation residual ||Phi^* eta - L alpha||.

    ``ic_value``, ``ic_gap`` and ``ic_converged`` describe the
    irrepresentability program the certificate came from: its value as the
    program reported it (the saturation up to rounding, since P_S alpha is
    the program's vector), its certified duality gap and whether it met its
    tolerance.
    """

    eta: np.ndarray
    alpha: np.ndarray
    saturation: float
    source_residual: float
    ic_converged: bool = True
    ic_value: float | None = None
    ic_gap: float = 0.0


@dataclass(frozen=True)
class SourceCheck:
    valid: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.valid


def build_certificate(
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    T0: Subspace,
    e0,
    mode: str = "full",
    opts: SolverOptions | None = None,
    ctx: ICContext | None = None,
) -> DualCertificate:
    """Assemble a certificate from the irrepresentability minimizers.

    ``mode`` selects the feasible pair: "full" uses the joint minimizer,
    "u_only" fixes z = 0, "zero" uses (0, 0).  Requires phi injective on
    ker(L_S0^*), which ``ic_context`` checks; a certificate whose saturation
    reaches 1 is still returned (the value itself is what phase-transition
    experiments need), only its quality margin is nonpositive.  ``ctx`` is
    the ``ic_context`` of T0 when the caller already has it.
    """
    if mode not in ("full", "u_only", "zero"):
        raise ValueError(f"unknown certificate mode {mode!r}")
    opts = opts or SolverOptions()
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    ctx = ctx or ic_context(phi, l_op, T0)
    if mode == "full":
        sol = minimize_ic_full(phi, l_op, norm, T0, e0, opts=opts, ctx=ctx)
    elif mode == "u_only":
        sol = minimize_ic_u(phi, l_op, norm, T0, e0, opts=opts, ctx=ctx)
    else:
        sol = ICSolution(
            u=np.zeros(l_op.cols),
            z=np.zeros(phi.rows),
            value=dual_norm_value(norm, ctx.gamma @ e0),
            gap=0.0,
            converged=True,
        )
    u, z = sol.u, sol.z

    eta = phi.apply(ctx.xi @ (ctx.lt @ e0)) + z
    alpha = e0 + ctx.gamma @ e0 + ctx.S.project(u) + ctx.ls_pinv_phi_adj @ z
    saturation = dual_norm_value(norm, ctx.S.project(alpha))
    source_residual = float(
        np.linalg.norm(phi.adjoint_apply(eta) - l_op.apply(alpha))
    )
    return DualCertificate(
        eta=eta,
        alpha=alpha,
        saturation=saturation,
        source_residual=source_residual,
        ic_converged=sol.converged,
        ic_value=sol.value,
        ic_gap=sol.gap,
    )


def check_source_condition(
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    x,
    cert: DualCertificate,
    tol: float = CERTIFICATE_TOL,
) -> SourceCheck:
    """Verify the source condition at x for a given certificate.

    Valid when the range equation Phi^* eta = L alpha holds to ``tol``
    relative and alpha is a subgradient of the norm at L^* x.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    l_alpha = l_op.apply(cert.alpha)
    resid = float(np.linalg.norm(phi.adjoint_apply(cert.eta) - l_alpha))
    if resid > tol * (1.0 + float(np.linalg.norm(l_alpha))):
        return SourceCheck(False, "range equation Phi^* eta = L alpha is violated")
    u = l_op.T.apply(x)
    mem = subdiff_membership(norm, u, cert.alpha, tol=max(tol, 1e-8))
    if not mem.member:
        return SourceCheck(False, f"alpha is not a subgradient at L^* x: {mem.reason}")
    return SourceCheck(True)


def certificate_quality(cert: DualCertificate) -> float:
    """The non-saturation margin 1 - dual_norm(alpha on the inactive space).

    Positive quality is what the stability constants divide by; at zero or
    below the certificate provides no stability guarantee.
    """
    return 1.0 - cert.saturation


def write_certificate_csv(cert: DualCertificate, path) -> None:
    lines = [
        "eta," + ",".join(repr(float(v)) for v in cert.eta),
        "alpha," + ",".join(repr(float(v)) for v in cert.alpha),
        f"saturation,{cert.saturation!r}",
        f"source_residual,{cert.source_residual!r}",
        f"ic_gap,{float(cert.ic_gap)!r}",
        f"ic_converged,{bool(cert.ic_converged)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def read_certificate_csv(path) -> DualCertificate:
    """Read a certificate back; every row ``write_certificate_csv`` writes is
    required.  The file stores no separate IC value: the saturation stands
    in for it."""
    rows: dict[str, list[str]] = {}
    for line in Path(path).read_text().strip().splitlines():
        parts = line.split(",")
        rows[parts[0]] = parts[1:]
    try:
        converged = rows["ic_converged"][0]
        if converged not in ("True", "False"):
            raise ValueError(f"{path}: ic_converged is {converged!r}, not True or False")
        saturation = float(rows["saturation"][0])
        return DualCertificate(
            eta=np.array([float(v) for v in rows["eta"]]),
            alpha=np.array([float(v) for v in rows["alpha"]]),
            saturation=saturation,
            source_residual=float(rows["source_residual"][0]),
            ic_converged=converged == "True",
            ic_value=saturation,
            ic_gap=float(rows["ic_gap"][0]),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing certificate field {exc}") from exc
