"""Dual certificates for the penalized analysis problem.

A certificate is a pair (eta, alpha) satisfying the source equation
Phi^* eta = L alpha with alpha a subgradient of the norm at L^* x.  The
constructive route assembles one from the irrepresentability minimizers:

    eta   = Phi Xi L_T0 e0 + z
    alpha = e0 + Gamma e0 + P_S0 u + pinv(L_S0) Phi^* z

with (u, z) either the joint minimizer, the u-only minimizer, or zero: the
analysis picks the IC solution, the certificate assembles it.  The source
equation holds by construction for any feasible (u, z); the achieved
irrepresentability value is exactly the dual norm of alpha on the inactive
space (its "saturation"), and 1 - saturation is the margin entering the
stability constants.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

import numpy as np

from .norms import DecomposableNorm, dual_norm_value
from .solver import ICContext, ICSolution

__all__ = [
    "DualCertificate",
    "build_certificate",
    "certificate_quality",
    "write_certificate_csv",
]


class DualCertificate(NamedTuple):
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


def build_certificate(
    ctx: ICContext, norm: DecomposableNorm, e0, sol: ICSolution
) -> DualCertificate:
    """Assemble the certificate of the model (``ctx.T``, e0) from one
    irrepresentability solution (u, z), carrying its value, gap and
    convergence.  A certificate whose saturation reaches 1 is still
    returned, since phase-transition experiments need the value.
    """
    phi, l_op = ctx.phi, ctx.l_op
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    eta = phi.apply(ctx.xi @ (ctx.lt @ e0)) + sol.z
    alpha = e0 + ctx.gamma @ e0 + ctx.S.project(sol.u) + ctx.ls_pinv_phi_adj @ sol.z
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
