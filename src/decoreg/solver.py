"""Primal-dual solver for the penalized analysis problem

    min_x  0.5 ||y - Phi x||^2 + lambda ||L^* x||_A

and the irrepresentability programs built on it: with the restricted
normal-equation map Xi and the transfer operator Gamma, the coefficient

    IC_{u,z}(T, e) = dual_norm( Gamma e + P_S u + pinv(L_S) Phi^* z )

is minimized over u in ker(L_S) and z with Phi^* z in Im(L_S).  These
programs and the strong null-space check are each one affine dual-norm
program, min_c dual_norm(g0 + C c), solved by ``_min_dual_norm_affine``.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

from .linops import (
    LinearOperator,
    Subspace,
    kernel_basis,
    numerical_rank,
)
from .norms import (
    DecomposableNorm,
    _block_norms,
    _project_dual_ball_inplace,
    dual_norm_value,
    norm_value,
    project_primal_ball,
)

__all__ = [
    "CHECK_EVERY",
    "IC_FEASIBILITY_TOL",
    "SolverOptions",
    "Problem",
    "SolveReport",
    "solve_penalized",
    "solve_penalized_many",
    "ICContext",
    "ic_context",
    "ICSolution",
    "ic_value",
    "minimize_ic_full",
    "minimize_ic_u",
]


# iterations between the convergence checks of the primal-dual loops
CHECK_EVERY = 10
# relative tolerance of ``ic_value``'s feasibility checks
IC_FEASIBILITY_TOL = 1e-9


class SolverOptions(NamedTuple):
    tol: float = 1e-9
    max_iter: int = 200_000
    init: np.ndarray | None = None


class Problem:
    """One instance of the penalized problem, with lam > 0.

    Construction checks that the solution set is nonempty and compact,
    which holds exactly when ker(phi) and ker(L^*) intersect trivially, and
    caches the solver's ``gram_eig``, the eigendecomposition (mu, V) of
    Phi^T Phi, and ``l_norm`` = ||L^*||.  ``with_data`` makes a sibling that
    shares them without repeating the check.
    """

    def __init__(
        self,
        phi: LinearOperator,
        l_adjoint: LinearOperator,
        norm: DecomposableNorm,
        y: np.ndarray,
        lam: float,
    ):
        self.phi, self.l_adjoint, self.norm, self.y, self.lam = phi, l_adjoint, norm, y, lam
        n = self.phi.cols
        if self.l_adjoint.cols != n:
            raise ValueError(
                f"phi acts on R^{n} but l_adjoint acts on R^{self.l_adjoint.cols}"
            )
        if self.norm.ambient_dim != self.l_adjoint.rows:
            raise ValueError(
                f"norm lives on R^{self.norm.ambient_dim}, "
                f"l_adjoint maps into R^{self.l_adjoint.rows}"
            )
        self._check_data()
        stacked = np.vstack([self.phi.entries, self.l_adjoint.entries])
        s = np.linalg.svd(stacked, compute_uv=False)
        if numerical_rank(s) < n:
            raise ValueError(
                "ker(phi) and ker(l_adjoint) intersect nontrivially: "
                "the solution set is unbounded"
            )
        phi = self.phi.entries
        self.gram_eig = tuple(np.linalg.eigh(phi.T @ phi))
        self.l_norm = float(np.linalg.norm(self.l_adjoint.entries, 2))

    def _check_data(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        self.y = y
        if y.shape[0] != self.phi.rows:
            raise ValueError(f"y has length {y.shape[0]}, phi maps into R^{self.phi.rows}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    def with_data(self, y, lam: float) -> "Problem":
        """This problem with new y and lam, which are checked; the rest is
        shared."""
        sibling = copy.copy(self)
        sibling.y, sibling.lam = y, lam
        sibling._check_data()
        return sibling

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        resid = self.y - self.phi.apply(x)
        return 0.5 * float(resid @ resid) + self.lam * norm_value(
            self.norm, self.l_adjoint.apply(x)
        )


class SolveReport(NamedTuple):
    x_star: np.ndarray
    objective: float
    optimality_residual: float
    iterations: int
    converged: bool
    problem: Problem


def _composite_residual(
    p: Problem, x: np.ndarray, alpha_dual: np.ndarray, y: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """Per column (each with p's operators and norm and penalty lam[j]):
    the gradient-equation norm plus the Fenchel gap lam (||u|| - <alpha, u>)
    at alpha, the dual iterate scaled and projected onto the unit dual
    ball.  Both vanish at a minimizer.
    """
    phi, l_adj = p.phi.entries, p.l_adjoint.entries
    u = l_adj @ x
    alpha_hat = _project_dual_ball_inplace(p.norm, alpha_dual / lam, 1.0, -1.0)
    grad = phi.T @ (phi @ x - y) + lam * (l_adj.T @ alpha_hat)
    gap = lam * np.maximum(norm_value(p.norm, u) - np.sum(alpha_hat * u, axis=0), 0.0)
    return np.linalg.norm(grad, axis=0) + gap


# primal-weight adaptation (Applegate et al., "Practical large-scale linear
# programming using primal-dual hybrid gradient", NeurIPS 2021) in
# ``solve_penalized_many`` and the IC programs' splitting: the iterations at
# omega = 1 before the first update, the iterations between updates, and the
# clamp on omega, without which omega collapses at tiny lambda (the dual is
# confined to a ball of radius lambda) and stalls the primal
_WEIGHT_WARMUP = 100
_WEIGHT_WINDOW = 50
_WEIGHT_BOUNDS = (0.1, 10.0)
# the over-relaxation rho of ``solve_penalized_many``'s step, in (0, 2)
# (Condat, J. Optim. Theory Appl. 158, 2013; Chambolle and Pock, Math.
# Program. 159, 2016)
_RELAX = 1.5


def _next_weight(omega, dual_move, primal_move):
    """The primal weight moved halfway, in log scale, towards the ratio of
    dual to primal movement over a weight window, clamped to the bounds."""
    return np.clip(
        np.exp(0.5 * np.log(dual_move / primal_move) + 0.5 * np.log(omega)), *_WEIGHT_BOUNDS
    )


def _affine_step(
    l_rot: np.ndarray, mu: np.ndarray, tau, sigma, rhs: np.ndarray, relax: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """K and c of one splitting iteration before its projection.

    With the state z = (x_k; alpha_{k+1}) in the eigenbasis, where L~ =
    ``l_rot``, S = (I + tau diag mu)^{-1} and r = ``rhs`` (one column per
    problem), the iteration is z <- proj(K z + c) with the projection on the
    alpha rows alone and

        K = [[S, -tau S L~^T], [sigma L~ (2S - I), I - 2 sigma tau L~ S L~^T]]
        c = [tau S r; 2 sigma tau L~ S r].

    A ``relax`` rho other than 1 gives the relaxed step z <- z + rho (T z - z)
    of that map T: K's x rows become rho K + (1 - rho) I, its alpha rows
    rho K, followed by p rows (1 - rho) I on alpha, and c becomes rho c.
    Projecting the rho-scaled alpha rows at radius rho lam and adding the
    last p rows to them is the relaxed step, since proj_{rho lam}(rho v) =
    rho proj_lam(v) for every dual ball.  Scalar steps give one K, (B,)
    steps a (B, ...) stack; c is (n + p, B) either way, the shape of z.
    """
    p_dim, n = l_rot.shape
    d = n + p_dim
    tau = np.asarray(tau, dtype=float)
    sigma = relax * np.asarray(sigma, dtype=float)
    s = 1.0 / (1.0 + tau[..., None] * mu)
    ts = tau[..., None] * s
    k = np.zeros(s.shape[:-1] + (d + (p_dim if relax != 1.0 else 0), d))
    diag = np.arange(n)
    k[..., diag, diag] = relax * s + (1.0 - relax)
    k[..., :n, n:] = -(relax * ts)[..., :, None] * l_rot.T
    k[..., n:d, :n] = sigma[..., None, None] * (l_rot * (2.0 * s - 1.0)[..., None, :])
    k[..., n:d, n:] = relax * np.eye(p_dim) - 2.0 * sigma[..., None, None] * (
        (l_rot * ts[..., None, :]) @ l_rot.T
    )
    if relax != 1.0:
        k[..., d:, n:] = (1.0 - relax) * np.eye(p_dim)
    cx = ts.T.reshape(n, -1) * rhs
    return k, np.concatenate([relax * cx, 2.0 * sigma * (l_rot @ cx)])


def _check_residual(
    norm: DecomposableNorm, l_rot: np.ndarray, grad, x: np.ndarray, alpha: np.ndarray, lam
) -> np.ndarray:
    """``_composite_residual`` at (V x, alpha) from what the iteration holds:
    x in the eigenbasis, the dual alpha that produced it, and grad =
    ||x_before - x|| / tau for the iterate x_before it.  The proximal step
    makes Phi^T (Phi V x - y) + L alpha equal to V (x_before - x) / tau, so
    grad is the gradient-equation norm and only the gap costs a product.
    It equals the composite residual while alpha lies in the lam ball; a
    relaxed alpha may lie outside, so only ``_composite_residual`` certifies.
    """
    u = l_rot @ x
    values = norm_value(norm, u) if norm.kind == "nuclear" else _block_norms(norm, u).sum(0)
    return grad + np.maximum(lam * values - np.einsum("ij,ij->j", alpha, u), 0.0)


def solve_penalized(p: Problem, opts: SolverOptions | None = None) -> SolveReport:
    """Minimize the penalized objective by primal-dual splitting; a solve
    that does not converge within the budget is reported, not raised."""
    return solve_penalized_many([p], opts)[0]


def solve_penalized_many(
    problems: list[Problem], opts: SolverOptions | None = None
) -> list[SolveReport]:
    """Solve problems that share phi, l_adjoint and norm in one loop, one
    column per problem with its own y, lam, best iterate and stop; a
    finished column leaves the working arrays, so each report is the one
    ``solve_penalized`` gives up to rounding.  ``opts.init`` is None (zero)
    or an (N,) vector that starts every column.

    The loop is Chambolle and Pock's Algorithm 1 (J. Math. Imaging Vision
    40, 2011) with the fit term taken by its proximal map,

        alpha <- proj_lam(alpha + sigma L^* xbar)
        x     <- (I + tau Phi^T Phi)^{-1} (x - tau (L alpha - Phi^T y))
        xbar  <- 2 x_new - x

    in the eigenbasis of Phi^T Phi, at tau = eta / omega and sigma = eta
    omega, eta = 0.99 / ||L^*||, so tau sigma ||L^*||^2 < 1 for any primal
    weight omega, over-relaxed: on the state z = (x_k; alpha_{k+1}) that one
    step T maps, z <- z + rho (T z - z) with rho = 1.5, folded into
    ``_affine_step``.  A check, every CHECK_EVERY iterations and at
    max_iter, reads the unrelaxed point x~ = T(z_before)'s x rows against
    the alpha of z_before, which produced it.  It computes the gap only of
    the columns whose gradient term ||x_{k-1} - x~|| / tau, a lower bound
    of the check residual, is at most the threshold tol (1 + ||Phi^* y||),
    and of all at max_iter.  A column's best iterate is the lowest-residual check
    among those, and it converges when ``_composite_residual`` there, with
    alpha / lam projected into the unit dual ball, is at most the threshold.
    """
    opts = opts or SolverOptions()
    if opts.max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 < opts.tol < np.inf:
        raise ValueError("tol must be positive and finite")
    problems = list(problems)
    if not problems:
        return []
    first = problems[0]
    if any(
        q.phi is not first.phi or q.l_adjoint is not first.l_adjoint or q.norm is not first.norm
        for q in problems
    ):
        raise ValueError("batched problems must share the phi, l_adjoint and norm objects")

    n = first.phi.cols
    norm = first.norm
    mu, v = first.gram_eig
    l_rot = first.l_adjoint.entries @ v  # L^* in the eigenbasis
    step = 0.99 / first.l_norm if first.l_norm > 0 else 1.0
    tau = sigma = step

    b = len(problems)
    init = np.zeros(n) if opts.init is None else np.asarray(opts.init, dtype=float)
    if init.shape != (n,):
        raise ValueError(f"init has shape {init.shape}, expected ({n},)")
    y = np.column_stack([q.y for q in problems])
    lam = np.array([q.lam for q in problems], dtype=float)
    radius, neg_radius, y_all = _RELAX * lam, -_RELAX * lam, y
    phi_t_y = first.phi.entries.T @ y
    rhs = v.T @ phi_t_y
    k, c = _affine_step(l_rot, mu, tau, sigma, rhs, _RELAX)
    x0 = v.T @ init
    # one column (x_k; alpha_{k+1}) per problem
    d = n + norm.ambient_dim
    z = np.empty((d, b))
    z[:n] = x0[:, None]
    z[n:] = (sigma * (l_rot @ x0))[:, None]
    _project_dual_ball_inplace(norm, z[n:], lam, -lam)
    omega = np.ones(b)
    # x and alpha at the start of the weight window
    x_mark, alpha_mark = z[:n], np.zeros((norm.ambient_dim, b))

    scale = 1.0 + np.linalg.norm(phi_t_y, axis=0)
    threshold = opts.tol * scale
    # a check point replaces the best iterate only when its residual is lower
    # by more than rounding: on a residual plateau the choice must not hang on
    # the last bits, which differ between a batched and a single solve
    margin = 64.0 * np.finfo(float).eps * scale
    best_res = np.full(b, np.inf)
    best_x, best_alpha = x_mark.copy(), alpha_mark.copy()
    live = np.arange(b)  # problem index of each working column
    done: dict[int, tuple[np.ndarray, float, int, bool]] = {}

    for it in range(1, opts.max_iter + 1):
        z_before = z
        # a (B, d + p, d) stack takes the columns as a stack of vectors
        w = k @ z if k.ndim == 2 else (k @ z.T[:, :, None])[:, :, 0].T
        z = w[:d]
        z += c
        _project_dual_ball_inplace(norm, w[n:d], radius, neg_radius)
        w[n:d] += w[d:]
        last = it == opts.max_iter
        if it % CHECK_EVERY and not last:
            continue
        x, alpha = z[:n], z_before[n:]
        # x_before - x~ for the unrelaxed point x~ = T(z_before)'s x rows
        step_x = (z_before[:n] - x) / _RELAX
        grad = np.sqrt(np.add.reduce(step_x * step_x, axis=0)) / tau  # np.linalg.norm's sum
        tested = gated = np.nonzero((grad <= threshold) | last)[0]
        if gated.size:
            x_check = z_before[:n, gated] - step_x[:, gated]
            res = _check_residual(
                norm, l_rot, grad[gated], x_check, alpha[:, gated], lam[gated]
            )
            better = res < best_res[gated] - margin[gated]
            cols = gated[better]
            best_res[cols] = res[better]
            best_x[:, cols] = x_check[:, better]
            best_alpha[:, cols] = alpha[:, cols]
            tested = gated[(best_res[gated] <= threshold[gated]) | last]
        if tested.size:
            x_out = v @ best_x[:, tested]
            exact = _composite_residual(
                first, x_out, best_alpha[:, tested], y[:, tested], lam[tested]
            )
            converged = exact <= threshold[tested]
            # a relaxed alpha may leave the lam ball, where the check residual
            # can read low; a best iterate that fails keeps its exact residual
            best_res[tested] = exact
            for j, x_j, res_j, conv_j in zip(tested, x_out.T, exact, converged):
                if conv_j or last:
                    done[int(live[j])] = (x_j, float(res_j), it, bool(conv_j))
            if len(done) == b:
                break
            if converged.any():
                keep = np.ones(live.size, dtype=bool)
                keep[tested[converged]] = False
                z, c, x, alpha, rhs, y, best_x, best_alpha, x_mark, alpha_mark = (
                    a[:, keep]
                    for a in (z, c, x, alpha, rhs, y, best_x, best_alpha, x_mark, alpha_mark)
                )
                lam, threshold, margin, best_res, live, omega = (
                    a[keep] for a in (lam, threshold, margin, best_res, live, omega)
                )
                radius, neg_radius = _RELAX * lam, -_RELAX * lam
                if np.ndim(tau):
                    k, tau, sigma = k[keep], tau[keep], sigma[keep]
        if it % _WEIGHT_WINDOW:
            continue
        if it >= _WEIGHT_WARMUP:
            dx = np.linalg.norm(x - x_mark, axis=0)
            da = np.linalg.norm(alpha - alpha_mark, axis=0)
            moved = (dx > 0) & (da > 0)
            omega[moved] = _next_weight(omega[moved], da[moved], dx[moved])
            tau, sigma = step / omega, step * omega
            k, c = _affine_step(l_rot, mu, tau, sigma, rhs, _RELAX)
            # restart the extrapolation of the moved columns: alpha_{k+1}
            # from xbar = x_k at the new sigma
            restart = l_rot @ x[:, moved]
            restart *= sigma[moved]
            restart += alpha[:, moved]
            _project_dual_ball_inplace(norm, restart, lam[moved], -lam[moved])
            z[n:, moved] = restart
        x_mark, alpha_mark = x, alpha

    finals = [done[j] for j in range(b)]
    x_star = np.column_stack([f[0] for f in finals])
    # the objectives with one norm evaluation (on nuclear one stacked SVD):
    # ``Problem.objective`` bit for bit on one column, in the last bits on
    # more, whose products and block sums run in another order
    fits = (y_all - first.phi.entries @ x_star).T
    values = norm_value(norm, first.l_adjoint.entries @ x_star)
    return [
        SolveReport(x_j, 0.5 * float(r @ r) + p.lam * float(v_j), res_j, it_j, conv_j, p)
        for p, r, v_j, (x_j, res_j, it_j, conv_j) in zip(problems, fits, values, finals)
    ]


def _xi_matrix(phi: LinearOperator, ker: np.ndarray) -> tuple[np.ndarray, float]:
    """The map h -> argmin over ker(L_S^*) of 0.5 ||Phi x||^2 - <h, x>,
    B (B^T Phi^T Phi B)^{-1} B^T for the orthonormal basis B = ``ker``, and
    C_Phi = sigma_min(Phi B) (+inf for a trivial kernel); raises unless phi
    is injective on ker(L_S^*)."""
    n = phi.cols
    if ker.shape[1] == 0:
        return np.zeros((n, n)), float("inf")
    a = phi.entries @ ker
    if a.shape[1] > a.shape[0]:
        raise ValueError(
            "restricted injectivity fails: the kernel of L_S^* is wider than "
            "the measurement space"
        )
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if numerical_rank(s) < a.shape[1]:
        raise ValueError("restricted injectivity fails: Phi is singular on ker(L_S^*)")
    inner = vt.T @ np.diag(1.0 / s**2) @ vt
    return ker @ inner @ ker.T, float(s[-1])


class ICContext(NamedTuple):
    """Everything that depends only on (Phi, L, T), built once by
    ``ic_context`` and passed to every consumer of the model."""

    phi: LinearOperator
    l_op: LinearOperator
    T: Subspace
    S: Subspace
    xi: np.ndarray               # N x N restricted normal-equation map
    ls: np.ndarray               # N x P, L restricted to S
    lt: np.ndarray               # N x P, L restricted to T
    ls_pinv: np.ndarray          # P x N, pinv of L restricted to S
    gamma: np.ndarray            # P x P transfer operator
    ker_ls: Subspace             # feasible u directions, in R^P
    cols_u: np.ndarray           # P x dim ker(L_S), P_S applied to ker_ls
    z_space: Subspace            # feasible z directions, in R^M
    ls_pinv_phi_adj: np.ndarray  # P x M, pinv(L_S) Phi^*
    c_phi: float                 # injectivity constant of Phi on ker(L_S^*)
    c_l: float                   # smallest nonzero singular value of L_S^*


def ic_context(phi: LinearOperator, l_op: LinearOperator, T: Subspace) -> ICContext:
    """The context of the model subspace T: one SVD of L_S gives ker(L_S),
    Im(L_S), ker(L_S^*), pinv(L_S) and C_L (+inf when L_S vanishes).  Raises
    when Phi fails to be injective on ker(L_S^*).
    """
    n = l_op.rows
    S = T.complement()
    ps = S.projector_matrix()
    lt = l_op.entries @ T.projector_matrix()
    ls = l_op.entries @ ps
    u, s, vt = np.linalg.svd(ls, full_matrices=True)
    rank = numerical_rank(s)
    ls_pinv = vt[:rank].T @ (u[:, :rank] / s[:rank]).T
    xi, c_phi = _xi_matrix(phi, u[:, rank:])
    gamma = ls_pinv @ ((phi.entries.T @ (phi.entries @ xi) - np.eye(n)) @ lt)
    ker_ls = Subspace(l_op.cols, vt[rank:].T)
    leftover = (np.eye(n) - u[:, :rank] @ u[:, :rank].T) @ phi.entries.T
    return ICContext(
        phi=phi,
        l_op=l_op,
        T=T,
        S=S,
        xi=xi,
        ls=ls,
        lt=lt,
        ls_pinv=ls_pinv,
        gamma=gamma,
        ker_ls=ker_ls,
        cols_u=ps @ ker_ls.basis,
        z_space=kernel_basis(LinearOperator(leftover)),
        ls_pinv_phi_adj=ls_pinv @ phi.entries.T,
        c_phi=c_phi,
        c_l=float(s[rank - 1]) if rank else float("inf"),
    )


class ICSolution(NamedTuple):
    """Minimizer and certified value of one irrepresentability program."""

    u: np.ndarray
    z: np.ndarray
    value: float
    gap: float
    converged: bool


def ic_value(ctx: ICContext, norm: DecomposableNorm, e, u, z) -> float:
    """The irrepresentability coefficient at (u, z), which must be feasible
    up to ``IC_FEASIBILITY_TOL`` relative."""
    e = np.asarray(e, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    p_dim = ctx.l_op.cols
    if e.shape[0] != p_dim or u.shape[0] != p_dim:
        raise ValueError("e and u must live in the analysis space")
    if z.shape[0] != ctx.phi.rows:
        raise ValueError("z must live in the measurement space")

    ls = ctx.ls
    tol = IC_FEASIBILITY_TOL
    if np.linalg.norm(ls @ u) > tol * (1.0 + np.linalg.norm(ls) * np.linalg.norm(u)):
        raise ValueError("infeasible u: not a member of ker(L_S)")
    phz = ctx.phi.entries.T @ z
    im_resid = phz - (ls @ (ctx.ls_pinv @ phz))
    if np.linalg.norm(im_resid) > tol * (1.0 + np.linalg.norm(phz)):
        raise ValueError("infeasible z: Phi^* z is not a member of Im(L_S)")

    vec = ctx.gamma @ e + ctx.S.project(u) + ctx.ls_pinv_phi_adj @ z
    return dual_norm_value(norm, vec)


def _min_dual_norm_affine(
    norm: DecomposableNorm,
    g0: np.ndarray,
    columns: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, float, float, bool, np.ndarray]:
    """Minimize c -> dual_norm(g0 + columns @ c) with a certified gap.

    Returns (c, value, gap, converged, w), w a dual candidate (primal unit
    ball, columns^T w = 0) with <g0, w> >= value - gap, or zero where no
    program runs.  One SVD columns = U S V^T reduces the program to
    min_d dual_norm(g0 + Q d), Q = U_r, c = V_r S_r^{-1} d; r also drops the
    singular values below 1e-12 (1 + ||g0||), whose columns add nothing.
    The minimum-norm point d = -Q^T g0 settles the program when it cancels
    g0: the minimizer need not be unique there, and the minimum-norm one is
    what the certificate's eta, hence C, is defined by.  Otherwise it starts
    ``_min_linf_affine_lp`` for l1 or ``_min_dual_norm_pdhg``.
    """
    base = dual_norm_value(norm, g0)
    u, s, vt = np.linalg.svd(columns, full_matrices=False)
    r = min(numerical_rank(s), int(np.sum(s > 1e-12 * (1.0 + float(np.linalg.norm(g0))))))
    q, s, vt = u[:, :r], s[:r], vt[:r]
    d = -(q.T @ g0)
    d_value = dual_norm_value(norm, g0 + q @ d)
    gap, converged, w = (d_value if r else 0.0), True, np.zeros_like(g0)
    if r and d_value > opts.tol * (1.0 + base):
        solve = _min_linf_affine_lp if norm.kind == "l1" else _min_dual_norm_pdhg
        d, d_value, gap, converged, w = solve(norm, g0, q, d, opts)
    c = vt.T @ (d / s)
    value = dual_norm_value(norm, g0 + columns @ c)
    return c, value, max(gap + value - d_value, 0.0), converged, w


def _certified_gap(
    norm: DecomposableNorm, g0: np.ndarray, q_im: np.ndarray, value: float, w: np.ndarray
) -> tuple[float, np.ndarray]:
    """value - <g0, w'> >= value - minimum, and w': w projected onto
    ker(q_im^T) (q_im an orthonormal basis of the columns' image) and
    scaled into the unit primal ball."""
    w_feas = w - q_im @ (q_im.T @ w)
    pn = norm_value(norm, w_feas)
    if pn > 1.0:
        w_feas = w_feas / pn
    return value - float(g0 @ w_feas), w_feas


# the l1 LP's simplex: the pivot cap, the smallest pivot the ratio test
# takes (1e-12 reached singular bases), the degenerate pivots in a row after
# which Bland's rule replaces Dantzig's, and the pivots between
# refactorizations of the basis inverse
_LP_MAX_PIVOTS = 1000
_LP_PIVOT_TOL = 1e-9
_LP_BLAND_AFTER = 20
_LP_REFACTOR_EVERY = 50


def _independent_rows(q: np.ndarray) -> list[int]:
    """r linearly independent rows of the p x r matrix q of rank r, by greedy
    Gram-Schmidt: each is the row with the largest part orthogonal to the
    rows chosen before it."""
    rows = q.copy()
    chosen: list[int] = []
    for _ in range(q.shape[1]):
        sq = np.einsum("ij,ij->i", rows, rows)
        sq[chosen] = -1.0
        i = int(np.argmax(sq))
        chosen.append(i)
        h = rows[i] / np.sqrt(sq[i])
        rows -= np.outer(rows @ h, h)
    return chosen


def _min_linf_affine_lp(
    norm: DecomposableNorm,
    g0: np.ndarray,
    q: np.ndarray,
    d_start: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, float, float, bool, np.ndarray]:
    """The l1 case, min_d ||g0 + q @ d||_inf with q orthonormal, by a dense
    revised simplex on its dual: max <g0, v> subject to q^T v = 0 and
    ||v||_1 <= 1, over x = (v+, v-, s) >= 0 in standard form (Barrodale and
    Phillips, ACM TOMS 1, 1975, Algorithm 495).  The start basis, s and the
    v+ of r independent rows of q, is feasible at v = 0.  Pivots take
    Dantzig's rule, or Bland's, which cannot cycle, after a run of
    degenerate pivots until one moves the vertex.  The right-hand side is
    the last unit vector, so the basis inverse's last column is the basic
    solution.  At the optimum d = -y_Q, the negated duals of the q^T rows,
    and the basic solution's v is the candidate of ``_certified_gap``.  The
    pivot cap, or no usable pivot, returns ``d_start`` with an infinite gap.
    """
    p_dim, r = q.shape
    a = np.zeros((r + 1, 2 * p_dim + 1))
    a[:r, :p_dim] = q.T
    a[:r, p_dim:-1] = -q.T
    a[r] = 1.0
    cost = np.r_[g0, -g0, 0.0]
    cost_tol = 1e-12 * (1.0 + float(np.max(np.abs(g0))))
    basis = np.array(_independent_rows(q) + [2 * p_dim])
    degenerate = 0
    for pivot in range(_LP_MAX_PIVOTS + 1):
        if pivot % _LP_REFACTOR_EVERY == 0:
            binv = np.linalg.inv(a[:, basis])
        y = cost[basis] @ binv
        reduced = cost - y @ a
        entering = reduced > cost_tol
        if not entering.any():
            binv = np.linalg.inv(a[:, basis])
            y = cost[basis] @ binv
            x = np.zeros(2 * p_dim + 1)
            x[basis] = binv[:, -1]
            d = -y[:r]
            value = dual_norm_value(norm, g0 + q @ d)
            gap, w = _certified_gap(norm, g0, q, value, x[:p_dim] - x[p_dim:-1])
            return d, value, max(gap, 0.0), gap <= opts.tol * (1.0 + abs(value)), w
        if pivot == _LP_MAX_PIVOTS:
            break
        bland = degenerate >= _LP_BLAND_AFTER
        j = int(np.argmax(entering)) if bland else int(np.argmax(reduced))
        col = binv @ a[:, j]
        usable = col > _LP_PIVOT_TOL
        if not usable.any():
            break
        # the basic solution lies in [0, 1] (||v||_1 <= 1), so ratios and
        # steps below 1e-12 are rounding
        ratios = np.full(r + 1, np.inf)
        ratios[usable] = np.maximum(binv[usable, -1], 0.0) / col[usable]
        step = ratios.min()
        ties = np.nonzero(ratios <= step + 1e-12)[0]
        leave = ties[np.argmin(basis[ties])] if bland else ties[np.argmax(col[ties])]
        degenerate = degenerate + 1 if step <= 1e-12 else 0
        row = binv[leave] / col[leave]
        binv -= np.outer(col, row)
        binv[leave] = row
        basis[leave] = j
    return d_start, dual_norm_value(norm, g0 + q @ d_start), np.inf, False, np.zeros_like(g0)


def _min_dual_norm_pdhg(
    norm: DecomposableNorm,
    g0: np.ndarray,
    q: np.ndarray,
    d_start: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, float, float, bool, np.ndarray]:
    """Primal-dual splitting for min_d dual_norm(g0 + q @ d), q with
    orthonormal columns: Chambolle and Pock's iteration with d the primal
    and w the dual block,

        w    <- proj_1(w + sigma (q dbar + g0))  (the primal unit ball)
        d    <- d - tau q^T w
        dbar <- 2 d_new - d

    that is ``_affine_step``'s map at L~ = q, mu = 0 plus sigma g0 on the w
    rows.  It starts at ``d_start`` when that beats d = 0, stops once the
    certified gap meets the tolerance and returns the best iterate with the
    dual candidate of the last check.  Steps and weights follow
    ``solve_penalized_many``, at eta = 0.99 since ||q|| = 1.
    """
    step = tau = sigma = 0.99
    omega = 1.0
    r = q.shape[1]
    best_val, best_d = dual_norm_value(norm, g0), np.zeros(r)
    val_start = dual_norm_value(norm, g0 + q @ d_start)
    if val_start < best_val:
        best_val, best_d = val_start, d_start.copy()
    k, c = _affine_step(q, np.zeros(r), tau, sigma, np.zeros((r, 1)))
    c = c[:, 0] + np.r_[np.zeros(r), sigma * g0]
    # w_0 = 0 and dbar_0 = d_0
    z = np.concatenate([best_d, project_primal_ball(norm, sigma * (q @ best_d + g0), 1.0)])
    w_feas = np.zeros_like(g0)
    gap, converged = np.inf, False
    # d and w at the start of the weight window
    d_prev, w_prev = z[:r], w_feas

    for it in range(1, opts.max_iter + 1):
        z_before = z
        z = k @ z
        z += c
        z[r:] = project_primal_ball(norm, z[r:], 1.0)
        if it % CHECK_EVERY and it != opts.max_iter:
            continue
        d, w = z[:r], z_before[r:]
        val = dual_norm_value(norm, g0 + q @ d)
        if val < best_val:
            best_val = val
            best_d = d.copy()
        gap, w_feas = _certified_gap(norm, g0, q, best_val, w)
        if gap <= opts.tol * (1.0 + abs(best_val)):
            converged = True
            break
        if it % _WEIGHT_WINDOW:
            continue
        if it >= _WEIGHT_WARMUP:
            dd = np.linalg.norm(d - d_prev)
            dw = np.linalg.norm(w - w_prev)
            if dd > 0 and dw > 0:
                omega = float(_next_weight(omega, dw, dd))
                tau, sigma = step / omega, step * omega
                k, c = _affine_step(q, np.zeros(r), tau, sigma, np.zeros((r, 1)))
                c = c[:, 0] + np.r_[np.zeros(r), sigma * g0]
                z[r:] = project_primal_ball(norm, w + sigma * (q @ d + g0), 1.0)
        d_prev, w_prev = d, w

    return best_d, best_val, max(float(gap), 0.0), converged, w_feas


def _minimize_ic(
    ctx: ICContext, norm: DecomposableNorm, e, opts: SolverOptions | None, joint: bool
) -> ICSolution:
    """The irrepresentability program over u in ker(L_S) and, when ``joint``,
    z in the z-space too, both in orthonormal coordinates."""
    opts = opts or SolverOptions()
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.shape[0] != ctx.l_op.cols:
        raise ValueError(f"e has length {e.shape[0]}, expected {ctx.l_op.cols}")
    z_basis = ctx.z_space.basis if joint else np.zeros((ctx.phi.rows, 0))
    columns = np.hstack([ctx.cols_u, ctx.ls_pinv_phi_adj @ z_basis])
    c, value, gap, converged, _ = _min_dual_norm_affine(norm, ctx.gamma @ e, columns, opts)
    k1 = ctx.cols_u.shape[1]
    return ICSolution(
        u=ctx.ker_ls.basis @ c[:k1],
        z=z_basis @ c[k1:],
        value=value,
        gap=gap,
        converged=converged,
    )


def minimize_ic_full(
    ctx: ICContext, norm: DecomposableNorm, e, opts: SolverOptions | None = None
) -> ICSolution:
    """Minimize the irrepresentability coefficient over u and z."""
    return _minimize_ic(ctx, norm, e, opts, joint=True)


def minimize_ic_u(
    ctx: ICContext, norm: DecomposableNorm, e, opts: SolverOptions | None = None
) -> ICSolution:
    """Minimize the irrepresentability coefficient over u alone (z fixed to 0)."""
    return _minimize_ic(ctx, norm, e, opts, joint=False)
