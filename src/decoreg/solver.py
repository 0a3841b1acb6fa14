"""First-order primal-dual solver for the penalized analysis problem

    min_x  0.5 ||y - Phi x||^2 + lambda ||L^* x||_A

and the irrepresentability machinery living on top of it: the restricted
normal-equation map Xi, the transfer operator Gamma, and the convex programs
minimizing the irrepresentability coefficient

    IC_{u,z}(T, e) = dual_norm( Gamma e + P_S u + pinv(L_S) Phi^* z )

over u in ker(L_S) and z with Phi^* z in Im(L_S).

The splitting scheme is Chambolle and Pock's primal-dual iteration on L^*
alone: the dual is the penalty block, and the fit term enters through its
proximal map, a solve that is elementwise in the eigenbasis of Phi^T Phi
which ``Problem`` caches.  Held as (x_k; alpha_{k+1}) in that basis, one
iteration is an affine map followed by the dual-ball projection, and
convergence is tested every ``CHECK_EVERY`` iterations from what the
iteration already holds.  Steps and the per-problem primal weight are in
``solve_penalized_many``.  Problems sharing Phi, L^* and the norm are solved
together, one column per problem.
The IC programs are solved in reduced coordinates: orthonormal bases of the
feasible subspaces turn the affine-constrained dual-norm minimization into an
unconstrained one, min_c dual_norm(g0 + C c).  One SVD C = U S V^T with
Q = U_r turns that into min_d dual_norm(g0 + Q d).  The minimum-norm
least-squares point d = -Q^T g0 settles it when it cancels g0.  Otherwise
the l1 case (an l-infinity objective) is a linear program, solved exactly by
a dense revised simplex on its dual, and the group and nuclear cases run
the same primal-dual scheme, with the same primal-weight rule and
eta = 0.99, since ||Q|| = 1.  Either d maps back to c = V_r S_r^{-1} d.
Both report the value at their point with a duality gap from a dual
candidate, the LP's optimal basic solution or the splitting's dual iterate,
which certifies it.  The strong null-space check solves the same program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .linops import (
    LinearOperator,
    Subspace,
    kernel_basis,
    numerical_rank,
)
from .norms import (
    DecomposableNorm,
    _project_dual_ball_inplace,
    dual_norm_value,
    norm_value,
    project_dual_ball,
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


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 200_000
    init: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Problem:
    """One instance of the penalized problem.

    ``phi`` maps R^N to R^M, ``l_adjoint`` is the analysis operator L^* from
    R^N to R^P, and lam > 0.  Construction verifies the problem has a
    nonempty compact solution set, which holds exactly when the kernels of
    phi and L^* intersect trivially, and caches what the solver's loop
    needs: ``gram_eig``, the eigendecomposition (mu, V) of Phi^T Phi, and
    ``l_norm``, the spectral norm of L^*.  ``with_data`` makes a sibling on
    the same operators and norm that shares both without repeating the
    check.
    """

    phi: LinearOperator
    l_adjoint: LinearOperator
    norm: DecomposableNorm
    y: np.ndarray
    lam: float
    gram_eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    l_norm: float = field(init=False, repr=False)

    def __post_init__(self):
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
        object.__setattr__(self, "gram_eig", tuple(np.linalg.eigh(phi.T @ phi)))
        object.__setattr__(self, "l_norm", float(np.linalg.norm(self.l_adjoint.entries, 2)))

    def _check_data(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "y", y)
        if y.shape[0] != self.phi.rows:
            raise ValueError(f"y has length {y.shape[0]}, phi maps into R^{self.phi.rows}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    def with_data(self, y, lam: float) -> "Problem":
        """The problem with the same phi, l_adjoint and norm objects and new
        y and lam; y and lam are checked, the operators' rank check,
        ``gram_eig`` and ``l_norm`` are this problem's."""
        sibling = copy.copy(self)
        object.__setattr__(sibling, "y", y)
        object.__setattr__(sibling, "lam", lam)
        sibling._check_data()
        return sibling

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        resid = self.y - self.phi.apply(x)
        return 0.5 * float(resid @ resid) + self.lam * norm_value(
            self.norm, self.l_adjoint.apply(x)
        )


@dataclass(frozen=True, eq=False)
class SolveReport:
    x_star: np.ndarray
    objective: float
    optimality_residual: float
    iterations: int
    converged: bool
    problem: Problem


def _composite_residual(
    p: Problem, x: np.ndarray, alpha_dual: np.ndarray, y: np.ndarray, lam: np.ndarray
) -> np.ndarray:
    """First-order residual with a certified dual candidate, per column.

    Column j of ``x``, ``alpha_dual`` and ``y`` belongs to a problem with
    p's operators and norm and penalty lam[j].  The dual iterate is rescaled
    and projected onto the unit dual ball; the returned value adds the
    gradient-equation norm and the Fenchel gap lam * (||u|| - <alpha, u>),
    both of which vanish at a minimizer.
    """
    phi, l_adj = p.phi.entries, p.l_adjoint.entries
    u = l_adj @ x
    alpha_hat = project_dual_ball(p.norm, alpha_dual / lam, 1.0)
    grad = phi.T @ (phi @ x - y) + lam * (l_adj.T @ alpha_hat)
    gap = lam * np.maximum(norm_value(p.norm, u) - np.sum(alpha_hat * u, axis=0), 0.0)
    return np.linalg.norm(grad, axis=0) + gap


# primal-weight adaptation in ``solve_penalized_many`` and the IC programs'
# splitting: the iterations run at omega = 1 before the first update, the
# iterations between updates, and the clamp on omega
_WEIGHT_WARMUP = 100
_WEIGHT_WINDOW = 50
_WEIGHT_BOUNDS = (0.1, 10.0)


def _next_weight(omega, dual_move, primal_move):
    """The primal weight moved halfway, in log scale, towards the ratio of
    dual to primal movement over a weight window, clamped to the bounds."""
    return np.clip(
        np.exp(0.5 * np.log(dual_move / primal_move) + 0.5 * np.log(omega)), *_WEIGHT_BOUNDS
    )


def _affine_step(
    l_rot: np.ndarray, mu: np.ndarray, tau, sigma, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """K and c of one splitting iteration before its projection.

    With the state z = (x_k; alpha_{k+1}) in the eigenbasis, where L~ =
    ``l_rot``, S = (I + tau diag mu)^{-1} and r = ``rhs`` (one column per
    problem), the iteration is z <- proj(K z + c) with the projection on the
    alpha rows alone and

        K = [[S, -tau S L~^T], [sigma L~ (2S - I), I - 2 sigma tau L~ S L~^T]]
        c = [tau S r; 2 sigma tau L~ S r].

    Scalar steps give one (d, d) K, (B,) steps a (B, d, d) stack; c is
    (d, B) either way, the shape of z.
    """
    p_dim, n = l_rot.shape
    tau = np.asarray(tau, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    s = 1.0 / (1.0 + tau[..., None] * mu)
    ts = tau[..., None] * s
    k = np.zeros(s.shape[:-1] + (n + p_dim, n + p_dim))
    diag = np.arange(n)
    k[..., diag, diag] = s
    k[..., :n, n:] = -ts[..., :, None] * l_rot.T
    k[..., n:, :n] = sigma[..., None, None] * (l_rot * (2.0 * s - 1.0)[..., None, :])
    k[..., n:, n:] = np.eye(p_dim) - 2.0 * sigma[..., None, None] * (
        (l_rot * ts[..., None, :]) @ l_rot.T
    )
    cx = ts.T.reshape(n, -1) * rhs
    return k, np.concatenate([cx, 2.0 * sigma * (l_rot @ cx)])


def _check_residual(
    norm: DecomposableNorm,
    l_rot: np.ndarray,
    x_before: np.ndarray,
    x: np.ndarray,
    alpha: np.ndarray,
    tau,
    lam: np.ndarray,
) -> np.ndarray:
    """``_composite_residual`` at (V x, alpha) from what the iteration holds.

    x is the iterate in the eigenbasis, x_before the one before it and alpha
    the dual (inside the lam ball) that produced x, one column per problem.
    The proximal step makes Phi^T (Phi V x - y) + L alpha equal to
    V (x_before - x) / tau, so the gradient-equation norm costs no product;
    the gap takes one, u = L~ x.
    """
    grad = np.linalg.norm(x_before - x, axis=0) / tau
    u = l_rot @ x
    gap = lam * norm_value(norm, u) - np.einsum("ij,ij->j", alpha, u)
    return grad + np.maximum(gap, 0.0)


def solve_penalized(p: Problem, opts: SolverOptions | None = None) -> SolveReport:
    """Minimize the penalized objective by primal-dual splitting.

    The report carries the best iterate seen at a check point and its
    composite first-order residual.  Non-convergence within the iteration
    budget is reported, not raised.
    """
    return solve_penalized_many([p], opts)[0]


def solve_penalized_many(
    problems: list[Problem], opts: SolverOptions | None = None
) -> list[SolveReport]:
    """Solve problems that share phi, l_adjoint and norm in one batched loop.

    The iterate holds one column per problem, with that problem's y and
    lam.  Every column has its own convergence test, best iterate and
    stopping point: a column that converges leaves the working arrays, so
    each problem runs exactly the iterations a solve on its own would, and
    its report is the one ``solve_penalized`` gives up to rounding.
    ``opts.init`` is None (start at zero) or an (N,) vector that starts
    every column; any other shape raises ``ValueError``.

    The loop is Chambolle and Pock's Algorithm 1 (J. Math. Imaging Vision
    40, 2011) with the fit term taken by its proximal map:

        alpha <- proj_lam(alpha + sigma L^* xbar)
        x     <- (I + tau Phi^T Phi)^{-1} (x - tau (L alpha - Phi^T y))
        xbar  <- 2 x_new - x

    x lives in the eigenbasis V of Phi^T Phi = V diag(mu) V^T.  Held as
    z = (x_k; alpha_{k+1}), the iteration is one affine map z <- K z + c
    (``_affine_step``) followed by the unchecked in-place projection of the
    alpha rows; K and c are built once per call and again at each weight
    update.  Every ``CHECK_EVERY`` iterations ``_check_residual`` reads the
    composite residual of (x_k, alpha_k) off the two last states.  A check
    point becomes a column's best iterate only when its residual is lower by
    more than rounding, so that the batched and the single solve pick the
    same one on a residual plateau too.  A column whose best residual meets
    the tolerance, and every column at ``max_iter``, gets
    ``_composite_residual`` at its best iterate; that value is the report's
    ``optimality_residual``, and the column retires as converged only when
    it meets the tolerance too.

    Each column has its own primal weight omega and steps tau = eta / omega,
    sigma = eta * omega with eta = 0.99 / ||L^*||, so tau sigma ||L^*||^2 < 1.
    omega is 1 for the first 100 iterations, so a solve that converges by
    then runs the plain fixed-step iteration with one (d, d) K.  From then
    on, every 50 iterations, each column moves omega halfway, in log scale,
    towards ||alpha change|| / ||x change|| over the 50 iterations just
    ended (Applegate et al., "Practical large-scale linear programming using
    primal-dual hybrid gradient", NeurIPS 2021), clamps it to [0.1, 10] and
    restarts the extrapolation (xbar = x), which recomputes its alpha rows
    of z; K becomes a (B, d, d) stack.  A window in which either block did
    not move leaves the column as it is.  The clamp matters at tiny lambda,
    where the dual is confined to a ball of radius lambda and an unclamped
    omega collapses and stalls the primal.
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
    neg_lam = -lam
    phi_t_y = first.phi.entries.T @ y
    rhs = v.T @ phi_t_y
    k, c = _affine_step(l_rot, mu, tau, sigma, rhs)
    x0 = v.T @ init
    # one column (x_k; alpha_{k+1}) per problem
    z = np.empty((n + norm.ambient_dim, b))
    z[:n] = x0[:, None]
    z[n:] = (sigma * (l_rot @ x0))[:, None]
    _project_dual_ball_inplace(norm, z[n:], lam, neg_lam)
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
        # a (B, d, d) stack takes the columns as a stack of vectors
        z = k @ z if k.ndim == 2 else (k @ z.T[:, :, None])[:, :, 0].T
        z += c
        _project_dual_ball_inplace(norm, z[n:], lam, neg_lam)
        last = it == opts.max_iter
        if it % CHECK_EVERY and not last:
            continue
        x, alpha = z[:n], z_before[n:]
        res = _check_residual(norm, l_rot, z_before[:n], x, alpha, tau, lam)
        better = res < best_res - margin
        best_res[better] = res[better]
        best_x[:, better] = x[:, better]
        best_alpha[:, better] = alpha[:, better]
        finished = (best_res <= threshold) | last
        tested = np.nonzero(finished)[0]
        if tested.size:
            x_out = v @ best_x[:, tested]
            exact = _composite_residual(
                first, x_out, best_alpha[:, tested], y[:, tested], lam[tested]
            )
            converged = exact <= threshold[tested]
            finished[tested] = converged | last
            for j, x_j, res_j, conv_j in zip(tested, x_out.T, exact, converged):
                if finished[j]:
                    done[int(live[j])] = (x_j, float(res_j), it, bool(conv_j))
            if finished.all():
                break
            if finished.any():
                keep = ~finished
                z, c, x, alpha, rhs, y, best_x, best_alpha, x_mark, alpha_mark = (
                    a[:, keep]
                    for a in (z, c, x, alpha, rhs, y, best_x, best_alpha, x_mark, alpha_mark)
                )
                lam, threshold, margin, best_res, live, omega = (
                    a[keep] for a in (lam, threshold, margin, best_res, live, omega)
                )
                neg_lam = -lam
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
            k, c = _affine_step(l_rot, mu, tau, sigma, rhs)
            # restart the extrapolation of the moved columns: alpha_{k+1}
            # from xbar = x_k at the new sigma
            restart = l_rot @ x[:, moved]
            restart *= sigma[moved]
            restart += alpha[:, moved]
            _project_dual_ball_inplace(norm, restart, lam[moved], neg_lam[moved])
            z[n:, moved] = restart
        x_mark, alpha_mark = x, alpha

    reports = []
    for j, p in enumerate(problems):
        x_star, res, iterations, converged = done[j]
        reports.append(
            SolveReport(
                x_star=x_star,
                objective=p.objective(x_star),
                optimality_residual=res,
                iterations=iterations,
                converged=converged,
                problem=p,
            )
        )
    return reports


def _xi_matrix(phi: LinearOperator, ker: np.ndarray) -> tuple[np.ndarray, float]:
    """Dense matrix of the map h -> argmin over ker(L_S^*) of
    0.5 ||Phi x||^2 - <h, x>, namely B (B^T Phi^T Phi B)^{-1} B^T for the
    orthonormal kernel basis B = ``ker``, and C_Phi, the smallest singular
    value of Phi B (+inf for a trivial kernel).  Raises when phi fails to be
    injective on that kernel."""
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


@dataclass(frozen=True, eq=False)
class ICContext:
    """Everything that depends only on (Phi, L, T): the operators and the
    model themselves, the model's complement S, L_S = L P_S and the pieces
    built from its one SVD.  The irrepresentability programs, the
    certificate, the stability constants and the bound checks take it in
    place of (Phi, L, T); ``ic_context`` builds it."""

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
    """Build the context of the model subspace T.

    One SVD of L_S gives ker(L_S), Im(L_S), ker(L_S^*), pinv(L_S) and C_L
    (+inf when L_S vanishes); C_Phi comes from the SVD inside Xi.  Raises
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


@dataclass(frozen=True, eq=False)
class ICSolution:
    """Minimizer and certified value of one irrepresentability program."""

    u: np.ndarray
    z: np.ndarray
    value: float
    gap: float
    converged: bool


def ic_value(ctx: ICContext, norm: DecomposableNorm, e, u, z) -> float:
    """Evaluate the irrepresentability coefficient at a feasible pair (u, z).

    Feasibility (u in ker(L_S), Phi^* z in Im(L_S)) is enforced up to
    ``IC_FEASIBILITY_TOL`` relative and violations name the failing
    membership.
    """
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

    The dual of this program maximizes <g0, w> over primal-unit-ball vectors
    w with columns^T w = 0, which yields a computable optimality gap: every
    reported value comes with a certificate ``gap`` bounding its distance to
    the true minimum.  Returns (c, value, gap, converged, w), w that dual
    candidate with <g0, w> >= value - gap, or zero where no program runs.

    One SVD columns = U S V^T gives everything: the rank r counts the
    singular values above both ``numerical_rank``'s relative cut and the
    absolute floor 1e-12 (1 + ||g0||), below which columns contribute
    nothing; Q = U_r; and the minimum-norm least-squares point d = -Q^T g0.
    That point settles the program when it cancels g0 (or r = 0) and starts
    it otherwise.  It comes before any solver because the minimizer need not
    be unique: where g0 cancels, the minimum-norm point is the one downstream
    quantities (the certificate's eta, hence C) are defined by.  The program
    min_d dual_norm(g0 + Q d) runs as a linear program for l1, by the
    simplex of ``_min_linf_affine_lp``, and by primal-dual splitting for
    the other norms; either d maps back to
    c = V_r S_r^{-1} d, where the value is recomputed and the gap shifted by
    the difference.
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
    """Upper bound on value - minimum from a dual candidate w, and the
    feasible candidate it comes from.

    w is projected onto ker(columns^T) (q_im is an orthonormal basis of the
    columns' image) and scaled into the unit primal ball; <g0, w> is then a
    lower bound on the minimum."""
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
    revised simplex on its dual.

    The dual maximizes <g0, v> subject to q^T v = 0 and ||v||_1 <= 1.  In
    standard form, over x = (v+, v-, s) >= 0, its r + 1 rows are
    q^T (v+ - v-) = 0 and 1^T (v+ + v-) + s = 1, as in Barrodale and
    Phillips' discrete Chebyshev simplex (ACM TOMS 1, 1975, Algorithm 495).
    The start basis is s and the v+ of r rows of q chosen by
    ``_independent_rows``; it is feasible, at v = 0, because the q^T rows
    have right-hand side 0.  Each pivot enters the largest reduced cost
    (Dantzig's rule), or after 20 degenerate pivots in a row the first
    positive one (Bland's rule, which cannot cycle) until a pivot moves the
    vertex.  The basis inverse takes a rank-one update per pivot and is
    refactored every 50 pivots and at the optimum; its last column is the
    basic solution, since the right-hand side is the last unit vector.  At
    the optimum the duals y of the basis give d = -y_Q, the negated
    multipliers of the q^T rows, and the basic solution gives v, the dual
    candidate of ``_certified_gap``.  The pivot cap, or a ratio test with no
    pivot above the tolerance, returns ``d_start`` unconverged with an
    infinite gap and a zero candidate.
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
    """Primal-dual splitting for min_d dual_norm(g0 + q @ d), any norm, where
    q has orthonormal columns.

    The iteration is Chambolle and Pock's, with d as the primal and w as
    the dual block:

        w    <- proj_1(w + sigma (q dbar + g0))  (the primal unit ball)
        d    <- d - tau q^T w
        dbar <- 2 d_new - d

    Held as z = (d_k; w_{k+1}) it is one affine map z <- K z + c followed by
    the projection of the w rows: K is ``_affine_step``'s at L~ = q, mu = 0,
    and c is sigma g0 on the w rows.  Starts at ``d_start`` when it
    beats d = 0 and tests the certified gap every ``CHECK_EVERY``
    iterations, stopping once it meets the tolerance; the best iterate seen
    at a check is returned with the dual candidate of the last check.  The
    steps follow ``solve_penalized_many``'s primal-weight rule and windows,
    with eta = 0.99, since ||q|| = 1; a weight update restarts the
    extrapolation (dbar = d), which recomputes the w rows of z.
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
    """Minimize the irrepresentability coefficient over both feasible blocks.

    u ranges over ker(L_S) and z over the preimage parametrization of
    { z : Phi^* z in Im(L_S) }.
    """
    return _minimize_ic(ctx, norm, e, opts, joint=True)


def minimize_ic_u(
    ctx: ICContext, norm: DecomposableNorm, e, opts: SolverOptions | None = None
) -> ICSolution:
    """Minimize the irrepresentability coefficient over u alone (z fixed to 0)."""
    return _minimize_ic(ctx, norm, e, opts, joint=False)
