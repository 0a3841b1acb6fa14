"""First-order primal-dual solver for the penalized analysis problem

    min_x  0.5 ||y - Phi x||^2 + lambda ||L^* x||_A

and the irrepresentability machinery living on top of it: the restricted
normal-equation map Xi, the transfer operator Gamma, and the convex programs
minimizing the irrepresentability coefficient

    IC_{u,z}(T, e) = dual_norm( Gamma e + P_S u + pinv(L_S) Phi^* z )

over u in ker(L_S) and z with Phi^* z in Im(L_S).

The splitting scheme is the standard primal-dual hybrid gradient iteration on
the stacked operator K = (Phi; L^*) with steps tau = eta / omega and
sigma = eta * omega, where eta = 0.99 / ||K|| uses the exact norm from the
singular values ``Problem`` computes for its rank check, so tau sigma ||K||^2
< 1 for every primal weight omega.  omega starts at 1 and, for long solves
only, adapts per problem to the ratio of dual to primal movement
(``solve_penalized_many`` gives the rule).  Full relaxation, deterministic
initialization at zero.  Problems sharing Phi, L^* and the norm are solved
together, one column per problem, and each iteration updates the stacked
dual in place in the array K xbar.
The IC programs are solved in reduced coordinates: orthonormal bases of the
feasible subspaces turn the affine-constrained dual-norm minimization into an
unconstrained one, min_c dual_norm(g0 + C c).  The minimum-norm
least-squares point settles it when it cancels g0.  Otherwise the l1 case
(an l-infinity objective) is a linear program solved by HiGHS, and the group
and nuclear cases run the same primal-dual scheme, with the same
primal-weight rule.  Both report the value at
their point with a duality gap from a dual candidate, the LP's marginals or
the splitting's dual iterate, which certifies it.  The strong null-space
check solves the same program.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .linops import (
    RANK_RTOL,
    LinearOperator,
    Subspace,
    image_basis,
    kernel_basis,
    power_iteration_norm,
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
    "SolverOptions",
    "Problem",
    "SolveReport",
    "solve_penalized",
    "solve_penalized_many",
    "xi_map",
    "gamma_apply",
    "ICContext",
    "ic_context",
    "ICSolution",
    "ic_value",
    "minimize_ic_full",
    "minimize_ic_u",
]


@dataclass
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 200_000
    check_every: int = 50
    init: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Problem:
    """One instance of the penalized problem.

    ``phi`` maps R^N to R^M, ``l_adjoint`` is the analysis operator L^* from
    R^N to R^P, and lam > 0.  Construction verifies the problem has a
    nonempty compact solution set, which holds exactly when the kernels of
    phi and L^* intersect trivially; the singular values of that check also
    give ``k_norm``, the spectral norm of K = (Phi; L^*).  ``with_data``
    makes a sibling on the same operators and norm without repeating the
    check.
    """

    phi: LinearOperator
    l_adjoint: LinearOperator
    norm: DecomposableNorm
    y: np.ndarray
    lam: float
    k_norm: float = field(init=False, repr=False)

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
        smax = float(s[0]) if s.size else 0.0
        rank = int(np.sum(s > RANK_RTOL * smax)) if smax > 0 else 0
        if rank < n:
            raise ValueError(
                "ker(phi) and ker(l_adjoint) intersect nontrivially: "
                "the solution set is unbounded"
            )
        object.__setattr__(self, "k_norm", smax)

    def _check_data(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "y", y)
        if y.shape[0] != self.phi.rows:
            raise ValueError(f"y has length {y.shape[0]}, phi maps into R^{self.phi.rows}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")

    def with_data(self, y, lam: float) -> "Problem":
        """The problem with the same phi, l_adjoint and norm objects and new
        y and lam; y and lam are checked, the operators' rank check and
        ``k_norm`` are this problem's."""
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
# splitting: the number of check windows run at omega = 1 before the first
# update, and the clamp on omega
_WEIGHT_WARMUP_WINDOWS = 5
_WEIGHT_BOUNDS = (0.1, 10.0)


def _next_weight(omega, dual_move, primal_move):
    """The primal weight moved halfway, in log scale, towards the ratio of
    dual to primal movement over a check window, clamped to the bounds."""
    return np.clip(
        np.exp(0.5 * np.log(dual_move / primal_move) + 0.5 * np.log(omega)), *_WEIGHT_BOUNDS
    )


def solve_penalized(p: Problem, opts: SolverOptions | None = None) -> SolveReport:
    """Minimize the penalized objective by primal-dual splitting.

    The report carries the iterate with the best composite first-order
    residual seen at a check point.  Non-convergence within the iteration
    budget is reported, not raised.
    """
    return solve_penalized_many([p], opts)[0]


def solve_penalized_many(
    problems: list[Problem], opts: SolverOptions | None = None
) -> list[SolveReport]:
    """Solve problems that share phi, l_adjoint and norm in one batched loop.

    The iterates are (N, B), (M, B) and (P, B) arrays with one column per
    problem and that problem's y and lam.  Every column has its own
    convergence test, best-residual iterate and stopping point: a column
    that converges leaves the working arrays, so each problem runs exactly
    the iterations a solve on its own would, and its report is the one
    ``solve_penalized`` gives up to rounding.  A check point becomes the
    best iterate only when its residual is lower by more than rounding, so
    that holds on a residual plateau too.  ``opts.init`` is None (start
    at zero), an (N,) vector that starts every column, or an (N, B) array
    with one start per column; any other shape raises ``ValueError``.

    Each column has its own primal weight omega and steps tau = eta / omega,
    sigma = eta * omega with eta = 0.99 / ||K||.  omega is 1 for the first
    five check windows (250 iterations at ``check_every = 50``), so a solve
    that converges by then runs the plain fixed-step iteration.  From then on,
    at every check point, each column moves omega halfway, in log scale,
    towards ||dual change|| / ||x change|| over the window just ended
    (Applegate et al., "Practical large-scale linear programming using
    primal-dual hybrid gradient", NeurIPS 2021), clamps it to [0.1, 10] and
    restarts the extrapolation (xbar = x); a window in which either block did
    not move leaves the column as it is.  The clamp matters at tiny lambda,
    where the dual is confined to a ball of radius lambda and an unclamped
    omega collapses and stalls the primal.  tau and sigma stay scalars until
    the first update, which keeps short solves as cheap as before.

    An iteration forms q = K xbar once and turns it into the new stacked
    dual in place: the fit rows become (fit + sigma (q - y)) / (1 + sigma),
    the regularizer rows reg + sigma q projected onto the lam-ball by the
    unchecked kernel behind ``project_dual_ball``; then x moves by
    tau K^T q.  1 + sigma and -lam change only at check points.
    """
    opts = opts or SolverOptions()
    if opts.max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not opts.tol > 0:
        raise ValueError("tol must be positive")
    if opts.check_every < 1:
        raise ValueError("check_every must be at least 1")
    problems = list(problems)
    if not problems:
        return []
    first = problems[0]
    if any(
        q.phi is not first.phi or q.l_adjoint is not first.l_adjoint or q.norm is not first.norm
        for q in problems
    ):
        raise ValueError("batched problems must share the phi, l_adjoint and norm objects")

    m, n = first.phi.rows, first.phi.cols
    big = np.vstack([first.phi.entries, first.l_adjoint.entries])
    step = 0.99 / first.k_norm if first.k_norm > 0 else 1.0
    tau = sigma = step
    adapt_from = _WEIGHT_WARMUP_WINDOWS * opts.check_every

    b = len(problems)
    init = np.zeros(n) if opts.init is None else np.asarray(opts.init, dtype=float)
    if init.shape == (n,):
        x = np.repeat(init[:, None], b, axis=1)
    elif init.shape == (n, b):
        x = init.copy()
    else:
        raise ValueError(f"init has shape {init.shape}, expected ({n},) or ({n}, {b})")
    xbar = x.copy()
    y = np.column_stack([q.y for q in problems])
    lam = np.array([q.lam for q in problems], dtype=float)
    dual_fit = np.zeros((m, b))
    dual_reg = np.zeros((first.norm.ambient_dim, b))
    omega = np.ones(b)
    # the iterates at the previous check point, for the primal-weight update
    x_prev, fit_prev, reg_prev = x, dual_fit, dual_reg

    scale = 1.0 + np.linalg.norm(first.phi.entries.T @ y, axis=0)
    threshold = opts.tol * scale
    # a check point replaces the best iterate only when its residual is lower
    # by more than rounding: on a residual plateau the choice must not hang on
    # the last bits, which differ between a batched and a single solve
    margin = 64.0 * np.finfo(float).eps * scale
    best_res = np.full(b, np.inf)
    best_x = x.copy()
    live = np.arange(b)  # problem index of each working column
    done: dict[int, tuple[np.ndarray, float, int, bool]] = {}

    one_plus_sigma, neg_lam = 1.0 + sigma, -lam
    for it in range(1, opts.max_iter + 1):
        # q becomes the stacked dual (fit rows over regularizer rows), updated
        # in place, both blocks scaled by sigma in one step; it is a fresh
        # array every iteration, so the views kept of the previous one as
        # dual_fit, dual_reg and *_prev stay intact
        q = big @ xbar
        fit, reg = q[:m], q[m:]
        fit -= y
        q *= sigma
        fit += dual_fit
        fit /= one_plus_sigma
        reg += dual_reg
        _project_dual_ball_inplace(first.norm, reg, lam, neg_lam)
        dual_fit, dual_reg = fit, reg
        x_new = x - tau * (big.T @ q)
        xbar = 2.0 * x_new - x
        x = x_new
        if it % opts.check_every == 0 or it == opts.max_iter:
            res = _composite_residual(first, x, dual_reg, y, lam)
            better = res < best_res - margin
            best_res[better] = res[better]
            best_x[:, better] = x[:, better]
            converged = res <= threshold
            finished = converged | (it == opts.max_iter)
            for j in np.nonzero(finished)[0]:
                done[int(live[j])] = (
                    best_x[:, j].copy(), float(best_res[j]), it, bool(converged[j])
                )
            if finished.all():
                break
            if finished.any():
                keep = ~finished
                x, xbar, dual_fit, dual_reg, y, best_x, x_prev, fit_prev, reg_prev = (
                    a[:, keep]
                    for a in (
                        x, xbar, dual_fit, dual_reg, y, best_x, x_prev, fit_prev, reg_prev
                    )
                )
                lam, threshold, margin, best_res, live, omega = (
                    a[keep] for a in (lam, threshold, margin, best_res, live, omega)
                )
            if it >= adapt_from:
                dx = np.linalg.norm(x - x_prev, axis=0)
                dd = np.sqrt(
                    np.sum((dual_fit - fit_prev) ** 2, axis=0)
                    + np.sum((dual_reg - reg_prev) ** 2, axis=0)
                )
                moved = (dx > 0) & (dd > 0)
                omega[moved] = _next_weight(omega[moved], dd[moved], dx[moved])
                xbar[:, moved] = x[:, moved]
                tau, sigma = step / omega, step * omega
            one_plus_sigma, neg_lam = 1.0 + sigma, -lam
            x_prev, fit_prev, reg_prev = x, dual_fit, dual_reg

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


def _xi_matrix(
    phi: LinearOperator, ker: np.ndarray, tol: float = RANK_RTOL
) -> tuple[np.ndarray, float]:
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
    if s[0] == 0.0 or s[-1] <= tol * s[0]:
        raise ValueError("restricted injectivity fails: Phi is singular on ker(L_S^*)")
    inner = vt.T @ np.diag(1.0 / s**2) @ vt
    return ker @ inner @ ker.T, float(s[-1])


def xi_map(phi: LinearOperator, l_s_adjoint: LinearOperator, h, tol: float = RANK_RTOL) -> np.ndarray:
    """Solve the quadratic program restricted to ker(L_S^*).

    Returns the minimizer of 0.5 ||Phi x||^2 - <h, x> over that kernel; the
    result satisfies P_ker(Phi^T Phi Xi h - h) = 0.
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.shape[0] != phi.cols:
        raise ValueError(f"h has length {h.shape[0]}, expected {phi.cols}")
    xi, _ = _xi_matrix(phi, kernel_basis(l_s_adjoint, tol).basis, tol)
    return xi @ h


def gamma_apply(
    phi: LinearOperator,
    l_op: LinearOperator,
    T: Subspace,
    S: Subspace,
    v,
    tol: float = RANK_RTOL,
) -> np.ndarray:
    """Apply the transfer operator pinv(L_S) (Phi^T Phi Xi - Id) L_T.

    S must be the orthogonal complement of T.  Its range lies inside
    Im(L_S^*); restricted injectivity failures propagate from the inner
    quadratic solve.
    """
    p_dim = l_op.cols
    if T.ambient_dim != p_dim or S.ambient_dim != p_dim:
        raise ValueError("T and S must live in the analysis space")
    if T.dim + S.dim != p_dim or (
        T.basis.size and S.basis.size and np.max(np.abs(T.basis.T @ S.basis)) > 1e-10
    ):
        raise ValueError("S must be the orthogonal complement of T")
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != p_dim:
        raise ValueError(f"v has length {v.shape[0]}, expected {p_dim}")
    return ic_context(phi, l_op, T, tol).gamma @ v


@dataclass(frozen=True, eq=False)
class ICContext:
    """Everything that depends only on (Phi, L, T): the model's complement
    S, L_S = L P_S and the pieces built from its one SVD, shared by the
    certificate, the irrepresentability programs, the null-space check and
    the stability constants."""

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


def ic_context(
    phi: LinearOperator, l_op: LinearOperator, T: Subspace, tol: float = RANK_RTOL
) -> ICContext:
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
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    ls_pinv = vt[:rank].T @ (u[:, :rank] / s[:rank]).T
    xi, c_phi = _xi_matrix(phi, u[:, rank:], tol)
    gamma = ls_pinv @ ((phi.entries.T @ (phi.entries @ xi) - np.eye(n)) @ lt)
    ker_ls = Subspace(l_op.cols, vt[rank:].T)
    leftover = (np.eye(n) - u[:, :rank] @ u[:, :rank].T) @ phi.entries.T
    return ICContext(
        T=T,
        S=S,
        xi=xi,
        ls=ls,
        lt=lt,
        ls_pinv=ls_pinv,
        gamma=gamma,
        ker_ls=ker_ls,
        cols_u=ps @ ker_ls.basis,
        z_space=kernel_basis(LinearOperator(leftover), tol),
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


def ic_value(
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    T: Subspace,
    e,
    u,
    z,
    feas_tol: float = 1e-9,
    ctx: ICContext | None = None,
) -> float:
    """Evaluate the irrepresentability coefficient at a feasible pair (u, z).

    Feasibility (u in ker(L_S), Phi^* z in Im(L_S)) is enforced up to
    ``feas_tol`` and violations name the failing membership.
    """
    ctx = ctx or ic_context(phi, l_op, T)
    e = np.asarray(e, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    z = np.asarray(z, dtype=float).reshape(-1)
    p_dim = l_op.cols
    if e.shape[0] != p_dim or u.shape[0] != p_dim:
        raise ValueError("e and u must live in the analysis space")
    if z.shape[0] != phi.rows:
        raise ValueError("z must live in the measurement space")

    ls = ctx.ls
    if np.linalg.norm(ls @ u) > feas_tol * (1.0 + np.linalg.norm(ls) * np.linalg.norm(u)):
        raise ValueError("infeasible u: not a member of ker(L_S)")
    phz = phi.entries.T @ z
    im_resid = phz - (ls @ (ctx.ls_pinv @ phz))
    if np.linalg.norm(im_resid) > feas_tol * (1.0 + np.linalg.norm(phz)):
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
    candidate with <g0, w> >= value - gap, or zero where no program runs (no
    columns, or a least-squares point that cancels g0).  Null columns are
    dropped and the minimum-norm least-squares point is tried first; only
    when it does not cancel g0 is the program solved, as a linear program for
    l1 and by primal-dual splitting for the other norms.
    """
    k = columns.shape[1]
    base = dual_norm_value(norm, g0)
    if k == 0:
        return np.zeros(0), base, 0.0, True, np.zeros_like(g0)
    # numerically null columns come out of projector and pseudoinverse
    # compositions; they contribute nothing and wreck the step size
    col_norms = np.linalg.norm(columns, axis=0)
    keep = np.nonzero(col_norms > 1e-12 * (1.0 + float(np.linalg.norm(g0))))[0]
    if keep.size < k:
        sub_c, *rest = _min_dual_norm_affine(norm, g0, columns[:, keep], opts)
        c = np.zeros(k)
        c[keep] = sub_c
        return (c, *rest)

    # least-squares preprocessing: settles the full-cancellation case (value
    # zero) exactly and provides a start otherwise.  It comes before any
    # solver because the minimizer need not be unique: where g0 cancels, the
    # minimum-norm point is the one downstream quantities (the certificate's
    # eta, hence C) are defined by
    c_ls, *_ = np.linalg.lstsq(columns, -g0, rcond=None)
    val_ls = dual_norm_value(norm, g0 + columns @ c_ls)
    if val_ls <= opts.tol * (1.0 + base):
        return c_ls, val_ls, val_ls, True, np.zeros_like(g0)

    q_im = image_basis(LinearOperator(columns)).basis
    if norm.kind == "l1":
        return _min_linf_affine_lp(norm, g0, columns, q_im, c_ls, opts)
    return _min_dual_norm_pdhg(norm, g0, columns, q_im, c_ls, opts)


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


def _min_linf_affine_lp(
    norm: DecomposableNorm,
    g0: np.ndarray,
    columns: np.ndarray,
    q_im: np.ndarray,
    c_start: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, float, float, bool, np.ndarray]:
    """The l1 case, min_c ||g0 + columns @ c||_inf, as a linear program.

    Variables (c, t), minimize t subject to +-(g0 + columns @ c) - t <= 0,
    solved by HiGHS.  The value is recomputed at the returned c and its gap
    comes from the inequality marginals mu+ and mu-: w = mu+ - mu- is the
    dual candidate of ``_certified_gap``.  A solver failure returns
    ``c_start`` unconverged with an infinite gap and a zero candidate.
    """
    p_dim, k = columns.shape
    ones = np.ones((p_dim, 1))
    res = optimize.linprog(
        np.r_[np.zeros(k), 1.0],
        A_ub=np.block([[columns, -ones], [-columns, -ones]]),
        b_ub=np.r_[-g0, g0],
        bounds=(None, None),
        method="highs",
    )
    if res.status != 0:
        value = dual_norm_value(norm, g0 + columns @ c_start)
        return c_start, value, np.inf, False, np.zeros_like(g0)
    c = res.x[:k]
    value = dual_norm_value(norm, g0 + columns @ c)
    marginals = res.ineqlin.marginals  # nonpositive for <= rows
    gap, w = _certified_gap(norm, g0, q_im, value, marginals[p_dim:] - marginals[:p_dim])
    return c, value, max(gap, 0.0), gap <= opts.tol * (1.0 + abs(value)), w


def _min_dual_norm_pdhg(
    norm: DecomposableNorm,
    g0: np.ndarray,
    columns: np.ndarray,
    q_im: np.ndarray,
    c_start: np.ndarray,
    opts: SolverOptions,
) -> tuple[np.ndarray, float, float, bool, np.ndarray]:
    """Primal-dual splitting for the affine dual-norm program, any norm.

    Starts at ``c_start`` when it beats c = 0 and stops once the certified
    gap meets the tolerance; the best iterate seen at a check is returned
    with the dual candidate of the last check.  The steps follow
    ``solve_penalized_many``'s primal-weight rule, with c as the primal and
    w as the dual block.
    """
    if opts.check_every < 1:
        raise ValueError("check_every must be at least 1")
    k = columns.shape[1]
    step = 0.99 / power_iteration_norm(columns)
    tau = sigma = step
    omega = 1.0
    adapt_from = _WEIGHT_WARMUP_WINDOWS * opts.check_every
    base = dual_norm_value(norm, g0)
    val_start = dual_norm_value(norm, g0 + columns @ c_start)
    w = np.zeros_like(g0)
    best_val, best_c = base, np.zeros(k)
    if val_start < best_val:
        best_val, best_c = val_start, c_start.copy()
    c = best_c.copy()
    cbar = c.copy()
    gap = np.inf
    w_feas = np.zeros_like(g0)
    converged = False
    c_prev, w_prev = c, w

    for it in range(1, opts.max_iter + 1):
        w = project_primal_ball(norm, w + sigma * (columns @ cbar + g0), 1.0)
        c_new = c - tau * (columns.T @ w)
        cbar = 2.0 * c_new - c
        c = c_new
        if it % opts.check_every == 0 or it == opts.max_iter:
            val = dual_norm_value(norm, g0 + columns @ c)
            if val < best_val:
                best_val = val
                best_c = c.copy()
            gap, w_feas = _certified_gap(norm, g0, q_im, best_val, w)
            if gap <= opts.tol * (1.0 + abs(best_val)):
                converged = True
                break
            if it >= adapt_from:
                dc = np.linalg.norm(c - c_prev)
                dw = np.linalg.norm(w - w_prev)
                if dc > 0 and dw > 0:
                    omega = float(_next_weight(omega, dw, dc))
                    cbar = c
                    tau, sigma = step / omega, step * omega
            c_prev, w_prev = c, w

    return best_c, best_val, max(float(gap), 0.0), converged, w_feas


def minimize_ic_full(
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    T: Subspace,
    e,
    opts: SolverOptions | None = None,
    ctx: ICContext | None = None,
) -> ICSolution:
    """Minimize the irrepresentability coefficient over both feasible blocks.

    u ranges over ker(L_S) and z over the preimage parametrization of
    { z : Phi^* z in Im(L_S) }; both are reduced to orthonormal coordinates.
    """
    opts = opts or SolverOptions()
    ctx = ctx or ic_context(phi, l_op, T)
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.shape[0] != l_op.cols:
        raise ValueError(f"e has length {e.shape[0]}, expected {l_op.cols}")
    g0 = ctx.gamma @ e
    cols_z = ctx.ls_pinv_phi_adj @ ctx.z_space.basis
    columns = np.hstack([ctx.cols_u, cols_z])
    c, value, gap, converged, _ = _min_dual_norm_affine(norm, g0, columns, opts)
    k1 = ctx.cols_u.shape[1]
    u = ctx.ker_ls.basis @ c[:k1] if k1 else np.zeros(l_op.cols)
    z = ctx.z_space.basis @ c[k1:] if c[k1:].size else np.zeros(phi.rows)
    return ICSolution(u=u, z=z, value=value, gap=gap, converged=converged)


def minimize_ic_u(
    phi: LinearOperator,
    l_op: LinearOperator,
    norm: DecomposableNorm,
    T: Subspace,
    e,
    opts: SolverOptions | None = None,
    ctx: ICContext | None = None,
) -> ICSolution:
    """Minimize the irrepresentability coefficient over u alone (z fixed to 0)."""
    opts = opts or SolverOptions()
    ctx = ctx or ic_context(phi, l_op, T)
    e = np.asarray(e, dtype=float).reshape(-1)
    if e.shape[0] != l_op.cols:
        raise ValueError(f"e has length {e.shape[0]}, expected {l_op.cols}")
    g0 = ctx.gamma @ e
    c, value, gap, converged, _ = _min_dual_norm_affine(norm, g0, ctx.cols_u, opts)
    u = ctx.ker_ls.basis @ c if c.size else np.zeros(l_op.cols)
    return ICSolution(u=u, z=np.zeros(phi.rows), value=value, gap=gap, converged=converged)
