"""Scenario generation and the verification harness.

A scenario bundles a measurement operator, an analysis operator, a norm, a
structured signal and a noise-level schedule, all drawn deterministically
from one seed.  ``analyze_scenario`` runs once the stages that the sweep,
``certify`` and ``check-uniqueness`` read: model context, certificate, IC
chain and null-space verdict.  The harness adds the stability constants,
solves the penalized problem at lambda = c * eps for every noise level and
noise draw (each distinct problem once; the noisy ones in one batch, or,
when phi has a kernel, one batch per level warm-started at the level above;
the noiseless one at a vanishing penalty, by a certified polish of the
smallest-lambda solution), checks the bounds once per distinct solve, and
writes the observed-versus-bound table as CSV, a text summary and a plot.

A reference oracle for tiny instances provides certified objective values
independent of the primal-dual solver: quasi-Newton descent on the objective
with the norm smoothed at a decreasing parameter, then a polish on the
models read off that point and on a brute-force enumeration of models.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .certificates import (
    DualCertificate, build_certificate, certificate_quality, write_certificate_csv
)
from .guarantees import (
    BoundCheckReport,
    UniquenessVerdict,
    stability_constants,
    strong_nsp_check,
    uniqueness_from_certificate,
    verify_bounds,
)
from .linops import (
    LinearOperator,
    Subspace,
    kernel_basis,
    numerical_rank,
    read_operator_csv,
)
from .norms import (
    DecomposableNorm,
    _block_norms,
    DecompositionModel,
    bregman,
    decompose_at,
    norm_from_config,
    norm_subgradient,
    norm_value,
)
from .solver import (
    Problem,
    SolveReport,
    SolverOptions,
    ICContext,
    _min_dual_norm_affine,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized,
    solve_penalized_many,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioAnalysis",
    "ScenarioResult",
    "difference_operator_1d",
    "difference_operator_2d",
    "parseval_frame_analysis",
    "noise_in_ball",
    "vanishing_penalty",
    "solve_vanishing",
    "solve_trials",
    "first_order_residual",
    "generate_scenario",
    "analyze_scenario",
    "oracle_solve",
    "run_scenario",
]

RESULTS_HEADER = (
    "trial,epsilon,c,observed_pred,bound_pred,observed_bregman,bound_bregman,"
    "observed_ls0,bound_ls0,observed_l2,bound_l2,pass_all"
)

SIGNAL_AMPLITUDE = 3.0


class ConfigError(ValueError):
    """Invalid scenario configuration; maps to exit code 2 in the CLI."""


def difference_operator_1d(n: int) -> LinearOperator:
    """Forward differences: (n-1) x n matrix with rows (-1, 1, 0, ...)."""
    if n < 2:
        raise ConfigError("1-d differences need n >= 2")
    return LinearOperator(np.eye(n - 1, n, 1) - np.eye(n - 1, n))


def difference_operator_2d(height: int, width: int) -> LinearOperator:
    """Stacked forward differences on an height x width grid.

    Pixels are indexed row-major; all horizontal differences come first,
    then all vertical ones, for 2 h w - h - w rows total.
    """
    if height < 1 or width < 1 or height * width < 2:
        raise ConfigError("2-d differences need a grid with at least two pixels")
    d_h = np.eye(height - 1, height, 1) - np.eye(height - 1, height)
    d_w = np.eye(width - 1, width, 1) - np.eye(width - 1, width)
    # + 0.0 turns the Kronecker products' negative zeros into zeros
    rows = np.vstack([np.kron(np.eye(height), d_w), np.kron(d_h, np.eye(width))])
    return LinearOperator(rows + 0.0)


def parseval_frame_analysis(p: int, n: int, rng: np.random.Generator) -> LinearOperator:
    """Random Parseval frame analysis operator: p x n with orthonormal columns."""
    if p < n:
        raise ConfigError("a frame needs p >= n")
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return LinearOperator(q[:, :n])


def noise_in_ball(rng: np.random.Generator, m: int, eps: float) -> np.ndarray:
    """Noise drawn uniformly over radii in the eps-ball: a Gaussian direction
    rescaled to radius u * eps with u uniform on [0, 1]."""
    if eps == 0.0:
        return np.zeros(m)
    g = rng.standard_normal(m)
    ng = np.linalg.norm(g)
    while ng == 0.0:
        g = rng.standard_normal(m)
        ng = np.linalg.norm(g)
    return g * (float(rng.uniform()) * eps / ng)


def vanishing_penalty(phi: LinearOperator, y: np.ndarray) -> float:
    """Stand-in penalty for the noiseless case.

    Small enough that the minimizer sits within verification slack of the
    generating signal, yet large enough that a solver run with a suitably
    tightened tolerance still resolves the norm structure (the stopping
    threshold must stay well below lambda)."""
    return 1e-8 * (1.0 + float(np.linalg.norm(phi.entries.T @ y)))


@dataclass
class ScenarioConfig:
    seed: int
    m: int
    n: int
    p: int
    norm: DecomposableNorm
    phi_kind: str = "gaussian"
    phi_path: str | None = None
    l_kind: str = "identity"
    l_path: str | None = None
    l_height: int | None = None
    l_width: int | None = None
    signal_kind: str = "analysis_sparse"
    signal_active: int = 1
    signal_rank: int = 1
    signal_x0: tuple[float, ...] | None = None
    epsilons: tuple[float, ...] = (0.01,)
    coupling_c: float = 1.0
    noise_draws: int = 1
    certificate_mode: str = "full"
    frame_mode: bool = False
    plot: bool = True
    tol: float = 1e-9
    max_iter: int = 200_000

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.p < 1:
            raise ConfigError("dimensions must be positive")
        if self.norm.ambient_dim != self.p:
            raise ConfigError(
                f"norm lives on R^{self.norm.ambient_dim} but p = {self.p}"
            )
        eps = tuple(float(e) for e in self.epsilons)
        if not all(0 <= e < math.inf for e in eps):
            raise ConfigError("epsilons must be finite and nonnegative")
        if list(eps) != sorted(eps):
            raise ConfigError("epsilons must be ascending")
        self.epsilons = eps
        if self.phi_kind not in ("gaussian", "identity", "convolution", "from_file"):
            raise ConfigError(f"unknown phi kind {self.phi_kind!r}")
        if self.l_kind not in ("identity", "tv1d", "tv2d", "tight_frame", "from_file"):
            raise ConfigError(f"unknown l kind {self.l_kind!r}")
        if self.phi_kind in ("identity", "convolution") and self.m != self.n:
            raise ConfigError(f"{self.phi_kind} measurements need m == n")
        if self.l_kind == "identity" and self.p != self.n:
            raise ConfigError("identity analysis operator needs p == n")
        if self.l_kind == "tv1d" and self.p != self.n - 1:
            raise ConfigError("tv1d needs p == n - 1")
        if self.l_kind == "tv2d":
            h, w = self.l_height, self.l_width
            if not h or not w:
                raise ConfigError("tv2d needs height and width")
            if self.n != h * w:
                raise ConfigError("tv2d needs n == height * width")
            if self.p != 2 * h * w - h - w:
                raise ConfigError("tv2d needs p == 2 h w - h - w")
        if self.l_kind == "tight_frame" and self.p < self.n:
            raise ConfigError("tight_frame needs p >= n")
        if self.signal_kind not in ("analysis_sparse", "low_rank", "explicit"):
            raise ConfigError(f"unknown signal kind {self.signal_kind!r}")
        if self.signal_kind == "explicit":
            if self.signal_x0 is None or len(self.signal_x0) != self.n:
                raise ConfigError("explicit signal needs an x0 of length n")
        if self.signal_active < 0:
            raise ConfigError("signal.active must be nonnegative")
        if self.signal_rank < 1:
            raise ConfigError("signal.rank must be at least 1")
        if self.noise_draws < 1:
            raise ConfigError("noise_draws must be at least 1")
        if self.certificate_mode not in ("full", "u_only", "zero"):
            raise ConfigError(f"unknown certificate mode {self.certificate_mode!r}")
        for flag in ("frame_mode", "plot"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigError(f"{flag} must be true or false")
        if not 0 < self.coupling_c < math.inf:
            raise ConfigError("coupling_c must be positive and finite")
        if not 0 < self.tol < math.inf:
            raise ConfigError("solver.tol must be positive and finite")
        if self.max_iter < 1:
            raise ConfigError("solver max_iter must be at least 1")

    @classmethod
    def from_config(cls, cfg: dict) -> "ScenarioConfig":
        try:
            dims = cfg["dims"]
            norm_cfg = dict(cfg["norm"])
            if norm_cfg.get("kind") == "l1" and "dim" not in norm_cfg:
                norm_cfg["dim"] = int(dims["p"])
            phi_cfg = cfg.get("phi", {"kind": "gaussian"})
            l_cfg = cfg.get("l", {"kind": "identity"})
            signal = cfg.get("signal", {"kind": "analysis_sparse", "active": 1})
            solver = cfg.get("solver", {})
            x0 = signal.get("x0")
            return cls(
                seed=int(cfg.get("seed", 0)),
                m=int(dims["m"]),
                n=int(dims["n"]),
                p=int(dims["p"]),
                norm=norm_from_config(norm_cfg),
                phi_kind=phi_cfg.get("kind", "gaussian"),
                phi_path=phi_cfg.get("path"),
                l_kind=l_cfg.get("kind", "identity"),
                l_path=l_cfg.get("path"),
                l_height=l_cfg.get("height"),
                l_width=l_cfg.get("width"),
                signal_kind=signal.get("kind", "analysis_sparse"),
                signal_active=int(signal.get("active", 1)),
                signal_rank=int(signal.get("rank", 1)),
                signal_x0=tuple(x0) if x0 is not None else None,
                epsilons=tuple(cfg.get("epsilons", [0.01])),
                coupling_c=float(cfg.get("coupling_c", 1.0)),
                noise_draws=int(cfg.get("noise_draws", 1)),
                certificate_mode=cfg.get("certificate_mode", "full"),
                frame_mode=cfg.get("frame_mode", False),
                plot=cfg.get("plot", True),
                tol=float(solver.get("tol", 1e-9)),
                max_iter=int(solver.get("max_iter", 200_000)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad scenario config: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            cfg = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_config(cfg)


def _build_phi(cfg: ScenarioConfig, rng: np.random.Generator) -> LinearOperator:
    if cfg.phi_kind == "gaussian":
        return LinearOperator(rng.standard_normal((cfg.m, cfg.n)) / math.sqrt(cfg.m))
    if cfg.phi_kind == "identity":
        return LinearOperator(np.eye(cfg.n))
    if cfg.phi_kind == "convolution":
        taps = rng.standard_normal(max(3, cfg.n // 4))
        taps /= np.linalg.norm(taps)
        i, k = np.divmod(np.arange(cfg.n * taps.size), taps.size)
        mat = np.zeros((cfg.n, cfg.n))
        np.add.at(mat, (i, (i + k) % cfg.n), taps[k])
        return LinearOperator(mat)
    op = read_operator_csv(cfg.phi_path)
    if op.rows != cfg.m or op.cols != cfg.n:
        raise ConfigError(
            f"phi from {cfg.phi_path} is {op.rows}x{op.cols}, expected {cfg.m}x{cfg.n}"
        )
    return op


def _build_l_adjoint(cfg: ScenarioConfig, rng: np.random.Generator) -> LinearOperator:
    """The analysis operator L^*: p x n."""
    if cfg.l_kind == "identity":
        return LinearOperator(np.eye(cfg.n))
    if cfg.l_kind == "tv1d":
        return difference_operator_1d(cfg.n)
    if cfg.l_kind == "tv2d":
        return difference_operator_2d(cfg.l_height, cfg.l_width)
    if cfg.l_kind == "tight_frame":
        return parseval_frame_analysis(cfg.p, cfg.n, rng)
    op = read_operator_csv(cfg.l_path)
    if op.rows != cfg.p or op.cols != cfg.n:
        raise ConfigError(
            f"l from {cfg.l_path} is {op.rows}x{op.cols}, expected {cfg.p}x{cfg.n}"
        )
    return op


def _zero_rows_for(cfg: ScenarioConfig, rng: np.random.Generator) -> list[int]:
    """Analysis rows forced to zero so the active set has the requested size:
    whole blocks of an l1 or group norm, single rows for the nuclear norm."""
    blocks = cfg.norm.blocks or [(i,) for i in range(cfg.p)]
    if cfg.signal_active > len(blocks):
        raise ConfigError("requested active set exceeds the number of analysis blocks")
    inactive = rng.choice(len(blocks), size=len(blocks) - cfg.signal_active, replace=False)
    return sorted(i for b in inactive for i in blocks[int(b)])


def _active_count(norm: DecomposableNorm, model) -> int:
    return len(model.active) if model.active is not None else model.T.dim


def _build_signal(
    cfg: ScenarioConfig,
    rng: np.random.Generator,
    l_adjoint: LinearOperator,
    norm: DecomposableNorm,
) -> np.ndarray:
    if cfg.signal_kind == "explicit":
        return np.asarray(cfg.signal_x0, dtype=float)

    if cfg.signal_kind == "low_rank":
        if norm.kind != "nuclear":
            raise ConfigError("low_rank signals require the nuclear norm")
        nr, nc = norm.shape
        r = cfg.signal_rank
        if r > min(nr, nc):
            raise ConfigError("requested rank exceeds the matrix shape")
        for _ in range(50):
            x_mat = rng.standard_normal((nr, r)) @ rng.standard_normal((r, nc))
            u0 = x_mat.reshape(-1, order="F")
            u0 *= SIGNAL_AMPLITUDE / np.linalg.norm(u0)
            x0, *_ = np.linalg.lstsq(l_adjoint.entries, u0, rcond=None)
            if np.linalg.norm(l_adjoint.apply(x0) - u0) > 1e-8 * (1 + np.linalg.norm(u0)):
                raise ConfigError("requested low-rank pattern is not an analysis image")
            s = np.linalg.svd(u0.reshape(norm.shape, order="F"), compute_uv=False)
            if numerical_rank(s, 1e-8) == r:
                return x0
        raise ConfigError("could not realize the requested rank")

    # analysis-sparse signal: zero out chosen analysis rows, draw from the kernel
    for _ in range(50):
        zero_rows = _zero_rows_for(cfg, rng)
        if zero_rows:
            rows = l_adjoint.entries[zero_rows, :]
            ker = kernel_basis(LinearOperator(rows))
            if ker.dim == 0:
                continue
            x0 = ker.basis @ rng.standard_normal(ker.dim)
        else:
            x0 = rng.standard_normal(cfg.n)
        nx = np.linalg.norm(x0)
        if nx == 0.0:
            continue
        x0 *= SIGNAL_AMPLITUDE / nx
        model = decompose_at(norm, l_adjoint.apply(x0))
        if _active_count(norm, model) == cfg.signal_active:
            return x0
    raise ConfigError("could not realize the requested model dimension")


def generate_scenario(cfg: ScenarioConfig):
    """Deterministically build (phi, l_op, norm, x0, y_per_epsilon) from the seed."""
    rng = np.random.default_rng(cfg.seed)
    phi = _build_phi(cfg, rng)
    l_adjoint = _build_l_adjoint(cfg, rng)
    l_op = l_adjoint.T
    x0 = _build_signal(cfg, rng, l_adjoint, cfg.norm)
    clean = phi.apply(x0)
    ys = [clean + noise_in_ball(rng, cfg.m, eps) for eps in cfg.epsilons]
    return phi, l_op, cfg.norm, x0, ys


def _polish_on_model(p: Problem, model, x_ref: np.ndarray) -> np.ndarray:
    """Minimize the objective restricted to { x : L^* x in T }.

    For the l1 norm the restricted objective is quadratic plus linear and is
    solved in closed form; otherwise the restricted problem is smooth near a
    model-consistent point, and a quasi-Newton polish and a root of its
    gradient finish the job.
    """
    t_perp = model.T.complement()
    constraint = t_perp.projector_matrix() @ p.l_adjoint.entries
    basis = kernel_basis(LinearOperator(constraint)).basis
    if basis.shape[1] == 0:
        return np.zeros(p.phi.cols)

    if p.norm.kind == "l1":
        a = p.phi.entries @ basis
        rhs = a.T @ p.y - p.lam * basis.T @ (p.l_adjoint.entries.T @ model.e)
        coef = np.linalg.pinv(a.T @ a, rcond=1e-12) @ rhs
        return basis @ coef

    from scipy import optimize

    def fun(c):
        return p.objective(basis @ c)

    def jac(c):
        x = basis @ c
        sg = norm_subgradient(p.norm, p.l_adjoint.apply(x))
        grad = p.phi.entries.T @ (p.phi.apply(x) - p.y) + p.lam * (
            p.l_adjoint.entries.T @ sg
        )
        return basis.T @ grad

    res = optimize.minimize(
        fun,
        basis.T @ x_ref,
        jac=jac,
        method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    # the line search stalls where objective differences reach rounding,
    # about 1e-8 from the minimizer; a root of the gradient goes the rest,
    # unless its objective is higher beyond rounding
    root = optimize.root(jac, res.x)
    ok = fun(root.x) <= res.fun + 1e-15 * (1.0 + abs(res.fun))
    return basis @ (root.x if ok else res.x)


def _certified_residual(p: Problem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """``first_order_residual`` and the subgradient candidate it comes from."""
    u = p.l_adjoint.apply(x)
    l_mat = p.l_adjoint.entries.T
    r0 = p.phi.entries.T @ (p.phi.apply(x) - p.y)
    models = [decompose_at(p.norm, u, tol=thr) for thr in (1e-8, 1e-6, 1e-3)]
    # relative thresholds never read a nearly-zero u as zero; the model
    # T = {0} has the largest program, so it is tried only where u is tiny
    if np.linalg.norm(u) <= 1e-8 * (1.0 + float(np.linalg.norm(p.phi.entries.T @ p.y))):
        models.append(decompose_at(p.norm, np.zeros_like(u)))
    bounds = []
    for i, model in enumerate(models):
        if i and np.array_equal(model.e, models[i - 1].e):
            continue  # the models only shrink, so a repeat follows its twin
        b = model.T.complement().basis
        us, s, vt = np.linalg.svd(l_mat @ b, full_matrices=True)
        rank = numerical_rank(s)
        rhs = us[:, :rank].T @ -(r0 / p.lam + l_mat @ model.e)
        beta_p = b @ (vt[:rank].T @ (rhs / s[:rank]))
        kernel = b @ vt[rank:].T
        c, value, *_ = _min_dual_norm_affine(p.norm, beta_p, kernel, SolverOptions())
        alpha = model.e + (beta_p + kernel @ c) / max(value, 1.0)
        gap = max(norm_value(p.norm, u) - float(alpha @ u), 0.0)
        bounds.append((float(np.linalg.norm(r0 + p.lam * (l_mat @ alpha))) + p.lam * gap, alpha))
    return min(bounds, key=lambda bound: bound[0])


def first_order_residual(p: Problem, x: np.ndarray) -> float:
    """Certified upper bound on the first-order violation at x.

    x is a minimizer exactly when Phi^*(y - Phi x) / lam = L (e + beta) with
    beta in S = T^perp of dual norm at most 1, the source condition.  For the
    models of L^* x at thresholds 1e-8, 1e-6 and 1e-3, and T = {0} when
    ||L^* x|| <= 1e-8 (1 + ||Phi^* y||), one SVD of L B (B a basis of S) and
    the shared affine dual-norm program give the beta of least dual norm,
    scaled into the unit ball.  Returns the least
    ||r0 + lam L alpha|| + lam (||u|| - <alpha, u>), r0 = Phi^*(Phi x - y);
    every such beta bounds it, so an early stop of the program stays honest.
    """
    return _certified_residual(p, x)[0]


def _certified(p: Problem, x: np.ndarray, obj: float, iterations: int, tol: float) -> SolveReport:
    """The report on x, converged when ``first_order_residual`` is at most
    tol (1 + ||Phi^* y||), the solver's own rule."""
    resid = first_order_residual(p, x)
    scale = 1.0 + float(np.linalg.norm(p.phi.entries.T @ p.y))
    return SolveReport(x, obj, resid, iterations, bool(resid <= tol * scale), p)


def _polished(
    p: Problem, x: np.ndarray, extra=(), ties: bool = False
) -> tuple[np.ndarray, float]:
    """The lowest-objective point, and its objective, among x and its polishes
    on the models read off x at thresholds 1e-1 to 1e-4 and on ``extra``;
    with ``ties`` a polish that ties the best replaces it."""
    best_x, best_obj = x, p.objective(x)
    u = p.l_adjoint.apply(x)
    seen = set()
    for model in [*(decompose_at(p.norm, u, tol=t) for t in (1e-1, 1e-2, 1e-3, 1e-4)), *extra]:
        if (key := (model.e.tobytes(), model.T.basis.tobytes())) in seen:
            continue  # the same model polishes to the same point
        seen.add(key)
        cand = _polish_on_model(p, model, x)
        if (obj := p.objective(cand)) < best_obj or (ties and obj == best_obj):
            best_x, best_obj = cand, obj
    return best_x, best_obj


def solve_vanishing(
    problem: Problem, opts: SolverOptions, start: np.ndarray | None = None
) -> SolveReport:
    """Solve one problem at a vanishing penalty by a certified model polish.

    A ``start`` (a sweep passes its smallest-lambda solution, which usually
    identifies the model) is polished and returned with zero iterations when
    that certifies.  Otherwise, since splitting from zero crawls along
    ker(phi) at tiny lambda, a continuation of ``solve_penalized`` stages
    runs, lambda falling by factors of ten from 0.01 (1 + ||Phi^* y||), each
    warm-started at the last.  Its end point is polished the same way, then,
    while no polish certifies, the earlier stages' points from the last one
    backwards: where the minimal-norm pre-certificate fails, the small-lambda
    points carry O(lambda) entries off the support that no threshold reads
    as zero.  The first certified report is returned, ``iterations``
    counting its stage; when none certifies, the last stage's report with
    ``converged`` False.
    """
    if start is not None and (
        report := _certified(problem, *_polished(problem, start), 0, opts.tol)
    ).converged:
        return report
    scale = 1.0 + float(np.linalg.norm(problem.phi.entries.T @ problem.y))
    lams = []
    lam = 0.01 * scale
    while lam > problem.lam * 5.0:
        lams.append(lam)
        lam *= 0.1
    lams.append(problem.lam)

    stages = []
    for lam in lams:
        init = stages[-1].x_star if stages else None
        stages.append(solve_penalized(problem.with_data(problem.y, lam), replace(opts, init=init)))
    reports = (
        _certified(problem, *_polished(problem, s.x_star), s.iterations, opts.tol)
        for s in reversed(stages)
    )
    last = next(reports)
    return last if last.converged else next((r for r in reports if r.converged), last)


def solve_trials(
    phi: LinearOperator,
    l_adjoint: LinearOperator,
    norm: DecomposableNorm,
    trials: list[tuple[float, np.ndarray]],
    coupling_c: float,
    opts: SolverOptions,
) -> list[SolveReport]:
    """Solve the penalized problem for every (eps, y) trial, in trial order.

    Each distinct (y, lambda) is solved once and its report is shared by
    every trial with that data; the noiseless trials of a sweep are all one
    problem, since their noise is zero.  All problems share phi, l_adjoint
    and norm, and the eps > 0 ones at lambda = c * eps are solved first.
    When phi is injective they are one ``solve_penalized_many`` run from
    ``opts.init``.  Otherwise splitting from zero crawls along ker(phi),
    where only the penalty acts, and most at small lambda; so the problems
    are grouped into levels of equal lambda and solved as a continuation,
    one run per level in descending lambda, each started at the first
    solution of the level above.  Then each eps = 0 problem is solved by
    ``solve_vanishing`` started at the first smallest-lambda solution.

    ``converged`` says that ||Phi^*(Phi x - y) + lam L alpha||
    + lam (||L^* x|| - <alpha, L^* x>) is at most tol (1 + ||Phi^* y||) for
    some alpha in the unit dual ball, an upper bound on the first-order
    violation either way: an eps > 0 report takes the batched solver's
    projected dual iterate as alpha, an eps = 0 report the alpha of
    ``first_order_residual``.
    """
    problems: dict[tuple, Problem] = {}
    keys = []
    for eps, y in trials:
        y = np.asarray(y, dtype=float).reshape(-1)
        lam = coupling_c * eps if eps > 0 else vanishing_penalty(phi, y)
        # the regime decides the solver, the data decide the problem
        key = (eps > 0, lam, y.tobytes())
        if key not in problems:
            problems[key] = (
                next(iter(problems.values())).with_data(y, lam) if problems
                else Problem(phi=phi, l_adjoint=l_adjoint, norm=norm, y=y, lam=lam)
            )
        keys.append(key)
    noisy = [key for key in problems if key[0]]
    levels = [noisy] if noisy else []
    if noisy and kernel_basis(phi).dim > 0:
        lams = sorted({k[1] for k in noisy}, reverse=True)
        levels = [[k for k in noisy if k[1] == lam] for lam in lams]
    solved: dict[tuple, SolveReport] = {}
    init = opts.init
    for level in levels:
        reports = solve_penalized_many([problems[k] for k in level], replace(opts, init=init))
        solved.update(zip(level, reports))
        init = reports[0].x_star
    start = solved[min(noisy, key=lambda k: k[1])].x_star if noisy else None
    solved.update(
        (k, solve_vanishing(p, opts, start=start)) for k, p in problems.items() if not k[0]
    )
    return [solved[key] for key in keys]


def _enumerated_models(p: Problem, x_ref: np.ndarray) -> list[DecompositionModel]:
    """Brute-force candidate models for the oracle's polish, independent of
    any active-set detection.

    T = {0}, which relative thresholds never read off a nonzero point; every
    sign pattern for l1 when there are at most 1,000; every block subset for
    the group norm; the full rank sweep of the reference point for the
    nuclear norm.
    """
    pdim = p.norm.ambient_dim
    models = [decompose_at(p.norm, np.zeros(pdim))]
    if p.norm.kind == "l1" and 3**pdim <= 1000:
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=pdim):
            support = [i for i, s in enumerate(pattern) if s]
            T = Subspace.from_coordinates(pdim, support)
            models.append(DecompositionModel(T=T, e=np.array(pattern), active=tuple(support)))
    elif p.norm.kind == "group":
        nblocks = len(p.norm.blocks)
        for mask in range(1, 2**nblocks):
            chosen = [b for b in range(nblocks) if mask >> b & 1]
            T = Subspace.from_coordinates(pdim, [i for b in chosen for i in p.norm.blocks[b]])
            models.append(DecompositionModel(T=T, e=np.zeros(pdim), active=tuple(chosen)))
    elif p.norm.kind == "nuclear":
        u_ref = p.l_adjoint.apply(x_ref)
        s = np.linalg.svd(u_ref.reshape(p.norm.shape, order="F"), compute_uv=False)
        # a threshold between each pair of distinct consecutive singular values
        models += [
            decompose_at(p.norm, u_ref, tol=0.5 * (a + b) / s[0])
            for a, b in zip(s, np.append(s[1:], 0.0))
            if a > b
        ]
    return models


def _smoothed(p: Problem, mu: float):
    """The objective with every atom a of the norm (the block norms for l1
    and group, the singular values for nuclear) replaced by
    sqrt(a^2 + mu^2), as a function returning its value and gradient."""

    def fun(x):
        u = p.l_adjoint.apply(x)
        r = p.phi.apply(x) - p.y
        if p.norm.kind == "nuclear":
            uu, a, vt = np.linalg.svd(u.reshape(p.norm.shape, order="F"), full_matrices=False)
            h = np.sqrt(a * a + mu * mu)
            g = ((uu * (a / h)) @ vt).reshape(-1, order="F")
        else:
            h = np.sqrt(_block_norms(p.norm, u[:, None])[:, 0] ** 2 + mu * mu)
            g = u / h[p.norm._block_of]
        grad = p.phi.entries.T @ r + p.lam * (p.l_adjoint.entries.T @ g)
        return 0.5 * float(r @ r) + p.lam * float(h.sum()), grad

    return fun


def oracle_solve(p: Problem) -> SolveReport:
    """High-precision reference minimizer for tiny instances, independent of
    the primal-dual solver.

    BFGS minimizes the smoothed objective (each atom a of the norm replaced
    by sqrt(a^2 + mu^2)) at mu = 1e-2, 1e-4, 1e-6 and 1e-8, each run started
    at the last.  That point is polished on its models and on a brute-force
    enumeration of model patterns, the best polish is polished again on its
    own models (a tie replaces it), and the result is certified.  Only
    instances with N <= 8 and P <= 8 are accepted; ``converged`` is the
    certified residual's verdict at the default tol.
    """
    if p.phi.cols > 8 or p.norm.ambient_dim > 8:
        raise ValueError("oracle restricted to tiny instances (N <= 8, P <= 8)")
    from scipy import optimize

    x = np.zeros(p.phi.cols)
    for mu in (1e-2, 1e-4, 1e-6, 1e-8):
        x = optimize.minimize(_smoothed(p, mu), x, jac=True, method="BFGS").x
    x, _ = _polished(p, x, extra=_enumerated_models(p, x))
    return _certified(p, *_polished(p, x, ties=True), 0, SolverOptions().tol)


@dataclass
class ScenarioAnalysis:
    """The stages the sweep, ``certify`` and ``check-uniqueness`` read.  If the
    certificate fails, ``failure`` says why and the later stages are None."""

    scenario: tuple  # generate_scenario's (phi, l_op, norm, x0, ys)
    model: DecompositionModel  # (T0, e0) at L^* x0
    opts: SolverOptions
    ctx: ICContext | None
    cert: DualCertificate | None
    failure: str | None
    chain: tuple[float, float, float] | None  # IC values (joint, u-only, zero)
    nsp: UniquenessVerdict
    cert_verdict: UniquenessVerdict | None


def analyze_scenario(cfg: ScenarioConfig) -> ScenarioAnalysis:
    """Generate the scenario and run each stage the subcommands share, once."""
    phi, l_op, norm, x0, _ = scenario = generate_scenario(cfg)
    model = decompose_at(norm, l_op.T.apply(x0))
    opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
    try:
        ctx = ic_context(phi, l_op, model.T)
        cert = build_certificate(ctx, norm, model.e, mode=cfg.certificate_mode, opts=opts)
    except ValueError as exc:
        # the null-space check needs no restricted injectivity
        nsp = strong_nsp_check(phi, l_op, model.T, model.e, norm, opts)
        return ScenarioAnalysis(scenario, model, opts, None, None, str(exc), None, nsp, None)
    ic_00 = ic_value(ctx, norm, model.e, np.zeros(cfg.p), np.zeros(cfg.m))
    # the certificate already solved the program of its own mode
    if cfg.certificate_mode == "u_only":
        ic_u = cert.ic_value
    else:
        ic_u = minimize_ic_u(ctx, norm, model.e, opts).value
    if cfg.certificate_mode == "full":
        joint = (cert.ic_value, cert.ic_gap)
    else:
        sol = minimize_ic_full(ctx, norm, model.e, opts)
        joint = (sol.value, sol.gap)
    nsp = strong_nsp_check(phi, l_op, model.T, model.e, norm, opts, joint=joint)
    verdict = uniqueness_from_certificate(cert, ctx.c_phi)
    chain = (joint[0], ic_u, ic_00)
    return ScenarioAnalysis(scenario, model, opts, ctx, cert, None, chain, nsp, verdict)


@dataclass
class ScenarioResult:
    exit_code: int
    rows: list[tuple]
    reports: list[BoundCheckReport]
    results_path: Path | None
    summary_path: Path | None
    plot_path: Path | None


def _write_results_csv(path: Path, rows: list[tuple]) -> None:
    lines = [RESULTS_HEADER] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_error_plot(path: Path, points: list[tuple[float, float]], total_c: float) -> None:
    """Log-log scatter of observed error against noise level with the C * eps
    line; plain hand-written SVG so the output is byte-deterministic."""
    pts = [(e, max(err, 1e-16)) for e, err in points if e > 0]
    if not pts:
        path.write_text("<svg xmlns='http://www.w3.org/2000/svg'/>\n")
        return
    xs = [math.log10(e) for e, _ in pts]
    ys = [math.log10(err) for _, err in pts] + [
        math.log10(total_c * e) for e, _ in pts
    ]
    x_lo, x_hi = min(xs) - 0.2, max(xs) + 0.2
    y_lo, y_hi = min(ys) - 0.4, max(ys) + 0.4
    width, height, margin = 480.0, 360.0, 50.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width:.0f}' height='{height:.0f}'>",
        f"<rect width='{width:.0f}' height='{height:.0f}' fill='white'/>",
        f"<line x1='{margin}' y1='{height - margin}' x2='{width - margin}' "
        f"y2='{height - margin}' stroke='black'/>",
        f"<line x1='{margin}' y1='{margin}' x2='{margin}' y2='{height - margin}' "
        "stroke='black'/>",
        "<text x='200' y='350' font-size='12'>log10 noise level</text>",
        "<text x='8' y='180' font-size='12' transform='rotate(-90 14 180)'>"
        "log10 error</text>",
    ]
    line_pts = " ".join(
        f"{sx(math.log10(e)):.2f},{sy(math.log10(total_c * e)):.2f}"
        for e, _ in sorted(set(pts))
    )
    parts.append(
        f"<polyline points='{line_pts}' fill='none' stroke='crimson' stroke-width='1.5'/>"
    )
    for e, err in pts:
        parts.append(
            f"<circle cx='{sx(math.log10(e)):.2f}' cy='{sy(math.log10(err)):.2f}' "
            "r='3' fill='steelblue'/>"
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def run_scenario(cfg: ScenarioConfig, out_dir) -> ScenarioResult:
    """Full pipeline: ``analyze_scenario``, then constants, solves, bound
    checks, reports.

    Writes results.csv, summary.txt, certificate.csv and (optionally)
    error_vs_eps.svg into ``out_dir``.  The exit code is 1 exactly when some
    bound check with valid preconditions fails on a converged solve; a trial
    whose solve did not converge within ``max_iter`` never sets it, reads
    False in the ``pass_all`` column, and the summary counts such trials on
    its ``unconverged trials`` line.  Stage failures (no certificate,
    saturated certificate) are recorded in the summary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    analysis = analyze_scenario(cfg)
    phi, l_op, norm, x0, ys = analysis.scenario
    ctx, cert, solver_opts = analysis.ctx, analysis.cert, analysis.opts

    summary: list[str] = []
    summary.append(f"seed {cfg.seed}  dims m={cfg.m} n={cfg.n} p={cfg.p}")
    summary.append(f"norm {norm.kind}  model dim {analysis.model.T.dim}")

    rows: list[tuple] = []
    reports: list[BoundCheckReport] = []
    plot_points: list[tuple[float, float]] = []
    exit_code = 0

    if cert is None:
        summary.append(f"certificate failed: {analysis.failure}")
        summary.append(f"strong nsp verdict: {analysis.nsp.status}")
        (out / "summary.txt").write_text("\n".join(summary) + "\n")
        return ScenarioResult(0, rows, reports, None, out / "summary.txt", None)

    write_certificate_csv(cert, out / "certificate.csv")
    summary.append(f"certificate mode {cfg.certificate_mode}")
    summary.append(f"saturation {cert.saturation!r}")
    summary.append(f"quality {certificate_quality(cert)!r}")
    summary.append(f"source_residual {cert.source_residual!r}")
    summary.append(f"ic program gap {cert.ic_gap!r} converged {cert.ic_converged}")
    summary.append("ic chain (joint, u-only, zero): " + " ".join(map(repr, analysis.chain)))
    summary.append(f"strong nsp verdict: {analysis.nsp.status}")
    summary.append(f"certificate uniqueness verdict: {analysis.cert_verdict.status}")

    try:
        bound = stability_constants(ctx, norm, cert, cfg.coupling_c, frame=cfg.frame_mode)
    except ValueError as exc:
        summary.append(f"stability constants unavailable: {exc}")
        (out / "summary.txt").write_text("\n".join(summary) + "\n")
        return ScenarioResult(0, rows, reports, None, out / "summary.txt", None)

    summary.append(
        "constants: "
        f"c_phi={bound.c_phi!r} c_l={bound.c_l!r} c_a={bound.c_a!r} "
        f"phi_norm={bound.phi_norm!r} C1={bound.c1!r} C2={bound.c2!r} "
        f"C={bound.total_c!r}"
    )

    # raises unless alpha is a subgradient at u0, which every bound check assumes
    u0 = l_op.T.apply(x0)
    bregman(norm, u0, u0, cert.alpha, tol=1e-6)

    trials: list[tuple[float, np.ndarray]] = []
    for i, eps in enumerate(cfg.epsilons):
        for draw in range(cfg.noise_draws):
            if draw == 0:
                y = ys[i]
            else:
                rng = np.random.default_rng([cfg.seed, 7000 + i, draw])
                y = phi.apply(x0) + noise_in_ball(rng, cfg.m, eps)
            trials.append((eps, y))
    solved = solve_trials(phi, l_op.T, norm, trials, cfg.coupling_c, solver_opts)

    # trials that share a solve share its check
    checks: dict[tuple[int, float], BoundCheckReport] = {}
    for trial, ((eps, _), report) in enumerate(zip(trials, solved)):
        key = (id(report), eps)
        if key not in checks:
            checks[key] = verify_bounds(ctx, norm, x0, cert, eps, report, bound)
        check = checks[key]
        reports.append(check)
        rows.append(
            (
                trial,
                eps,
                cfg.coupling_c,
                check.prediction.observed,
                check.prediction.bound,
                check.bregman.observed,
                check.bregman.bound,
                check.model_error.observed,
                check.model_error.bound,
                check.l2.observed,
                check.l2.bound,
                check.pass_all and report.converged,
            )
        )
        plot_points.append((eps, check.l2.observed))
        if check.preconditions_ok and not check.pass_all and report.converged:
            exit_code = 1

    results_path = out / "results.csv"
    _write_results_csv(results_path, rows)
    summary.append(f"trials {len(trials)}  bound violations {'yes' if exit_code else 'no'}")
    summary.append(f"unconverged trials {sum(not r.converged for r in solved)}")
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n")

    plot_path = None
    if cfg.plot:
        plot_path = out / "error_vs_eps.svg"
        _write_error_plot(plot_path, plot_points, bound.total_c)

    return ScenarioResult(exit_code, rows, reports, results_path, summary_path, plot_path)
