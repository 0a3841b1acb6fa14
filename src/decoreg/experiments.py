"""Scenario generation and the verification harness.

A scenario bundles a measurement operator, an analysis operator, a norm, a
structured signal and a noise-level schedule, all drawn deterministically
from one seed.  The harness builds the certificate, computes the stability
constants, solves the penalized problem at lambda = c * eps for every noise
level and noise draw, and writes the observed-versus-bound table as CSV plus
a text summary and an error plot.

A brute-force oracle for tiny instances (averaged subgradient descent with
diminishing steps followed by a smooth polish on the detected model
subspace) provides objective values independent of the primal-dual solver.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize

from .certificates import build_certificate, certificate_quality, write_certificate_csv
from .guarantees import (
    BoundCheckReport,
    stability_constants,
    strong_nsp_check,
    uniqueness_from_certificate,
    verify_bounds,
)
from .linops import (
    LinearOperator,
    Subspace,
    kernel_basis,
    power_iteration_norm,
    read_operator_csv,
)
from .norms import (
    DecomposableNorm,
    DecompositionModel,
    decompose_at,
    norm_from_config,
    norm_subgradient,
    norm_value,
    project_dual_ball,
)
from .solver import (
    Problem,
    SolveReport,
    SolverOptions,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized_many,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioResult",
    "OracleOptions",
    "difference_operator_1d",
    "difference_operator_2d",
    "parseval_frame_analysis",
    "noise_in_ball",
    "vanishing_penalty",
    "solve_vanishing",
    "solve_vanishing_many",
    "solve_trials",
    "first_order_residual",
    "generate_scenario",
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
    d = np.zeros((n - 1, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return LinearOperator(d)


def difference_operator_2d(height: int, width: int) -> LinearOperator:
    """Stacked forward differences on an height x width grid.

    Pixels are indexed row-major; all horizontal differences come first,
    then all vertical ones, for 2 h w - h - w rows total.
    """
    if height < 1 or width < 1 or height * width < 2:
        raise ConfigError("2-d differences need a grid with at least two pixels")
    n = height * width
    rows = []
    for i in range(height):
        for j in range(width - 1):
            r = np.zeros(n)
            r[i * width + j] = -1.0
            r[i * width + j + 1] = 1.0
            rows.append(r)
    for i in range(height - 1):
        for j in range(width):
            r = np.zeros(n)
            r[i * width + j] = -1.0
            r[(i + 1) * width + j] = 1.0
            rows.append(r)
    return LinearOperator(np.array(rows))


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
    frame_bound: float = 1.0
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
        if any(e < 0 for e in eps):
            raise ConfigError("epsilons must be nonnegative")
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
        if self.noise_draws < 1:
            raise ConfigError("noise_draws must be at least 1")
        if self.certificate_mode not in ("full", "u_only", "zero"):
            raise ConfigError(f"unknown certificate mode {self.certificate_mode!r}")
        if not self.coupling_c > 0:
            raise ConfigError("coupling c must be positive")
        if not self.tol > 0:
            raise ConfigError("solver tol must be positive")
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
                frame_mode=bool(cfg.get("frame_mode", False)),
                frame_bound=float(cfg.get("frame_bound", 1.0)),
                plot=bool(cfg.get("plot", True)),
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
        mat = np.zeros((cfg.n, cfg.n))
        for i in range(cfg.n):
            for k, t in enumerate(taps):
                mat[i, (i + k) % cfg.n] += t
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
    """Analysis rows forced to zero so the active set has the requested size."""
    if cfg.norm.kind == "group":
        nblocks = len(cfg.norm.blocks)
        if cfg.signal_active > nblocks:
            raise ConfigError("requested active blocks exceed the partition size")
        inactive = rng.choice(nblocks, size=nblocks - cfg.signal_active, replace=False)
        return sorted(i for b in inactive for i in cfg.norm.blocks[int(b)])
    if cfg.signal_active > cfg.p:
        raise ConfigError("requested support exceeds the analysis dimension")
    inactive = rng.choice(cfg.p, size=cfg.p - cfg.signal_active, replace=False)
    return sorted(int(i) for i in inactive)


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
            if int(np.sum(s > 1e-8 * s[0])) == r:
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


@dataclass
class OracleOptions:
    iterations: int = 20_000
    track_every: int = 5
    polish_rounds: int = 2
    thresholds: tuple[float, ...] = (3e-1, 1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
    enumeration_cap: int = 10_000


def _polish_on_model(p: Problem, model, x_ref: np.ndarray) -> np.ndarray | None:
    """Minimize the objective restricted to { x : L^* x in T }.

    For the l1 norm the restricted objective is quadratic plus linear and is
    solved in closed form; otherwise the restricted problem is smooth near a
    model-consistent point and a quasi-Newton polish finishes the job.
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
    return basis @ res.x


def first_order_residual(p: Problem, x: np.ndarray) -> float:
    """Upper bound on the first-order violation at x.

    Tries the attained subgradient and, for l1, a bounded least-squares fit
    of the inactive dual variable; each candidate is projected into the dual
    ball so the returned value is an honest certificate."""
    u = p.l_adjoint.apply(x)
    model = decompose_at(p.norm, u)
    r0 = p.phi.entries.T @ (p.phi.apply(x) - p.y)
    candidates = [norm_subgradient(p.norm, u)]
    if p.norm.kind == "l1":
        t_perp = model.T.complement()
        if t_perp.dim:
            a = p.lam * (p.l_adjoint.entries.T @ t_perp.basis)
            fit = optimize.lsq_linear(
                a, -(r0 + p.lam * (p.l_adjoint.entries.T @ model.e)), bounds=(-1, 1)
            )
            candidates.append(model.e + t_perp.basis @ fit.x)
    best = np.inf
    for alpha in candidates:
        alpha = model.T.project(alpha) + project_dual_ball(
            p.norm, alpha - model.T.project(alpha), 1.0
        )
        grad = r0 + p.lam * (p.l_adjoint.entries.T @ alpha)
        gap = p.lam * max(norm_value(p.norm, u) - float(alpha @ u), 0.0)
        best = min(best, float(np.linalg.norm(grad)) + gap)
    return best


def solve_vanishing(problem: Problem, opts: SolverOptions) -> SolveReport:
    """Solve one problem at a vanishing penalty: ``solve_vanishing_many`` of
    a batch of one."""
    return solve_vanishing_many([problem], opts)[0]


def solve_vanishing_many(problems: list[Problem], opts: SolverOptions) -> list[SolveReport]:
    """Solve problems at vanishing penalties by continuation plus model polish.

    Plain splitting started at zero crawls along ker(phi) when lambda is
    tiny; a geometric penalty schedule with warm starts gets close fast and
    the exact solve on the detected model finishes the job (the restricted
    problem is strongly convex whenever the injectivity condition holds).
    Each problem's schedule falls by factors of ten from 0.01 (1 + ||Phi^* y||)
    and ends at the problem's own lambda, so schedules may differ in length.
    The problems share phi, l_adjoint and norm: stage k of every schedule
    that has one is a single ``solve_penalized_many`` call, each column
    warm-started at its problem's stage k - 1 iterate.  The polish and the
    first-order residual are per problem.  Reports come in problem order;
    ``iterations`` counts the last stage.
    """
    scales = [1.0 + float(np.linalg.norm(p.phi.entries.T @ p.y)) for p in problems]
    schedules = []
    for p, scale in zip(problems, scales):
        lams = []
        lam = 0.01 * scale
        while lam > p.lam * 5.0:
            lams.append(lam)
            lam *= 0.1
        lams.append(p.lam)
        schedules.append(lams)

    stages: list[SolveReport | None] = [None] * len(problems)
    for k in range(max(map(len, schedules), default=0)):
        live = [i for i, lams in enumerate(schedules) if k < len(lams)]
        init = np.column_stack([stages[i].x_star for i in live]) if k else None
        solved = solve_penalized_many(
            [problems[i].with_data(problems[i].y, schedules[i][k]) for i in live],
            SolverOptions(tol=opts.tol, max_iter=opts.max_iter, init=init),
        )
        for i, report in zip(live, solved):
            stages[i] = report

    reports = []
    for problem, scale, last in zip(problems, scales, stages):
        best_x = last.x_star
        best_obj = problem.objective(best_x)
        for thr in (1e-1, 1e-2, 1e-3):
            model = decompose_at(problem.norm, problem.l_adjoint.apply(best_x), tol=thr)
            cand = _polish_on_model(problem, model, best_x)
            if cand is None:
                continue
            obj = problem.objective(cand)
            if obj < best_obj:
                best_obj = obj
                best_x = cand
        resid = first_order_residual(problem, best_x)
        reports.append(
            SolveReport(
                x_star=best_x,
                objective=best_obj,
                optimality_residual=resid,
                iterations=last.iterations,
                converged=bool(resid <= opts.tol * scale) or last.converged,
                problem=problem,
            )
        )
    return reports


def solve_trials(
    phi: LinearOperator,
    l_adjoint: LinearOperator,
    norm: DecomposableNorm,
    trials: list[tuple[float, np.ndarray]],
    coupling_c: float,
    opts: SolverOptions,
) -> list[SolveReport]:
    """Solve the penalized problem for every (eps, y) trial, in trial order.

    All trials share phi, l_adjoint and norm, so they are solved in two
    batches: the eps > 0 trials at lambda = c * eps in one
    ``solve_penalized_many`` run, and the eps = 0 trials at the vanishing
    penalty in one ``solve_vanishing_many`` run, whose continuation stages
    are batched across trials.
    """
    problems: list[Problem] = []
    for eps, y in trials:
        lam = coupling_c * eps if eps > 0 else vanishing_penalty(phi, y)
        problems.append(
            problems[0].with_data(y, lam) if problems
            else Problem(phi=phi, l_adjoint=l_adjoint, norm=norm, y=y, lam=lam)
        )
    noisy = [p for (eps, _), p in zip(trials, problems) if eps > 0]
    noiseless = [p for (eps, _), p in zip(trials, problems) if not eps > 0]
    batched = iter(solve_penalized_many(noisy, opts))
    vanishing = iter(solve_vanishing_many(noiseless, opts))
    return [next(batched) if eps > 0 else next(vanishing) for eps, _ in trials]


def _enumerated_models(p: Problem, x_ref: np.ndarray, opts: OracleOptions):
    """Brute-force candidate models for the polish stage.

    Sign patterns for l1, block subsets for the group norm, and the full
    rank sweep of the reference point for the nuclear norm; feasible at the
    oracle's tiny scale and independent of any active-set detection.
    """
    pdim = p.norm.ambient_dim
    models = []
    if p.norm.kind == "l1" and 3**pdim <= opts.enumeration_cap:
        for pattern in itertools.product((-1.0, 0.0, 1.0), repeat=pdim):
            e = np.array(pattern)
            support = [i for i, s in enumerate(pattern) if s != 0.0]
            models.append(
                DecompositionModel(
                    T=Subspace.from_coordinates(pdim, support),
                    e=e,
                    active=tuple(support),
                )
            )
    elif p.norm.kind == "group" and 2 ** len(p.norm.blocks) <= opts.enumeration_cap:
        nblocks = len(p.norm.blocks)
        for mask in range(2**nblocks):
            chosen = [b for b in range(nblocks) if mask >> b & 1]
            coords = sorted(i for b in chosen for i in p.norm.blocks[b])
            models.append(
                DecompositionModel(
                    T=Subspace.from_coordinates(pdim, coords),
                    e=np.zeros(pdim),
                    active=tuple(chosen),
                )
            )
    elif p.norm.kind == "nuclear":
        u_ref = p.l_adjoint.apply(x_ref)
        s = np.linalg.svd(
            u_ref.reshape(p.norm.shape, order="F"), compute_uv=False
        )
        smax = s[0] if s.size else 0.0
        if smax > 0:
            s_ext = np.concatenate([s, [0.0]]) / smax
            models.append(decompose_at(p.norm, u_ref, tol=2.0))  # rank 0
            for r in range(1, s.size + 1):
                if s_ext[r - 1] <= s_ext[r]:
                    continue
                tol = 0.5 * (s_ext[r - 1] + s_ext[r])
                models.append(decompose_at(p.norm, u_ref, tol=tol))
    return models


def oracle_solve(p: Problem, opts: OracleOptions | None = None) -> SolveReport:
    """High-precision reference minimizer for tiny instances.

    Averaged subgradient descent with diminishing steps explores globally;
    the objective precision comes from re-solving the smooth problem
    restricted to candidate model subspaces: those detected at several
    thresholds from the descent iterates, plus a brute-force enumeration of
    model patterns.  Only instances with N <= 8 and P <= 8 are accepted.
    """
    if p.phi.cols > 8 or p.norm.ambient_dim > 8:
        raise ValueError("oracle restricted to tiny instances (N <= 8, P <= 8)")
    opts = opts or OracleOptions()

    stacked = np.vstack([p.phi.entries, p.l_adjoint.entries])
    scale = power_iteration_norm(stacked)
    step0 = 1.0 / (1.0 + scale * scale)

    x = np.zeros(p.phi.cols)
    best_x = x.copy()
    best_obj = p.objective(x)
    half = opts.iterations // 2
    avg = np.zeros_like(x)
    navg = 0
    for k in range(opts.iterations):
        g = p.phi.entries.T @ (p.phi.apply(x) - p.y) + p.lam * (
            p.l_adjoint.entries.T @ norm_subgradient(p.norm, p.l_adjoint.apply(x))
        )
        x = x - (step0 / math.sqrt(k + 1.0)) * g
        if k >= half:
            avg += x
            navg += 1
        if k % opts.track_every == 0:
            obj = p.objective(x)
            if obj < best_obj:
                best_obj = obj
                best_x = x.copy()
    if navg:
        avg /= navg
        obj = p.objective(avg)
        if obj < best_obj:
            best_obj = obj
            best_x = avg.copy()
    else:
        avg = best_x

    references = [best_x.copy(), avg]
    for round_idx in range(opts.polish_rounds):
        improved = False
        for x_ref in references:
            u_ref = p.l_adjoint.apply(x_ref)
            candidates = [
                decompose_at(p.norm, u_ref, tol=thr) for thr in opts.thresholds
            ]
            if round_idx == 0 and x_ref is references[0]:
                candidates.extend(_enumerated_models(p, x_ref, opts))
            for model in candidates:
                cand = _polish_on_model(p, model, x_ref)
                if cand is None:
                    continue
                obj = p.objective(cand)
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best_x = cand
                    improved = True
        references = [best_x.copy()]
        if not improved:
            break

    return SolveReport(
        x_star=best_x,
        objective=best_obj,
        optimality_residual=first_order_residual(p, best_x),
        iterations=opts.iterations,
        converged=True,
        problem=p,
    )


@dataclass
class ScenarioResult:
    exit_code: int
    rows: list[tuple]
    reports: list[BoundCheckReport]
    results_path: Path | None
    summary_path: Path | None
    plot_path: Path | None


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_results_csv(path: Path, rows: list[tuple]) -> None:
    lines = [RESULTS_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
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
    """Full pipeline: certificate, constants, solves, bound checks, reports.

    Writes results.csv, summary.txt, certificate.csv and (optionally)
    error_vs_eps.svg into ``out_dir``.  The exit code is 1 exactly when some
    bound check with valid preconditions fails; stage failures (no
    certificate, saturated certificate) are recorded in the summary.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    phi, l_op, norm, x0, ys = generate_scenario(cfg)
    u0 = l_op.T.apply(x0)
    model = decompose_at(norm, u0)
    T0, e0 = model.T, model.e

    summary: list[str] = []
    summary.append(f"seed {cfg.seed}  dims m={cfg.m} n={cfg.n} p={cfg.p}")
    summary.append(f"norm {norm.kind}  model dim {T0.dim}")

    solver_opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
    rows: list[tuple] = []
    reports: list[BoundCheckReport] = []
    plot_points: list[tuple[float, float]] = []
    exit_code = 0

    try:
        ctx = ic_context(phi, l_op, T0)
        cert = build_certificate(
            phi, l_op, norm, T0, e0, mode=cfg.certificate_mode, opts=solver_opts, ctx=ctx
        )
    except ValueError as exc:
        summary.append(f"certificate failed: {exc}")
        (out / "summary.txt").write_text("\n".join(summary) + "\n")
        return ScenarioResult(0, rows, reports, None, out / "summary.txt", None)

    write_certificate_csv(cert, out / "certificate.csv")
    summary.append(f"certificate mode {cfg.certificate_mode}")
    summary.append(f"saturation {cert.saturation!r}")
    summary.append(f"quality {certificate_quality(cert)!r}")
    summary.append(f"source_residual {cert.source_residual!r}")
    summary.append(f"ic program gap {cert.ic_gap!r} converged {cert.ic_converged}")

    ic_00 = ic_value(
        phi, l_op, norm, T0, e0, np.zeros(cfg.p), np.zeros(cfg.m), ctx=ctx
    )
    # the certificate already solved the program of its own mode
    if cfg.certificate_mode == "u_only":
        ic_u = cert.ic_value
    else:
        ic_u = minimize_ic_u(phi, l_op, norm, T0, e0, opts=solver_opts, ctx=ctx).value
    if cfg.certificate_mode == "full":
        ic_uz = cert.ic_value
    else:
        ic_uz = minimize_ic_full(phi, l_op, norm, T0, e0, opts=solver_opts, ctx=ctx).value
    summary.append(f"ic chain (joint, u-only, zero): {ic_uz!r} {ic_u!r} {ic_00!r}")

    nsp = strong_nsp_check(phi, l_op, T0, e0, norm, ctx=ctx)
    summary.append(f"strong nsp verdict: {nsp.status}")

    try:
        bound = stability_constants(
            phi,
            l_op,
            norm,
            T0,
            cert,
            cfg.coupling_c,
            frame_mode=cfg.frame_bound if cfg.frame_mode else None,
            ctx=ctx,
        )
    except ValueError as exc:
        summary.append(f"stability constants unavailable: {exc}")
        (out / "summary.txt").write_text("\n".join(summary) + "\n")
        return ScenarioResult(0, rows, reports, None, out / "summary.txt", None)

    cor1 = uniqueness_from_certificate(cert, bound.c_phi)
    summary.append(f"certificate uniqueness verdict: {cor1.status}")
    summary.append(
        "constants: "
        f"c_phi={bound.c_phi!r} c_l={bound.c_l!r} c_a={bound.c_a!r} "
        f"phi_norm={bound.phi_norm!r} C1={bound.c1!r} C2={bound.c2!r} "
        f"C={bound.total_c!r}"
    )

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

    for trial, ((eps, _), report) in enumerate(zip(trials, solved)):
        check = verify_bounds(
            phi, l_op, norm, x0, cert, eps, cfg.coupling_c, report, bound, ctx=ctx
        )
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
                check.pass_all,
            )
        )
        plot_points.append((eps, check.l2.observed))
        if check.preconditions_ok and not check.pass_all:
            exit_code = 1

    results_path = out / "results.csv"
    _write_results_csv(results_path, rows)
    summary.append(f"trials {len(trials)}  bound violations {'yes' if exit_code else 'no'}")
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(summary) + "\n")

    plot_path = None
    if cfg.plot:
        plot_path = out / "error_vs_eps.svg"
        _write_error_plot(plot_path, plot_points, bound.total_c)

    return ScenarioResult(exit_code, rows, reports, results_path, summary_path, plot_path)
