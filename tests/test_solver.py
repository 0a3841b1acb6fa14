import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from decoreg.linops import (
    RANK_RTOL,
    LinearOperator,
    Subspace,
    identity,
    image_basis,
    kernel_basis,
    numerical_rank,
    restricted_injectivity_constant,
)
from decoreg.norms import (
    decompose_at,
    dual_norm_value,
    group,
    l1,
    norm_value,
    nuclear,
    project_dual_ball,
    project_primal_ball,
)
from decoreg.solver import (
    CHECK_EVERY,
    Problem,
    SolverOptions,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized,
    solve_penalized_many,
)
from decoreg import solver as solver_module
from decoreg.norms import _project_dual_ball_inplace
from decoreg.solver import (
    _affine_step,
    _certified_gap,
    _check_residual,
    _composite_residual,
    _min_dual_norm_affine,
    _min_dual_norm_pdhg,
    _min_linf_affine_lp,
    _xi_matrix,
)

rng = np.random.default_rng(2024)


def random_orthonormal(n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return LinearOperator(q)


def l1_problem(m, n, lam, seed=0, y=None):
    r = np.random.default_rng(seed)
    phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
    if y is None:
        y = r.standard_normal(m)
    return Problem(phi=phi, l_adjoint=identity(n), norm=l1(n), y=y, lam=lam)


class TestProblemValidation:
    def test_kernel_intersection_rejected(self):
        phi = LinearOperator([[1.0, 0.0], [0.0, 0.0]])
        l_adj = LinearOperator([[1.0, 0.0]])
        with pytest.raises(ValueError):
            Problem(phi=phi, l_adjoint=l_adj, norm=l1(1), y=[1.0, 0.0], lam=0.1)

    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            l1_problem(3, 3, lam=0.0)

    def test_with_data_reuses_the_operator_check(self):
        p = l1_problem(4, 6, lam=0.1, seed=2)
        q = p.with_data([1.0, 2.0, 3.0, 4.0], 0.5)
        assert q.phi is p.phi and q.l_adjoint is p.l_adjoint and q.norm is p.norm
        assert q.gram_eig is p.gram_eig and q.l_norm == p.l_norm
        assert np.array_equal(q.y, [1.0, 2.0, 3.0, 4.0]) and q.lam == 0.5
        assert p.lam == 0.1
        with pytest.raises(ValueError, match="length"):
            p.with_data(np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="positive"):
            p.with_data(np.zeros(4), 0.0)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            Problem(
                phi=identity(3),
                l_adjoint=identity(2),
                norm=l1(2),
                y=[0.0, 0.0, 0.0],
                lam=1.0,
            )


class TestSolvePenalized:
    def test_soft_threshold_instance(self):
        p = Problem(
            phi=identity(2), l_adjoint=identity(2), norm=l1(2), y=[2.0, 0.5], lam=1.0
        )
        report = solve_penalized(p)
        assert report.converged
        assert np.allclose(report.x_star, [1.0, 0.0], atol=1e-8)

    def test_zero_data(self):
        p = l1_problem(4, 4, lam=0.5, y=np.zeros(4))
        report = solve_penalized(p)
        assert report.converged
        assert np.allclose(report.x_star, 0.0, atol=1e-10)

    def test_report_residual_contract(self):
        p = l1_problem(4, 6, lam=0.1, seed=3)
        opts = SolverOptions(tol=1e-9)
        report = solve_penalized(p, opts)
        assert report.converged
        threshold = opts.tol * (1 + np.linalg.norm(p.phi.entries.T @ p.y))
        assert report.optimality_residual <= threshold

    def test_matches_oracle_objective(self):
        from decoreg.experiments import oracle_solve

        p = l1_problem(4, 6, lam=0.1, seed=11)
        report = solve_penalized(p, SolverOptions(tol=1e-10))
        oracle = oracle_solve(p)
        assert report.objective == pytest.approx(oracle.objective, rel=1e-6)

    def test_shared_image_across_restarts(self):
        p = l1_problem(4, 6, lam=0.2, seed=5)
        r1 = solve_penalized(p, SolverOptions(tol=1e-10))
        r2 = solve_penalized(
            p,
            SolverOptions(
                tol=1e-10, init=np.random.default_rng(9).standard_normal(6)
            ),
        )
        img_gap = np.linalg.norm(p.phi.apply(r1.x_star) - p.phi.apply(r2.x_star))
        assert img_gap <= 1e-6 * np.linalg.norm(p.y)

    def test_non_convergence_reported_not_raised(self):
        p = l1_problem(4, 6, lam=0.1, seed=3)
        report = solve_penalized(p, SolverOptions(tol=1e-14, max_iter=60))
        assert not report.converged
        assert report.iterations == 60


def affine_map_reference(l_rot, mu, tau, sigma):
    """K of one column's iteration z = (x_k; alpha_{k+1}) <- K z + c before
    the projection, written out block by block, and tau S, the diagonal of
    its top left block times tau."""
    s = 1.0 / (1.0 + tau * mu)
    ts = tau * s
    k = np.block(
        [
            [np.diag(s), -ts[:, None] * l_rot.T],
            [
                sigma * (l_rot * (2.0 * s - 1.0)),
                np.eye(l_rot.shape[0]) - 2.0 * sigma * ((l_rot * ts) @ l_rot.T),
            ],
        ]
    )
    return k, ts


def affine_offset_reference(l_rot, ts, sigma, rhs):
    """c of every column at once, the columns (tau S r; 2 sigma tau L~ S r)
    with r = V^T Phi^T y the columns of ``rhs``, ``ts`` the (N, B) or (N, 1)
    tau S and ``sigma`` a scalar or (B,)."""
    cx = ts * rhs
    return np.concatenate([cx, 2.0 * sigma * (l_rot @ cx)])


def project_alpha_rows(norm, z, n, lam):
    """z with its alpha rows replaced by their projection onto the lam ball,
    by the public ``project_dual_ball``; a new array."""
    return np.concatenate([z[:n], project_dual_ball(norm, z[n:], lam)])


def check_residual_reference(norm, l_rot, x_before, x, alpha, tau, lam):
    """The check residual written out: ||x_before - x|| / tau plus the gap
    lam ||L~ x|| - <alpha, L~ x>, one value per column."""
    u = l_rot @ x
    gap = lam * norm_value(norm, u) - np.sum(alpha * u, axis=0)
    return np.linalg.norm(x_before - x, axis=0) / tau + np.maximum(gap, 0.0)


def fixed_step_reference(p, opts, init=None):
    """Reference for solves that end within the first 100 iterations: the
    fixed-step iteration, tau = sigma = 0.99 / ||L^*|| (primal weight 1
    throughout), in the affine form on one column, with the solver's checks
    every CHECK_EVERY iterations and its best-iterate rule.  Returns
    (x_star, residual, iterations, converged)."""
    n = p.phi.cols
    mu, v = p.gram_eig
    l_rot = p.l_adjoint.entries @ v
    step = 0.99 / p.l_norm
    y = p.y[:, None]
    lam = np.array([p.lam])
    phi_t_y = p.phi.entries.T @ y
    k, ts = affine_map_reference(l_rot, mu, step, step)
    c = affine_offset_reference(l_rot, ts[:, None], step, v.T @ phi_t_y)
    x0 = v.T @ (np.zeros(n) if init is None else np.asarray(init, dtype=float))
    z = project_alpha_rows(p.norm, np.concatenate([x0, step * (l_rot @ x0)])[:, None], n, lam)
    scale = 1.0 + np.linalg.norm(phi_t_y)
    margin = 64.0 * np.finfo(float).eps * scale
    best_res, best_x, best_alpha = np.inf, z[:n], np.zeros((p.norm.ambient_dim, 1))
    for it in range(1, opts.max_iter + 1):
        z_before = z
        z = project_alpha_rows(p.norm, k @ z + c, n, lam)
        if it % CHECK_EVERY == 0 or it == opts.max_iter:
            x, alpha = z[:n], z_before[n:]
            res = check_residual_reference(p.norm, l_rot, z_before[:n], x, alpha, step, lam)[0]
            if res < best_res - margin:
                best_res, best_x, best_alpha = res, x, alpha
            if best_res <= opts.tol * scale or it == opts.max_iter:
                x_out = v @ best_x
                exact = _composite_residual(p, x_out, best_alpha, y, lam)[0]
                converged = bool(exact <= opts.tol * scale)
                if converged or it == opts.max_iter:
                    return x_out[:, 0], float(exact), it, converged


def allocating_batched_reference(problems, opts):
    """Reference for ``solve_penalized_many``: its affine loop written with a
    new array for every intermediate, K and c written out block by block
    and applied one column at a time once the steps are per column, the
    dual projected by the public ``project_dual_ball``, and the check
    residual and the primal-weight rule written out.  The in-place loop
    does the same arithmetic in the same order.  Returns one (x_star,
    residual, iterations, converged) per problem."""
    first = problems[0]
    n = first.phi.cols
    mu, v = first.gram_eig
    l_rot = first.l_adjoint.entries @ v
    step = 0.99 / first.l_norm
    b = len(problems)
    init = np.zeros(n) if opts.init is None else np.asarray(opts.init, dtype=float)
    y = np.column_stack([q.y for q in problems])
    lam = np.array([q.lam for q in problems])
    phi_t_y = first.phi.entries.T @ y
    rhs = v.T @ phi_t_y
    omega = np.ones(b)
    tau = sigma = step
    k, ts = affine_map_reference(l_rot, mu, step, step)
    c = affine_offset_reference(l_rot, ts[:, None], step, rhs)
    x0 = v.T @ init
    z0 = np.concatenate([x0, step * (l_rot @ x0)])
    z = project_alpha_rows(first.norm, np.repeat(z0[:, None], b, axis=1), n, lam)
    x_mark, alpha_mark = z[:n], np.zeros((first.norm.ambient_dim, b))
    scale = 1.0 + np.linalg.norm(phi_t_y, axis=0)
    threshold = opts.tol * scale
    margin = 64.0 * np.finfo(float).eps * scale
    best_res = np.full(b, np.inf)
    best_x, best_alpha = x_mark, alpha_mark
    live = np.arange(b)
    done = {}
    for it in range(1, opts.max_iter + 1):
        z_before = z
        if np.ndim(tau):
            z = np.column_stack([k_j @ z_j for k_j, z_j in zip(k, z.T)])
        else:
            z = k @ z
        z = project_alpha_rows(first.norm, z + c, n, lam)
        last = it == opts.max_iter
        if it % CHECK_EVERY and not last:
            continue
        x, alpha = z[:n], z_before[n:]
        res = check_residual_reference(first.norm, l_rot, z_before[:n], x, alpha, tau, lam)
        better = res < best_res - margin
        best_res = np.where(better, res, best_res)
        best_x = np.where(better, x, best_x)
        best_alpha = np.where(better, alpha, best_alpha)
        finished = (best_res <= threshold) | last
        tested = np.nonzero(finished)[0]
        x_out = v @ best_x[:, tested]
        exact = _composite_residual(
            first, x_out, best_alpha[:, tested], y[:, tested], lam[tested]
        )
        for j, x_j, res_j in zip(tested, x_out.T, exact):
            converged = bool(res_j <= threshold[j])
            finished[j] = converged or last
            if finished[j]:
                done[int(live[j])] = (x_j, float(res_j), it, converged)
        if finished.all():
            break
        keep = ~finished
        z, c, x, alpha, rhs, y, best_x, best_alpha, x_mark, alpha_mark = (
            a[:, keep] for a in (z, c, x, alpha, rhs, y, best_x, best_alpha, x_mark, alpha_mark)
        )
        lam, threshold, margin, best_res, live, omega = (
            a[keep] for a in (lam, threshold, margin, best_res, live, omega)
        )
        if np.ndim(tau):
            k, tau, sigma = k[keep], tau[keep], sigma[keep]
        if it % 50:
            continue
        if it >= 100:
            dx = np.linalg.norm(x - x_mark, axis=0)
            da = np.linalg.norm(alpha - alpha_mark, axis=0)
            moved = (dx > 0) & (da > 0)
            omega = omega.copy()
            omega[moved] = np.clip(
                np.exp(0.5 * np.log(da[moved] / dx[moved]) + 0.5 * np.log(omega[moved])),
                0.1,
                10.0,
            )
            tau, sigma = step / omega, step * omega
            maps = [affine_map_reference(l_rot, mu, t, s) for t, s in zip(tau, sigma)]
            k = np.stack([m[0] for m in maps])
            c = affine_offset_reference(l_rot, np.column_stack([m[1] for m in maps]), sigma, rhs)
            # moved columns restart: alpha_{k+1} from xbar = x_k
            restarted = project_dual_ball(
                first.norm,
                (l_rot @ x[:, moved]) * sigma[moved] + alpha[:, moved],
                lam[moved],
            )
            z = z.copy()
            z[n:, moved] = restarted
        x_mark, alpha_mark = x, alpha
    return [done[j] for j in range(b)]


def dualized_fit_reference(problems, opts):
    """The batched loop as it was before the fit term became a proximal
    step: PDHG on the stacked K = (Phi; L^*) with a second dual block for
    the fit, eta = 0.99 / ||K||, checks every 50 iterations, and five check
    windows at primal weight 1 before the same primal-weight rule.  An
    independent solver of the same problems.  Returns one (x_star, residual,
    iterations, converged) per problem."""
    first = problems[0]
    m, n = first.phi.rows, first.phi.cols
    big = np.vstack([first.phi.entries, first.l_adjoint.entries])
    step = 0.99 / np.linalg.norm(big, 2)
    tau = sigma = step
    b = len(problems)
    init = np.zeros(n) if opts.init is None else np.asarray(opts.init, dtype=float)
    x = np.repeat(init[:, None], b, axis=1)
    xbar = x.copy()
    y = np.column_stack([q.y for q in problems])
    lam = np.array([q.lam for q in problems])
    dual_fit = np.zeros((m, b))
    dual_reg = np.zeros((first.norm.ambient_dim, b))
    omega = np.ones(b)
    x_prev, fit_prev, reg_prev = x, dual_fit, dual_reg
    scale = 1.0 + np.linalg.norm(first.phi.entries.T @ y, axis=0)
    threshold = opts.tol * scale
    margin = 64.0 * np.finfo(float).eps * scale
    best_res = np.full(b, np.inf)
    best_x = x.copy()
    live = np.arange(b)
    done = {}
    for it in range(1, opts.max_iter + 1):
        q = big @ xbar
        dual_fit = (dual_fit + sigma * (q[:m] - y)) / (1.0 + sigma)
        dual_reg = project_dual_ball(first.norm, dual_reg + sigma * q[m:], lam)
        x_new = x - tau * (big.T @ np.concatenate((dual_fit, dual_reg)))
        xbar = 2.0 * x_new - x
        x = x_new
        if it % 50 == 0 or it == opts.max_iter:
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
            if it >= 250:
                dx = np.linalg.norm(x - x_prev, axis=0)
                dd = np.sqrt(
                    np.sum((dual_fit - fit_prev) ** 2, axis=0)
                    + np.sum((dual_reg - reg_prev) ** 2, axis=0)
                )
                moved = (dx > 0) & (dd > 0)
                omega[moved] = np.clip(
                    np.exp(0.5 * np.log(dd[moved] / dx[moved]) + 0.5 * np.log(omega[moved])),
                    0.1,
                    10.0,
                )
                xbar[:, moved] = x[:, moved]
                tau, sigma = step / omega, step * omega
            x_prev, fit_prev, reg_prev = x, dual_fit, dual_reg
    return [done[j] for j in range(b)]


def shared_batch(seed, norm, m, lams, l_adjoint=None):
    """Problems sharing one random phi, analysis operator and norm, with one
    noisy measurement of a sparse-ish signal per penalty."""
    r = np.random.default_rng(seed)
    n = norm.ambient_dim if l_adjoint is None else l_adjoint.cols
    phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
    l_adj = identity(n) if l_adjoint is None else l_adjoint
    x0 = r.standard_normal(n) * (r.uniform(size=n) < 0.5)
    return [
        Problem(
            phi=phi,
            l_adjoint=l_adj,
            norm=norm,
            y=phi.apply(x0) + 0.05 * r.standard_normal(m),
            lam=lam,
        )
        for lam in lams
    ]


def assert_same_reports(batched, sequential):
    for b, s in zip(batched, sequential, strict=True):
        assert b.iterations == s.iterations
        assert b.converged == s.converged
        assert b.problem is s.problem
        scale = 1e-10 * (1.0 + np.linalg.norm(s.x_star))
        assert np.linalg.norm(b.x_star - s.x_star) <= scale
        assert b.objective == pytest.approx(s.objective, rel=1e-10, abs=1e-12)


class TestSolvePenalizedMany:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear"]),
        lams=st.lists(st.sampled_from([0.003, 0.02, 0.1, 0.5]), min_size=1, max_size=5),
        max_iter=st.sampled_from([150, 2_000]),
        start=st.sampled_from(["zero", "shared"]),
    )
    def test_equals_sequential_solves(self, seed, kind, lams, max_iter, start):
        norm = {
            "l1": l1(6),
            "group": group([[3, 0], [5], [1, 4, 2]]),
            "nuclear": nuclear(2, 3),
        }[kind]
        problems = shared_batch(seed, norm, 5, lams)
        init = np.random.default_rng(seed + 1).standard_normal(6) if start == "shared" else None
        opts = SolverOptions(tol=1e-9, max_iter=max_iter, init=init)
        batched = solve_penalized_many(problems, opts)
        sequential = [solve_penalized(p, opts) for p in problems]
        assert_same_reports(batched, sequential)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear"]),
        lams=st.lists(st.floats(1e-4, 1e-3), min_size=1, max_size=3),
    )
    def test_equals_sequential_solves_past_the_weight_update(self, seed, kind, lams):
        # penalties this small need more than the two check windows (100
        # iterations) after which every column adapts its own primal weight;
        # the extra 1e-4 column almost always runs into max_iter
        norm = {
            "l1": l1(6),
            "group": group([[3, 0], [5], [1, 4, 2]]),
            "nuclear": nuclear(2, 3),
        }[kind]
        problems = shared_batch(seed, norm, 5, lams + [1e-4])
        opts = SolverOptions(tol=1e-9, max_iter=777)
        sequential = [solve_penalized(p, opts) for p in problems]
        assume(any(r.iterations == 777 and not r.converged for r in sequential))
        assert_same_reports(solve_penalized_many(problems, opts), sequential)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear"]),
        lams=st.lists(
            st.sampled_from([1e-4, 1e-3, 0.003, 0.02, 0.1, 0.5]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        max_iter=st.sampled_from([300, 777, 1_500]),
        start=st.sampled_from(["zero", "shared"]),
    )
    def test_matches_the_allocating_reference(self, seed, kind, lams, max_iter, start):
        # spread penalties leave the batch at different checks, and every
        # budget runs past the first primal-weight update (iteration 100)
        norm = {
            "l1": l1(6),
            "group": group([[3, 0], [5], [1, 4, 2]]),
            "nuclear": nuclear(2, 3),
        }[kind]
        problems = shared_batch(seed, norm, 5, lams)
        init = np.random.default_rng(seed + 1).standard_normal(6) if start == "shared" else None
        opts = SolverOptions(tol=1e-9, max_iter=max_iter, init=init)
        reports = solve_penalized_many(problems, opts)
        reference = allocating_batched_reference(problems, opts)
        for report, (x_ref, res_ref, it_ref, converged_ref) in zip(
            reports, reference, strict=True
        ):
            assert report.iterations == it_ref
            assert report.converged == converged_ref
            if kind == "nuclear":
                # the projection writes its SVD back in another memory
                # layout, which reorders the rounding of column sums
                assert np.linalg.norm(report.x_star - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
                assert report.optimality_residual == pytest.approx(res_ref, rel=1e-12)
            else:
                assert np.array_equal(report.x_star, x_ref)
                assert report.optimality_residual == res_ref

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear", "tv1d"]),
        lam=st.sampled_from([0.003, 0.02, 0.1, 0.5]),
        max_iter=st.sampled_from([37, 100, 137, 5_000]),
        warm=st.booleans(),
    )
    def test_short_solves_run_the_fixed_step_iteration(self, seed, kind, lam, max_iter, warm):
        from decoreg.experiments import difference_operator_1d

        norm, l_adj = {
            "l1": (l1(6), None),
            "group": (group([[3, 0], [5], [1, 4, 2]]), None),
            "nuclear": (nuclear(2, 3), None),
            "tv1d": (l1(6), difference_operator_1d(7)),
        }[kind]
        (p,) = shared_batch(seed, norm, 5, [lam], l_adjoint=l_adj)
        init = np.random.default_rng(seed).standard_normal(p.phi.cols) if warm else None
        opts = SolverOptions(tol=1e-9, max_iter=max_iter, init=init)
        report = solve_penalized(p, opts)
        x_ref, res_ref, it_ref, converged_ref = fixed_step_reference(p, opts, init)
        if it_ref <= 100:
            # the primal weight has not moved: bit for bit the fixed-step solve
            assert report.iterations == it_ref
            assert report.converged == converged_ref
            assert np.array_equal(report.x_star, x_ref)
            assert report.optimality_residual == res_ref
        else:
            # not converged at any check of the first 100 iterations either
            assert report.iterations > 100

    def test_mixed_batch_with_a_column_at_max_iter(self):
        # the smallest penalty needs far more iterations than the others
        problems = shared_batch(4, l1(8), 6, [0.5, 1e-4, 0.05, 0.5])
        opts = SolverOptions(tol=1e-9, max_iter=1_000)
        sequential = [solve_penalized(p, opts) for p in problems]
        assert [r.converged for r in sequential] == [True, False, True, True]
        assert sequential[1].iterations == 1_000
        assert len({r.iterations for r in sequential}) > 2
        assert_same_reports(solve_penalized_many(problems, opts), sequential)

    def test_analysis_operator_and_warm_start(self):
        from decoreg.experiments import difference_operator_1d

        l_adj = difference_operator_1d(7)
        problems = shared_batch(2, l1(6), 5, [0.01, 0.2], l_adjoint=l_adj)
        opts = SolverOptions(tol=1e-10, init=np.linspace(-1.0, 1.0, 7))
        assert_same_reports(
            solve_penalized_many(problems, opts),
            [solve_penalized(p, opts) for p in problems],
        )

    def test_init_shape_checked(self):
        problems = shared_batch(3, l1(6), 5, [0.1, 0.2])
        # (6, 2) would be one start per column of this batch
        for shape in [(6, 2), (6, 3), (7,), (6, 1), (2, 6), (7, 2)]:
            with pytest.raises(ValueError, match="init has shape"):
                solve_penalized_many(problems, SolverOptions(init=np.zeros(shape)))

    def test_tol_must_be_positive_and_finite(self):
        # at tol = inf every column would stop at its first check as converged
        problems = shared_batch(3, l1(6), 5, [0.1])
        for tol in [0.0, -1.0, np.nan, np.inf]:
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                solve_penalized_many(problems, SolverOptions(tol=tol))

    def test_step_uses_exact_operator_norm(self):
        r = np.random.default_rng(8)
        l_adj = LinearOperator(r.standard_normal((9, 7)))
        (p,) = shared_batch(8, l1(9), 5, [0.1], l_adjoint=l_adj)
        assert p.l_norm == pytest.approx(np.linalg.norm(l_adj.entries, 2), rel=1e-14)
        mu, v = p.gram_eig
        gram = p.phi.entries.T @ p.phi.entries
        assert np.allclose(v @ np.diag(mu) @ v.T, gram, atol=1e-13)
        assert np.allclose(v.T @ v, np.eye(7), atol=1e-13)

    def test_problems_must_share_operators(self):
        a = l1_problem(4, 6, lam=0.1, seed=1)
        other_phi = l1_problem(4, 6, lam=0.1, seed=2)
        with pytest.raises(ValueError, match="share"):
            solve_penalized_many([a, other_phi])
        copy_of_l = Problem(
            phi=a.phi,
            l_adjoint=LinearOperator(a.l_adjoint.entries.copy()),
            norm=a.norm,
            y=a.y,
            lam=0.2,
        )
        with pytest.raises(ValueError, match="share"):
            solve_penalized_many([a, copy_of_l])

    def test_empty_batch(self):
        assert solve_penalized_many([]) == []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear", "tv1d"]),
        lams=st.lists(st.sampled_from([0.003, 0.02, 0.1, 0.5]), min_size=1, max_size=3),
        kernel=st.booleans(),
        warm=st.booleans(),
    )
    def test_agrees_with_the_dualized_fit_loop(self, seed, kind, lams, kernel, warm):
        # an independent solver of the same problems: the loop before the fit
        # term became a proximal step
        from decoreg.experiments import difference_operator_1d

        norm, l_adj = {
            "l1": (l1(6), None),
            "group": (group([[3, 0], [5], [1, 4, 2]]), None),
            "nuclear": (nuclear(2, 3), None),
            "tv1d": (l1(6), difference_operator_1d(7)),
        }[kind]
        n = 6 if l_adj is None else 7
        problems = shared_batch(seed, norm, 4 if kernel else n + 2, lams, l_adjoint=l_adj)
        init = np.random.default_rng(seed).standard_normal(n) if warm else None
        opts = SolverOptions(tol=1e-10, init=init)
        reports = solve_penalized_many(problems, opts)
        for p, report, (x_ref, *_, converged_ref) in zip(
            problems, reports, dualized_fit_reference(problems, opts), strict=True
        ):
            assert report.converged and converged_ref
            obj_ref = p.objective(x_ref)
            assert abs(report.objective - obj_ref) <= 1e-8 * (1.0 + abs(obj_ref))


def sequential_iterates(l_rot, mu, norm, rhs, lam, tau, sigma, x, alpha, iterations):
    """The splitting loop one block after the other, with no checks: the
    dual step from xbar, the proximal primal step, the extrapolation.
    Returns the list of (x_k, alpha_k)."""
    shrink = 1.0 / (1.0 + mu[:, None] * tau)
    xbar, out = x, []
    for _ in range(iterations):
        alpha = project_dual_ball(norm, alpha + sigma * (l_rot @ xbar), lam)
        x_new = (x - tau * (l_rot.T @ alpha - rhs)) * shrink
        xbar = 2.0 * x_new - x
        x = x_new
        out.append((x, alpha))
    return out


def affine_iterates(l_rot, mu, norm, rhs, lam, tau, sigma, x, alpha, iterations):
    """The same iterations as the solver runs them, z = (x_k; alpha_{k+1})
    <- K z + c and the in-place projection of the alpha rows, from the same
    (x_0, alpha_0).  Returns the list of (x_{k-1}, x_k, alpha_k)."""
    n = l_rot.shape[1]
    k, c = _affine_step(l_rot, mu, tau, sigma, rhs)
    z = np.concatenate([x, alpha + sigma * (l_rot @ x)])
    _project_dual_ball_inplace(norm, z[n:], lam, -lam)
    out = []
    for _ in range(iterations):
        z_before = z
        z = k @ z if k.ndim == 2 else (k @ z.T[:, :, None])[:, :, 0].T
        z += c
        _project_dual_ball_inplace(norm, z[n:], lam, -lam)
        out.append((z_before[:n], z[:n], z_before[n:]))
    return out


def iteration_setup(seed, kind, steps, start):
    """A batch of three shared_batch problems with its rotated operator,
    right-hand sides, penalties, steps and start (x_0, alpha_0): scalar steps
    at primal weight 1 or per-column weights in [0.1, 10], and a zero or a
    random start with the dual inside its ball."""
    from decoreg.experiments import difference_operator_1d

    norm, l_adj = {
        "l1": (l1(6), None),
        "group": (group([[3, 0], [5], [1, 4, 2]]), None),
        "nuclear": (nuclear(2, 3), None),
        "tv1d": (l1(6), difference_operator_1d(7)),
    }[kind]
    problems = shared_batch(seed, norm, 5, [0.003, 0.1, 0.5], l_adjoint=l_adj)
    first = problems[0]
    mu, v = first.gram_eig
    l_rot = first.l_adjoint.entries @ v
    y = np.column_stack([q.y for q in problems])
    rhs = v.T @ (first.phi.entries.T @ y)
    lam = np.array([q.lam for q in problems])
    step = 0.99 / first.l_norm
    r = np.random.default_rng(seed)
    omega = r.uniform(0.1, 10.0, 3) if steps == "per-column" else 1.0
    n, b = first.phi.cols, len(problems)
    x = np.zeros((n, b))
    alpha = np.zeros((norm.ambient_dim, b))
    if start == "warm":
        x = r.standard_normal((n, b))
        alpha = project_dual_ball(norm, r.standard_normal(alpha.shape), lam)
    return problems, l_rot, mu, v, rhs, lam, step / omega, step * omega, x, alpha


class TestAffineIteration:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear", "tv1d"]),
        steps=st.sampled_from(["scalar", "per-column"]),
        start=st.sampled_from(["cold", "warm"]),
        iterations=st.integers(1, 300),
    )
    def test_reproduces_the_sequential_loop(self, seed, kind, steps, start, iterations):
        problems, l_rot, mu, _, rhs, lam, tau, sigma, x, alpha = iteration_setup(
            seed, kind, steps, start
        )
        args = (l_rot, mu, problems[0].norm, rhs, lam, tau, sigma, x, alpha, iterations)
        for (x_ref, alpha_ref), (_, x_aff, alpha_aff) in zip(
            sequential_iterates(*args), affine_iterates(*args), strict=True
        ):
            for ref, got in ((x_ref, x_aff), (alpha_ref, alpha_aff)):
                assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear", "tv1d"]),
        steps=st.sampled_from(["scalar", "per-column"]),
        start=st.sampled_from(["cold", "warm"]),
        iterations=st.integers(1, 300),
    )
    def test_check_residual_is_the_composite_residual(
        self, seed, kind, steps, start, iterations
    ):
        problems, l_rot, mu, v, rhs, lam, tau, sigma, x, alpha = iteration_setup(
            seed, kind, steps, start
        )
        norm = problems[0].norm
        x_before, x_k, alpha_k = affine_iterates(
            l_rot, mu, norm, rhs, lam, tau, sigma, x, alpha, iterations
        )[-1]
        y = np.column_stack([q.y for q in problems])
        exact = _composite_residual(problems[0], v @ x_k, alpha_k, y, lam)
        got = _check_residual(norm, l_rot, x_before, x_k, alpha_k, tau, lam)
        assert np.all(np.abs(got - exact) <= 1e-12 * (1.0 + exact))


def xi_apply(phi, l_s_adj, h):
    """Xi h for an arbitrary L_S^*: the restricted normal-equation map on
    the kernel of ``l_s_adj``."""
    xi, _ = _xi_matrix(phi, kernel_basis(l_s_adj).basis)
    return xi @ np.asarray(h, dtype=float)


class TestXiMap:
    def test_unconstrained_normal_equations(self):
        # trivial analysis restriction: full space, invertible measurements
        phi = LinearOperator(rng.standard_normal((4, 4)) + 4 * np.eye(4))
        l_s_adj = LinearOperator(np.zeros((4, 4)))
        h = rng.standard_normal(4)
        expected = np.linalg.solve(phi.entries.T @ phi.entries, h)
        assert np.allclose(xi_apply(phi, l_s_adj, h), expected, atol=1e-9)

    def test_orthonormal_design_projects(self):
        phi = random_orthonormal(5)
        model_T = Subspace.from_coordinates(5, [0, 2])
        xi = ic_context(phi, identity(5), model_T).xi  # L = Id
        h = rng.standard_normal(5)
        assert np.allclose(xi @ h, model_T.project(h), atol=1e-9)

    def test_defining_optimality(self):
        r = np.random.default_rng(8)
        phi = LinearOperator(r.standard_normal((6, 5)))
        l_adj = LinearOperator(r.standard_normal((4, 5)))
        s = Subspace.from_coordinates(4, [1, 3])
        l_s_adj = LinearOperator(s.projector_matrix() @ l_adj.entries)
        ker = kernel_basis(l_s_adj)
        for _ in range(20):
            h = r.standard_normal(5)
            out = xi_apply(phi, l_s_adj, h)
            resid = phi.entries.T @ (phi.entries @ out) - h
            assert np.linalg.norm(ker.basis.T @ resid) <= 1e-9 * (
                1 + np.linalg.norm(h)
            )

    def test_injectivity_failure_raises(self):
        phi = LinearOperator(np.diag([1.0, 0.0]))
        l_s_adj = LinearOperator(np.zeros((2, 2)))  # kernel is everything
        with pytest.raises(ValueError):
            xi_apply(phi, l_s_adj, [1.0, 1.0])


class TestGammaApply:
    def test_orthogonal_design_vanishes(self):
        phi = random_orthonormal(4)
        t = Subspace.from_coordinates(4, [1])
        v = rng.standard_normal(4)
        out = ic_context(phi, identity(4), t).gamma @ v
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_zero_input(self):
        r = np.random.default_rng(4)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [0, 1])
        out = ic_context(phi, l_op, t).gamma @ np.zeros(6)
        assert np.allclose(out, 0.0)

    def test_transfer_identity(self):
        # L_S Gamma v = (Phi^T Phi Xi - Id) L_T v
        r = np.random.default_rng(10)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [0, 3])
        s = t.complement()
        ls = l_op.entries @ s.projector_matrix()
        lt = l_op.entries @ t.projector_matrix()
        gamma = ic_context(phi, l_op, t).gamma
        for _ in range(20):
            v = r.standard_normal(6)
            gv = gamma @ v
            w = lt @ v
            xi_w = xi_apply(phi, LinearOperator(ls.T), w)
            rhs = phi.entries.T @ (phi.entries @ xi_w) - w
            assert np.linalg.norm(ls @ gv - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_range_inside_inactive_image(self):
        r = np.random.default_rng(12)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [2])
        v = r.standard_normal(6)
        gv = ic_context(phi, l_op, t).gamma @ v
        # Im(Gamma) is inside Im(L_S^*) which is inside S
        assert np.linalg.norm(t.projector_matrix() @ gv) <= 1e-9 * (
            1 + np.linalg.norm(gv)
        )


def context_instance(seed, kind, t_kind, m_shift):
    """(phi, L, T) with Phi of n + m_shift rows; T is {0}, the full analysis
    space or the model of a random vector with some inactive parts."""
    r = np.random.default_rng(seed)
    if kind == "tv1d":
        n, norm = 6, l1(5)
        l_op = LinearOperator(np.diff(np.eye(n), axis=0).T)
        u = r.standard_normal(5) * (r.uniform(size=5) < 0.5)
    elif kind == "l1":
        n, norm = 5, l1(7)
        l_op = LinearOperator(r.standard_normal((n, 7)))
        u = r.standard_normal(7) * (r.uniform(size=7) < 0.4)
    elif kind == "group":
        n, norm = 6, group([[0, 1], [2, 3], [4, 5]])
        l_op = random_orthonormal(6)
        u = r.standard_normal(6) * np.repeat(r.uniform(size=3) < 0.5, 2)
    else:
        n, norm = 4, nuclear(2, 2)
        l_op = LinearOperator(r.standard_normal((4, 4)))
        u = np.outer(r.standard_normal(2), r.standard_normal(2)).reshape(-1)
    p = norm.ambient_dim
    phi = LinearOperator(r.standard_normal((n + m_shift, n)))
    if t_kind == "zero":
        t = Subspace.zero(p)
    elif t_kind == "full":
        t = Subspace(p, np.eye(p))
    else:
        t = decompose_at(norm, u).T
    return phi, l_op, t


class TestIcContext:
    """The context's one-SVD pieces against linops and numpy as oracles."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "tv1d", "group", "nuclear"]),
        t_kind=st.sampled_from(["zero", "full", "model"]),
        m_shift=st.sampled_from([-1, 0, 2]),
    )
    def test_matches_linops_helpers(self, seed, kind, t_kind, m_shift):
        phi, l_op, t = context_instance(seed, kind, t_kind, m_shift)
        ls = l_op.entries @ t.complement().projector_matrix()
        ker_ls_adj = kernel_basis(LinearOperator(ls.T))
        c_phi = restricted_injectivity_constant(phi, ker_ls_adj)
        try:
            ctx = ic_context(phi, l_op, t)
        except ValueError:
            # only a failing injectivity condition may stop the context
            s = np.linalg.svd(phi.entries @ ker_ls_adj.basis, compute_uv=False)
            assert c_phi == 0.0 or s[-1] <= RANK_RTOL * s[0]
            return

        def same_span(a: Subspace, b: Subspace):
            assert a.dim == b.dim
            assert np.allclose(a.projector_matrix(), b.projector_matrix(), atol=1e-9)

        same_span(ctx.ker_ls, kernel_basis(LinearOperator(ls)))
        # Xi maps onto ker(L_S^*), and z is feasible iff Phi^* z is in Im(L_S)
        same_span(image_basis(LinearOperator(ctx.xi)), ker_ls_adj)
        im_ls = image_basis(LinearOperator(ls))
        leftover = (np.eye(l_op.rows) - im_ls.projector_matrix()) @ phi.entries.T
        same_span(ctx.z_space, kernel_basis(LinearOperator(leftover)))
        assert np.allclose(ctx.ls @ ctx.ls_pinv, im_ls.projector_matrix(), atol=1e-9)

        pinv = np.linalg.pinv(ls, rcond=RANK_RTOL)
        assert np.allclose(ctx.ls_pinv, pinv, atol=1e-9 * (1.0 + np.abs(pinv).max()))
        assert np.allclose(ctx.cols_u, ctx.S.projector_matrix() @ ctx.ker_ls.basis)
        assert ctx.c_phi == pytest.approx(c_phi, rel=1e-9)
        if np.abs(ls).max() == 0.0:
            assert ctx.c_l == np.inf
        else:
            sv = np.linalg.svd(ls, compute_uv=False)
            c_l = sv[sv > RANK_RTOL * sv[0]][-1]
            assert ctx.c_l == pytest.approx(c_l, rel=1e-9)


def tiny_ic_instance(seed=6):
    """N=4, P=4, M=3, l1: the feasible reduction is two-dimensional."""
    r = np.random.default_rng(seed)
    phi = LinearOperator(r.standard_normal((3, 4)))
    l_op = identity(4)
    norm = l1(4)
    u0 = np.array([1.5, 0.0, 0.0, 0.0])
    model = decompose_at(norm, u0)
    return phi, l_op, norm, model


class TestIcValue:
    def test_orthogonal_design_zero(self):
        phi = random_orthonormal(4)
        t = Subspace.from_coordinates(4, [0])
        norm = l1(4)
        ctx = ic_context(phi, identity(4), t)
        val = ic_value(ctx, norm, [1.0, 0, 0, 0], np.zeros(4), np.zeros(4))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_zero_direction_drops_transfer_term(self):
        phi, l_op, norm, model = tiny_ic_instance()
        ctx = ic_context(phi, l_op, model.T)
        z_dir = ctx.z_space.basis[:, 0] if ctx.z_space.dim else np.zeros(3)
        val = ic_value(ctx, norm, np.zeros(4), np.zeros(4), z_dir)
        expected = dual_norm_value(norm, ctx.ls_pinv_phi_adj @ z_dir)
        assert val == pytest.approx(expected, abs=1e-10)

    def test_formula_recomputation(self):
        # independent recomputation with a hand-rolled pseudoinverse
        phi, l_op, norm, model = tiny_ic_instance(seed=21)
        ctx = ic_context(phi, l_op, model.T)
        z = ctx.z_space.basis @ np.array([0.7, -0.2][: ctx.z_space.dim])
        u = np.zeros(4)
        val = ic_value(ctx, norm, model.e, u, z)

        ps = model.T.complement().projector_matrix()
        ls = l_op.entries @ ps
        uu, ss, vvt = np.linalg.svd(ls)
        inv = np.zeros_like(ls.T)
        for i, sv in enumerate(ss):
            if sv > 1e-10 * ss[0]:
                inv += np.outer(vvt[i], uu[:, i]) / sv
        gamma_e = ctx.gamma @ model.e
        direct = dual_norm_value(norm, gamma_e + ps @ u + inv @ (phi.entries.T @ z))
        assert val == pytest.approx(direct, abs=1e-9)

    def test_infeasible_u_named(self):
        phi, l_op, norm, model = tiny_ic_instance()
        bad_u = np.array([0.0, 1.0, 0.0, 0.0])  # in S, not in ker(L_S)
        with pytest.raises(ValueError, match="ker"):
            ic_value(ic_context(phi, l_op, model.T), norm, model.e, bad_u, np.zeros(3))

    def test_infeasible_z_named(self):
        phi, l_op, norm, model = tiny_ic_instance()
        ctx = ic_context(phi, l_op, model.T)
        bad = None
        for _ in range(50):
            z = rng.standard_normal(3)
            resid = z - ctx.z_space.basis @ (ctx.z_space.basis.T @ z)
            if np.linalg.norm(resid) > 1e-3:
                bad = z
                break
        with pytest.raises(ValueError, match="Im"):
            ic_value(ctx, norm, model.e, np.zeros(4), bad)


class TestMinimizeIc:
    def test_orthogonal_design_attains_zero(self):
        phi = random_orthonormal(4)
        t = Subspace.from_coordinates(4, [0])
        e = np.array([1.0, 0, 0, 0])
        ctx = ic_context(phi, identity(4), t)
        sol = minimize_ic_full(ctx, l1(4), e)
        assert sol.value == pytest.approx(0.0, abs=1e-8)
        assert sol.converged
        sol_u = minimize_ic_u(ctx, l1(4), e)
        assert sol_u.value == pytest.approx(0.0, abs=1e-8)

    def test_singleton_feasible_set(self):
        # ker(L_S) = T and L = Id: the u-program cannot move
        phi, l_op, norm, model = tiny_ic_instance()
        ctx = ic_context(phi, l_op, model.T)
        sol = minimize_ic_u(ctx, norm, model.e)
        base = ic_value(ctx, norm, model.e, np.zeros(4), np.zeros(3))
        assert sol.value == pytest.approx(base, abs=1e-9)

    def test_chain_inequality(self):
        opts = SolverOptions(tol=1e-9)
        checked = 0
        seed = 0
        while checked < 20:
            seed += 1
            assert seed < 500, "instance generation starved"
            r = np.random.default_rng(seed)
            phi = LinearOperator(r.standard_normal((5, 5)))
            l_adj = LinearOperator(np.vstack([np.eye(5), r.standard_normal((2, 5))]))
            l_op = l_adj.T
            norm = l1(7)
            u0 = l_adj.apply(r.standard_normal(5))
            model = decompose_at(norm, np.where(np.abs(u0) > 0.5, u0, 0.0))
            if model.T.dim == 0 or model.T.dim >= 5:
                continue
            try:
                ctx = ic_context(phi, l_op, model.T)
            except ValueError:
                continue
            full = minimize_ic_full(ctx, norm, model.e, opts)
            u_only = minimize_ic_u(ctx, norm, model.e, opts)
            zero = ic_value(ctx, norm, model.e, np.zeros(7), np.zeros(5))
            assert full.value <= u_only.value + 1e-7
            assert u_only.value <= zero + 1e-7
            checked += 1

    def test_never_beaten_by_feasible_probes(self):
        phi, l_op, norm, model = tiny_ic_instance(seed=33)
        ctx = ic_context(phi, l_op, model.T)
        sol = minimize_ic_full(ctx, norm, model.e)
        r = np.random.default_rng(0)
        for _ in range(1000):
            u = ctx.ker_ls.basis @ r.standard_normal(ctx.ker_ls.dim)
            z = ctx.z_space.basis @ r.standard_normal(ctx.z_space.dim)
            probe = ic_value(ctx, norm, model.e, u, z)
            assert sol.value <= probe + 1e-7

    def test_reduces_to_classical_correlation_coefficient(self):
        # with the identity analysis operator the zero-mode value must equal
        # the classical l1 coefficient max_j |phi_j' phi_T (phi_T' phi_T)^-1 s|
        for seed in range(10):
            r = np.random.default_rng(seed)
            m, n = 6, 9
            phi_mat = r.standard_normal((m, n))
            support = sorted(int(i) for i in r.choice(n, size=3, replace=False))
            signs = np.sign(r.standard_normal(3))
            u0 = np.zeros(n)
            u0[support] = signs * (1.0 + r.uniform(size=3))
            model = decompose_at(l1(n), u0)
            phi = LinearOperator(phi_mat)
            ctx = ic_context(phi, identity(n), model.T)
            val = ic_value(ctx, l1(n), model.e, np.zeros(n), np.zeros(m))
            phi_t = phi_mat[:, support]
            corr = phi_mat.T @ phi_t @ np.linalg.solve(phi_t.T @ phi_t, signs)
            off = [j for j in range(n) if j not in support]
            classical = np.max(np.abs(corr[off])) if off else 0.0
            assert val == pytest.approx(classical, abs=1e-10)

    def test_grid_plus_polish_oracle(self):
        # brute force over the reduced coordinates, then local refinement
        phi, l_op, norm, model = tiny_ic_instance(seed=6)
        ctx = ic_context(phi, l_op, model.T)
        assert ctx.z_space.dim == 2  # reduction is a plane
        g0 = ctx.gamma @ model.e
        cols = ctx.ls_pinv_phi_adj @ ctx.z_space.basis

        def objective(c):
            return dual_norm_value(norm, g0 + cols @ c)

        grid = np.linspace(-3.0, 3.0, 61)
        best_c, best_val = None, np.inf
        for a, b in itertools.product(grid, grid):
            val = objective(np.array([a, b]))
            if val < best_val:
                best_val, best_c = val, np.array([a, b])
        polished = optimize.minimize(objective, best_c, method="Nelder-Mead",
                                     options={"xatol": 1e-10, "fatol": 1e-12})
        oracle_val = min(best_val, float(polished.fun))

        sol = minimize_ic_full(ic_context(phi, l_op, model.T), norm, model.e)
        assert sol.value == pytest.approx(oracle_val, abs=1e-4)

    def test_group_joint_program_adapts_its_primal_weight(self):
        # criterion 4's gaussian-group instance: at the fixed step (omega = 1
        # throughout) the joint program needs about 9,000 iterations
        from decoreg.experiments import ScenarioConfig, generate_scenario

        norm = group([list(range(4 * i, 4 * i + 4)) for i in range(6)])
        cfg = ScenarioConfig(seed=2, m=20, n=24, p=24, norm=norm, signal_active=2)
        phi, l_op, _, x0, _ = generate_scenario(cfg)
        model = decompose_at(norm, l_op.T.apply(x0))
        opts = SolverOptions(tol=1e-8, max_iter=2_000)
        sol = minimize_ic_full(ic_context(phi, l_op, model.T), norm, model.e, opts)
        assert sol.converged
        assert sol.gap <= opts.tol * (1.0 + sol.value)

    def test_xi_defining_property_via_context(self):
        phi, l_op, norm, model = tiny_ic_instance(seed=14)
        ctx = ic_context(phi, l_op, model.T)
        ls_adj = (l_op.entries @ model.T.complement().projector_matrix()).T
        ker = kernel_basis(LinearOperator(ls_adj))
        lt = ctx.lt
        for _ in range(20):
            v = rng.standard_normal(4)
            w = lt @ v
            resid = phi.entries.T @ (phi.entries @ (ctx.xi @ w)) - w
            assert np.linalg.norm(ker.basis.T @ resid) <= 1e-9 * (1 + np.linalg.norm(w))


def l1_ic_instance(seed, n, m, analysis, jumps):
    """Random l1 joint-IC program: Gaussian phi, identity or tv1d analysis,
    a signal whose analysis image is supported on ``jumps`` random rows."""
    from decoreg.experiments import difference_operator_1d

    r = np.random.default_rng(seed)
    phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
    l_adj = identity(n) if analysis == "identity" else difference_operator_1d(n)
    u0 = np.zeros(l_adj.rows)
    support = r.choice(l_adj.rows, size=jumps, replace=False)
    u0[support] = np.sign(r.standard_normal(jumps)) * (1.0 + r.uniform(size=jumps))
    # identity: x0 = u0; tv1d: integrate the jumps
    x0 = u0 if analysis == "identity" else np.r_[0.0, np.cumsum(u0)]
    model = decompose_at(l1(l_adj.rows), l_adj.apply(x0))
    return phi, l_adj.T, l1(l_adj.rows), model


def joint_program(ctx, e):
    """g0 and columns of the joint IC program, as minimize_ic_full forms them."""
    cols = np.hstack(
        [ctx.S.projector_matrix() @ ctx.ker_ls.basis, ctx.ls_pinv_phi_adj @ ctx.z_space.basis]
    )
    return ctx.gamma @ e, cols


class TestL1ProgramLp:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 12),
        shortfall=st.integers(1, 3),
        analysis=st.sampled_from(["identity", "tv1d"]),
        jumps=st.integers(1, 3),
    )
    def test_lp_against_pdhg(self, seed, n, shortfall, analysis, jumps):
        phi, l_op, norm, model = l1_ic_instance(seed, n, n - shortfall, analysis, jumps)
        try:
            ctx = ic_context(phi, l_op, model.T)
        except ValueError:
            assume(False)
        opts = SolverOptions(tol=1e-9)
        lp = minimize_ic_full(ctx, norm, model.e, opts)
        assert lp.converged
        g0, cols = joint_program(ctx, model.e)
        keep = np.linalg.norm(cols, axis=0) > 1e-12 * (1.0 + np.linalg.norm(g0))
        cols = cols[:, keep]
        assume(cols.shape[1] > 0)
        q_im = image_basis(LinearOperator(cols)).basis
        pdhg_opts = SolverOptions(tol=1e-9, max_iter=20_000)
        _, pdhg_value, pdhg_gap, _, _ = _min_dual_norm_pdhg(
            norm, g0, q_im, np.zeros(q_im.shape[1]), pdhg_opts
        )
        assert lp.value <= pdhg_value + 1e-12
        assert pdhg_value - lp.value <= pdhg_gap + lp.gap + 1e-15
        # value - gap is a lower bound on the program: below every feasible value
        lower = lp.value - lp.gap
        assert lower <= pdhg_value + 1e-12
        r = np.random.default_rng(seed)
        for _ in range(50):
            u = ctx.ker_ls.basis @ r.standard_normal(ctx.ker_ls.dim)
            z = ctx.z_space.basis @ r.standard_normal(ctx.z_space.dim)
            probe = ic_value(ctx, norm, model.e, u, z)
            assert lower <= probe + 1e-12
            assert pdhg_value - pdhg_gap <= probe + 1e-12

    def test_lp_failure_is_unconverged(self, monkeypatch):
        phi, l_op, norm, model = l1_ic_instance(3, 10, 8, "tv1d", 2)
        ctx = ic_context(phi, l_op, model.T)
        solved = minimize_ic_full(ctx, norm, model.e)
        assert solved.converged and solved.gap <= 1e-12

        # no pivot allowed: the start basis is not optimal, so the simplex
        # stops at its cap
        monkeypatch.setattr(solver_module, "_LP_MAX_PIVOTS", 0)
        failed = minimize_ic_full(ctx, norm, model.e)
        assert not failed.converged
        assert failed.gap == np.inf
        # the least-squares start is what comes back, with its own value
        g0, cols = joint_program(ctx, model.e)
        c_ls, *_ = np.linalg.lstsq(cols, -g0, rcond=None)
        ls_value = dual_norm_value(norm, g0 + cols @ c_ls)
        assert failed.value == pytest.approx(ls_value, rel=1e-12)
        assert failed.value >= solved.value

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        p_dim=st.integers(2, 48),
        rank_share=st.floats(0.0, 1.0),
        zero_rows=st.integers(0, 3),
        repeated_rows=st.integers(0, 3),
        g0_kind=st.sampled_from(["generic", "in", "near", "ties"]),
    )
    def test_simplex_against_highs(
        self, seed, p_dim, rank_share, zero_rows, repeated_rows, g0_kind
    ):
        r = np.random.default_rng(seed)
        k = 1 + int(rank_share * (p_dim - 2))
        cols = r.standard_normal((p_dim, k))
        rows = r.permutation(p_dim)
        cols[rows[:zero_rows]] = 0.0
        for i in range(min(repeated_rows, p_dim - 1)):
            cols[rows[-1 - i]] = cols[rows[-2 - i]]
        u, s, _ = np.linalg.svd(cols, full_matrices=False)
        q = u[:, : numerical_rank(s)]
        assume(0 < q.shape[1] < p_dim)
        g0 = r.standard_normal(p_dim)
        if g0_kind == "in":
            g0 = q @ r.standard_normal(q.shape[1])
        elif g0_kind == "near":
            g0 = q @ r.standard_normal(q.shape[1]) + 1e-6 * g0
        elif g0_kind == "ties":
            g0 = r.integers(-2, 3, size=p_dim).astype(float)
        norm = l1(p_dim)
        opts = SolverOptions(tol=1e-9)
        d, value, gap, converged, w = _min_linf_affine_lp(norm, g0, q, np.zeros(q.shape[1]), opts)
        assert converged
        assert value == pytest.approx(np.max(np.abs(g0 + q @ d)), rel=1e-15, abs=1e-15)
        # the dual candidate: feasible, and a lower bound within the gap
        assert np.linalg.norm(q.T @ w) <= 1e-12
        assert np.sum(np.abs(w)) <= 1.0 + 1e-12
        assert g0 @ w >= value - gap - 1e-15
        # HiGHS on the same LP, certified from its marginals
        ones = np.ones((p_dim, 1))
        res = optimize.linprog(
            np.r_[np.zeros(q.shape[1]), 1.0],
            A_ub=np.block([[q, -ones], [-q, -ones]]),
            b_ub=np.r_[-g0, g0],
            bounds=(None, None),
            method="highs",
        )
        assert res.status == 0
        ref_value = dual_norm_value(norm, g0 + q @ res.x[:-1])
        marginals = res.ineqlin.marginals
        ref_gap, _ = _certified_gap(
            norm, g0, q, ref_value, marginals[p_dim:] - marginals[:p_dim]
        )
        assert abs(value - ref_value) <= gap + max(ref_gap, 0.0) + 1e-15


def two_factorization_reference(norm, g0, columns, opts):
    """The affine dual-norm program as solved before one SVD served it, for
    (c, value, gap, converged): numerically null columns trimmed by a
    recursive call, an ``lstsq`` start (cut eps * max(M, N)), then the LP in
    column coordinates for l1, with its own value recomputation, or the
    splitting in orthonormal coordinates from Q^T C c_ls."""
    k = columns.shape[1]
    base = dual_norm_value(norm, g0)
    if k == 0:
        return np.zeros(0), base, 0.0, True
    keep = np.nonzero(np.linalg.norm(columns, axis=0) > 1e-12 * (1.0 + np.linalg.norm(g0)))[0]
    if keep.size < k:
        sub_c, *rest = two_factorization_reference(norm, g0, columns[:, keep], opts)
        c = np.zeros(k)
        c[keep] = sub_c
        return (c, *rest)
    c_ls, *_ = np.linalg.lstsq(columns, -g0, rcond=None)
    val_ls = dual_norm_value(norm, g0 + columns @ c_ls)
    if val_ls <= opts.tol * (1.0 + base):
        return c_ls, val_ls, val_ls, True
    u, s, vt = np.linalg.svd(columns, full_matrices=False)
    r = numerical_rank(s)
    q, s, vt = u[:, :r], s[:r], vt[:r]
    if norm.kind == "l1":
        p_dim = columns.shape[0]
        ones = np.ones((p_dim, 1))
        res = optimize.linprog(
            np.r_[np.zeros(k), 1.0],
            A_ub=np.block([[columns, -ones], [-columns, -ones]]),
            b_ub=np.r_[-g0, g0],
            bounds=(None, None),
            method="highs",
        )
        c = res.x[:k]
        value = dual_norm_value(norm, g0 + columns @ c)
        marginals = res.ineqlin.marginals
        gap, _ = _certified_gap(norm, g0, q, value, marginals[p_dim:] - marginals[:p_dim])
        return c, value, max(gap, 0.0), gap <= opts.tol * (1.0 + abs(value))
    d, d_value, gap, converged, _ = _min_dual_norm_pdhg(norm, g0, q, s * (vt @ c_ls), opts)
    c = vt.T @ (d / s)
    value = dual_norm_value(norm, g0 + columns @ c)
    return c, value, max(gap + value - d_value, 0.0), converged


def sequential_dual_norm_iterates(norm, g0, q, d, w, tau, sigma, iterations):
    """``_min_dual_norm_pdhg``'s splitting one block after the other, with no
    checks, from (d_0, w_0) and dbar_0 = d_0.  Returns the list of
    (d_k, w_k)."""
    dbar, out = d, []
    for _ in range(iterations):
        w = project_primal_ball(norm, w + sigma * (q @ dbar + g0), 1.0)
        d_new = d - tau * (q.T @ w)
        dbar = 2.0 * d_new - d
        d = d_new
        out.append((d, w))
    return out


def affine_dual_norm_iterates(norm, g0, q, d, w, tau, sigma, iterations):
    """The same iterations as ``_min_dual_norm_pdhg`` runs them, z = (d_k;
    w_{k+1}) <- K z + c and the projection of the w rows.  Returns the list
    of (d_k, w_k)."""
    r = q.shape[1]
    k, c = _affine_step(q, np.zeros(r), tau, sigma, np.zeros((r, 1)))
    c = c[:, 0] + np.r_[np.zeros(r), sigma * g0]
    z = np.concatenate([d, project_primal_ball(norm, w + sigma * (q @ d + g0), 1.0)])
    out = []
    for _ in range(iterations):
        z_before = z
        z = k @ z
        z += c
        z[r:] = project_primal_ball(norm, z[r:], 1.0)
        out.append((z[:r], z_before[r:]))
    return out


class TestAffineDualNormIteration:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear"]),
        k=st.integers(1, 10),
        weighted=st.booleans(),
        warm=st.booleans(),
        iterations=st.integers(1, 300),
    )
    def test_reproduces_the_sequential_loop(self, seed, kind, k, weighted, warm, iterations):
        # a weighted step is the one after a weight update, a warm start the
        # (d_k, w_k) a restart continues from
        norm = {
            "l1": l1(16),
            "group": group([list(range(b, b + 4)) for b in range(0, 16, 4)]),
            "nuclear": nuclear(4, 4),
        }[kind]
        r = np.random.default_rng(seed)
        q, _ = np.linalg.qr(r.standard_normal((16, k)))
        g0 = r.standard_normal(16)
        omega = r.uniform(0.1, 10.0) if weighted else 1.0
        d, w = np.zeros(k), np.zeros(16)
        if warm:
            d = r.standard_normal(k)
            w = project_primal_ball(norm, r.standard_normal(16), 1.0)
        args = (norm, g0, q, d, w, 0.99 / omega, 0.99 * omega, iterations)
        for (d_ref, w_ref), (d_aff, w_aff) in zip(
            sequential_dual_norm_iterates(*args), affine_dual_norm_iterates(*args), strict=True
        ):
            for ref, got in ((d_ref, d_aff), (w_ref, w_aff)):
                assert np.linalg.norm(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ref))


class TestAffineDualNormProgram:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear"]),
        k=st.integers(0, 6),
        log_cond=st.floats(0.0, 3.0),
        extra=st.lists(st.sampled_from(["null", "tiny", "duplicate"]), max_size=3),
        all_null=st.booleans(),
        cancel=st.booleans(),
    )
    def test_one_factorization_matches_the_reference(
        self, seed, kind, k, log_cond, extra, all_null, cancel
    ):
        norm = {
            "l1": l1(16),
            "group": group([list(range(b, b + 4)) for b in range(0, 16, 4)]),
            "nuclear": nuclear(4, 4),
        }[kind]
        r = np.random.default_rng(seed)
        u, _ = np.linalg.qr(r.standard_normal((16, k)))
        v, _ = np.linalg.qr(r.standard_normal((k, k)))
        cols = u @ np.diag(np.logspace(0.0, -log_cond, k)) @ v.T
        for what in extra:
            if what == "null":
                new = np.zeros(16)
            elif what == "tiny":
                new = 1e-13 * r.standard_normal(16) / 4.0
            else:
                new = cols[:, r.integers(k)] if k else np.zeros(16)
            cols = np.hstack([cols, new[:, None]])
        if all_null:
            cols = np.zeros_like(cols)
        # g0 in the columns' image: the least-squares point cancels it
        g0 = cols @ r.standard_normal(cols.shape[1]) if cancel else r.standard_normal(16)
        opts = SolverOptions(tol=1e-9, max_iter=5_000)
        c, value, gap, _, _ = _min_dual_norm_affine(norm, g0, cols, opts)
        ref_c, ref_value, ref_gap, _ = two_factorization_reference(norm, g0, cols, opts)
        assert c.shape == ref_c.shape == (cols.shape[1],)
        assert value == dual_norm_value(norm, g0 + cols @ c)
        assert abs(value - ref_value) <= gap + ref_gap + 1e-12
        for scale in np.logspace(-8.0, 1.0, 30):
            probe = c + scale * r.standard_normal(c.shape[0])
            assert value - gap <= dual_norm_value(norm, g0 + cols @ probe) + 1e-12
        if ref_value <= opts.tol * (1.0 + dual_norm_value(norm, g0)):
            # the minimum-norm point, which defines eta and hence C
            assert value <= opts.tol * (1.0 + dual_norm_value(norm, g0))
            assert np.allclose(c, ref_c, rtol=0.0, atol=1e-9 * (1.0 + np.linalg.norm(ref_c)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["group", "nuclear"]),
        k=st.integers(1, 10),
        log_cond=st.floats(0.0, 3.0),
        duplicate=st.booleans(),
    )
    def test_converges_with_a_sound_gap(self, seed, kind, k, log_cond, duplicate):
        if kind == "group":
            norm = group([list(range(b, b + 4)) for b in range(0, 16, 4)])
        else:
            norm = nuclear(4, 4)
        r = np.random.default_rng(seed)
        g0 = r.standard_normal(16)
        u, _ = np.linalg.qr(r.standard_normal((16, k)))
        v, _ = np.linalg.qr(r.standard_normal((k, k)))
        cols = u @ np.diag(np.logspace(0.0, -log_cond, k)) @ v.T
        if duplicate:  # a repeated column makes the program rank deficient
            cols = np.hstack([cols, cols[:, r.integers(k)][:, None]])
        c, value, gap, converged, _ = _min_dual_norm_affine(
            norm, g0, cols, SolverOptions(tol=1e-9, max_iter=2_000)
        )
        assert converged
        assert value == dual_norm_value(norm, g0 + cols @ c)
        # value - gap bounds the minimum from below: no probe, near the
        # minimizer or far from it, beats it
        for scale in np.logspace(-8.0, 1.0, 50):
            probe = c + scale * r.standard_normal(c.shape[0])
            assert value - gap <= dual_norm_value(norm, g0 + cols @ probe) + 1e-12
