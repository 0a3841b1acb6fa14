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
    projector,
    restricted_injectivity_constant,
    smallest_nonzero_singular_value,
)
from decoreg.norms import (
    decompose_at,
    dual_norm_value,
    group,
    l1,
    norm_value,
    nuclear,
    project_dual_ball,
)
from decoreg.solver import (
    Problem,
    SolverOptions,
    gamma_apply,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized,
    solve_penalized_many,
    xi_map,
)
from decoreg.solver import _composite_residual, _min_dual_norm_pdhg

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
        assert q.k_norm == p.k_norm
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


def fixed_step_reference(p, opts, init=None):
    """Reference for solves that end within the first five check windows:
    the fixed-step iteration, tau = sigma = 0.99 / ||K|| (primal weight 1
    throughout), on one column, with the solver's checks and best-iterate
    rule.  Returns (x_star, residual, iterations, converged)."""
    m, n = p.phi.rows, p.phi.cols
    big = np.vstack([p.phi.entries, p.l_adjoint.entries])
    step = 0.99 / p.k_norm
    x = np.zeros((n, 1)) if init is None else np.array(init, dtype=float).reshape(n, 1)
    xbar = x.copy()
    y = p.y[:, None]
    lam = np.array([p.lam])
    dual_fit = np.zeros((m, 1))
    dual_reg = np.zeros((p.norm.ambient_dim, 1))
    scale = 1.0 + np.linalg.norm(p.phi.entries.T @ y, axis=0)
    margin = 64.0 * np.finfo(float).eps * scale
    best_res, best_x = np.inf, x
    for it in range(1, opts.max_iter + 1):
        q = big @ xbar
        dual_fit = (dual_fit + step * (q[:m] - y)) / (1.0 + step)
        dual_reg = project_dual_ball(p.norm, dual_reg + step * q[m:], lam)
        x_new = x - step * (big.T @ np.concatenate((dual_fit, dual_reg)))
        xbar = 2.0 * x_new - x
        x = x_new
        if it % opts.check_every == 0 or it == opts.max_iter:
            res = _composite_residual(p, x, dual_reg, y, lam)
            if res[0] < best_res - margin[0]:
                best_res, best_x = res[0], x
            converged = bool(res[0] <= opts.tol * scale[0])
            if converged or it == opts.max_iter:
                return best_x[:, 0], float(best_res), it, converged


def allocating_batched_reference(problems, opts):
    """Reference for ``solve_penalized_many``: its loop written with a new
    array for every intermediate, the dual blocks joined by np.concatenate
    and projected by the public ``project_dual_ball``, and the primal-weight
    rule written out.  The in-place loop does the same arithmetic in the
    same order.  Returns one (x_star, residual, iterations, converged) per
    problem."""
    first = problems[0]
    m, n = first.phi.rows, first.phi.cols
    big = np.vstack([first.phi.entries, first.l_adjoint.entries])
    step = 0.99 / first.k_norm
    tau = sigma = step
    b = len(problems)
    init = np.zeros(n) if opts.init is None else np.asarray(opts.init, dtype=float)
    x = np.repeat(init[:, None], b, axis=1) if init.shape == (n,) else init.copy()
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
            if it >= 5 * opts.check_every:
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
        start=st.sampled_from(["zero", "shared", "per_column"]),
    )
    def test_equals_sequential_solves(self, seed, kind, lams, max_iter, start):
        norm = {
            "l1": l1(6),
            "group": group([[3, 0], [5], [1, 4, 2]]),
            "nuclear": nuclear(2, 3),
        }[kind]
        problems = shared_batch(seed, norm, 5, lams)
        b = len(problems)
        starts = np.random.default_rng(seed + 1).standard_normal((6, b))
        # the batch's init, and the start of each problem solved on its own
        init, own = {
            "zero": (None, [None] * b),
            "shared": (starts[:, 0], [starts[:, 0]] * b),
            "per_column": (starts, list(starts.T)),
        }[start]
        batched = solve_penalized_many(
            problems, SolverOptions(tol=1e-9, max_iter=max_iter, init=init)
        )
        sequential = [
            solve_penalized(p, SolverOptions(tol=1e-9, max_iter=max_iter, init=x))
            for p, x in zip(problems, own)
        ]
        assert_same_reports(batched, sequential)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["l1", "group", "nuclear"]),
        lams=st.lists(st.floats(1e-4, 1e-3), min_size=1, max_size=3),
    )
    def test_equals_sequential_solves_past_the_weight_update(self, seed, kind, lams):
        # penalties this small need more than the five check windows (250
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
        start=st.sampled_from(["zero", "shared", "per_column"]),
    )
    def test_matches_the_allocating_reference(self, seed, kind, lams, max_iter, start):
        # spread penalties leave the batch at different checks, and every
        # budget runs past the first primal-weight update (iteration 250)
        norm = {
            "l1": l1(6),
            "group": group([[3, 0], [5], [1, 4, 2]]),
            "nuclear": nuclear(2, 3),
        }[kind]
        problems = shared_batch(seed, norm, 5, lams)
        starts = np.random.default_rng(seed + 1).standard_normal((6, len(problems)))
        init = {"zero": None, "shared": starts[:, 0], "per_column": starts}[start]
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
        max_iter=st.sampled_from([137, 250, 5_000]),
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
        if it_ref <= 250:
            # the primal weight has not moved: bit for bit the fixed-step solve
            assert report.iterations == it_ref
            assert report.converged == converged_ref
            assert np.array_equal(report.x_star, x_ref)
            assert report.optimality_residual == res_ref
        else:
            # not converged at any check of the first 250 iterations either
            assert report.iterations > 250

    @pytest.mark.parametrize("check_every", [0, -1])
    def test_check_every_checked(self, check_every):
        opts = SolverOptions(check_every=check_every)
        from decoreg.experiments import solve_vanishing

        p = l1_problem(4, 6, lam=0.1, seed=1)
        for solve in (solve_penalized, solve_vanishing):
            with pytest.raises(ValueError, match="check_every must be at least 1"):
                solve(p, opts)
        g0 = np.array([1.0, -2.0, 0.5])
        cols = np.array([[1.0], [1.0], [0.0]])
        with pytest.raises(ValueError, match="check_every must be at least 1"):
            _min_dual_norm_pdhg(
                group([[0, 1], [2]]), g0, cols, cols / np.sqrt(2.0), np.zeros(1), opts
            )

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
        # one start per column: an (N, B) init, N = 7 unknowns rather than P = 6
        starts = np.column_stack([np.linspace(-1.0, 1.0, 7), np.linspace(2.0, 0.0, 7)])
        assert_same_reports(
            solve_penalized_many(problems, SolverOptions(tol=1e-10, init=starts)),
            [
                solve_penalized(p, SolverOptions(tol=1e-10, init=x))
                for p, x in zip(problems, starts.T)
            ],
        )

    def test_init_shape_checked(self):
        problems = shared_batch(3, l1(6), 5, [0.1, 0.2])
        for shape in [(6, 3), (7,), (6, 1), (2, 6), (7, 2)]:
            with pytest.raises(ValueError, match="init has shape"):
                solve_penalized_many(problems, SolverOptions(init=np.zeros(shape)))

    def test_step_uses_exact_operator_norm(self):
        p = l1_problem(5, 7, lam=0.1, seed=8)
        stacked = np.vstack([p.phi.entries, p.l_adjoint.entries])
        assert p.k_norm == pytest.approx(np.linalg.norm(stacked, 2), rel=1e-14)

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


class TestXiMap:
    def test_unconstrained_normal_equations(self):
        # trivial analysis restriction: full space, invertible measurements
        phi = LinearOperator(rng.standard_normal((4, 4)) + 4 * np.eye(4))
        l_s_adj = LinearOperator(np.zeros((4, 4)))
        h = rng.standard_normal(4)
        expected = np.linalg.solve(phi.entries.T @ phi.entries, h)
        assert np.allclose(xi_map(phi, l_s_adj, h), expected, atol=1e-9)

    def test_orthonormal_design_projects(self):
        phi = random_orthonormal(5)
        model_T = Subspace.from_coordinates(5, [0, 2])
        s = model_T.complement()
        l_s_adj = LinearOperator(projector(s).entries)  # L = Id
        h = rng.standard_normal(5)
        assert np.allclose(xi_map(phi, l_s_adj, h), model_T.project(h), atol=1e-9)

    def test_defining_optimality(self):
        r = np.random.default_rng(8)
        phi = LinearOperator(r.standard_normal((6, 5)))
        l_adj = LinearOperator(r.standard_normal((4, 5)))
        s = Subspace.from_coordinates(4, [1, 3])
        l_s_adj = LinearOperator(projector(s).entries @ l_adj.entries)
        ker = kernel_basis(l_s_adj)
        for _ in range(20):
            h = r.standard_normal(5)
            out = xi_map(phi, l_s_adj, h)
            resid = phi.entries.T @ (phi.entries @ out) - h
            assert np.linalg.norm(ker.basis.T @ resid) <= 1e-9 * (
                1 + np.linalg.norm(h)
            )

    def test_injectivity_failure_raises(self):
        phi = LinearOperator(np.diag([1.0, 0.0]))
        l_s_adj = LinearOperator(np.zeros((2, 2)))  # kernel is everything
        with pytest.raises(ValueError):
            xi_map(phi, l_s_adj, [1.0, 1.0])


class TestGammaApply:
    def test_orthogonal_design_vanishes(self):
        phi = random_orthonormal(4)
        t = Subspace.from_coordinates(4, [1])
        s = t.complement()
        v = rng.standard_normal(4)
        out = gamma_apply(phi, identity(4), t, s, v)
        assert np.allclose(out, 0.0, atol=1e-9)

    def test_zero_input(self):
        r = np.random.default_rng(4)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [0, 1])
        out = gamma_apply(phi, l_op, t, t.complement(), np.zeros(6))
        assert np.allclose(out, 0.0)

    def test_transfer_identity(self):
        # L_S Gamma v = (Phi^T Phi Xi - Id) L_T v
        r = np.random.default_rng(10)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [0, 3])
        s = t.complement()
        ls = l_op.entries @ projector(s).entries
        lt = l_op.entries @ projector(t).entries
        xi = None
        for _ in range(20):
            v = r.standard_normal(6)
            gv = gamma_apply(phi, l_op, t, s, v)
            w = lt @ v
            xi_w = xi_map(phi, LinearOperator(ls.T), w)
            rhs = phi.entries.T @ (phi.entries @ xi_w) - w
            assert np.linalg.norm(ls @ gv - rhs) <= 1e-9 * (1 + np.linalg.norm(rhs))

    def test_mismatched_complement_rejected(self):
        r = np.random.default_rng(2)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [0, 3])
        not_s = Subspace.from_coordinates(6, [1, 2])  # misses two coordinates
        with pytest.raises(ValueError):
            gamma_apply(phi, l_op, t, not_s, np.zeros(6))

    def test_range_inside_inactive_image(self):
        r = np.random.default_rng(12)
        phi = LinearOperator(r.standard_normal((5, 4)))
        l_op = LinearOperator(r.standard_normal((4, 6)))
        t = Subspace.from_coordinates(6, [2])
        s = t.complement()
        v = r.standard_normal(6)
        gv = gamma_apply(phi, l_op, t, s, v)
        # Im(Gamma) is inside Im(L_S^*) which is inside S
        assert np.linalg.norm(projector(t).entries @ gv) <= 1e-9 * (
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
        t = Subspace.full(p)
    else:
        t = decompose_at(norm, u).T
    return phi, l_op, t


class TestIcContext:
    """The context's one-SVD pieces against the linops helpers as oracles."""

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
            c_l = smallest_nonzero_singular_value(LinearOperator(ls.T))
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
        val = ic_value(phi, identity(4), norm, t, [1.0, 0, 0, 0], np.zeros(4), np.zeros(4))
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_zero_direction_drops_transfer_term(self):
        phi, l_op, norm, model = tiny_ic_instance()
        ctx = ic_context(phi, l_op, model.T)
        z_dir = ctx.z_space.basis[:, 0] if ctx.z_space.dim else np.zeros(3)
        val = ic_value(phi, l_op, norm, model.T, np.zeros(4), np.zeros(4), z_dir)
        expected = dual_norm_value(norm, ctx.ls_pinv_phi_adj @ z_dir)
        assert val == pytest.approx(expected, abs=1e-10)

    def test_formula_recomputation(self):
        # independent recomputation with a hand-rolled pseudoinverse
        phi, l_op, norm, model = tiny_ic_instance(seed=21)
        ctx = ic_context(phi, l_op, model.T)
        z = ctx.z_space.basis @ np.array([0.7, -0.2][: ctx.z_space.dim])
        u = np.zeros(4)
        val = ic_value(phi, l_op, norm, model.T, model.e, u, z)

        ps = projector(model.T.complement()).entries
        ls = l_op.entries @ ps
        uu, ss, vvt = np.linalg.svd(ls)
        inv = np.zeros_like(ls.T)
        for i, sv in enumerate(ss):
            if sv > 1e-10 * ss[0]:
                inv += np.outer(vvt[i], uu[:, i]) / sv
        gamma_e = gamma_apply(phi, l_op, model.T, model.T.complement(), model.e)
        direct = dual_norm_value(norm, gamma_e + ps @ u + inv @ (phi.entries.T @ z))
        assert val == pytest.approx(direct, abs=1e-9)

    def test_infeasible_u_named(self):
        phi, l_op, norm, model = tiny_ic_instance()
        bad_u = np.array([0.0, 1.0, 0.0, 0.0])  # in S, not in ker(L_S)
        with pytest.raises(ValueError, match="ker"):
            ic_value(phi, l_op, norm, model.T, model.e, bad_u, np.zeros(3))

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
            ic_value(phi, l_op, norm, model.T, model.e, np.zeros(4), bad)


class TestMinimizeIc:
    def test_orthogonal_design_attains_zero(self):
        phi = random_orthonormal(4)
        t = Subspace.from_coordinates(4, [0])
        e = np.array([1.0, 0, 0, 0])
        sol = minimize_ic_full(phi, identity(4), l1(4), t, e)
        assert sol.value == pytest.approx(0.0, abs=1e-8)
        assert sol.converged
        sol_u = minimize_ic_u(phi, identity(4), l1(4), t, e)
        assert sol_u.value == pytest.approx(0.0, abs=1e-8)

    def test_singleton_feasible_set(self):
        # ker(L_S) = T and L = Id: the u-program cannot move
        phi, l_op, norm, model = tiny_ic_instance()
        sol = minimize_ic_u(phi, l_op, norm, model.T, model.e)
        base = ic_value(phi, l_op, norm, model.T, model.e, np.zeros(4), np.zeros(3))
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
            full = minimize_ic_full(phi, l_op, norm, model.T, model.e, opts, ctx=ctx)
            u_only = minimize_ic_u(phi, l_op, norm, model.T, model.e, opts, ctx=ctx)
            zero = ic_value(
                phi, l_op, norm, model.T, model.e, np.zeros(7), np.zeros(5), ctx=ctx
            )
            assert full.value <= u_only.value + 1e-7
            assert u_only.value <= zero + 1e-7
            checked += 1

    def test_never_beaten_by_feasible_probes(self):
        phi, l_op, norm, model = tiny_ic_instance(seed=33)
        ctx = ic_context(phi, l_op, model.T)
        sol = minimize_ic_full(phi, l_op, norm, model.T, model.e, ctx=ctx)
        r = np.random.default_rng(0)
        for _ in range(1000):
            u = ctx.ker_ls.basis @ r.standard_normal(ctx.ker_ls.dim)
            z = ctx.z_space.basis @ r.standard_normal(ctx.z_space.dim)
            probe = ic_value(phi, l_op, norm, model.T, model.e, u, z, ctx=ctx)
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
            val = ic_value(
                phi, identity(n), l1(n), model.T, model.e, np.zeros(n), np.zeros(m)
            )
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

        sol = minimize_ic_full(phi, l_op, norm, model.T, model.e)
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
        sol = minimize_ic_full(phi, l_op, norm, model.T, model.e, opts)
        assert sol.converged
        assert sol.gap <= opts.tol * (1.0 + sol.value)

    def test_xi_defining_property_via_context(self):
        phi, l_op, norm, model = tiny_ic_instance(seed=14)
        ctx = ic_context(phi, l_op, model.T)
        ls_adj = (l_op.entries @ projector(model.T.complement()).entries).T
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
        lp = minimize_ic_full(phi, l_op, norm, model.T, model.e, opts, ctx=ctx)
        assert lp.converged
        g0, cols = joint_program(ctx, model.e)
        keep = np.linalg.norm(cols, axis=0) > 1e-12 * (1.0 + np.linalg.norm(g0))
        cols = cols[:, keep]
        assume(cols.shape[1] > 0)
        q_im = image_basis(LinearOperator(cols)).basis
        pdhg_opts = SolverOptions(tol=1e-9, max_iter=20_000)
        _, pdhg_value, pdhg_gap, _, _ = _min_dual_norm_pdhg(
            norm, g0, cols, q_im, np.zeros(cols.shape[1]), pdhg_opts
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
            probe = ic_value(phi, l_op, norm, model.T, model.e, u, z, ctx=ctx)
            assert lower <= probe + 1e-12
            assert pdhg_value - pdhg_gap <= probe + 1e-12

    def test_lp_failure_is_unconverged(self, monkeypatch):
        phi, l_op, norm, model = l1_ic_instance(3, 10, 8, "tv1d", 2)
        ctx = ic_context(phi, l_op, model.T)
        solved = minimize_ic_full(phi, l_op, norm, model.T, model.e, ctx=ctx)
        assert solved.converged and solved.gap <= 1e-12

        def failing_linprog(*args, **kwargs):
            return optimize.OptimizeResult(
                status=4, success=False, x=None, message="numerical difficulties"
            )

        monkeypatch.setattr(optimize, "linprog", failing_linprog)
        failed = minimize_ic_full(phi, l_op, norm, model.T, model.e, ctx=ctx)
        assert not failed.converged
        assert failed.gap == np.inf
        # the least-squares start is what comes back, with its own value
        g0, cols = joint_program(ctx, model.e)
        c_ls, *_ = np.linalg.lstsq(cols, -g0, rcond=None)
        ls_value = dual_norm_value(norm, g0 + cols @ c_ls)
        assert failed.value == pytest.approx(ls_value, rel=1e-12)
        assert failed.value >= solved.value
