import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoreg import experiments, solver
from decoreg.cli import main as cli_main
from decoreg.experiments import (
    ConfigError,
    ScenarioConfig,
    difference_operator_1d,
    difference_operator_2d,
    first_order_residual,
    generate_scenario,
    noise_in_ball,
    oracle_solve,
    parseval_frame_analysis,
    run_scenario,
    solve_trials,
    solve_vanishing,
    vanishing_penalty,
)
from decoreg.linops import identity, kernel_basis, LinearOperator, write_operator_csv
from decoreg.norms import (
    decompose_at,
    dual_norm_value,
    group,
    l1,
    norm_value,
    nuclear,
)
from decoreg.solver import Problem, SolverOptions, solve_penalized
from test_norms import prox

rng = np.random.default_rng(9)


def base_config(**overrides):
    cfg = dict(
        seed=7,
        m=12,
        n=16,
        p=16,
        norm=l1(16),
        phi_kind="gaussian",
        l_kind="identity",
        signal_kind="analysis_sparse",
        signal_active=3,
        epsilons=(0.001, 0.01, 0.1),
        coupling_c=1.0,
        noise_draws=1,
        tol=1e-9,
    )
    cfg.update(overrides)
    return ScenarioConfig(**cfg)


class TestDifferenceOperators:
    def test_1d_stencil(self):
        d = difference_operator_1d(4)
        expected = np.array(
            [[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0], [0.0, 0.0, -1.0, 1.0]]
        )
        assert np.array_equal(d.entries, expected)

    def test_1d_kills_constants(self):
        d = difference_operator_1d(9)
        assert np.allclose(d.apply(np.ones(9)), 0.0)

    def test_2d_shape_and_constants(self):
        h, w = 3, 4
        d = difference_operator_2d(h, w)
        assert d.rows == 2 * h * w - h - w
        assert d.cols == h * w
        assert np.allclose(d.apply(np.ones(h * w)), 0.0)

    def test_2d_single_step_edge(self):
        d = difference_operator_2d(2, 2)
        img = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(-1)
        out = d.apply(img)
        # two horizontal differences of 1, two vertical differences of 0
        assert sorted(out.tolist()) == [0.0, 0.0, 1.0, 1.0]


class TestParsevalFrame:
    def test_columns_orthonormal(self):
        op = parseval_frame_analysis(9, 5, np.random.default_rng(2))
        gram = op.entries.T @ op.entries
        assert np.allclose(gram, np.eye(5), atol=1e-12)

    def test_needs_redundancy(self):
        with pytest.raises(ConfigError):
            parseval_frame_analysis(3, 5, np.random.default_rng(2))


class TestNoise:
    def test_inside_ball(self):
        r = np.random.default_rng(0)
        for eps in (1e-3, 0.5, 2.0):
            for _ in range(50):
                w = noise_in_ball(r, 6, eps)
                assert np.linalg.norm(w) <= eps

    def test_zero_eps(self):
        assert np.array_equal(noise_in_ball(np.random.default_rng(0), 4, 0.0), np.zeros(4))


class TestScenarioValidation:
    def test_tv1d_dims(self):
        with pytest.raises(ConfigError):
            base_config(l_kind="tv1d", p=16)

    def test_tv2d_dims(self):
        with pytest.raises(ConfigError):
            base_config(l_kind="tv2d", l_height=4, l_width=4, p=16)

    def test_epsilons_ascending(self):
        with pytest.raises(ConfigError):
            base_config(epsilons=(0.1, 0.01))

    def test_epsilons_nonnegative(self):
        with pytest.raises(ConfigError):
            base_config(epsilons=(-0.1, 0.01))

    def test_norm_dim_consistency(self):
        with pytest.raises(ConfigError):
            base_config(norm=l1(4))

    def test_support_overflow(self):
        cfg = base_config(signal_active=17)
        with pytest.raises(ConfigError):
            generate_scenario(cfg)

    def test_json_roundtrip(self, tmp_path):
        payload = {
            "seed": 3,
            "dims": {"m": 6, "n": 8, "p": 8},
            "phi": {"kind": "gaussian"},
            "l": {"kind": "identity"},
            "norm": {"kind": "l1"},
            "signal": {"kind": "analysis_sparse", "active": 2},
            "epsilons": [0.01],
            "coupling_c": 2.0,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        cfg = ScenarioConfig.from_json(path)
        assert cfg.seed == 3 and cfg.coupling_c == 2.0
        assert cfg.norm.kind == "l1" and cfg.norm.ambient_dim == 8

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json(path)


class TestGenerateScenario:
    def test_deterministic(self):
        cfg = base_config()
        a = generate_scenario(cfg)
        b = generate_scenario(cfg)
        assert np.array_equal(a[0].entries, b[0].entries)
        assert np.array_equal(a[3], b[3])
        for ya, yb in zip(a[4], b[4]):
            assert np.array_equal(ya, yb)

    def test_convolution_matches_the_loop(self):
        # the circulant built entry by entry, wrap-around sums (n < 3) included
        for n in range(1, 40):
            cfg = base_config(phi_kind="convolution", m=n, n=n, p=n, norm=l1(n), signal_active=1)
            phi = experiments._build_phi(cfg, np.random.default_rng(n))
            taps = np.random.default_rng(n).standard_normal(max(3, n // 4))
            taps /= np.linalg.norm(taps)
            ref = np.zeros((n, n))
            for i in range(n):
                for k, t in enumerate(taps):
                    ref[i, (i + k) % n] += t
            assert np.array_equal(phi.entries, ref), n

    def test_zero_epsilon_is_clean(self):
        cfg = base_config(epsilons=(0.0, 0.01))
        phi, l_op, norm, x0, ys = generate_scenario(cfg)
        assert np.array_equal(ys[0], phi.apply(x0))

    def test_model_dimension_honored(self):
        cfg = base_config(signal_active=4)
        phi, l_op, norm, x0, _ = generate_scenario(cfg)
        model = decompose_at(norm, l_op.T.apply(x0))
        assert len(model.active) == 4

    def test_group_signal(self):
        blocks = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        cfg = base_config(norm=group(blocks), signal_active=2)
        phi, l_op, norm, x0, _ = generate_scenario(cfg)
        model = decompose_at(norm, l_op.T.apply(x0))
        assert len(model.active) == 2

    def test_low_rank_signal(self):
        cfg = base_config(
            norm=nuclear(4, 4), signal_kind="low_rank", signal_rank=1, m=14
        )
        phi, l_op, norm, x0, _ = generate_scenario(cfg)
        s = np.linalg.svd(x0.reshape(4, 4, order="F"), compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) == 1

    def test_tv1d_piecewise_constant(self):
        cfg = base_config(l_kind="tv1d", p=15, norm=l1(15), signal_active=2, m=14)
        phi, l_op, norm, x0, _ = generate_scenario(cfg)
        jumps = np.abs(np.diff(x0)) > 1e-9
        assert jumps.sum() == 2

    def test_tv2d_scenario(self):
        h, w = 3, 3
        p = 2 * h * w - h - w
        cfg = base_config(
            l_kind="tv2d",
            l_height=h,
            l_width=w,
            n=h * w,
            m=9,
            p=p,
            norm=l1(p),
            signal_active=3,
        )
        phi, l_op, norm, x0, _ = generate_scenario(cfg)
        model = decompose_at(norm, l_op.T.apply(x0))
        assert len(model.active) == 3

    def test_explicit_signal(self):
        x0 = list(range(1, 17))
        cfg = base_config(signal_kind="explicit", signal_x0=tuple(float(v) for v in x0))
        _, _, _, out, _ = generate_scenario(cfg)
        assert np.array_equal(out, np.array(x0, dtype=float))

    def test_operators_from_file(self, tmp_path):
        from decoreg.linops import write_operator_csv, LinearOperator

        r = np.random.default_rng(1)
        phi_mat = r.standard_normal((6, 8))
        l_mat = np.eye(8)
        write_operator_csv(LinearOperator(phi_mat), tmp_path / "phi.csv")
        write_operator_csv(LinearOperator(l_mat), tmp_path / "l.csv")
        cfg = base_config(
            m=6,
            n=8,
            p=8,
            norm=l1(8),
            phi_kind="from_file",
            phi_path=str(tmp_path / "phi.csv"),
            l_kind="from_file",
            l_path=str(tmp_path / "l.csv"),
            signal_active=2,
        )
        phi, l_op, norm, x0, _ = generate_scenario(cfg)
        assert np.array_equal(phi.entries, phi_mat)
        assert np.array_equal(l_op.entries, l_mat.T)

    def test_from_file_shape_mismatch(self, tmp_path):
        from decoreg.linops import write_operator_csv, LinearOperator

        write_operator_csv(LinearOperator(np.eye(3)), tmp_path / "phi.csv")
        cfg = base_config(
            m=6, phi_kind="from_file", phi_path=str(tmp_path / "phi.csv")
        )
        with pytest.raises(ConfigError):
            generate_scenario(cfg)


def oracle_cross_check_instances():
    """25 seeded instances per norm with N = 6, M in 3..6 and lambda
    log-uniform on [1e-3, 1].  L^* cycles through the identity, 1-d
    differences and a random 8 x 6 matrix; for the nuclear norm it is the
    identity or a random orthogonal matrix."""
    for kind_index, kind in enumerate(("l1", "group", "nuclear")):
        for trial in range(25):
            r = np.random.default_rng([913, kind_index, trial])
            m = int(r.integers(3, 7))
            if kind == "nuclear":
                l_adj = np.linalg.qr(r.standard_normal((6, 6)))[0] if trial % 2 else np.eye(6)
                norm = nuclear(2, 3)
            else:
                l_adj = (np.eye(6), difference_operator_1d(6).entries, r.standard_normal((8, 6)))[
                    trial % 3
                ]
                p_dim = l_adj.shape[0]
                norm = l1(p_dim) if kind == "l1" else group(
                    [range(i, min(i + 2, p_dim)) for i in range(0, p_dim, 2)]
                )
            phi = LinearOperator(r.standard_normal((m, 6)) / np.sqrt(m))
            y = r.standard_normal(m)
            lam = float(10.0 ** r.uniform(-3.0, 0.0))
            yield Problem(phi=phi, l_adjoint=LinearOperator(l_adj), norm=norm, y=y, lam=lam)


class TestOracle:
    def test_dimension_guard(self):
        p = Problem(
            phi=identity(9), l_adjoint=identity(9), norm=l1(9), y=np.zeros(9), lam=1.0
        )
        with pytest.raises(ValueError):
            oracle_solve(p)

    def test_matches_soft_threshold(self):
        y = np.array([2.0, 0.5, -3.0])
        p = Problem(phi=identity(3), l_adjoint=identity(3), norm=l1(3), y=y, lam=1.0)
        rep = oracle_solve(p)
        assert np.allclose(rep.x_star, [1.0, 0.0, -2.0], atol=1e-8)

    def test_dominant_penalty_kills_solution(self):
        y = np.array([1.0, -2.0])
        p = Problem(phi=identity(2), l_adjoint=identity(2), norm=l1(2), y=y, lam=50.0)
        rep = oracle_solve(p)
        assert np.allclose(rep.x_star, 0.0, atol=1e-10)

    def test_converged_is_the_certified_residual_verdict(self, monkeypatch):
        y = np.array([2.0, 0.5, -3.0])
        p = Problem(phi=identity(3), l_adjoint=identity(3), norm=l1(3), y=y, lam=1.0)
        rep = oracle_solve(p)
        assert rep.converged
        assert rep.optimality_residual <= 1e-9 * (1.0 + np.linalg.norm(y))
        monkeypatch.setattr(experiments, "first_order_residual", lambda p, x: 1.0)
        assert not oracle_solve(p).converged

    def test_mutual_domination(self):
        norms = {
            "l1": l1(6),
            "group": group([[0, 1, 2], [3, 4, 5]]),
            "nuclear": nuclear(2, 3),
        }
        for kind, norm in norms.items():
            for seed in range(3):
                r = np.random.default_rng(50 + seed)
                phi = LinearOperator(r.standard_normal((5, 6)) / np.sqrt(5))
                p = Problem(
                    phi=phi,
                    l_adjoint=identity(6),
                    norm=norm,
                    y=r.standard_normal(5),
                    lam=0.3,
                )
                solver = solve_penalized(p, SolverOptions(tol=1e-10))
                oracle = oracle_solve(p)
                assert oracle.objective <= solver.objective + 1e-7
                assert solver.objective <= oracle.objective + 1e-7

    def test_cross_check_with_analysis_operators(self, monkeypatch):
        """Against PDHG with L != I, and without calling it: the oracle is at
        most the PDHG objective and within 1e-7 of it."""
        problems = list(oracle_cross_check_instances())
        pdhg = [solve_penalized(p, SolverOptions(tol=1e-10)).objective for p in problems]

        def pdhg_is_off_limits(*args, **kwargs):
            raise AssertionError("the oracle called the primal-dual solver")

        for module in (experiments, solver):
            for name in ("solve_penalized", "solve_penalized_many"):
                monkeypatch.setattr(module, name, pdhg_is_off_limits)
        for p, reference in zip(problems, pdhg):
            oracle = oracle_solve(p).objective
            assert oracle <= reference + 1e-9 * (1.0 + abs(reference))
            assert abs(oracle - reference) <= 1e-7 * (1.0 + abs(reference))


class TestRunScenario:
    def test_orthogonal_design_smoke(self, tmp_path):
        cfg = base_config(
            phi_kind="identity", m=16, epsilons=(0.0, 0.01, 0.1), noise_draws=2
        )
        result = run_scenario(cfg, tmp_path)
        assert result.exit_code == 0
        assert all(r[-1] for r in result.rows)
        # noiseless rows recover the signal to solver precision
        for r in result.rows:
            if r[1] == 0.0:
                assert r[9] <= 1e-6

    def test_noiseless_sweep_plots_an_empty_figure(self, tmp_path):
        # the plot is log-log, so it draws only the eps > 0 points
        result = run_scenario(base_config(phi_kind="identity", m=16, epsilons=(0.0,)), tmp_path)
        assert result.plot_path.read_bytes() == b"<svg xmlns='http://www.w3.org/2000/svg'/>\n"

    def test_observed_below_line(self, tmp_path):
        cfg = base_config(noise_draws=2)
        result = run_scenario(cfg, tmp_path)
        assert result.exit_code == 0
        for row in result.rows:
            if row[1] > 0:
                assert row[9] <= row[10]
        assert result.plot_path.exists()
        svg = result.plot_path.read_text()
        assert svg.startswith("<svg")

    def test_csv_schema(self, tmp_path):
        cfg = base_config(noise_draws=1, plot=False)
        result = run_scenario(cfg, tmp_path)
        header = result.results_path.read_text().splitlines()[0]
        assert header == (
            "trial,epsilon,c,observed_pred,bound_pred,observed_bregman,"
            "bound_bregman,observed_ls0,bound_ls0,observed_l2,bound_l2,pass_all"
        )

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_config(noise_draws=2)
        r1 = run_scenario(cfg, tmp_path / "a")
        r2 = run_scenario(cfg, tmp_path / "b")
        assert r1.results_path.read_bytes() == r2.results_path.read_bytes()
        assert (tmp_path / "a" / "summary.txt").read_bytes() == (
            tmp_path / "b" / "summary.txt"
        ).read_bytes()

    def test_tv2d_sweep(self, tmp_path):
        h, w = 3, 4
        cfg = base_config(
            seed=2,
            m=11,
            n=h * w,
            p=2 * h * w - h - w,
            norm=l1(2 * h * w - h - w),
            l_kind="tv2d",
            l_height=h,
            l_width=w,
            signal_active=5,
            epsilons=(0.01, 0.1),
            plot=False,
        )
        result = run_scenario(cfg, tmp_path)
        assert result.exit_code == 0
        assert all(r[-1] for r in result.rows)

    def test_unconverged_trials_do_not_set_exit_1(self, tmp_path, monkeypatch):
        # five iterations leave every solve far from its minimizer, and the
        # far-off iterates miss their bounds
        solve_trials = experiments.solve_trials
        calls = []

        def recorded(*args):
            calls.append(solve_trials(*args))
            return calls[-1]

        monkeypatch.setattr(experiments, "solve_trials", recorded)
        cfg = base_config(max_iter=5, plot=False)
        result = run_scenario(cfg, tmp_path / "unconverged")
        assert not all(row[-1] for row in result.rows)
        assert result.exit_code == 0
        lines = result.summary_path.read_text().splitlines()
        assert lines[-2] == "trials 3  bound violations no"
        assert lines[-1].startswith("unconverged trials ")
        assert int(lines[-1].split()[-1]) >= 1

        # forty iterations leave every solve unconverged but inside its bounds
        inside = run_scenario(base_config(max_iter=40, plot=False), tmp_path / "inside")
        assert inside.exit_code == 0
        assert not any(report.converged for report in calls[-1])
        assert all(check.pass_all for check in inside.reports)
        # an unconverged trial is never a pass, in the rows and in results.csv
        for run, solved in zip((result, inside), calls, strict=True):
            cells = [line.split(",")[-1] for line in run.results_path.read_text().splitlines()]
            assert cells[1:] == [str(row[-1]) for row in run.rows]
            assert all(
                row[-1] is False
                for report, row in zip(solved, run.rows, strict=True)
                if not report.converged
            )

        # the same misses by solves that report convergence are violations
        monkeypatch.setattr(
            experiments,
            "solve_trials",
            lambda *args: [
                r._replace(converged=True) for r in solve_trials(*args)
            ],
        )
        result = run_scenario(cfg, tmp_path / "converged")
        assert result.exit_code == 1
        lines = result.summary_path.read_text().splitlines()
        assert lines[-2:] == ["trials 3  bound violations yes", "unconverged trials 0"]

    def test_certificate_failure_recorded(self, tmp_path):
        # one measurement cannot support a two-coordinate model
        cfg = base_config(m=1, n=3, p=3, norm=l1(3), signal_active=2, epsilons=(0.01,))
        result = run_scenario(cfg, tmp_path)
        assert result.exit_code == 0
        assert result.results_path is None
        assert "failed" in result.summary_path.read_text()


# (n, config overrides) of the instances the staged-solve property draws
STAGED_INSTANCES = {
    "l1": (8, dict(p=8, norm=l1(8), signal_active=2)),
    "tv1d": (8, dict(p=7, norm=l1(7), l_kind="tv1d", signal_active=2)),
    "group": (8, dict(p=8, norm=group([[0, 1], [2, 3], [4, 5], [6, 7]]), signal_active=1)),
    "nuclear": (8, dict(p=8, norm=nuclear(2, 4), signal_kind="low_rank", signal_rank=1)),
}


class TestSolveTrials:
    def test_matches_one_solve_per_trial(self):
        cfg = base_config(m=8, n=10, p=10, norm=l1(10), epsilons=(0.0, 0.01, 0.1))
        phi, l_op, norm, _, ys = generate_scenario(cfg)
        l_adj = l_op.T
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        # repeats of the noiseless trial (a copy of its y, as another draw
        # gives) and of a noisy one share one solve each
        trials = [(eps, y) for eps, y in zip(cfg.epsilons, ys)] + [
            (0.1, ys[0]),
            (0.0, ys[0].copy()),
            (0.01, ys[1]),
            (0.0, ys[0]),
        ]
        reports = solve_trials(phi, l_adj, norm, trials, 2.0, opts)
        # m < n gives phi a kernel, so the eps = 0.01 level starts at the
        # first eps = 0.1 solution; the noiseless solve starts at the first
        # smallest-lambda solution
        level_starts = {0.1: None, 0.01: reports[2].x_star}
        start = reports[1].x_star
        for (eps, y), report in zip(trials, reports, strict=True):
            lam = 2.0 * eps if eps > 0 else vanishing_penalty(phi, y)
            p = Problem(phi=phi, l_adjoint=l_adj, norm=norm, y=y, lam=lam)
            if eps > 0:
                alone = solve_penalized(p, opts._replace(init=level_starts[eps]))
            else:
                alone = solve_vanishing(p, opts, start=start)
            assert report.problem.lam == lam
            assert np.array_equal(report.problem.y, y)
            assert report.iterations == alone.iterations
            assert report.converged == alone.converged
            assert np.linalg.norm(report.x_star - alone.x_star) <= 1e-10 * (
                1.0 + np.linalg.norm(alone.x_star)
            )
        assert reports[4] is reports[0] and reports[6] is reports[0]
        assert reports[5] is reports[1]
        assert len({id(r) for r in reports}) == 4
        assert solve_trials(phi, l_adj, norm, [], 2.0, opts) == []

    @staticmethod
    def recorded_batches(monkeypatch):
        calls = []
        original = experiments.solve_penalized_many

        def recorded(problems, opts=None):
            reports = original(problems, opts)
            calls.append((problems, opts.init, reports))
            return reports

        monkeypatch.setattr(experiments, "solve_penalized_many", recorded)
        return calls

    def test_injective_phi_is_one_batch_from_zero(self, monkeypatch):
        cfg = base_config(m=10, n=10, p=10, norm=l1(10), epsilons=(0.001, 0.01, 0.1))
        phi, l_op, norm, x0, ys = generate_scenario(cfg)
        assert kernel_basis(phi).dim == 0
        calls = self.recorded_batches(monkeypatch)
        trials = [(eps, y) for eps, y in zip(cfg.epsilons, ys)] + [
            (0.01, phi.apply(x0) + noise_in_ball(np.random.default_rng(4), 10, 0.01))
        ]
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        reports = solve_trials(phi, l_op.T, norm, trials, 1.0, opts)
        assert len(calls) == 1
        problems, init, batch = calls[0]
        assert init is None
        assert [p.lam for p in problems] == [eps for eps, _ in trials]
        assert [id(r) for r in batch] == [id(r) for r in reports]
        for (eps, y), report in zip(trials, reports, strict=True):
            p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=eps)
            alone = solve_penalized(p, opts)
            assert report.iterations == alone.iterations
            assert report.converged == alone.converged
            assert np.linalg.norm(report.x_star - alone.x_star) <= 1e-10 * (
                1.0 + np.linalg.norm(alone.x_star)
            )

    def test_kernel_is_one_warm_started_batch_per_level(self, monkeypatch):
        cfg = base_config(
            m=12, n=16, p=16, norm=l1(16), epsilons=(0.0, 0.001, 0.01, 0.1), noise_draws=2
        )
        phi, l_op, norm, x0, ys = generate_scenario(cfg)
        assert kernel_basis(phi).dim == 4
        calls = self.recorded_batches(monkeypatch)
        draws = [phi.apply(x0) + noise_in_ball(np.random.default_rng(k), 12, 0.1) for k in (1, 2)]
        # ascending and interleaved levels, a repeated trial, 1-3 draws a level
        trials = [(eps, y) for eps, y in zip(cfg.epsilons, ys)] + [
            (0.1, draws[0]), (0.001, ys[1]), (0.01, draws[1]), (0.1, draws[1])
        ]
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        reports = solve_trials(phi, l_op.T, norm, trials, 1.0, opts)
        assert [[p.lam for p in problems] for problems, _, _ in calls] == [
            [0.1, 0.1, 0.1], [0.01, 0.01], [0.001]
        ]
        assert calls[0][1] is None
        for (_, _, above), (_, init, _) in zip(calls, calls[1:]):
            assert init is above[0].x_star
        assert reports[3] is calls[0][2][0] and reports[7] is calls[0][2][2]
        assert reports[1] is reports[5] is calls[2][2][0]
        assert all(r.converged for r in reports)

    @pytest.mark.parametrize("with_kernel", [False, True])
    @pytest.mark.parametrize("kind", sorted(STAGED_INSTANCES))
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        epsilons=st.sampled_from([(0.01, 0.1), (0.001, 0.01, 0.1), (0.001, 0.1)]),
    )
    def test_staged_reports_match_from_zero_solves(self, kind, with_kernel, seed, epsilons):
        # independent of the dispatch: every report is checked by the
        # certified residual and against a solve of its own from zero.  A
        # solve stops on its own residual, whose subgradient candidate comes
        # from the dual iterate; the certified residual at the same point
        # read up to 3.2 tol (1 + ||Phi^* y||) on 30 drawn nuclear sweeps
        # with a kernel, staged and from zero alike, hence the factor 10
        n, overrides = STAGED_INSTANCES[kind]
        cfg = base_config(
            seed=seed, m=n - 2 if with_kernel else n, n=n, epsilons=epsilons, noise_draws=2,
            **overrides,
        )
        phi, l_op, norm, x0, ys = generate_scenario(cfg)
        assert (kernel_basis(phi).dim > 0) == with_kernel
        draws = [phi.apply(x0) + noise_in_ball(np.random.default_rng(seed), cfg.m, eps)
                 for eps in epsilons]
        trials = list(zip(epsilons, ys)) + list(zip(epsilons, draws))
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        for report in solve_trials(phi, l_op.T, norm, trials, 1.0, opts):
            p = report.problem
            scale = 1.0 + np.linalg.norm(phi.entries.T @ p.y)
            alone = solve_penalized(p, opts)
            assert report.converged
            assert first_order_residual(p, report.x_star) <= 10.0 * cfg.tol * scale
            assert abs(report.objective - alone.objective) <= cfg.tol * scale

    def test_noiseless_solve_starts_at_the_first_smallest_lambda_solution(self, monkeypatch):
        cfg = base_config(m=8, n=10, p=10, norm=l1(10), epsilons=(0.0, 0.01, 0.1))
        phi, l_op, norm, _, ys = generate_scenario(cfg)
        starts = []
        original = experiments.solve_vanishing

        def recorded(problem, opts, start=None):
            starts.append(start)
            return original(problem, opts, start=start)

        monkeypatch.setattr(experiments, "solve_vanishing", recorded)
        trials = [(0.1, ys[2]), (0.01, ys[1]), (0.0, ys[0]), (0.01, ys[2])]
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        reports = solve_trials(phi, l_op.T, norm, trials, 2.0, opts)
        assert len(starts) == 1 and starts[0] is reports[1].x_star
        solve_trials(phi, l_op.T, norm, trials[2:3], 2.0, opts)
        assert starts[1] is None

    def test_sweep_solves_the_noiseless_problem_once(self, tmp_path, monkeypatch):
        calls = []
        original = experiments.solve_vanishing

        def counted(problem, opts, start=None):
            calls.append(problem)
            return original(problem, opts, start=start)

        monkeypatch.setattr(experiments, "solve_vanishing", counted)
        cfg = base_config(m=14, epsilons=(0.0, 0.01), noise_draws=3, plot=False)
        result = run_scenario(cfg, tmp_path)
        assert len(result.rows) == 6
        assert len(calls) == 1
        # the three noiseless rows report the one shared solve
        assert result.rows[0][3:] == result.rows[1][3:] == result.rows[2][3:]

    def test_sweep_verifies_each_distinct_solve_once(self, tmp_path, monkeypatch):
        calls = []
        original = experiments.verify_bounds

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "verify_bounds", counted)
        cfg = base_config(m=14, epsilons=(0.0, 0.01), noise_draws=3, plot=False)
        result = run_scenario(cfg, tmp_path)
        assert len(result.rows) == len(result.reports) == 6
        # one check for the shared noiseless solve, one per noisy draw
        assert len(calls) == 4
        assert result.reports[0] is result.reports[1] is result.reports[2]
        assert len({id(r) for r in result.reports[3:]}) == 3

    def test_sweep_checks_the_certificate_alpha_once(self, tmp_path, monkeypatch):
        calls = []
        original = experiments.bregman

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "bregman", counted)
        cfg = base_config(m=14, noise_draws=2, plot=False)
        assert len(run_scenario(cfg, tmp_path / "valid").rows) == 6
        assert len(calls) == 1

        build = experiments.build_certificate

        def flipped(*args, **kwargs):
            cert = build(*args, **kwargs)
            return cert._replace(alpha=-cert.alpha)

        monkeypatch.setattr(experiments, "build_certificate", flipped)
        with pytest.raises(ValueError, match="not a subgradient"):
            run_scenario(cfg, tmp_path / "flipped")

    @pytest.mark.parametrize(
        "command, mode",
        [
            ("stability-sweep", "full"),
            ("stability-sweep", "u_only"),
            ("stability-sweep", "zero"),
            ("certify", "full"),
            ("check-uniqueness", "full"),
        ],
        ids=["full", "u_only", "zero", "certify", "check-uniqueness"],
    )
    def test_sweep_builds_the_ic_context_once(self, tmp_path, monkeypatch, command, mode):
        """One context, one certificate and one pass of the IC chain and the
        null-space check per command; the constants and the bound checks of
        every trial read the model from the context instead of deriving it
        again with ``Subspace.complement``."""
        import decoreg.certificates as certificates
        import decoreg.cli as cli
        import decoreg.experiments as experiments
        import decoreg.guarantees as guarantees
        import decoreg.solver as solver
        from decoreg.linops import Subspace

        calls = dict.fromkeys(
            ["ic_context", "build_certificate", "minimize_ic_full", "minimize_ic_u",
             "strong_nsp_check"],
            0,
        )
        rederived = {"complement": 0}
        inside = [0]  # depth of calls into the context consumers

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        def consumer(name):
            original = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                inside[0] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    inside[0] -= 1

            monkeypatch.setattr(experiments, name, wrapper)

        def rederiving(owner, attr, key):
            original = getattr(owner, attr)

            def wrapper(*args, **kwargs):
                rederived[key] += inside[0] > 0
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, wrapper)

        for module in (certificates, cli, experiments, guarantees, solver):
            for name in calls:
                if hasattr(module, name):
                    counted(module, name)
        for name in ("verify_bounds", "stability_constants"):
            consumer(name)
        rederiving(Subspace, "complement", "complement")
        # m = 14: no mode's certificate saturates, so every mode runs its
        # trials; the JSON config is the same scenario
        cfg = base_config(m=14, noise_draws=2, plot=False, certificate_mode=mode)
        if command != "stability-sweep":
            config = write_config(
                tmp_path,
                seed=7,
                dims={"m": 14, "n": 16, "p": 16},
                signal={"kind": "analysis_sparse", "active": 3},
                epsilons=[0.001, 0.01, 0.1],
                noise_draws=2,
                solver={"tol": 1e-9},
            )
            assert ScenarioConfig.from_json(config) == cfg
            assert cli_main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
            assert calls == dict.fromkeys(calls, 1)
            return
        result = run_scenario(cfg, tmp_path)
        assert len(result.rows) == 6
        assert calls == dict.fromkeys(calls, 1)
        assert rederived == {"complement": 0}
        summary = (tmp_path / "summary.txt").read_text()
        joint, u_only, zero = (
            float(v) for v in summary.split("ic chain (joint, u-only, zero): ")[1].split()[:3]
        )
        assert joint <= u_only + 1e-7 <= zero + 2e-7


RESIDUAL_NORMS = {
    "l1": l1(6),
    "group": group([[3, 0], [5], [1, 4, 2]]),
    "nuclear": nuclear(2, 3),
}


class TestFirstOrderResidual:
    @pytest.mark.parametrize("kind", sorted(RESIDUAL_NORMS))
    def test_prox_is_certified(self, kind):
        # with phi = L = I the minimizer is the proximity operator at y
        norm = RESIDUAL_NORMS[kind]
        for seed in range(5):
            y = 2.0 * np.random.default_rng(seed).standard_normal(6)
            p = Problem(phi=identity(6), l_adjoint=identity(6), norm=norm, y=y, lam=0.7)
            x = prox(norm, y, 0.7)
            assert first_order_residual(p, x) <= 1e-10
            # 1e-7 off the minimizer the bound is of that order, not of lam:
            # a coarser model drops the point's spurious small coordinates
            wobble = 1e-7 * np.random.default_rng(seed + 10).standard_normal(6)
            assert first_order_residual(p, x + wobble) <= 1e-4

    @pytest.mark.parametrize("kind, seed", [("l1", 0), ("group", 0), ("nuclear", 4)])
    def test_zero_is_certified_through_a_kernel_move(self, kind, seed):
        # y = lam L alpha* with alpha* of dual norm 0.9 (saturated on every
        # coordinate, block or singular value) makes x = 0 the minimizer; on
        # these seeds the minimum-norm alpha of the redundant L leaves the
        # unit dual ball, and only the program's move along ker L certifies
        norm = RESIDUAL_NORMS[kind]
        r = np.random.default_rng(seed)
        l_adj = r.standard_normal((6, 3))
        if kind == "l1":
            alpha_star = np.sign(r.standard_normal(6))
        elif kind == "group":
            alpha_star = r.standard_normal(6)
            for block in norm.blocks:
                alpha_star[list(block)] /= np.linalg.norm(alpha_star[list(block)])
        else:
            u, _, vt = np.linalg.svd(r.standard_normal((2, 3)), full_matrices=False)
            alpha_star = (u @ vt).reshape(-1, order="F")
        alpha_star *= 0.9
        y = 0.5 * l_adj.T @ alpha_star
        p = Problem(phi=identity(3), l_adjoint=LinearOperator(l_adj), norm=norm, y=y, lam=0.5)
        assert dual_norm_value(norm, alpha_star) == pytest.approx(0.9)
        assert dual_norm_value(norm, np.linalg.pinv(l_adj.T) @ (y / 0.5)) > 1.0
        assert first_order_residual(p, np.zeros(3)) <= 1e-9

    def test_nearly_zero_point_is_certified_by_the_zero_model(self):
        # criterion 2's group trial 11: the minimizer is 0, and a solver
        # stops near it at a point of about 6e-14 with every block nonzero,
        # whose models at every relative threshold are nonzero; without
        # T = {0} the bound read 0.92
        norm = group([[0, 1], [2, 3], [4, 5]])
        r = np.random.default_rng([812, 1, 11])
        phi = LinearOperator(r.standard_normal((5, 6)) / np.sqrt(5))
        y = r.standard_normal(5)
        p = Problem(phi=phi, l_adjoint=identity(6), norm=norm, y=y, lam=float(r.uniform(0.05, 0.5)))
        x = 1e-14 * np.array([2.0, -3.7, -1.5, 3.3, -1.9, 0.6])
        assert 0.0 < np.linalg.norm(x) <= 1e-12
        assert decompose_at(norm, x, tol=1e-3).T.dim > 0
        assert first_order_residual(p, x) <= 1e-10 * (1.0 + np.linalg.norm(phi.entries.T @ y))

    @pytest.mark.parametrize("kind", sorted(RESIDUAL_NORMS))
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.sampled_from([3, 4, 6]),
        lam=st.sampled_from([0.01, 0.1, 0.5, 2.0]),
        max_iter=st.sampled_from([0, 50, 5_000]),
    )
    def test_bound_comes_from_a_subgradient_candidate(self, seed, kind, n, lam, max_iter):
        # max_iter = 0 takes x = 0, whose model T = {0} leaves L B a kernel
        # for the affine dual-norm program whenever n < 6
        norm = RESIDUAL_NORMS[kind]
        r = np.random.default_rng(seed)
        m = int(r.integers(2, n + 1))
        p = Problem(
            phi=LinearOperator(r.standard_normal((m, n))),
            l_adjoint=LinearOperator(r.standard_normal((6, n))),
            norm=norm,
            y=r.standard_normal(m),
            lam=lam,
        )
        x = np.zeros(n)
        if max_iter:
            x = solve_penalized(p, SolverOptions(tol=1e-10, max_iter=max_iter)).x_star
        value, alpha = experiments._certified_residual(p, x)
        assert value == first_order_residual(p, x)

        u = p.l_adjoint.apply(x)
        r0 = p.phi.entries.T @ (p.phi.apply(x) - p.y)
        recomputed = np.linalg.norm(r0 + lam * (p.l_adjoint.entries.T @ alpha)) + lam * max(
            norm_value(norm, u) - alpha @ u, 0.0
        )
        assert value == pytest.approx(recomputed, rel=1e-12, abs=1e-15)
        # alpha = e + beta on one of the models read off u, beta in its
        # complement and inside the unit dual ball; T = {0} counts only when
        # u is below the documented gate
        models = [decompose_at(norm, u, tol=thr) for thr in (1e-8, 1e-6, 1e-3)]
        if np.linalg.norm(u) <= 1e-8 * (1.0 + np.linalg.norm(p.phi.entries.T @ p.y)):
            models.append(decompose_at(norm, np.zeros_like(u)))
        assert any(
            np.linalg.norm(mdl.T.project(alpha) - mdl.e) <= 1e-10
            and dual_norm_value(norm, alpha - mdl.T.project(alpha)) <= 1.0 + 1e-12
            for mdl in models
        )


class TestSolveVanishingMany:
    """The continuation at a vanishing penalty, and the polish of a start."""

    @staticmethod
    def noiseless_problem():
        cfg = base_config(m=14, epsilons=(0.0, 0.01))
        phi, l_op, norm, _, ys = generate_scenario(cfg)
        p = Problem(
            phi=phi, l_adjoint=l_op.T, norm=norm, y=ys[0], lam=vanishing_penalty(phi, ys[0])
        )
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        return p, opts, solve_penalized(p.with_data(ys[1], 0.01), opts).x_star

    def test_certified_start_runs_no_stage(self, monkeypatch):
        p, opts, start = self.noiseless_problem()
        calls = []
        original = experiments.solve_penalized

        def counted(problem, opts=None):
            calls.append(problem)
            return original(problem, opts)

        monkeypatch.setattr(experiments, "solve_penalized", counted)
        report = solve_vanishing(p, opts, start=start)
        assert report.converged
        assert report.iterations == 0
        assert calls == []
        scale = 1.0 + np.linalg.norm(p.phi.entries.T @ p.y)
        assert report.optimality_residual <= opts.tol * scale

    def test_useless_start_gives_the_unstarted_report(self):
        p, opts, _ = self.noiseless_problem()
        started = solve_vanishing(p, opts, start=np.zeros(p.phi.cols))
        alone = solve_vanishing(p, opts)
        assert np.array_equal(started.x_star, alone.x_star)
        assert (started.objective, started.optimality_residual) == (
            alone.objective, alone.optimality_residual
        )
        assert (started.iterations, started.converged) == (alone.iterations, alone.converged)
        assert alone.iterations > 0

    def test_readme_instance_alone_at_eps0(self, tmp_path):
        # the README instance with eps = 0 alone, so no start: its IC chain
        # reads joint 0.374 but u-only = zero = 1.116, so the minimal-norm
        # pre-certificate fails and the small-lambda stages carry O(lambda)
        # entries off x0's support that no polish threshold reads; the last
        # stage's polish does not certify, an earlier stage's does
        cfg = base_config(epsilons=(0.0,), noise_draws=10, plot=False)
        summary = run_scenario(cfg, tmp_path).summary_path.read_text().splitlines()
        assert "unconverged trials 0" in summary

    def test_tv1d_stage_at_tiny_penalty(self):
        # the last continuation stage, warm-started at lambda = 1e-6 (1 +
        # ||Phi^* y||), took 18,550 iterations with the fixed step; the dual
        # lives in a ball of radius lambda there, and an unclamped primal
        # weight collapses and runs the stage into max_iter
        cfg = base_config(seed=0, m=8, n=10, p=9, norm=l1(9), l_kind="tv1d", signal_active=2)
        phi, l_op, norm, _, ys = generate_scenario(cfg)
        y = ys[1]
        lam = 1e-6 * (1.0 + np.linalg.norm(phi.entries.T @ y))
        p = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=y, lam=lam)
        report = solve_vanishing(p, SolverOptions(tol=cfg.tol, max_iter=20_000))
        assert report.converged
        assert report.iterations <= 5_000


def write_config(tmp_path, **overrides):
    payload = {
        "seed": 3,
        "dims": {"m": 6, "n": 8, "p": 8},
        "phi": {"kind": "gaussian"},
        "l": {"kind": "identity"},
        "norm": {"kind": "l1"},
        "signal": {"kind": "analysis_sparse", "active": 2},
        "epsilons": [0.01, 0.1],
        "coupling_c": 1.0,
        "plot": False,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestCli:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, text in (
            ("solve", "solve the penalized problem for every noise level"),
            ("certify", "build and store the dual certificate"),
            ("check-uniqueness", "run the uniqueness verdicts for the scenario"),
            ("stability-sweep", "full pipeline with bound verification"),
            ("oracle-compare", "compare the solver against the tiny-instance oracle"),
        ):
            assert any(line.split() == [name, *text.split()] for line in out.splitlines())

    def test_unknown_command_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stability_sweep(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli_main(
            ["stability-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_solve_writes_solutions(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "solutions.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two noise levels

    def test_certify_writes_certificate(self, tmp_path):
        cfg = write_config(tmp_path)
        code = cli_main(
            ["certify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert (tmp_path / "out" / "certificate.csv").exists()

    def test_check_uniqueness(self, tmp_path):
        # every config has dim ker(Phi) >= 2; the verdicts are the sweep's,
        # and certify writes the sweep's certificate
        certificates = 0
        for i, overrides in enumerate(
            [
                {},  # m = 6, n = 8
                {"dims": {"m": 5, "n": 8, "p": 8}, "certificate_mode": "u_only"},
                {
                    "dims": {"m": 4, "n": 8, "p": 8},
                    "signal": {"kind": "analysis_sparse", "active": 3},
                },
                {
                    "dims": {"m": 4, "n": 6, "p": 6},
                    "norm": {"kind": "group", "blocks": [[1, 2], [3, 4], [5, 6]]},
                    "signal": {"kind": "analysis_sparse", "active": 1},
                },
                # no certificate: ker(L_S^*) is wider than the three
                # measurements, and the sweep still records the NSP verdict
                {
                    "seed": 0,
                    "dims": {"m": 3, "n": 8, "p": 8},
                    "signal": {"kind": "analysis_sparse", "active": 5},
                },
            ]
        ):
            cfg = write_config(tmp_path, **overrides)
            for command, out in (
                ("check-uniqueness", "u"), ("stability-sweep", "s"), ("certify", "c")
            ):
                out_dir = str(tmp_path / f"{out}{i}")
                assert cli_main([command, "--config", str(cfg), "--out", out_dir]) == 0
            certified, swept = (tmp_path / f"{out}{i}" / "certificate.csv" for out in "cs")
            assert certified.exists() == swept.exists()
            if swept.exists():
                certificates += 1
                assert certified.read_bytes() == swept.read_bytes()
            text = (tmp_path / f"u{i}" / "uniqueness.txt").read_text()
            assert "verdict" in text
            assert "unique_up_to_sampling" not in text
            nsp = text.splitlines()[0]
            assert nsp in ("strong nsp verdict: unique_certified", "strong nsp verdict: violated")
            summary = (tmp_path / f"s{i}" / "summary.txt").read_text().splitlines()
            assert nsp in summary
            # the certificate verdict too, also on a saturated certificate;
            # neither has one where no certificate exists
            assert [
                line.split(": ")[1] for line in text.splitlines()
                if line.startswith("certificate verdict: ")
            ] == [
                line.split(": ")[1] for line in summary
                if line.startswith("certificate uniqueness verdict: ")
            ]
        assert certificates == 4

    def test_frame_mode_reads_the_frame_bound_off_l(self, tmp_path):
        # L^* = F / 2 for a Parseval frame F has lower frame bound a = 1/4,
        # so C_L = sqrt(a) = 1/2; a frame_bound key in the config is ignored
        frame = parseval_frame_analysis(12, 8, np.random.default_rng(4))
        write_operator_csv(LinearOperator(0.5 * frame.entries), tmp_path / "l.csv")
        cfg = write_config(
            tmp_path,
            dims={"m": 10, "n": 8, "p": 12},
            l={"kind": "from_file", "path": str(tmp_path / "l.csv")},
            signal={"kind": "analysis_sparse", "active": 6},
            frame_mode=True,
            frame_bound=1.0,
        )
        out = tmp_path / "out"
        assert cli_main(["stability-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        line = next(
            line for line in (out / "summary.txt").read_text().splitlines()
            if line.startswith("constants: ")
        )
        constants = dict(item.split("=") for item in line.split()[1:])
        assert float(constants["c_l"]) == pytest.approx(0.5, rel=1e-12)

    def test_oracle_compare(self, tmp_path):
        cfg = write_config(tmp_path, dims={"m": 5, "n": 6, "p": 6}, epsilons=[0.05])
        code = cli_main(
            ["oracle-compare", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        text = (tmp_path / "out" / "oracle_compare.csv").read_text()
        assert "True" in text

    def test_oracle_disagreement_exits_1(self, tmp_path, monkeypatch):
        import decoreg.cli as cli

        original = cli.oracle_solve

        def shifted(p):
            report = original(p)
            return report._replace(objective=report.objective + 1.0)

        monkeypatch.setattr(cli, "oracle_solve", shifted)
        cfg = write_config(tmp_path, dims={"m": 5, "n": 6, "p": 6}, epsilons=[0.05])
        out = tmp_path / "out"
        assert cli_main(["oracle-compare", "--config", str(cfg), "--out", str(out)]) == 1
        header, row = (out / "oracle_compare.csv").read_text().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["agree"] == "False"

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, dims={"m": 6, "n": 8, "p": 4})
        code = cli_main(
            ["stability-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 2

    @pytest.mark.parametrize("out_kind", ["new", "nested", "existing"])
    def test_generation_error_leaves_what_it_found(self, tmp_path, capsys, out_kind):
        # the active set is checked when the scenario is generated, after
        # the output directory is made: a directory this call made goes,
        # one that was there stays with its contents
        cfg = write_config(tmp_path, signal={"kind": "analysis_sparse", "active": 40})
        top = tmp_path / "out"
        out = top / "a" / "b" if out_kind == "nested" else top
        if out_kind == "existing":
            out.mkdir()
            (out / "keep.txt").write_text("kept")
        code = cli_main(["stability-sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert "active set" in capsys.readouterr().err
        if out_kind == "existing":
            assert [f.name for f in out.iterdir()] == ["keep.txt"]
        else:
            assert not top.exists()

    def test_missing_config_exit_code(self, tmp_path):
        code = cli_main(
            [
                "stability-sweep",
                "--config",
                str(tmp_path / "nope.json"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("source", ["json", "flag"])
    @pytest.mark.parametrize(
        "key, value", [("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("max_iter", 0)]
    )
    def test_bad_solver_settings_write_nothing(self, tmp_path, source, key, value):
        if source == "json":
            cfg = write_config(tmp_path, solver={key: value})
            flags = []
        else:
            cfg = write_config(tmp_path)
            flags = [f"--{key.replace('_', '-')}={value}"]
        out = tmp_path / "out"
        code = cli_main(["stability-sweep", "--config", str(cfg), "--out", str(out)] + flags)
        assert code == 2
        assert not out.exists()
        with pytest.raises(ConfigError):
            base_config(**{key: value})

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"epsilons": [float("nan")]}, "epsilons"),
            ({"epsilons": [0.01, float("inf")]}, "epsilons"),
            ({"signal": {"kind": "low_rank", "rank": 0}}, "signal.rank"),
            ({"signal": {"kind": "analysis_sparse", "active": -1}}, "signal.active"),
            ({"frame_mode": 1}, "frame_mode"),
            ({"frame_mode": None}, "frame_mode"),
            ({"plot": "false"}, "plot"),
            ({"frame_mode": "false"}, "frame_mode"),
            ({"coupling_c": float("inf")}, "coupling_c"),
            ({"solver": {"tol": float("inf")}}, "solver.tol"),
        ],
        ids=[
            "epsilons-nan",
            "epsilons-inf",
            "signal.rank-0",
            "signal.active--1",
            "frame_mode-int",
            "frame_mode-null",
            "plot-str",
            "frame_mode-str",
            "coupling_c-inf",
            "solver.tol-inf",
        ],
    )
    def test_bad_values_name_their_field_and_write_nothing(
        self, tmp_path, capsys, overrides, field
    ):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        code = cli_main(["stability-sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"signal": {"kind": "explicit", "x0": [float("nan")] + [1.0] * 7}}, "signal.x0"),
            ({"phi": {"kind": "from_file"}}, "phi.path"),
            ({"l": {"kind": "from_file"}}, "l.path"),
            ({"phi": {"kind": "from_file", "path": "missing.csv"}}, "missing.csv"),
            ({"l": {"kind": "from_file", "path": "nan.csv"}}, "nan.csv"),
            ({"l": "tv1d"}, "bad scenario config"),
            # ran a sweep of zero trials and wrote empty results
            ({"epsilons": []}, "epsilons"),
            # numpy's "expected non-negative integer" named no field
            ({"seed": -3}, "seed must be nonnegative, got -3"),
            ({"phi": {"kind": "radon"}}, "unknown phi kind 'radon'"),
            ({"l": {"kind": "wavelet"}}, "unknown l kind 'wavelet'"),
            ({"signal": {"kind": "dense"}}, "unknown signal kind 'dense'"),
            ({"certificate_mode": "dual"}, "unknown certificate mode 'dual'"),
            ({"phi": {"kind": "identity"}}, "identity measurements need m == n"),
            ({"phi": {"kind": "convolution"}}, "convolution measurements need m == n"),
            (
                {"dims": {"m": 6, "n": 8, "p": 10}, "l": {"kind": "tv2d"}},
                "tv2d needs height and width",
            ),
            (
                {"dims": {"m": 6, "n": 8, "p": 10}, "l": {"kind": "tv2d", "height": 2, "width": 3}},
                "tv2d needs n == height * width",
            ),
            (
                {"dims": {"m": 6, "n": 8, "p": 6}, "l": {"kind": "tight_frame"}},
                "tight_frame needs p >= n",
            ),
            (
                {"signal": {"kind": "explicit", "x0": [1.0] * 7}},
                "explicit signal needs an x0 of length n",
            ),
            ({"noise_draws": 0}, "noise_draws must be at least 1"),
            ({"dims": {"m": 0, "n": 8, "p": 8}}, "dimensions must be positive"),
            # the last two are refused while generating, after --out is made
            ({"signal": {"kind": "low_rank"}}, "low_rank signals require the nuclear norm"),
            (
                {
                    "norm": {"kind": "nuclear", "nrows": 2, "ncols": 4},
                    "signal": {"kind": "low_rank", "rank": 3},
                },
                "requested rank exceeds the matrix shape",
            ),
        ],
        ids=[
            "x0-nan", "phi-no-path", "l-no-path", "phi-missing-file", "l-nan-entry",
            "l-not-an-object", "epsilons-empty", "seed-negative",
            "phi-unknown", "l-unknown", "signal-unknown", "certificate_mode-unknown",
            "identity-m-ne-n", "convolution-m-ne-n", "tv2d-no-grid", "tv2d-n-ne-hw",
            "tight_frame-p-lt-n", "x0-wrong-length", "noise_draws-0", "dims-zero",
            "low_rank-not-nuclear", "rank-above-shape",
        ],
    )
    def test_bad_inputs_are_configuration_errors(
        self, tmp_path, capsys, monkeypatch, overrides, named
    ):
        # exit 1 means a failed bound check, so a bad input must not raise
        # its way out to it, nor run (a NaN x0 ran every trial to max_iter)
        monkeypatch.chdir(tmp_path)
        entries = np.eye(8)
        entries[2, 3] = np.nan
        write_operator_csv(LinearOperator(entries), tmp_path / "nan.csv")
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        code = cli_main(["stability-sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_grid_sides_read_as_integers(self, tmp_path):
        # "height": 2.0 is the grid side 2, as "m": 6.0 is the dimension 6
        results = []
        for height in (2, 2.0):
            cfg = write_config(
                tmp_path,
                dims={"m": 5, "n": 6, "p": 7},
                l={"kind": "tv2d", "height": height, "width": 3},
            )
            out = tmp_path / f"out-{height}"
            assert cli_main(["stability-sweep", "--config", str(cfg), "--out", str(out)]) == 0
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]

    def test_solver_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, epsilons=[0.05])
        code = cli_main(
            [
                "solve",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "out"),
                "--max-iter",
                "40",
                "--tol",
                "1e-14",
            ]
        )
        assert code == 0
        rows = (tmp_path / "out" / "solutions.csv").read_text().splitlines()
        header = rows[0].split(",")
        record = rows[1].split(",")
        assert int(record[header.index("iterations")]) == 40
        assert record[header.index("converged")] == "False"

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        cli_main(
            [
                "stability-sweep",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "a"),
                "--seed",
                "3",
            ]
        )
        cli_main(
            [
                "stability-sweep",
                "--config",
                str(cfg),
                "--out",
                str(tmp_path / "b"),
                "--seed",
                "4",
            ]
        )
        assert (tmp_path / "a" / "results.csv").read_bytes() != (
            tmp_path / "b" / "results.csv"
        ).read_bytes()
