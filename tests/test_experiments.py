import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoreg.cli import main as cli_main
from decoreg.experiments import (
    ConfigError,
    ScenarioConfig,
    difference_operator_1d,
    difference_operator_2d,
    generate_scenario,
    noise_in_ball,
    oracle_solve,
    parseval_frame_analysis,
    run_scenario,
    solve_trials,
    solve_vanishing,
    solve_vanishing_many,
    vanishing_penalty,
)
from decoreg.linops import identity, LinearOperator
from decoreg.norms import decompose_at, l1, group, nuclear
from decoreg.solver import Problem, SolverOptions, solve_penalized

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

    def test_certificate_failure_recorded(self, tmp_path):
        # one measurement cannot support a two-coordinate model
        cfg = base_config(m=1, n=3, p=3, norm=l1(3), signal_active=2, epsilons=(0.01,))
        result = run_scenario(cfg, tmp_path)
        assert result.exit_code == 0
        assert result.results_path is None
        assert "failed" in result.summary_path.read_text()


class TestSolveTrials:
    def test_matches_one_solve_per_trial(self):
        cfg = base_config(m=8, n=10, p=10, norm=l1(10), epsilons=(0.0, 0.01, 0.1))
        phi, l_op, norm, _, ys = generate_scenario(cfg)
        l_adj = l_op.T
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        trials = [(eps, y) for eps, y in zip(cfg.epsilons, ys)] + [(0.1, ys[0])]
        reports = solve_trials(phi, l_adj, norm, trials, 2.0, opts)
        for (eps, y), report in zip(trials, reports, strict=True):
            lam = 2.0 * eps if eps > 0 else vanishing_penalty(phi, y)
            p = Problem(phi=phi, l_adjoint=l_adj, norm=norm, y=y, lam=lam)
            alone = solve_penalized(p, opts) if eps > 0 else solve_vanishing(p, opts)
            assert report.problem.lam == lam
            assert report.iterations == alone.iterations
            assert report.converged == alone.converged
            assert np.linalg.norm(report.x_star - alone.x_star) <= 1e-10 * (
                1.0 + np.linalg.norm(alone.x_star)
            )

    @pytest.mark.parametrize("mode", ["full", "u_only", "zero"])
    def test_sweep_builds_the_ic_context_once(self, tmp_path, monkeypatch, mode):
        """One context per sweep; the NSP check, the constants and the bound
        checks of every trial read the model from it instead of deriving it
        again with ``decompose_at`` or ``Subspace.complement``."""
        import decoreg.certificates as certificates
        import decoreg.experiments as experiments
        import decoreg.guarantees as guarantees
        from decoreg.linops import Subspace

        calls = {"ic_context": 0, "minimize_ic_full": 0, "minimize_ic_u": 0}
        rederived = {"decompose_at": 0, "complement": 0}
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

        for module in (certificates, experiments):
            for name in calls:
                counted(module, name)
        counted(guarantees, "ic_context")
        for name in ("verify_bounds", "stability_constants", "strong_nsp_check"):
            consumer(name)
        rederiving(guarantees, "decompose_at", "decompose_at")
        rederiving(Subspace, "complement", "complement")
        # m = 14: no mode's certificate saturates, so every mode runs its trials
        cfg = base_config(m=14, noise_draws=2, plot=False, certificate_mode=mode)
        result = run_scenario(cfg, tmp_path)
        assert len(result.rows) == 6
        assert calls == {"ic_context": 1, "minimize_ic_full": 1, "minimize_ic_u": 1}
        assert rederived == {"decompose_at": 0, "complement": 0}
        summary = (tmp_path / "summary.txt").read_text()
        joint, u_only, zero = (
            float(v) for v in summary.split("ic chain (joint, u-only, zero): ")[1].split()[:3]
        )
        assert joint <= u_only + 1e-7 <= zero + 2e-7


class TestSolveVanishingMany:
    """The batched continuation gives every problem the report of its own."""

    INSTANCES = {
        "l1": dict(m=8, n=10, p=10, norm=l1(10)),
        "tv1d": dict(m=8, n=10, p=9, norm=l1(9), l_kind="tv1d", signal_active=2),
    }

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(sorted(INSTANCES)),
        # (which right-hand side, its scale, the penalty over the vanishing
        # one): the sides are one clean and two noisy measurements, repeats
        # are likely, and the penalty factor shortens the schedule by up to
        # four stages
        draws=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
                st.sampled_from([1.0, 1e2, 1e4]),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_equals_one_continuation_per_problem(self, kind, draws):
        cfg = base_config(epsilons=(0.0, 0.01, 0.1), **self.INSTANCES[kind])
        phi, l_op, norm, _, ys = generate_scenario(cfg)
        base = Problem(phi=phi, l_adjoint=l_op.T, norm=norm, y=ys[0], lam=1.0)
        problems = []
        for which, scale, factor in draws:
            y = scale * ys[which]
            problems.append(base.with_data(y, factor * vanishing_penalty(phi, y)))
        opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
        batched = solve_vanishing_many(problems, opts)
        for p, b in zip(problems, batched, strict=True):
            alone = solve_vanishing(p, opts)
            assert b.problem is p
            assert b.iterations == alone.iterations
            assert b.converged == alone.converged
            # rounding level: the batch's matrix products round differently
            # from a single column's, by about 1e-16 relative
            bound = 1e-12 * (1.0 + np.linalg.norm(phi.entries.T @ p.y))
            assert np.linalg.norm(b.x_star - alone.x_star) <= bound * (
                1.0 + np.linalg.norm(alone.x_star)
            )
            assert abs(b.optimality_residual - alone.optimality_residual) <= bound

    def test_empty_batch(self):
        assert solve_vanishing_many([], SolverOptions()) == []


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
        cfg = write_config(tmp_path)
        code = cli_main(
            ["check-uniqueness", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        text = (tmp_path / "out" / "uniqueness.txt").read_text()
        assert "verdict" in text

    def test_oracle_compare(self, tmp_path):
        cfg = write_config(tmp_path, dims={"m": 5, "n": 6, "p": 6}, epsilons=[0.05])
        code = cli_main(
            ["oracle-compare", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 0
        text = (tmp_path / "out" / "oracle_compare.csv").read_text()
        assert "True" in text

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, dims={"m": 6, "n": 8, "p": 4})
        code = cli_main(
            ["stability-sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert code == 2

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
