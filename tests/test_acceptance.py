"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from decoreg.certificates import build_certificate
from decoreg.experiments import (
    ScenarioConfig,
    generate_scenario,
    oracle_solve,
    run_scenario,
)
from decoreg.guarantees import (
    STATUS_UNIQUE,
    strong_nsp_check,
    uniqueness_from_certificate,
)
from decoreg.linops import (
    LinearOperator,
    identity,
    kernel_basis,
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
    prox,
    subdiff_membership,
)
from decoreg.solver import (
    Problem,
    SolverOptions,
    ic_context,
    ic_value,
    minimize_ic_full,
    minimize_ic_u,
    solve_penalized,
)

EPS_GRID = (1e-3, 1e-2, 1e-1)
NOISE_DRAWS = 50


def _report(criterion, passed, started, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"acceptance criterion {criterion}: {status}{extra} "
          f"[{time.time() - started:.1f}s]")
    assert passed


def _norm_instances(kind, dim=6):
    if kind == "l1":
        return l1(dim)
    if kind == "group":
        return group([[0, 1], [2, 3], [4, 5]])
    return nuclear(2, 3)


def test_criterion_1_norm_layer():
    """Prox optimality, Moreau identity, generalized Cauchy-Schwarz and the
    Fenchel identity on 100 random instances per norm kind at 1e-8."""
    started = time.time()
    rng = np.random.default_rng(811)
    ok = True
    for kind in ("l1", "group", "nuclear"):
        norm = _norm_instances(kind)
        for _ in range(100):
            u = rng.standard_normal(6) * 2.0
            v = rng.standard_normal(6) * 2.0
            tau = float(rng.uniform(0.05, 2.0))
            z = prox(norm, u, tau)
            ok &= subdiff_membership(norm, z, (u - z) / tau, tol=1e-8).member
            moreau = z + tau * project_dual_ball(norm, u / tau, 1.0)
            ok &= bool(np.linalg.norm(moreau - u) <= 1e-8)
            ok &= bool(
                float(u @ v)
                <= norm_value(norm, u) * dual_norm_value(norm, v) + 1e-8
            )
            model = decompose_at(norm, u)
            ok &= bool(
                abs(float(model.e @ u) - norm_value(norm, u)) <= 1e-8
            )
    _report(1, ok, started, "norm layer, 3 kinds x 100 instances")


def test_criterion_2_solver_vs_oracle():
    """Objective agreement with the brute-force oracle at 1e-6 relative and
    the shared-image property across solver restarts, on tiny instances."""
    started = time.time()
    ok = True
    worst = 0.0
    for kind_index, kind in enumerate(("l1", "group", "nuclear")):
        norm = _norm_instances(kind)
        for trial in range(20):
            r = np.random.default_rng([812, kind_index, trial])
            m, n = 5, 6
            phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
            y = r.standard_normal(m)
            lam = float(r.uniform(0.05, 0.5))
            p = Problem(phi=phi, l_adjoint=identity(n), norm=norm, y=y, lam=lam)
            solved = solve_penalized(p, SolverOptions(tol=1e-10))
            oracle = oracle_solve(p)
            gap = abs(solved.objective - oracle.objective) / (
                1.0 + abs(oracle.objective)
            )
            worst = max(worst, gap)
            ok &= bool(gap <= 1e-6)
            restart = solve_penalized(
                p, SolverOptions(tol=1e-10, init=r.standard_normal(n))
            )
            image_gap = np.linalg.norm(
                phi.apply(solved.x_star) - phi.apply(restart.x_star)
            )
            ok &= bool(image_gap <= 1e-6 * (1.0 + np.linalg.norm(y)))
    _report(2, ok, started, f"worst relative objective gap {worst:.2e}")


def _certificate_family(family, seed):
    if family == "gaussian-identity":
        cfg = ScenarioConfig(
            seed=seed, m=6, n=8, p=8, norm=l1(8), phi_kind="gaussian",
            l_kind="identity", signal_kind="analysis_sparse", signal_active=2,
            epsilons=(0.01,),
        )
    elif family == "gaussian-tv1d":
        cfg = ScenarioConfig(
            seed=seed, m=8, n=10, p=9, norm=l1(9), phi_kind="gaussian",
            l_kind="tv1d", signal_kind="analysis_sparse", signal_active=2,
            epsilons=(0.01,),
        )
    elif family == "gaussian-frame":
        cfg = ScenarioConfig(
            seed=seed, m=8, n=6, p=9, norm=l1(9), phi_kind="gaussian",
            l_kind="tight_frame", signal_kind="analysis_sparse", signal_active=5,
            epsilons=(0.01,),
        )
    else:  # convolution-identity
        cfg = ScenarioConfig(
            seed=seed, m=10, n=10, p=10, norm=l1(10), phi_kind="convolution",
            l_kind="identity", signal_kind="analysis_sparse", signal_active=2,
            epsilons=(0.01,),
        )
    phi, l_op, norm, x0, _ = generate_scenario(cfg)
    return phi, l_op, norm, x0


def test_criterion_3_certificates():
    """Constructed certificates: source residual at 1e-7, exact model part at
    1e-9, and the ordering of the three irrepresentability values at 1e-7,
    on 20 instances per operator family with the injectivity condition."""
    started = time.time()
    opts = SolverOptions(tol=1e-8)
    ok = True
    counts = {}
    for family in (
        "gaussian-identity",
        "gaussian-tv1d",
        "gaussian-frame",
        "convolution-identity",
    ):
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            assert seed < 400, f"{family}: instance generation starved"
            try:
                phi, l_op, norm, x0 = _certificate_family(family, seed)
            except ValueError:
                continue
            model = decompose_at(norm, l_op.T.apply(x0))
            try:
                ctx = ic_context(phi, l_op, model.T)
                cert = build_certificate(
                    phi, l_op, norm, model.T, model.e, mode="full", opts=opts
                )
            except ValueError:
                continue  # injectivity fails for this draw
            ok &= bool(cert.source_residual <= 1e-7)
            ok &= bool(
                np.linalg.norm(model.T.project(cert.alpha) - model.e) <= 1e-9
            )
            joint = minimize_ic_full(phi, l_op, norm, model.T, model.e, opts, ctx=ctx)
            u_only = minimize_ic_u(phi, l_op, norm, model.T, model.e, opts, ctx=ctx)
            zero = ic_value(
                phi, l_op, norm, model.T, model.e,
                np.zeros(norm.ambient_dim), np.zeros(phi.rows), ctx=ctx,
            )
            ok &= bool(joint.value <= u_only.value + 1e-7)
            ok &= bool(u_only.value <= zero + 1e-7)
            done += 1
        counts[family] = done
    _report(3, ok, started, f"20 instances x {len(counts)} families")


BOUND_SUITE_CONFIGS = {
    "identity-l1": dict(
        seed=1, m=16, n=16, p=16, norm=l1(16), phi_kind="identity",
        l_kind="identity", signal_kind="analysis_sparse", signal_active=3,
    ),
    "gaussian-l1-n64": dict(
        seed=0, m=48, n=64, p=64, norm=l1(64), phi_kind="gaussian",
        l_kind="identity", signal_kind="analysis_sparse", signal_active=6,
    ),
    "gaussian-group": dict(
        seed=2, m=20, n=24, p=24,
        norm=group([list(range(4 * i, 4 * i + 4)) for i in range(6)]),
        phi_kind="gaussian", l_kind="identity",
        signal_kind="analysis_sparse", signal_active=2,
    ),
    "gaussian-nuclear": dict(
        seed=3, m=14, n=16, p=16, norm=nuclear(4, 4), phi_kind="gaussian",
        l_kind="identity", signal_kind="low_rank", signal_rank=1,
    ),
    "gaussian-tv1d": dict(
        seed=5, m=28, n=32, p=31, norm=l1(31), phi_kind="gaussian",
        l_kind="tv1d", signal_kind="analysis_sparse", signal_active=3,
    ),
}


def _run_bound_suite(config_dict, out_dir, frame=False):
    cfg = ScenarioConfig(
        epsilons=EPS_GRID,
        noise_draws=NOISE_DRAWS,
        coupling_c=1.0,
        tol=1e-8,
        plot=False,
        frame_mode=frame,
        frame_bound=1.0,
        **config_dict,
    )
    return cfg, run_scenario(cfg, out_dir)


def test_criterion_4_bounds(tmp_path):
    """Prediction, Bregman, inactive-space and l2 bounds hold with zero
    violations across the noise grid, 50 draws per level, per instance."""
    started = time.time()
    ok = True
    total_rows = 0
    for name, config in BOUND_SUITE_CONFIGS.items():
        cfg, result = _run_bound_suite(dict(config), tmp_path / name)
        assert result.results_path is not None, f"{name}: certificate failed"
        violations = [r for r in result.rows if not r[-1]]
        ok &= not violations
        ok &= result.exit_code == 0
        total_rows += len(result.rows)
        assert len(result.rows) == len(EPS_GRID) * NOISE_DRAWS
    _report(4, ok, started, f"{total_rows} trials, zero violations required")


def test_criterion_5_uniqueness(tmp_path):
    """On one-dimensional-kernel instances the exhaustive null-space verdict
    matches solver-restart agreement in 100/100 cases, and certificate
    verdicts imply restart agreement at 1e-6."""
    started = time.time()
    matches = 0
    certified_checked = 0
    for seed in range(100):
        r = np.random.default_rng(10_000 + seed)
        n, m = 6, 5
        phi = LinearOperator(r.standard_normal((m, n)) / np.sqrt(m))
        norm = l1(n)
        x0 = np.zeros(n)
        x0[int(r.integers(n))] = 2.0 + r.uniform()
        y = phi.apply(x0)
        p = Problem(phi=phi, l_adjoint=identity(n), norm=norm, y=y, lam=1e-3)
        first = solve_penalized(p, SolverOptions(tol=1e-10))
        second = solve_penalized(
            p, SolverOptions(tol=1e-10, init=r.standard_normal(n))
        )
        agree = bool(
            np.linalg.norm(first.x_star - second.x_star)
            <= 1e-6 * (1.0 + np.linalg.norm(x0))
        )
        model = decompose_at(norm, first.x_star)
        assert kernel_basis(phi).dim == 1  # the exhaustive regime
        verdict = strong_nsp_check(phi, identity(n), model.T, model.e, norm)
        if (verdict.status == STATUS_UNIQUE) == agree:
            matches += 1
        cert = build_certificate(phi, identity(n), norm, model.T, model.e)
        s = model.T.complement()
        ls_adj = LinearOperator((identity(n).entries @ s.projector_matrix()).T)
        c_phi = restricted_injectivity_constant(phi, kernel_basis(ls_adj))
        cor1 = uniqueness_from_certificate(cert, c_phi)
        if cor1.status == STATUS_UNIQUE:
            certified_checked += 1
            assert agree, f"seed {seed}: certified unique but restarts disagree"
    _report(
        5,
        matches == 100,
        started,
        f"{matches}/100 verdict matches, {certified_checked} certificate-certified",
    )


def test_criterion_6_frame_mode(tmp_path):
    """With a Parseval frame (a = 1) the frame-mode bound passes the full
    criterion-4 protocol and its constant uses sqrt(a) in place of the
    restricted singular value."""
    started = time.time()
    config = dict(
        seed=2, m=18, n=16, p=24, norm=l1(24), phi_kind="gaussian",
        l_kind="tight_frame", signal_kind="analysis_sparse", signal_active=10,
    )
    cfg, result = _run_bound_suite(config, tmp_path / "frame", frame=True)
    assert result.results_path is not None
    ok = result.exit_code == 0 and all(r[-1] for r in result.rows)
    assert len(result.rows) == len(EPS_GRID) * NOISE_DRAWS

    # the constant must be sqrt(a) exactly, not the restricted singular value
    phi, l_op, norm, x0, _ = generate_scenario(cfg)
    model = decompose_at(norm, l_op.T.apply(x0))
    cert = build_certificate(phi, l_op, norm, model.T, model.e)
    from decoreg.guarantees import stability_constants

    framed = stability_constants(
        phi, l_op, norm, model.T, cert, 1.0, frame_mode=1.0
    )
    plain = stability_constants(phi, l_op, norm, model.T, cert, 1.0)
    ok &= framed.c_l == pytest.approx(np.sqrt(1.0))
    ok &= plain.c_l != framed.c_l  # the standard path measures L_{S0}^*
    _report(6, ok, started, f"{len(result.rows)} frame trials, c_l = sqrt(a)")


def test_criterion_7_determinism(tmp_path):
    """Re-running a suite with the same seed reproduces byte-identical CSVs."""
    started = time.time()
    suites = {
        "plain": dict(
            seed=7, m=12, n=16, p=16, norm=l1(16), phi_kind="gaussian",
            l_kind="identity", signal_kind="analysis_sparse", signal_active=3,
            frame_mode=False,
        ),
        "frame": dict(
            seed=2, m=18, n=16, p=24, norm=l1(24), phi_kind="gaussian",
            l_kind="tight_frame", signal_kind="analysis_sparse",
            signal_active=10, frame_mode=True, frame_bound=1.0,
        ),
    }
    ok = True
    for name, config in suites.items():
        cfg = ScenarioConfig(
            epsilons=(0.0, 0.01, 0.1), noise_draws=3, coupling_c=1.0,
            tol=1e-8, plot=True, **config,
        )
        run_scenario(cfg, tmp_path / f"{name}_a")
        run_scenario(cfg, tmp_path / f"{name}_b")
        for fname in ("results.csv", "summary.txt", "certificate.csv",
                      "error_vs_eps.svg"):
            fa = (tmp_path / f"{name}_a" / fname).read_bytes()
            fb = (tmp_path / f"{name}_b" / fname).read_bytes()
            ok &= fa == fb
    _report(7, ok, started, "byte-identical results, summary, certificate, plot")
