"""Command-line interface.

Subcommands: ``solve``, ``certify``, ``check-uniqueness``, ``stability-sweep``
and ``oracle-compare``; all read a JSON scenario config.  Exit codes: 0 on
success, 1 when a bound or oracle-agreement check fails under valid
preconditions, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import shutil
import sys
from pathlib import Path

from .certificates import certificate_quality, write_certificate_csv
from .experiments import (
    ScenarioConfig,
    analyze_scenario,
    generate_scenario,
    oracle_solve,
    run_scenario,
    solve_trials,
)
from .solver import SolverOptions


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="decoreg",
        description="Penalized analysis recovery: solve, certify, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve", "solve the penalized problem for every noise level"),
        ("certify", "build and store the dual certificate"),
        ("check-uniqueness", "run the uniqueness verdicts for the scenario"),
        ("stability-sweep", "full pipeline with bound verification"),
        ("oracle-compare", "compare the solver against the tiny-instance oracle"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="scenario config (JSON)")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the seed")
        cmd.add_argument("--tol", type=float, default=None, help="solver tolerance")
        cmd.add_argument(
            "--max-iter", type=int, default=None, help="solver iteration budget"
        )
    return parser


def _load_config(args) -> ScenarioConfig:
    """The JSON config with the flag overrides, validated again as a whole."""
    cfg = ScenarioConfig.from_json(args.config)
    overrides = {"seed": args.seed, "tol": args.tol, "max_iter": args.max_iter}
    return dataclasses.replace(
        cfg, **{k: v for k, v in overrides.items() if v is not None}
    )


def _solve_command(cfg: ScenarioConfig, out: Path) -> int:
    phi, l_op, norm, x0, ys = generate_scenario(cfg)
    opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
    header = "epsilon,objective,optimality_residual,iterations,converged," + ",".join(
        f"x{i}" for i in range(cfg.n)
    )
    lines = [header]
    trials = list(zip(cfg.epsilons, ys))
    reports = solve_trials(phi, l_op.T, norm, trials, cfg.coupling_c, opts)
    for eps, report in zip(cfg.epsilons, reports):
        lines.append(
            ",".join(
                [
                    repr(float(eps)),
                    repr(report.objective),
                    repr(report.optimality_residual),
                    str(report.iterations),
                    str(report.converged),
                ]
                + [repr(float(v)) for v in report.x_star]
            )
        )
        print(
            f"eps={eps:g}: objective {report.objective:.6g}, "
            f"residual {report.optimality_residual:.3g}, "
            f"{report.iterations} iterations, converged={report.converged}"
        )
    (out / "solutions.csv").write_text("\n".join(lines) + "\n")
    return 0


def _certify_command(cfg: ScenarioConfig, out: Path) -> int:
    analysis = analyze_scenario(cfg)
    cert = analysis.cert
    if cert is None:
        print(f"certificate failed: {analysis.failure}", file=sys.stderr)
        return 0
    write_certificate_csv(cert, out / "certificate.csv")
    print(f"saturation {cert.saturation:.6g}")
    print(f"quality {certificate_quality(cert):.6g}")
    print(f"source residual {cert.source_residual:.3g}")
    return 0


def _uniqueness_command(cfg: ScenarioConfig, out: Path) -> int:
    analysis = analyze_scenario(cfg)
    lines = [f"strong nsp verdict: {analysis.nsp.status}"]
    if analysis.cert is None:
        lines.append(f"certificate unavailable: {analysis.failure}")
    else:
        lines.append(f"certificate verdict: {analysis.cert_verdict.status}")
        lines.append(f"saturation: {analysis.cert.saturation!r}")
    (out / "uniqueness.txt").write_text("\n".join(lines) + "\n")
    print(*lines, sep="\n")
    return 0


def _oracle_command(cfg: ScenarioConfig, out: Path) -> int:
    phi, l_op, norm, x0, ys = generate_scenario(cfg)
    opts = SolverOptions(tol=cfg.tol, max_iter=cfg.max_iter)
    lines = ["epsilon,objective_solver,objective_oracle,gap,agree"]
    worst = 0
    trials = list(zip(cfg.epsilons, ys))
    reports = solve_trials(phi, l_op.T, norm, trials, cfg.coupling_c, opts)
    for eps, solved in zip(cfg.epsilons, reports):
        oracle = oracle_solve(solved.problem)
        gap = abs(solved.objective - oracle.objective)
        agree = gap <= 1e-6 * (1.0 + abs(oracle.objective))
        if not agree:
            worst = 1
        lines.append(
            ",".join(
                [
                    repr(float(eps)),
                    repr(solved.objective),
                    repr(oracle.objective),
                    repr(gap),
                    str(agree),
                ]
            )
        )
        print(
            f"eps={eps:g}: solver {solved.objective:.9g} vs oracle "
            f"{oracle.objective:.9g} (agree={agree})"
        )
    (out / "oracle_compare.csv").write_text("\n".join(lines) + "\n")
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = Path(args.out)
    # the outermost directory this call creates, removed on a configuration
    # error so that a refused run leaves nothing behind
    created = None
    for folder in (out, *out.absolute().parents):
        if folder.exists():
            break
        created = folder
    try:
        cfg = _load_config(args)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "solve":
            return _solve_command(cfg, out)
        if args.command == "certify":
            return _certify_command(cfg, out)
        if args.command == "check-uniqueness":
            return _uniqueness_command(cfg, out)
        if args.command == "stability-sweep":
            result = run_scenario(cfg, out)
            print(f"wrote {result.results_path or result.summary_path}")
            return result.exit_code
        if args.command == "oracle-compare":
            return _oracle_command(cfg, out)
    except ValueError as exc:  # ConfigError included
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
