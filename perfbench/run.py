"""decoreg stability-sweep benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-structured --seed 0 --seconds 40 --trace 0

One process, one client, closed loop: the benchmark calls the ``decoreg``
command's entry point ``decoreg.cli.main`` in-process with
``stability-sweep`` on configs it generates from the workload seed, one
sweep after another.  A pass runs every scenario of the workload once; passes
repeat for about ``--seconds`` (README.md gives the rule).  Every sweep's
outputs are checked (see checks.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  Everything the run writes goes to
perfbench/_runs/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _single_thread_blas() -> None:
    """Run BLAS on one thread; must run before numpy is imported.

    The largest matrix of any workload is 24 x 24, too small to gain from a
    second thread.  A second thread would instead tie every threaded call to
    the slower of the two vCPUs, whose speeds the shared host varies
    independently (README.md, "Machine noise")."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _machine(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_build = "unknown"
    return {
        "nproc": nproc,
        "blas": blas_build,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _import_decoreg():
    """Import decoreg and its command afresh, dropping any earlier import."""
    import importlib

    for name in [m for m in sys.modules if m == "decoreg" or m.startswith("decoreg.")]:
        del sys.modules[name]
    importlib.import_module("decoreg.cli")
    decoreg = sys.modules["decoreg"]
    src = (ROOT / "src").resolve()
    if src not in Path(decoreg.__file__).resolve().parents:
        raise RuntimeError(f"imported decoreg from {decoreg.__file__}, not from {src}")
    return decoreg


def _setup(workload: str, seed: int, work: Path):
    """Import decoreg and write the workload's configs."""
    import workloads

    decoreg = _import_decoreg()
    return decoreg, workloads.write_configs(decoreg, workload, seed, work)


@dataclass
class PassResult:
    setup_s: float = 0.0
    durations: dict = field(default_factory=dict)  # scenario -> sweep seconds
    failed_sweeps: int = 0
    trials: int = 0
    failed_trials: int = 0
    first_trace: int = -1
    spans: tuple = (0, 0)  # [lo, hi) of the pass's spans in a traced run
    outcomes: dict = field(default_factory=dict)

    @property
    def sweep_s(self) -> float:
        return sum(self.durations.values())


class Bench:
    """Runs passes; each pass starts with a fresh set-up (import of decoreg,
    instances, configs), so no state a sweep leaves in the package carries
    over to the next pass, as it would not between two invocations of the
    command."""

    def __init__(self, workload: str, seed: int, work: Path):
        import checks

        _, configs = _setup(workload, seed, work)
        self.workload, self.seed, self.work = workload, seed, work
        self.checks = checks
        self.configs = [(name, path, json.loads(path.read_text())) for name, path in configs]
        self.reference = checks.load_reference(workload)
        self.out = work / "out"

    def sweep(self, cli, name: str, cfg_path: Path, config: dict, tracer, result: PassResult):
        out = self.out / name
        shutil.rmtree(out, ignore_errors=True)
        argv = ["stability-sweep", "--config", str(cfg_path), "--out", str(out)]
        sink = io.StringIO()
        root = tracer.root() if tracer is not None else contextlib.nullcontext()
        start = perf_counter()
        try:
            with root, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
        result.durations[name] = perf_counter() - start

        try:
            check = self.checks.check_sweep(out, config, code)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            check = self.checks.SweepCheck("malformed", problems=[f"unreadable output: {exc!r}"])
        self.checks.compare_reference(check, self.reference[name])
        result.trials += check.trials
        result.failed_trials += check.failed_trials
        result.outcomes[name] = {"outcome": check.outcome, "trials": check.trials}
        if check.problems:
            result.failed_sweeps += 1
            print(f"{name}: " + "; ".join(check.problems), file=sys.stderr)
            if sink.getvalue():
                print(sink.getvalue(), file=sys.stderr, end="")

    def run_pass(self, tracer=None) -> PassResult:
        start = perf_counter()
        decoreg, _ = _setup(self.workload, self.seed, self.work)
        result = PassResult(
            setup_s=perf_counter() - start,
            first_trace=tracer.trace_id + 1 if tracer is not None else -1,
        )
        with tracer.installed(decoreg) if tracer is not None else contextlib.nullcontext():
            lo = len(tracer) if tracer is not None else 0
            for name, path, config in self.configs:
                self.sweep(decoreg.cli, name, path, config, tracer, result)
            result.spans = (lo, len(tracer) if tracer is not None else 0)
        return result

    def run_for(self, seconds: float, minimum: int, tracer=None) -> list[PassResult]:
        """Passes until the budget is spent, and at least ``minimum``."""
        passes = []
        start = perf_counter()
        while len(passes) < minimum or perf_counter() - start < seconds:
            passes.append(self.run_pass(tracer))
        return passes


def _failures(passes: list[PassResult]) -> tuple[int, int]:
    attempted = sum(p.trials + len(p.durations) for p in passes)
    failed = sum(p.failed_trials + p.failed_sweeps for p in passes)
    return attempted, failed


def _best_pass_s(passes: list[PassResult]) -> float:
    """Sum over scenarios of each one's fastest sweep over the passes.

    The shared host slows this process down in spells, by up to 1.8x, and
    the share of time spent slowed drifts over minutes (README.md, "Machine
    noise").  A sweep of well under a second that is repeated dozens of
    times runs unslowed at least once, so its fastest time is steady where
    its median follows the drift."""
    return sum(min(p.durations[name] for p in passes) for name in passes[0].durations)


def _end_to_end(passes: list[PassResult]) -> dict:
    attempted, failed = _failures(passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sweep_s = _best_pass_s(passes)
    trials = statistics.median(p.trials for p in passes)
    # a set-up takes ~0.05 s, well inside one spell of the host's speed, so
    # its fastest repeat is steady for the reason given in _best_pass_s
    return {
        "setup_s": {"value": min(p.setup_s for p in passes), "unit": "s"},
        "sweep_s": {"value": sweep_s, "unit": "s"},
        "trials_per_s": {"value": trials / sweep_s, "unit": "1/s"},
        "verified_share": {"value": 1.0 - failed / attempted, "unit": "share"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def _per_layer(bench: Bench, seconds: float, work: Path, report: dict):
    """Untraced passes for half the budget, then traced passes for the rest."""
    import tracing

    untraced = bench.run_for(seconds / 2.0, minimum=MIN_PASSES)
    tracer = tracing.Tracer()
    traced = bench.run_for(seconds / 2.0, minimum=MIN_PASSES, tracer=tracer)
    bounds = [p.spans for p in traced]
    tables = [tracing.layer_table(tracer, lo, hi) for lo, hi in bounds]
    tracer.write(work / "spans.npz")

    counts = [key for key in tables[0] if key.endswith(tracing.COUNT_SUFFIXES)]
    mismatched = [key for key in counts if any(t[key] != tables[0][key] for t in tables)]
    metrics = {
        key: {
            "value": tables[0][key] if key in counts
            else statistics.median(t[key] for t in tables),
            "unit": tracing.unit_of(key),
        }
        for key in tables[0]
    }
    metrics["tracing_overhead_s"] = {
        "value": _best_pass_s(traced) - _best_pass_s(untraced),
        "unit": "s",
    }

    names = [name for name, _, _ in bench.configs]
    iterations: dict = {}
    lo, hi = bounds[0]
    for trace_id, lam, its in tracing.trial_iterations(tracer, lo, hi):
        name = names[trace_id - traced[0].first_trace]
        iterations.setdefault(name, {}).setdefault(repr(lam), []).append(its)
    report["trial_iterations_by_lambda"] = iterations
    report["count_mismatches"] = mismatched
    if mismatched:
        print("traced passes disagree on: " + ", ".join(mismatched), file=sys.stderr)
    return untraced + traced, metrics, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    nproc = _nproc()
    _single_thread_blas()
    if not (ROOT / "src" / "decoreg" / "__init__.py").is_file():
        print(f"no decoreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    work = HERE / "_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args.workload, args.seed, work)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(nproc),
    }
    if args.trace:
        passes, metrics, steady = _per_layer(bench, args.seconds, work, report)
    else:
        passes = bench.run_for(args.seconds, minimum=MIN_PASSES)
        metrics, steady = _end_to_end(passes), True

    attempted, failed = _failures(passes)
    result = {
        "correct": failed == 0 and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report["passes"] = [
        {"setup_s": p.setup_s, "sweep_s": p.sweep_s, "durations": p.durations, "trials": p.trials,
         "failed_sweeps": p.failed_sweeps, "failed_trials": p.failed_trials}
        for p in passes
    ]
    report["outcomes"] = passes[-1].outcomes
    report["result"] = result
    (work / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    print("machine " + json.dumps(report["machine"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
