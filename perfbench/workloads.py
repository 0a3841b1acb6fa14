"""Workload definitions and the scenario configs they generate.

Every workload is a short list of scenarios run through
``decoreg stability-sweep``.  A scenario is pinned to its instance: the
benchmark draws (Phi, L, x0) once at the instance seed with the program's own
generators, writes Phi and L as operator CSVs and x0 as an explicit signal,
and sets the config's ``seed`` to the instance seed plus the workload seed.
The workload seed therefore moves every noise draw of every sweep, while the
instance -- and with it the certificate, the IC chain and the stability
constant -- stays the one the reference values were recorded on.

The instances are small on purpose: one sweep takes 0.1-0.4 s, so a run
repeats each sweep dozens of times and the per-scenario best time is steady
on a shared host (README.md, "Machine noise").  That rules out a kernel of
Phi of dimension two or more: the multi-start NSP sampler then costs over a
second per sweep whatever the size, so every instance has dim ker(Phi) <= 1.

Shifting the instance seed instead would make the run length depend on the
instance: at the same size the IC programs take 0.2 s at one seed and 1.9 s
at the next (l1, n = 20), far beyond any regression bound.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

ACCEPTANCE_EPS = [1e-3, 1e-2, 1e-1]
SOLVER = {"tol": 1e-8, "max_iter": 200_000}


@dataclass(frozen=True)
class Scenario:
    """One ``stability-sweep`` config; ``base`` is its JSON without the seed."""

    name: str
    instance_seed: int
    base: dict


@dataclass(frozen=True)
class Workload:
    why: str
    scenarios: list[Scenario] = field(default_factory=list)


def _config(dims, phi, l_op, norm, signal, epsilons, draws, plot, **extra):
    cfg = {
        "dims": dict(zip("mnp", dims)),
        "phi": {"kind": phi},
        "l": {"kind": l_op},
        "norm": norm,
        "signal": signal,
        "epsilons": epsilons,
        "coupling_c": 1.0,
        "noise_draws": draws,
        "certificate_mode": "full",
        "plot": plot,
        "solver": SOLVER,
    }
    cfg.update(extra)
    return cfg


def _group_blocks(nblocks: int, size: int) -> list[list[int]]:
    return [list(range(size * i + 1, size * i + size + 1)) for i in range(nblocks)]


def _structured() -> list[Scenario]:
    # m = n - 1: ker(Phi) is a line, so the certificate and the NSP verdict
    # are cheap and the trial solves dominate
    return [
        Scenario("group-16", 2, _config(
            (15, 16, 16), "gaussian", "identity",
            {"kind": "group", "blocks": _group_blocks(4, 4)},
            {"kind": "analysis_sparse", "active": 1},
            ACCEPTANCE_EPS, 3, False,
        )),
        Scenario("nuclear-16", 3, _config(
            (15, 16, 16), "gaussian", "identity",
            {"kind": "nuclear", "nrows": 4, "ncols": 4},
            {"kind": "low_rank", "rank": 1},
            ACCEPTANCE_EPS, 3, False,
        )),
    ]


def _analysis_l1() -> list[Scenario]:
    # m = n - 1 and one draw per noise level, so the two IC programs of each
    # sweep dominate; instance seeds picked for IC programs of ~0.1-0.3 s
    return [
        Scenario("tv1d-10", 6, _config(
            (9, 10, 9), "gaussian", "tv1d", {"kind": "l1"},
            {"kind": "analysis_sparse", "active": 2},
            ACCEPTANCE_EPS, 1, False,
        )),
        Scenario("l1-20", 4, _config(
            (19, 20, 20), "gaussian", "identity", {"kind": "l1"},
            {"kind": "analysis_sparse", "active": 2},
            ACCEPTANCE_EPS, 1, False,
        )),
    ]


def _small() -> list[Scenario]:
    # the criterion-6/7 frame config and the criterion-3 convolution config at
    # two instance seeds each; ker(Phi) = {0} in all of them
    eps = [0.0, 1e-2, 1e-1]
    frames = [
        Scenario(f"tight-frame-{s}", s, _config(
            (18, 16, 24), "gaussian", "tight_frame", {"kind": "l1"},
            {"kind": "analysis_sparse", "active": 10},
            eps, 3, True, frame_mode=True, frame_bound=1.0,
        ))
        for s in (2, 9)
    ]
    convolutions = [
        Scenario(f"convolution-{s}", s, _config(
            (10, 10, 10), "convolution", "identity", {"kind": "l1"},
            {"kind": "analysis_sparse", "active": 2},
            eps, 3, True,
        ))
        for s in (5, 11)
    ]
    return frames + convolutions


# Why each workload exists; the same text is its `why` in BENCHMARK.json, and
# perfbench/README.md maps each layer metric to the workload it should move.
WORKLOADS = {
    "sweep-structured": Workload(
        "group and nuclear sweeps: PDHG iterations with block-loop and SVD dual-ball "
        "projections dominate; batched or vectorized solves and a cached ||K|| show here",
        _structured(),
    ),
    "sweep-analysis-l1": Workload(
        "tv1d and l1 sweeps with one draw per level: the two IC programs per sweep "
        "dominate; IC dedupe and an exact l1 LP show here, solver batching should not",
        _analysis_l1(),
    ),
    "sweep-small": Workload(
        "small injective frame and convolution sweeps incl. eps=0: per-solve fixed costs, "
        "continuation, generation and report writing dominate; per-call overhead shows",
        _small(),
    ),
}


def write_configs(decoreg, workload: str, seed: int, work_dir: Path) -> list[tuple[str, Path]]:
    """Draw each scenario's instance and write its run config.

    Returns (scenario name, config path) pairs in sweep order.
    """
    from decoreg.linops import write_operator_csv

    out = []
    for sc in WORKLOADS[workload].scenarios:
        sc_dir = work_dir / "configs" / sc.name
        sc_dir.mkdir(parents=True, exist_ok=True)
        drawn = decoreg.ScenarioConfig.from_config({**sc.base, "seed": sc.instance_seed})
        phi, l_op, _, x0, _ = decoreg.generate_scenario(drawn)

        cfg = copy.deepcopy(sc.base)
        cfg["seed"] = sc.instance_seed + seed
        if cfg["phi"]["kind"] in ("gaussian", "convolution"):
            path = sc_dir / "phi.csv"
            write_operator_csv(phi, path)
            cfg["phi"] = {"kind": "from_file", "path": str(path.resolve())}
        if cfg["l"]["kind"] == "tight_frame":
            path = sc_dir / "l.csv"
            write_operator_csv(l_op.T, path)
            cfg["l"] = {"kind": "from_file", "path": str(path.resolve())}
        cfg["signal"] = {"kind": "explicit", "x0": [float(v) for v in x0]}

        path = sc_dir / "scenario.json"
        path.write_text(json.dumps(cfg, indent=1) + "\n")
        out.append((sc.name, path))
    return out
