"""Output checks run after every sweep.

A sweep passes when the command exits 0 and its files are consistent:

* results.csv has |eps| x draws rows and every row's pass_all is set; rows
  with pass_all = False are failed trials;
* certificate.csv has source_residual <= 1e-7;
* summary.txt orders the IC chain joint <= u-only <= zero within 1e-7;
* saturation and C match the values recorded in reference.json.

The saturation tolerance is 1e-6, above the largest certified duality gap of
the IC programs at the recording commit (1.2e-8), so a solver that certifies
the same optimum more tightly -- an exact LP, say -- still passes.  C = C1 (2 + c |eta|) + C2 (1 + c |eta| / 2)^2 / (c (1 - sat))
moves with the saturation by |dC / C| <= dsat / (1 - sat), well inside its
relative tolerance of 1e-3.

The certificate outcome of a scenario ("verified", "no_constants" when the
certificate saturates, "no_certificate") is a recorded fact of the instance,
not a failure; it must only match the reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

SOURCE_RESIDUAL_MAX = 1e-7
IC_CHAIN_TOL = 1e-7
SATURATION_TOL = 1e-6
C_RTOL = 1e-3

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class SweepCheck:
    outcome: str
    trials: int = 0
    failed_trials: int = 0
    saturation: float | None = None
    total_c: float | None = None
    problems: list[str] = field(default_factory=list)


def _summary_values(text: str) -> dict[str, str]:
    values = {}
    for line in text.splitlines():
        if line.startswith("saturation "):
            values["saturation"] = line.split()[1]
        elif line.startswith("ic chain (joint, u-only, zero): "):
            values["ic_chain"] = line.split(": ", 1)[1]
        elif line.startswith("constants: "):
            values["C"] = line.rsplit("C=", 1)[1]
        elif line.startswith("stability constants unavailable"):
            values["outcome"] = "no_constants"
        elif line.startswith("certificate failed"):
            values["outcome"] = "no_certificate"
    return values


def check_sweep(out: Path, config: dict, exit_code: int) -> SweepCheck:
    """Inspect one sweep's output directory; reference values are not used."""
    summary_path = out / "summary.txt"
    if not summary_path.is_file():
        return SweepCheck("missing", problems=[f"exit {exit_code}, no summary.txt"])
    values = _summary_values(summary_path.read_text())
    result = SweepCheck(values.get("outcome", "verified"))
    if exit_code != 0:
        result.problems.append(f"exit code {exit_code}")
    if result.outcome == "no_certificate":
        return result

    cert_rows = dict(
        line.split(",", 1) for line in (out / "certificate.csv").read_text().splitlines()
    )
    residual = float(cert_rows["source_residual"])
    if not residual <= SOURCE_RESIDUAL_MAX:
        result.problems.append(f"source_residual {residual!r} > {SOURCE_RESIDUAL_MAX}")
    joint, u_only, zero = (float(v) for v in values["ic_chain"].split())
    if not (joint <= u_only + IC_CHAIN_TOL and u_only <= zero + IC_CHAIN_TOL):
        result.problems.append(f"IC chain out of order: {joint!r} {u_only!r} {zero!r}")
    result.saturation = float(values["saturation"])
    if result.outcome == "no_constants":
        return result

    result.total_c = float(values["C"])
    lines = (out / "results.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    expected = len(config["epsilons"]) * int(config["noise_draws"])
    if len(rows) != expected:
        result.problems.append(f"results.csv has {len(rows)} rows, expected {expected}")
    flags = [row[-1] for row in rows]
    if any(flag not in ("True", "False") for flag in flags):
        result.problems.append("a results.csv row has no pass_all value")
    result.trials = len(rows)
    result.failed_trials = sum(flag != "True" for flag in flags)
    return result


def compare_reference(check: SweepCheck, ref: dict) -> None:
    """Append a problem to ``check`` for every mismatch with the reference."""
    if check.outcome != ref["outcome"]:
        check.problems.append(f"outcome {check.outcome}, reference {ref['outcome']}")
        return
    if check.trials != ref["trials"]:
        check.problems.append(f"{check.trials} trials, reference {ref['trials']}")
    if ref.get("saturation") is not None and check.saturation is not None:
        if abs(check.saturation - ref["saturation"]) > SATURATION_TOL:
            check.problems.append(
                f"saturation {check.saturation!r}, reference {ref['saturation']!r}"
            )
    if ref.get("C") is not None and check.total_c is not None:
        if abs(check.total_c - ref["C"]) > C_RTOL * abs(ref["C"]):
            check.problems.append(f"C {check.total_c!r}, reference {ref['C']!r}")


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())[workload]
