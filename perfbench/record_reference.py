"""Record perfbench/reference.json from the current program.

Run from the repository root:

    python3 perfbench/record_reference.py

Sweeps every scenario of every workload once at workload seed 0 and stores
its certificate outcome, trial count, saturation and stability constant C.
The instances do not depend on the workload seed, so these values hold for
every seed.  Re-record only in a change that means to alter the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main() -> int:
    run._single_thread_blas()
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks
    import workloads

    reference = {}
    for workload in workloads.WORKLOADS:
        work = run.HERE / "_runs" / "reference" / workload
        decoreg, configs = run._setup(workload, 0, work)
        entries = {}
        for name, path in configs:
            out = work / "out" / name
            argv = ["stability-sweep", "--config", str(path), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = decoreg.cli.main(argv)
            check = checks.check_sweep(out, json.loads(path.read_text()), code)
            if check.problems or check.failed_trials:
                print(f"{workload}/{name}: {check.problems}", file=sys.stderr)
                return 1
            entries[name] = {
                "outcome": check.outcome,
                "trials": check.trials,
                "saturation": check.saturation,
                "C": check.total_c,
            }
            print(f"{workload}/{name}: {entries[name]}")
        reference[workload] = entries
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
