"""Records goldens.json: the expected outcome of every catalogue op.

    PYTHONPATH=src python3 perfbench/record_goldens.py

Run from the root of the checkout whose outputs are the reference. For
every op a workload can issue (ops.catalogue) it stores the exit code
and the sha256 of stdout; for simulate ops also the sha256 of every
SimStats field at full precision and of the --trace file. The CSV
prints 12 significant digits, so equal stdout means analytic rows agree
at the printed precision, while simulated results must match bit for
bit.

Inputs that must be refused get the exit code the README documents.
When the program exits otherwise, that code is stored as
known_defect_exit: runs count such an op as failed, not as a wrong
result. Any other op must exit 0, or 4 for a simulation that failed its
validation.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import ops as opslib
from run import machine_facts
from workload import GOLDENS, OUT_DIR, ColdRunner, InProcessRunner, sha256


def record(workload: str, runner) -> dict[str, dict]:
    goldens = {}
    for op in opslib.catalogue(workload):
        out = runner.run(op, 0)
        if op.documented_exit is not None:
            g = {"exit": op.documented_exit}
            if out.exit != op.documented_exit:
                g["known_defect_exit"] = out.exit
        else:
            allowed = (0, 4) if op.arrivals else (0,)
            if out.exit not in allowed:
                raise SystemExit(f"{workload}: {op.key!r} exited {out.exit}:\n{out.stderr}")
            g = {"exit": out.exit, "stdout_sha256": sha256(out.stdout),
                 "stdout_lines": out.stdout.count("\n")}
            if out.stats_sha256 is not None:
                g["stats_sha256"] = out.stats_sha256
            if out.trace_sha256 is not None:
                g["trace_sha256"] = out.trace_sha256
        goldens[op.key] = g
    return goldens


def main() -> int:
    facts = machine_facts()
    result = {"recorded_from": {k: facts[k] for k in
                                ("git_commit", "python", "numpy", "scipy")}}
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        in_process = InProcessRunner(tmp)
        for workload in opslib.WORKLOADS:
            runner = ColdRunner(tmp) if workload == "cli-cold" else in_process
            result[workload] = record(workload, runner)
            print(f"{workload}: {len(result[workload])} ops", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(GOLDENS, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
