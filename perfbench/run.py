"""vbsenergy benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`
(PYTHONPATH=src), nothing is installed. Workloads are `cli-cold`,
`sweep-solve` and `simulate`; perfbench/README.md describes them and
every metric.

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics. The line before it is the full record:
machine facts, set-up samples, pass times, the op classes, the
op-latency tail and every failed op.

Exits 2 without a result when the checkout has no `src/vbsenergy`, and
1 when the workload process fails.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from ops import CLASSES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "vbsenergy")
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0

# A fresh interpreter times the import of the package with its CLI
# module and the build of the first Settings, as every command starts.
_SETUP_PROBE = """\
import time
start = time.perf_counter()
import vbsenergy.cli
from vbsenergy.config import build_settings, read_config
build_settings(read_config())
print(repr(time.perf_counter() - start))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("VBSENERGY_CONFIG", None)
    env["PYTHONPATH"] = SRC
    return env


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "loadavg_at_start": list(os.getloadavg()),
        "cpu_control": "none: no CPU pinning and no frequency control",
    }


def setup_probe() -> float:
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Package totals from `python -X importtime` output, in seconds.

    total is the cumulative time of `import vbsenergy`; the others sum
    the self time of every module of numpy, scipy and vbsenergy.
    """
    self_us = {"numpy": 0, "scipy": 0, "vbsenergy": 0}
    total_us = None
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".", 1)[0]
        if top in self_us:
            self_us[top] += int(own)
        if name == "vbsenergy":
            total_us = int(cumulative)
    if total_us is None:
        raise RuntimeError("-X importtime output has no vbsenergy entry")
    return {
        "import.total_s": total_us * 1e-6,
        "import.numpy_s": self_us["numpy"] * 1e-6,
        "import.scipy_s": self_us["scipy"] * 1e-6,
        "import.vbsenergy_self_s": self_us["vbsenergy"] * 1e-6,
    }


def import_metrics(n: int) -> dict[str, float]:
    runs = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vbsenergy"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten samples or
    fewer there is no such percentile, and the maximum is returned.
    """
    s = sorted(latencies)
    k = len(s) - 11 if len(s) > 10 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def quantile(values: list[float], q: float) -> float:
    """The smallest sample with at least a share q of all samples at or below it."""
    s = sorted(values)
    return s[math.ceil(q * len(s)) - 1]


def end_to_end(report: dict) -> dict[str, tuple[float, str]]:
    """The bounded metrics. Op latency is taken per op class, at its
    90th percentile: on a machine whose CPU speed moves between phases,
    the share of fast phases in a run moves medians and means, and
    file-write stalls move the highest percentiles and pass times, by
    more than any allowed bound; the 90th percentile moved far less
    (README)."""
    m = {"setup_s": (statistics.median(report["setup_samples_s"]), "s")}
    for i, latencies in enumerate(report["latencies_s"].values(), 1):
        m[f"op_p90_ms.class{i}"] = (quantile(latencies, 0.9) * 1e3, "ms")
    m["peak_rss_mb"] = (report["peak_rss_kb"] / 1024.0, "MB")
    return m


def per_layer(report: dict, imports: dict[str, float]) -> dict[str, tuple[float, str]]:
    m = {k: (v, "s") for k, v in imports.items()}
    m.update((k, tuple(v)) for k, v in report["layers"].items())
    # A traced run repeats its first passes with the tracer installed;
    # each traced pass is compared with the same ops untraced.
    untraced = [p["wall_s"] for p in report["passes"] if p["phase"] == "untraced"]
    traced = [p["wall_s"] for p in report["passes"] if p["phase"] == "traced"]
    m["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced, untraced)), "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="vbsenergy benchmark, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no package at {PACKAGE}; run from a vbsenergy checkout",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    facts = machine_facts()

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    fd, report_path = tempfile.mkstemp(prefix="report-", suffix=".json", dir=out_dir)
    os.close(fd)
    try:
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--report", report_path]
        budget = DEADLINE_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                                  text=True, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: workload {args.workload} ran past {DEADLINE_S:.0f} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: workload {args.workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        with open(report_path) as fh:
            report = json.load(fh)
    finally:
        os.remove(report_path)

    if args.trace:
        metrics = per_layer(report, import_metrics(IMPORTTIME_SAMPLES))
    else:
        metrics = end_to_end(report)
    lat = [x for latencies in report["latencies_s"].values() for x in latencies]
    tail_value, tail_pct, beyond = tail(lat)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "ops": len(lat),
        "classes": {f"class{i}": {"name": c, "ops": len(report["latencies_s"][c])}
                    for i, c in enumerate(CLASSES[args.workload], 1)},
        # Reported but not bounded (see end_to_end).
        "op_tail": {"value_ms": tail_value * 1e3, "percentile": tail_pct,
                    "samples_beyond": beyond, "samples": len(lat)},
        "op_p50_ms": statistics.median(lat) * 1e3,
        "wall_s": statistics.median(p["wall_s"] for p in report["passes"]
                                    if p["phase"] == "untraced"),
        "ops_per_s": len(lat) / sum(lat),
        "work_per_s": report["work"] / sum(lat),
        "error_rate": report["failed"] / report["attempted"],
        **{k: v for k, v in report.items() if k not in ("latencies_s", "layers")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run_s": time.monotonic() - started,
    }
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
