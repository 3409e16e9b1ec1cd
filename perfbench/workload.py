"""Runs one workload in a fresh process and writes a JSON report.

    python3 perfbench/workload.py --workload W --seed N --seconds S
                                  --trace 0|1 --report FILE

`run.py` starts this; run it by hand only to debug one workload. The
process runs whole passes of the workload's op stream (see ops.py)
until S seconds have gone by, every op class has MIN_CLASS_OPS ops and
SETUP_PROBES set-up probes ran, spread over the S seconds between ops.
It checks every op against goldens.json and reports op latencies by
class, pass times, set-up samples, work done and peak memory.

With --trace 1 it runs untraced passes for S/2 seconds, without set-up
probes, then its first TRACED_PASSES passes again with the span tracer
installed, then one simulate op under tracemalloc, and adds the
per-layer metrics to the report.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
import tracemalloc

import ops as opslib
import tracer as tracerlib
from run import HERE, ROOT, child_env, setup_probe

OUT_DIR = os.path.join(HERE, "out")
GOLDENS = os.path.join(HERE, "goldens.json")
SHIM = os.path.join(HERE, "traced_cli.py")

# Passes with the tracer installed: the first passes of the seed's
# stream, run again after they ran untraced, so that the counts of a
# traced run depend only on the seed and each traced pass can be
# compared with the same ops untraced.
TRACED_PASSES = {"cli-cold": 1, "sweep-solve": 8, "simulate": 4}
# An untraced run measures at least this many ops of each class; only
# cli-cold, whose ops are slow, runs past its time for it.
MIN_CLASS_OPS = 6
# Fresh processes timed for setup_s in an untraced run.
SETUP_PROBES = 9
OP_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Outcome:
    exit: int
    stdout: str
    stderr: str
    latency_s: float
    stats_sha256: str | None = None
    trace_sha256: str | None = None


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def stats_digest(stats) -> str:
    """Hash of every SimStats field at full precision (float.hex)."""
    h = hashlib.sha256()
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        h.update(f.name.encode())
        if f.name == "batch_means":
            for key in sorted(value):
                h.update(key.encode())
                h.update(",".join(float(x).hex() for x in value[key]).encode())
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def check(op: opslib.Op, out: Outcome, golden: dict | None) -> tuple[str, str]:
    """Compare one outcome with its golden.

    Returns ("ok", ""), ("defect", reason) for the exit code recorded as
    a known defect of a refused input, or ("wrong", reason).
    """
    if golden is None:
        return "wrong", "no golden for this op"
    if op.documented_exit is not None:
        if (out.exit == golden["exit"] and not out.stdout
                and "Traceback" not in out.stderr):
            return "ok", ""
        if out.exit == golden.get("known_defect_exit"):
            return "defect", f"exit {out.exit}, documented {golden['exit']}"
        return "wrong", f"exit {out.exit}, documented {golden['exit']}"
    if out.exit != golden["exit"]:
        return "wrong", f"exit {out.exit}, golden {golden['exit']}"
    if sha256(out.stdout) != golden["stdout_sha256"]:
        return "wrong", "stdout differs from golden"
    for field in ("stats_sha256", "trace_sha256"):
        if field in golden and getattr(out, field) != golden[field]:
            return "wrong", f"{field} differs from golden"
    return "ok", ""


class ColdRunner:
    """cli-cold: every op is a fresh `python -m vbsenergy.cli` process."""

    def __init__(self, tmp: str) -> None:
        self.env = child_env()
        self.tmp = tmp
        self.traced = False
        self.exports: list[dict] = []

    def start_trace(self) -> None:
        self.traced = True

    def stop_trace(self) -> list[dict]:
        self.traced = False
        return self.exports

    def _run(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=OP_TIMEOUT_S)
        return proc, time.perf_counter() - start

    def run(self, op: opslib.Op, op_id: int) -> Outcome:
        if self.traced:
            spans_file = os.path.join(self.tmp, f"spans-{op_id}.json")
            cmd = [sys.executable, SHIM, "trace", spans_file, str(op_id), "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "vbsenergy.cli", *op.argv]
        proc, latency = self._run(cmd)
        if self.traced:
            with open(spans_file) as fh:
                self.exports.append(json.load(fh))
            os.remove(spans_file)
        return Outcome(proc.returncode, proc.stdout, proc.stderr, latency)

    def peak_bytes(self, op: opslib.Op) -> int:
        out_file = os.path.join(self.tmp, "tracemalloc.json")
        self._run([sys.executable, SHIM, "tracemalloc", out_file, "0", "--", *op.argv])
        with open(out_file) as fh:
            return json.load(fh)["peak_bytes"]

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class InProcessRunner:
    """sweep-solve and simulate: ops are cli.main calls in this process,
    with stdout and stderr captured in memory."""

    def __init__(self, tmp: str) -> None:
        import vbsenergy.cli  # noqa: F401
        self.cli = sys.modules["vbsenergy.cli"]
        self.tmp = tmp
        self.configs = {}
        for dist in opslib.SIM_DISTRIBUTIONS:
            path = os.path.join(tmp, f"{dist}.ini")
            with open(path, "w") as fh:
                fh.write(f"[run]\nsize_distribution = {dist}\n")
            self.configs[opslib.config_placeholder(dist)] = path
        self.trace_path = os.path.join(tmp, "events.tsv")
        self.configs[opslib.TRACE_FILE] = self.trace_path
        # Keeps the last validation report, so simulated results can be
        # compared at full precision and not only as printed.
        self.last_report = None
        validate = self.cli.validate_against_analytic

        def capture(*args, **kwargs):
            self.last_report = validate(*args, **kwargs)
            return self.last_report

        self.cli.validate_against_analytic = capture
        self.tracer: tracerlib.Tracer | None = None

    def start_trace(self) -> None:
        self.tracer = tracerlib.Tracer()
        self.tracer.install()

    def stop_trace(self) -> list[dict]:
        self.tracer.uninstall()
        exports, self.tracer = [self.tracer.export()], None
        return exports

    def argv(self, op: opslib.Op) -> list[str]:
        return [self.configs.get(a, a) for a in op.argv]

    def run(self, op: opslib.Op, op_id: int) -> Outcome:
        argv = self.argv(op)
        out, err = io.StringIO(), io.StringIO()
        self.last_report = None
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
        result = Outcome(code, out.getvalue(), err.getvalue(), latency)
        if self.last_report is not None:
            result.stats_sha256 = stats_digest(self.last_report.stats)
        if opslib.TRACE_FILE in op.argv:
            with open(self.trace_path, "rb") as fh:
                result.trace_sha256 = sha256(fh.read())
            os.remove(self.trace_path)
        return result

    def peak_bytes(self, op: opslib.Op) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            tracemalloc.start()
            try:
                self.cli.main(self.argv(op))
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        return peak

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Checker:
    def __init__(self, workload: str) -> None:
        with open(GOLDENS) as fh:
            self.goldens = json.load(fh)[workload]
        self.attempted = 0
        self.failures: dict[str, dict] = {}

    def __call__(self, op: opslib.Op, out: Outcome) -> None:
        self.attempted += 1
        verdict, reason = check(op, out, self.goldens.get(op.key))
        if verdict != "ok":
            entry = self.failures.setdefault(
                op.key, {"op": op.key, "verdict": verdict, "reason": reason, "count": 0})
            entry["count"] += 1

    @property
    def failed(self) -> int:
        return sum(f["count"] for f in self.failures.values())

    @property
    def correct(self) -> bool:
        return all(f["verdict"] == "defect" for f in self.failures.values())


class SetupProbes:
    """Set-up samples spread over a run: probe i runs at the first op
    boundary at least i * seconds / SETUP_PROBES after the start, so
    that the samples see the same changes of machine speed as the ops."""

    def __init__(self, start: float, seconds: float) -> None:
        self.start = start
        self.seconds = seconds
        self.samples: list[float] = []

    def __call__(self) -> None:
        due = len(self.samples) * self.seconds / SETUP_PROBES
        if not self.done and time.perf_counter() - self.start >= due:
            self.samples.append(setup_probe())

    @property
    def done(self) -> bool:
        return len(self.samples) >= SETUP_PROBES


def run_passes(stream, runner, checker, phase, keep_going, record, probes=None) -> None:
    """Run whole passes while keep_going(passes_done) is true."""
    done = 0
    while keep_going(done):
        pass_ops = next(stream)
        wall = 0.0
        for op in pass_ops:
            if probes is not None:
                probes()
            op_id = record["next_op"]
            record["next_op"] += 1
            out = runner.run(op, op_id)
            checker(op, out)
            wall += out.latency_s
            if phase == "untraced":
                record["latencies_s"][op.cls].append(out.latency_s)
                record["work"] += op.work
        record["passes"].append({"phase": phase, "wall_s": wall, "ops": len(pass_ops)})
        done += 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=opslib.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", required=True)
    args = p.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        report = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return 0


def run(args, tmp: str) -> dict:
    cold = args.workload == "cli-cold"
    runner = ColdRunner(tmp) if cold else InProcessRunner(tmp)
    stream = opslib.passes(args.workload, args.seed)
    if args.trace:
        replay = [next(stream) for _ in range(TRACED_PASSES[args.workload])]
        stream = itertools.chain(replay, stream)
    checker = Checker(args.workload)
    record = {"next_op": 0, "latencies_s": {c: [] for c in opslib.CLASSES[args.workload]},
              "work": 0, "passes": []}

    if not cold:
        # One unmeasured pass from a separate stream, so lazy set-up
        # inside the package finishes before timing.
        for op in next(opslib.passes(args.workload, f"warm-up:{args.seed}")):
            runner.run(op, -1)

    start = time.perf_counter()
    probes = None if args.trace else SetupProbes(start, args.seconds)

    def keep_going(done: int) -> bool:
        elapsed = time.perf_counter() - start
        if args.trace:
            return elapsed < args.seconds / 2 or done < len(replay)
        return (elapsed < args.seconds or not probes.done
                or min(map(len, record["latencies_s"].values())) < MIN_CLASS_OPS)

    run_passes(stream, runner, checker, "untraced", keep_going, record, probes)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_samples_s": [] if args.trace else probes.samples,
        "latencies_s": record["latencies_s"],
        "work": record["work"],
        "passes": record["passes"],
    }
    if args.trace:
        runner.start_trace()
        try:
            run_passes(iter(replay), runner, checker, "traced",
                       lambda done: done < len(replay), record)
        finally:
            exports = runner.stop_trace()
        names, spans, counts = tracerlib.merge(exports)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv.gz")
        tracerlib.write_spans(spans_path, names, spans)
        layers = tracerlib.layer_metrics(names, spans, counts)

        op = opslib.MEMORY_OPS.get(args.workload)
        peak = runner.peak_bytes(op) / op.arrivals if op else 0.0
        layers["simulate.peak_bytes_per_arrival"] = (peak, "B")
        report["layers"] = layers
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["span_count"] = len(spans)

    report.update(
        attempted=checker.attempted,
        failed=checker.failed,
        correct=checker.correct,
        failures=sorted(checker.failures.values(), key=lambda f: f["op"]),
        peak_rss_kb=runner.peak_rss_kb(),
    )
    return report


if __name__ == "__main__":
    sys.exit(main())
