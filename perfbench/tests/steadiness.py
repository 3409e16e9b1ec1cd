"""Steadiness check: is each end-to-end metric's run-to-run spread within its bound?

    python3 perfbench/tests/steadiness.py [--out perfbench/results/FILE.json]

Run from the root of the checkout. For every workload of BENCHMARK.json
it runs the benchmark RUNS times, each with another seed, for the
run_seconds of BENCHMARK.json, and does so SETS times. For each
end-to-end metric and set it reports the spread, (q3 - q1) / median
with the quartiles of statistics.quantiles(values, n=4), against the
metric's bound; the aim is a spread below a third of the bound. It also
checks that no later set's median is worse than the first set's by
more than the bound. Then it adds TRACED_RUNS --trace 1 runs per
workload.

--out writes every run's result and record plus the summary; the file
is the benchmark's result record for the measured commit. Exits 1 when
a check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
RUNS = 10
SETS = 2
TRACED_RUNS = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])
    # Per-pass times stay out of the saved file; they only make it long.
    record["passes"] = len(record["passes"])
    return record, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / abs(first)
    return change if better == "lower" else -change


def main() -> int:
    p = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    p.add_argument("--out", help="JSON file for every run and the summary")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    runs: list[dict] = []
    summary: dict = {}
    ok = True
    for w in workloads:
        medians = []
        for s in range(SETS):
            values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
            for i in range(RUNS):
                seed = 1 + 1000 * s + i
                record, result = run_once(w, seed, seconds, 0)
                runs.append({"workload": w, "set": s, "seed": seed, "trace": 0,
                             "result": result, "record": record})
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{w} set {s} seed {seed}: " + " ".join(
                    f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
            set_summary = {}
            for m in metrics:
                med, q1, q3, rel = spread(values[m["name"]])
                steady = rel < m["bound"]
                ok &= steady
                set_summary[m["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "spread": rel,
                    "bound": m["bound"], "within_third_of_bound": rel < m["bound"] / 3,
                    "within_bound": rel < m["bound"], "values": values[m["name"]]}
                print(f"  {w} set {s} {m['name']:>12}: median {med:.6g} spread "
                      f"{rel:.4f} (bound {m['bound']}, third {m['bound'] / 3:.4f})"
                      + ("" if steady else "  SPREAD ABOVE BOUND"), flush=True)
            medians.append(set_summary)
            summary.setdefault(w, {})[f"set{s}"] = set_summary
        for s in range(1, SETS):
            for m in metrics:
                worse = worse_by(medians[0][m["name"]]["median"],
                                 medians[s][m["name"]]["median"], m["better"])
                within = worse <= m["bound"]
                ok &= within
                summary[w].setdefault("median_drift", {})[f"{m['name']}.set{s}"] = worse
                print(f"  {w} set {s} vs set 0 {m['name']:>12}: worse by {worse:+.4f}"
                      + ("" if within else "  ABOVE BOUND"), flush=True)
        for i in range(TRACED_RUNS):
            seed = 501 + i
            record, result = run_once(w, seed, seconds, 1)
            runs.append({"workload": w, "seed": seed, "trace": 1,
                         "result": result, "record": record})
            print(f"{w} traced seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        if args.out:  # after every workload, so a long check keeps what it measured
            with open(args.out, "w") as fh:
                json.dump({"benchmark": bench, "summary": summary, "runs": runs}, fh, indent=1)
                fh.write("\n")

    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
