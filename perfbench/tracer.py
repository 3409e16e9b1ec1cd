"""Span tracer that wraps the package's public functions at run time.

`Tracer.install()` rebinds each function named in SITES, in the module
where its caller looks it up (for example `vbsenergy.optimize.lambert_w0`,
which the rate solver calls, or `vbsenergy.cli.joint_optimize`, which the
CLI calls), to a wrapper that records a span. The package source is not
edited; `uninstall()` puts the original functions back.

A span is (name, start, end, parent index, op id). Spans are kept in
memory and written out once, at the end. The first part of a span's
name is its layer; a layer's self time is the duration of its spans
minus the time their direct child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "config", "units", "optimize", "lambertw", "power", "radio",
          "queueing", "simulate", "results")

# (module, attribute, span name). A function called from several
# modules is listed once per calling module, because each caller looks
# the name up in its own globals.
SITES = (
    ("vbsenergy.cli", "main", "cli.main"),
    ("vbsenergy.cli", "read_config", "config.read_config"),
    ("vbsenergy.cli", "build_settings", "config.build_settings"),
    ("vbsenergy.cli", "parse_quantity", "units.parse_quantity"),
    ("vbsenergy.config", "parse_quantity", "units.parse_quantity"),
    ("vbsenergy.cli", "joint_optimize", "optimize.joint_optimize"),
    ("vbsenergy.cli", "best_rate_for_cores", "optimize.best_rate_for_cores"),
    ("vbsenergy.cli", "evaluate_point", "optimize.evaluate_point"),
    ("vbsenergy.optimize", "evaluate_point", "optimize.evaluate_point"),
    ("vbsenergy.cli", "tradeoff_curve", "optimize.tradeoff_curve"),
    ("vbsenergy.cli", "rate_for_delay", "optimize.rate_for_delay"),
    ("vbsenergy.cli", "cores_needed", "optimize.cores_needed"),
    ("vbsenergy.cli", "scenario_profile", "optimize.scenario_profile"),
    ("vbsenergy.cli", "earth_energy_optimal_rate", "optimize.earth_energy_optimal_rate"),
    ("vbsenergy.optimize", "solve_optimal_rate", "optimize.solve_optimal_rate"),
    ("vbsenergy.optimize", "optimality_gap", "optimize.optimality_gap"),
    ("vbsenergy.optimize", "lambert_w0", "lambertw.lambert_w0"),
    ("vbsenergy.optimize", "vbs_profile", "power.vbs_profile"),
    ("vbsenergy.optimize", "static_power", "power.static_power"),
    ("vbsenergy.optimize", "sleep_adjusted_power", "power.sleep_adjusted_power"),
    ("vbsenergy.cli", "earth_profile", "power.earth_profile"),
    ("vbsenergy.power", "vbs_busy_power", "power.vbs_busy_power"),
    ("vbsenergy.power", "earth_busy_power", "power.earth_busy_power"),
    ("vbsenergy.power", "tx_power_for_rate", "radio.tx_power_for_rate"),
    ("vbsenergy.cli", "queue_metrics", "queueing.queue_metrics"),
    ("vbsenergy.cli", "average_power", "queueing.average_power"),
    ("vbsenergy.optimize", "queue_metrics", "queueing.queue_metrics"),
    ("vbsenergy.optimize", "average_power", "queueing.average_power"),
    ("vbsenergy.simulate", "queue_metrics", "queueing.queue_metrics"),
    ("vbsenergy.simulate", "average_power", "queueing.average_power"),
    ("vbsenergy.cli", "validate_against_analytic", "simulate.validate_against_analytic"),
    ("vbsenergy.simulate", "simulate", "simulate.simulate"),
    ("vbsenergy.simulate", "halfwidth", "simulate.halfwidth"),
    ("vbsenergy.cli", "write_rows", "results.write_rows"),
)


def _row_status(row) -> str:
    return row.status if hasattr(row, "status") else row[-1]


def _count_joint(counts, args, result):
    counts["optimize.joint_candidates"] += len(result.candidates)


def _count_validation(counts, args, result):
    counts["simulate.checks"] += len(result.checks)
    counts["simulate.checks_inside"] += sum(1 for c in result.checks if c.inside)
    counts["simulate.cycles"] += result.stats.cycles_observed


def _count_simulate(counts, args, result):
    # The run drains its queue, so every arrival also departs.
    counts["simulate.events"] += 2 * args[0].n_arrivals


def _count_rows(counts, args, result):
    rows = list(args[1])
    counts["results.rows"] += len(rows)
    counts["results.ok_rows"] += sum(1 for r in rows if _row_status(r) == "ok")


# Extra counts taken from a call's arguments and result.
_AFTER = {
    "optimize.joint_optimize": _count_joint,
    "simulate.validate_against_analytic": _count_validation,
    "simulate.simulate": _count_simulate,
    "results.write_rows": _count_rows,
}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        after = _AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if after is not None:
                after(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name in SITES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def export(self) -> dict:
        """Spans and counts as plain data, to merge across processes."""
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


def merge(exports) -> tuple[list[str], list[tuple], Counter]:
    """Join exported tracers into one span list with one name table."""
    names: list[str] = []
    ids: dict[str, int] = {}
    spans: list[tuple] = []
    counts: Counter = Counter()
    for ex in exports:
        for n in ex["names"]:
            if n not in ids:
                ids[n] = len(names)
                names.append(n)
        remap = [ids[n] for n in ex["names"]]
        base = len(spans)
        for name_id, start, end, parent, op in ex["spans"]:
            spans.append((remap[name_id], start, end,
                          parent + base if parent >= 0 else -1, op))
        counts.update(ex["counts"])
    return names, spans, counts


def write_spans(path: str, names, spans) -> None:
    """One line per span: index, op, name, start, end, parent index."""
    with gzip.open(path, "wt") as fh:
        fh.write("index\top\tname\tstart_s\tend_s\tparent\n")
        for i, (name_id, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i}\t{op}\t{names[name_id]}\t{start!r}\t{end!r}\t{parent}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(names, spans, counts) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from spans and counts: name -> (value, unit)."""
    counts = Counter(counts)
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    layer_self: defaultdict = defaultdict(float)
    for (name_id, start, end, _, _), own in zip(spans, self_times(spans)):
        name = names[name_id]
        calls[name] += 1
        total[name] += end - start
        layer_self[name.split(".", 1)[0]] += own

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["cli.main.calls"] = (calls["cli.main"], "count")
    m["config.build_settings.calls"] = (calls["config.build_settings"], "count")
    m["units.parse_quantity.calls"] = (calls["units.parse_quantity"], "count")

    solves = calls["optimize.solve_optimal_rate"]
    joints = calls["optimize.joint_optimize"]
    evals = calls["optimize.evaluate_point"]
    m["optimize.solve_optimal_rate.calls"] = (solves, "count")
    m["optimize.gap_evals_per_solve"] = (ratio(calls["optimize.optimality_gap"], solves), "ratio")
    m["optimize.joint_optimize.calls"] = (joints, "count")
    m["optimize.candidates_per_joint"] = (ratio(counts["optimize.joint_candidates"], joints), "ratio")
    m["optimize.evaluate_point.calls"] = (evals, "count")
    m["optimize.evaluate_point.us_per_call"] = (
        ratio(total["optimize.evaluate_point"] * 1e6, evals), "us")

    m["lambertw.calls"] = (calls["lambertw.lambert_w0"], "count")
    m["power.vbs_busy_power.calls"] = (calls["power.vbs_busy_power"], "count")
    m["radio.tx_power_for_rate.calls"] = (calls["radio.tx_power_for_rate"], "count")
    m["queueing.average_power.calls"] = (calls["queueing.average_power"], "count")

    sim_s = total["simulate.simulate"]
    m["simulate.calls"] = (calls["simulate.simulate"], "count")
    m["simulate.events"] = (counts["simulate.events"], "count")
    m["simulate.events_per_s"] = (ratio(counts["simulate.events"], sim_s), "1/s")
    m["simulate.cycles"] = (counts["simulate.cycles"], "count")
    m["simulate.halfwidth_s"] = (total["simulate.halfwidth"], "s")
    m["simulate.checks_inside_ratio"] = (
        ratio(counts["simulate.checks_inside"], counts["simulate.checks"]), "ratio")

    rows = counts["results.rows"]
    m["results.rows"] = (rows, "count")
    m["results.us_per_row"] = (ratio(total["results.write_rows"] * 1e6, rows), "us")
    m["results.ok_row_ratio"] = (ratio(counts["results.ok_rows"], rows), "ratio")
    return m
