"""Command line front end.

Subcommands evaluate operating points (power), optimize rate and core
count (optimize), sweep a parameter (sweep), compare against the macro
baseline (compare), run the event simulator (simulate), and print the
effective configuration (config-show). Data goes to stdout, or to
--output, as CSV: compare has its own columns, COMPARE_COLUMNS, every
other command the columns of COLUMNS. This module owns the format: a
row is a tuple in its header's order, and each column's format is fixed
by its name. Text columns, core counts and the seed are written with
str(), every other column as '%.12g'; missing values are empty fields,
and every line ends in a bare newline, so equal inputs give byte-equal
files on any platform. No field is quoted, because none can hold a
comma, a quote or a line break: scenario tags are built from '%.6g'
numbers and SWEEP_VARS names, and every other text field is a fixed
word. Diagnostics go to stderr. The argument parser is built on the
first main call and reused by every later call in the process. main
reads the settings and then opens --output, once each and before any
work, so a refused command leaves the file empty.

Exit codes: 0 success, 2 usage or configuration error, a value outside
the model's domain, an output or trace file that cannot be opened, one
file named as both, or an input whose arrays do not fit in memory, 3
infeasible or unstable operating point, 4 simulation failed its
analytic validation. Errors print one ``error:`` line on stderr;
vbsenergy.errors decides which code and status each refusal gets.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import nullcontext

from ._arrays import np
from .config import Settings, apply_override, build_settings, read_config, render_config
from .errors import STATUSES, ConfigError, InfeasibleError
# best_rate_for_cores stays importable unused: perfbench/tracer.py wraps it here.
from .optimize import (  # noqa: F401
    Scenario,
    best_points,
    best_rate_for_cores,
    cores_needed,
    earth_energy_optimal_rate,
    evaluate_point,
    joint_optimize,
    rate_for_delay,
    scenario_profile,
    tradeoff_curve,
)
from .power import earth_profile
from .queueing import TrafficParams, average_power, cost, queue_metrics
from .simulate import SimConfig, validate_against_analytic
from .units import COUNT_LIMIT, parse_quantity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

COLUMNS = (
    "scenario_id",
    "command",
    "rate_bps",
    "n_cores",
    "rho",
    "mean_queue_len",
    "mean_delay_s",
    "avg_power_w",
    "cost_z",
    "source",
    "seed",
    "status",
)

COMPARE_COLUMNS = (
    "scenario_id",
    "delay_s",
    "rate_bps",
    "vbs_cores",
    "vbs_power_w",
    "cbs_power_w",
    "savings",
    "status",
)

SWEEP_VARS = ("target_delay", "alpha", "lambda", "file_size", "n_cores")

_COMPARE_DELAY_MIN_S = 0.05
_COMPARE_DELAY_MAX_S = 5.0
_COMPARE_DELAY_POINTS = 40


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vbsenergy",
        description="Energy and delay analysis of a virtual base station "
                    "with a computational-resource-aware power model.",
    )
    p.add_argument("--config", metavar="FILE",
                   help="INI file merged over the built-in defaults "
                        "(also via VBSENERGY_CONFIG)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_traffic_flags(sp):
        sp.add_argument("--alpha", dest="run.alpha", metavar="A",
                        help="delay penalty weight, W per queued flow")
        sp.add_argument("--lambda", dest="traffic.arrival_rate", metavar="RATE",
                        help="flow arrival rate, e.g. '1.5 /s'")
        sp.add_argument("--file-size", dest="traffic.file_size", metavar="SIZE",
                        help="mean flow size, e.g. '2 MB' (1 MB = 8e6 bits)")

    def add_output_flag(sp):
        sp.add_argument("--output", metavar="FILE",
                        help="write CSV here instead of stdout")

    sp = sub.add_parser("power", help="evaluate one operating point")
    sp.add_argument("--rate", required=True, metavar="RATE",
                    help="service rate, e.g. '50 Mbps'")
    sp.add_argument("--cores", dest="compute.n_cores", metavar="N",
                    help="core count (default: configured n_cores)")
    add_traffic_flags(sp)
    add_output_flag(sp)
    sp.set_defaults(func=cmd_power)

    sp = sub.add_parser("optimize",
                        help="minimize average power plus alpha times queue length")
    sp.add_argument("--cores", metavar="N",
                    help="fix the core count instead of searching")
    sp.add_argument("--cores-max", dest="run.n_cores_max", metavar="N",
                    help="search limit (default: configured n_cores_max)")
    sp.add_argument("--verbose", action="store_true",
                    help="list every candidate on stderr")
    add_traffic_flags(sp)
    add_output_flag(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("sweep", help="evaluate along a parameter grid")
    sp.add_argument("spec", metavar="VAR=START:STOP:STEPS[:log]",
                    help=f"variable in {{{', '.join(SWEEP_VARS)}}}; 'log' for "
                         "a geometric grid; units are SI base units")
    sp.add_argument("--cores", metavar="N",
                    help="fix the core count instead of auto-sizing "
                         "(refused by an n_cores sweep)")
    sp.add_argument("--cores-max", dest="run.n_cores_max", metavar="N",
                    help="search limit for optimizing sweeps")
    add_traffic_flags(sp)
    add_output_flag(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("compare",
                        help="virtual station versus the macro baseline")
    sp.add_argument("--policy", choices=("grid", "cbs-optimal"), default="grid",
                    help="'grid' sweeps target delays; 'cbs-optimal' uses the "
                         "baseline's energy-optimal rate (default: grid)")
    add_traffic_flags(sp)
    add_output_flag(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("simulate",
                        help="event simulation with analytic validation")
    sp.add_argument("--rate", required=True, metavar="RATE",
                    help="service rate, e.g. '50 Mbps'")
    sp.add_argument("--cores", dest="compute.n_cores", metavar="N",
                    help="core count (default: configured n_cores)")
    sp.add_argument("--seed", dest="run.seed", metavar="SEED", help="random seed")
    sp.add_argument("--arrivals", dest="run.arrivals", metavar="N",
                    help="number of flows to draw")
    sp.add_argument("--trace", metavar="FILE",
                    help="write a per-event trace here")
    add_traffic_flags(sp)
    add_output_flag(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("config-show", help="print the effective configuration")
    add_traffic_flags(sp)
    sp.set_defaults(func=cmd_config_show)

    return p


def _settings(args) -> Settings:
    """The configuration with each flag whose dest is a "section.key"
    setting applied over it."""
    text = read_config(args.config)
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            apply_override(text, *dest.split("."), value)
    return build_settings(text)


def _scenario_tag(sc: Scenario) -> str:
    t = sc.traffic
    return (f"lam{t.arrival_rate:.6g}-size{t.file_size_bits:.6g}"
            f"-alpha{sc.alpha:.6g}")


def _fixed_cores(args) -> int | None:
    """The --cores of optimize and sweep, or None to search for the count."""
    return None if args.cores is None else parse_quantity(args.cores, "count", where="--cores")


def _out(path: str | None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


# The columns written with str(): text, core counts and the seed. Every
# other column holds floats and is written as '%.12g'.
_STR_COLUMNS = frozenset({"scenario_id", "command", "n_cores", "source", "seed",
                          "status", "vbs_cores"})
_FLOAT_FORMAT = "%.12g".__mod__


def write_rows(stream, rows, header=COLUMNS) -> None:
    """Write a header line and rows as CSV with LF line endings.

    The rows are formatted column by column, each with the formatter its
    name picks, and written in one call; None is an empty field. No field
    is quoted, because none can hold a comma, a quote or a line break:
    floats and counts cannot, scenario tags are built from '%.6g' numbers
    and SWEEP_VARS names, and every other text field is a fixed word."""
    columns = []
    for name, cells in zip(header, zip(*rows)):
        fmt = str if name in _STR_COLUMNS else _FLOAT_FORMAT
        columns.append([fmt(v) if v is not None else "" for v in cells])
    stream.write("\n".join(map(",".join, [header, *zip(*columns)])) + "\n")


def _row(sid: str, command: str, p, status: str = "ok", n_cores: int | None = None) -> tuple:
    """An analytic row in COLUMNS order from a TradeoffPoint's seven fields,
    the count as an int; a refused point (None) has a blank body."""
    if p is None:
        return (sid, command, None, n_cores, None, None, None, None, None,
                "analytic", None, status)
    rate, n, *fields = p
    return (sid, command, rate, int(n), *fields, "analytic", None, status)


def cmd_power(args, settings: Settings, fh) -> int:
    sc = settings.scenario
    rate = parse_quantity(args.rate, "bitrate", where="--rate")
    point = evaluate_point(sc, rate, sc.compute.n_cores)
    write_rows(fh, [_row(_scenario_tag(sc), "power", point)])
    return EXIT_OK


def cmd_optimize(args, settings: Settings, fh) -> int:
    result = joint_optimize(settings.scenario, settings.n_cores_max, _fixed_cores(args))
    if args.verbose:
        for c in result.candidates:
            print(f"candidate: n_cores={c.n_cores} rate={c.rate_bps:.6g} "
                  f"power={c.avg_power_w:.6g} cost={c.cost_z:.6g}",
                  file=sys.stderr)
    write_rows(fh, [_row(_scenario_tag(settings.scenario), "optimize", result.point)])
    return EXIT_OK


def _parse_sweep_spec(spec: str) -> tuple[str, list[float]]:
    name, sep, grid = spec.partition("=")
    if not sep:
        raise ConfigError(f"sweep spec {spec!r} is not VAR=START:STOP:STEPS[:log]")
    if name not in SWEEP_VARS:
        raise ConfigError(f"unknown sweep variable {name!r}; "
                          f"choose from {', '.join(SWEEP_VARS)}")
    parts = grid.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise ConfigError(f"sweep grid {grid!r} is not START:STOP:STEPS[:log]")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"sweep grid {grid!r}: {exc}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep grid {grid!r} needs finite endpoints")
    if steps < 1:
        raise ConfigError("sweep needs at least one step")
    if len(parts) == 4 and (start <= 0 or stop <= 0):
        raise ConfigError("log grids need positive endpoints")
    if steps == 1:
        return name, [start]
    if len(parts) == 4:
        values = np.geomspace(start, stop, steps).tolist()
    else:  # np.linspace's arithmetic in floats; a span that overflows gives inf
        n, span = steps - 1, stop - start
        step = span / n
        values = [0.0] * steps  # fails at once where it would not fit in memory
        values[:n] = [i * step + start if step else i / n * span + start for i in range(n)]
        values[n] = stop
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"sweep grid {grid!r} leaves the float range")
    return name, values


def cmd_sweep(args, settings: Settings, fh) -> int:
    """One row per grid value. A target_delay sweep is one tradeoff_curve
    call. The other variables give each value a (traffic, alpha, n_cores)
    case of the one station; optimize.best_points chooses each case's
    candidates in turn and prices every candidate of every case in one
    cost call. A refused value gets the status of its refusal."""
    sc = settings.scenario
    base = _scenario_tag(sc)
    var, values = _parse_sweep_spec(args.spec)
    if var == "n_cores":
        if args.cores is not None:
            raise ConfigError("an n_cores sweep sets the core count itself; drop --cores")
    fixed = _fixed_cores(args)
    rows = []

    if var == "target_delay":
        status, points = tradeoff_curve(sc, values, n_cores=fixed)
        for d, s, *p in zip(values, status.tolist(), *(f.tolist() for f in points)):
            rows.append(_row(f"{base}[target_delay={d:.6g}]", "sweep",
                             p if s == "ok" else None, s, fixed))
    else:
        cases, sids = [], []
        for v in values:
            traffic, alpha, cores, label = sc.traffic, sc.alpha, fixed, f"{v:.6g}"
            if var == "n_cores":
                if not 1 <= v < COUNT_LIMIT or v != int(v):
                    raise ConfigError(f"n_cores sweep needs integers in [1, 2**53), got {v:g}")
                cores = int(v)
                label = str(cores)
            elif var == "alpha":
                alpha = v
            elif var == "lambda":
                traffic = TrafficParams(v, sc.traffic.file_size_bits)
            else:
                traffic = TrafficParams(sc.traffic.arrival_rate, v)
            cases.append((traffic, alpha, cores))
            sids.append(f"{base}[{var}={label}]")
        for sid, (*_, cores), result in zip(sids, cases,
                                            best_points(sc, cases, settings.n_cores_max)):
            if isinstance(result, InfeasibleError):
                rows.append(_row(sid, "sweep", None, result.status, cores))
            else:
                rows.append(_row(sid, "sweep", result.point))
    write_rows(fh, rows)
    return EXIT_OK


def cmd_compare(args, settings: Settings, fh) -> int:
    if settings.earth is None:
        raise ConfigError("the macro baseline is disabled in [earth]; "
                          "set enabled = true to compare")
    sc = settings.scenario
    t = sc.traffic
    base = _scenario_tag(sc)
    cbs = earth_profile(settings.earth, sc.link.channel_gain,
                        sc.link.bandwidth_hz, settings.earth_switch_energy_j)

    rows = []
    if args.policy == "cbs-optimal":
        rate = earth_energy_optimal_rate(
            settings.earth, sc.link.channel_gain, sc.link.bandwidth_hz,
            settings.earth_switch_energy_j, t)
        n = cores_needed(sc.compute, rate)
        p_vbs = average_power(scenario_profile(sc, n), t, rate)
        p_cbs = average_power(cbs, t, rate)
        rows.append((f"{base}[cbs-optimal]", queue_metrics(t, rate).mean_delay_s,
                     rate, n, p_vbs, p_cbs, 1.0 - p_vbs / p_cbs, "ok"))
    else:
        delays = np.geomspace(_COMPARE_DELAY_MIN_S, _COMPARE_DELAY_MAX_S,
                              _COMPARE_DELAY_POINTS)
        rates = rate_for_delay(t, delays)
        c = cost(cbs, t, 0.0, rates)
        status, vbs = tradeoff_curve(sc, delays)
        for d, rate, s, n, p_vbs, code, p_cbs in zip(
                delays.tolist(), rates.tolist(), status.tolist(), vbs.n_cores.tolist(),
                vbs.avg_power_w.tolist(), c.code.tolist(), c.power_w.tolist()):
            sid = f"{base}[delay={d:.6g}]"
            s = STATUSES[code] if s == "ok" else s  # the baseline may refuse
            if s == "ok":
                rows.append((sid, d, rate, int(n), p_vbs, p_cbs, 1.0 - p_vbs / p_cbs, "ok"))
            else:
                rows.append((sid, d, rate, None, None, None, None, s))
    write_rows(fh, rows, header=COMPARE_COLUMNS)
    return EXIT_OK


def cmd_simulate(args, settings: Settings, fh) -> int:
    # main has opened --output already; a trace opened on the same file
    # would write over it.
    if (args.output is not None and args.trace is not None
            and os.path.realpath(args.output) == os.path.realpath(args.trace)):
        raise ConfigError(f"--output and --trace name the same file {args.trace!r}")
    sc = settings.scenario
    rate = parse_quantity(args.rate, "bitrate", where="--rate")
    n = sc.compute.n_cores
    profile = scenario_profile(sc, n)
    cfg = SimConfig(
        traffic=sc.traffic,
        profile=profile,
        rate_bps=rate,
        size_distribution=settings.size_distribution,
        n_arrivals=settings.arrivals,
        warmup_fraction=settings.warmup_fraction,
        seed=settings.seed,
        trace_path=args.trace,
    )
    report = validate_against_analytic(cfg)
    stats = report.stats

    for c in report.checks:
        mark = "inside" if c.inside else "OUTSIDE"
        print(f"{c.name}: analytic={c.analytic:.6g} "
              f"simulated={c.simulated:.6g} +/- {c.halfwidth:.3g} "
              f"[{mark} {report.confidence:.0%} interval]", file=sys.stderr)
    print(f"completed {stats.completed_flows} flows over {stats.window_s:.6g} s, "
          f"{stats.cycles_observed} sleep cycles", file=sys.stderr)

    row = (_scenario_tag(sc), "simulate", rate, n, stats.busy_fraction,
           stats.mean_queue_len, stats.mean_delay_s, stats.mean_power_w,
           stats.mean_power_w + sc.alpha * stats.mean_queue_len, "simulated",
           settings.seed, "ok" if report.ok else "validation-failed")
    write_rows(fh, [row])
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_config_show(args, settings: Settings, fh) -> int:
    fh.write(render_config(settings.text))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _settings(args)
        with _out(getattr(args, "output", None)) as fh:
            return args.func(args, settings, fh)
    except (InfeasibleError, ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_INFEASIBLE if isinstance(exc, InfeasibleError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
