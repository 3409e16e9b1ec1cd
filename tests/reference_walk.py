"""The joint search and the sweep loop as they were before candidates were
chosen and evaluated in two steps: each candidate is evaluated as the
walk reaches it, and a sweep solves its values one at a time. Kept
verbatim as references for the batched code; the sweep loop writes
through the reference CSV writer. The per-count solve is the one from
before it returned a record, so the walk here does not run the code it
checks; only the scalar rate solver is shared."""
import math
from dataclasses import replace

from reference_writer import write_rows
from vbsenergy import cli
from vbsenergy.errors import (
    InfeasibleError,
    InfeasibleLoadError,
    InfeasibleScenarioError,
    NoEnergyOptimumError,
)
from vbsenergy.optimize import (
    STABILITY_MARGIN,
    TIE_REL_TOL,
    JointResult,
    Scenario,
    TradeoffPoint,
    evaluate_point,
    max_supportable_rate,
    solve_optimal_rate,
)


def _rate_for_cores(sc: Scenario, n_cores: int) -> tuple[float, bool]:
    """Best achievable rate on n_cores and whether the core capacity
    clamped it: the interior optimum when it fits, else the capacity.
    Raises InfeasibleLoadError or InfeasibleScenarioError when the cores
    cannot reach a stable rate."""
    r_cap = max_supportable_rate(sc.compute, n_cores)
    if r_cap <= sc.traffic.offered_load_bps * (1.0 + STABILITY_MARGIN):
        raise InfeasibleScenarioError(
            f"{n_cores} core(s) cannot reach a stable rate for this load"
        )
    try:
        r_hat = solve_optimal_rate(sc, n_cores)
    except NoEnergyOptimumError:
        # No finite-delay minimum: the cost rises with the rate over the
        # whole stable region, so the capacity is the costliest stable
        # rate on n_cores, not the cheapest. It is what optimize reports.
        return r_cap, True
    if r_hat <= r_cap:
        return r_hat, False
    return r_cap, True


def reference_joint(sc, n_cores_max: int) -> JointResult:
    if n_cores_max < 1:
        raise ValueError("n_cores_max must be at least 1")
    s = sc.compute.cpu_speed
    need = (sc.compute.c0 + sc.compute.kappa * sc.traffic.offered_load_bps) / s
    candidates: list[TradeoffPoint] = []
    for n in range(max(1, math.floor(min(need, n_cores_max + 1))), n_cores_max + 1):
        if n * s == (n - 1) * s:
            break
        try:
            rate, clamped = _rate_for_cores(sc, n)
        except (InfeasibleLoadError, InfeasibleScenarioError):
            continue
        try:
            candidates.append(evaluate_point(sc, rate, n))
        except InfeasibleError:
            if not candidates:
                raise
            break
        if not clamped:
            break

    if not candidates:
        raise InfeasibleScenarioError(
            f"no stable operating point with up to {n_cores_max} core(s) "
            f"for offered load {sc.traffic.offered_load_bps:.6g} bit/s"
        )

    best_cost = min(p.cost_z for p in candidates)
    for p in candidates:
        if p.cost_z <= best_cost * (1.0 + TIE_REL_TOL):
            return JointResult(p.rate_bps, p.n_cores, p, tuple(candidates))
    raise AssertionError("unreachable")


def reference_best_point(sc, cores, cores_max: int) -> JointResult:
    if cores is None:
        return reference_joint(sc, cores_max)
    point = evaluate_point(sc, _rate_for_cores(sc, cores)[0], cores)
    return JointResult(point.rate_bps, cores, point, (point,))


def reference_sweep(argv, fh) -> None:
    """The CSV of `vbsenergy sweep` for a variable other than target_delay,
    one value at a time."""
    args = cli.build_parser().parse_args(argv)
    settings = cli._settings(args)
    sc = settings.scenario
    base = cli._scenario_tag(sc)
    var, values = cli._parse_sweep_spec(args.spec)
    fixed = cli._fixed_cores(args)
    rows = []
    for v in values:
        sc_v, cores, label = sc, fixed, f"{v:.6g}"
        if var == "n_cores":
            cores = int(v)
            label = str(cores)
        elif var == "alpha":
            sc_v = replace(sc, alpha=v)
        elif var == "lambda":
            sc_v = replace(sc, traffic=replace(sc.traffic, arrival_rate=v))
        else:
            sc_v = replace(sc, traffic=replace(sc.traffic, file_size_bits=v))
        sid = f"{base}[{var}={label}]"
        try:
            point = reference_best_point(sc_v, cores, settings.n_cores_max).point
            rows.append(cli._row(sid, "sweep", point))
        except InfeasibleError as exc:
            rows.append(cli._row(sid, "sweep", None, exc.status, cores))
    write_rows(fh, rows)
