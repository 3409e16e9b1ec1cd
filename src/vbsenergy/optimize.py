"""Operating-point optimization: service rate and core count.

For a fixed core count the cost z(r) = E{P}(r) + alpha * E{n}(r) has at
most one interior stationary point in the stable region r > lambda * L.
Setting dz/dr = 0 and substituting u = r ln2 / W - 1 gives a Lambert W
equation, so the stationarity condition can be written as a gap

    gap(r) = W0(a(r)) - (r ln2 / W - 1),
    a(r) = alpha g eta / e * (r / (r - lambda L))**2 + (g eta P_s - 1) / e,

which is strictly decreasing in r; its root is the cost minimizer. At
alpha = 0 the argument is constant and the root has the closed form

    r_e = W / ln2 * (W0((g eta P_s - 1) / e) + 1),

which exists inside the stable region iff P_s > 0 and lambda L < r_e.
P_s is the sleep-adjusted static power, so r_e depends on neither the
rate-linear BBU load coefficient kappa nor on alpha.

At alpha > 0 the root is bracketed by doubling and bisected, and each
sign test evaluates the gap only inside a window around the root. A
Newton search on ln a - u - ln u, with no Lambert W per step, locates
the root; two gap evaluations certify the window's ends with a margin
above the gap's rounding error. Outside the window the computed gap's
sign is then known, so the bisection takes the same steps with about 6
gap evaluations instead of 45. Where no window is certified every test
evaluates the gap.
Both read only the coefficients of a BusyPowerProfile, so the macro
baseline shares them through earth_profile.

The joint search over core counts has two steps. Choose: the walk
steps N_c upward, one scalar rate solve per count; once the fixed-N_c
minimizer is achievable within the core capacity, larger N_c only add
idle-floor power, so the walk stops there. Evaluate: the candidates
are costed together and the cheapest wins. best_points runs the choose
step for many scenarios, a sweep's values, and evaluates all their
candidates in one kernel call; joint_optimize is its one-scenario case.

Operating points are evaluated by the cost kernel queueing.cost:
evaluate_point on one rate, raising its refusal; best_points in one call
over every candidate of every scenario it is given; and tradeoff_curve
in one call over all its (rate, core count) pairs, returning each
point's status and one TradeoffPoint of arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    REFUSALS,
    ConvergenceError,
    InfeasibleError,
    InfeasibleLoadError,
    InfeasibleScenarioError,
    NoEnergyOptimumError,
    UnstableQueueError,
    refusal_status,
)
from .lambertw import BRANCH_POINT_ARG, lambert_w0
# Unused static_power, sleep_adjusted_power, average_power and
# queue_metrics stay importable: perfbench/tracer.py wraps them here.
from .power import (  # noqa: F401
    BusyPowerProfile,
    ComputeParams,
    EarthParams,
    RadioParams,
    check_cores,
    earth_profile,
    raise_refusal,
    sleep_adjusted_power,
    static_power,
    vbs_profile,
)
from .queueing import TrafficParams, average_power, cost, queue_metrics  # noqa: F401
from .radio import LN2, LinkBudget, over_link_cap

# Costs within this relative band are treated as ties; the smaller core
# count wins a tie.
TIE_REL_TOL = 1e-9

# Rates are searched in (offered_load * (1 + STABILITY_MARGIN), r_max].
STABILITY_MARGIN = 1e-9

_BISECT_RTOL = 1e-12
# Enough doublings to walk from the smallest subnormal to the largest float.
_MAX_BRACKET_DOUBLINGS = 2100
_MAX_BISECT_ITER = 500
# Relative half-widths of the certified gap window, tried in turn; the
# narrowest leaves about four bisection steps inside it.
_WINDOW_RTOLS = (4e-12, 1e-9, 1e-6)
# The located root is final once a Newton step is this small relative to it.
_LOCATE_RTOL = 1e-14
_LOCATE_MAX_ITER = 100

# A curve point's status by its refusal code, and invalid-delay after them.
_CURVE_STATUSES = np.array([*map(refusal_status, range(len(REFUSALS))), "invalid-delay"])


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one station: compute platform, RF
    chain, link budget, traffic, and the delay penalty alpha (W/flow)."""

    compute: ComputeParams = ComputeParams()
    radio: RadioParams = RadioParams()
    link: LinkBudget = LinkBudget()
    traffic: TrafficParams = TrafficParams()
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not self.alpha >= 0:
            raise ValueError("alpha must be nonnegative")
        if self.radio.bandwidth_hz != self.link.bandwidth_hz:
            raise ValueError(
                "radio and link bandwidth disagree; build both from one value"
            )


class TradeoffPoint(NamedTuple):
    """One evaluated operating point on the energy-delay tradeoff, or the
    points of a curve as arrays, one entry per point. The fields after
    n_cores are those of queueing.Cost after code; the field order is
    the CSV column order."""

    rate_bps: float
    n_cores: int
    rho: float
    mean_queue_len: float
    mean_delay_s: float
    avg_power_w: float
    cost_z: float


@dataclass(frozen=True)
class ExistenceResult:
    """Whether a finite-delay power minimum exists, and why not.

    arrival_rate_bound is the largest arrival rate that keeps the
    sleep-adjusted static power positive; file_size_bound is the mean
    size bound (bits) below which the minimizer stays in the stable
    region, or None when the first condition already fails.
    """

    exists: bool
    reason: str | None
    arrival_rate_bound: float
    file_size_bound: float | None

    def __bool__(self) -> bool:
        return self.exists


@dataclass(frozen=True)
class JointResult:
    """Winner of the joint rate/core search plus every candidate tried."""

    rate_bps: float
    n_cores: int
    point: TradeoffPoint
    candidates: tuple[TradeoffPoint, ...]


def max_supportable_rate(c: ComputeParams, n_cores: int | None = None) -> float:
    """Largest rate n_cores cores (default c.n_cores) decode: load is 1 there."""
    n = c.n_cores if n_cores is None else check_cores(n_cores)
    r_max = (n * c.cpu_speed - c.c0) / c.kappa
    if r_max <= 0:
        raise InfeasibleLoadError(
            f"{n} core(s) cannot even run the rate-independent load"
        )
    return r_max


def cores_needed(c: ComputeParams, rate_bps):
    """Smallest core count whose capacity covers rate_bps, as an int. An
    array of rates gives a float array of counts, inf where no finite
    count covers a rate; a single such rate raises InfeasibleLoadError."""
    r = np.asarray(rate_bps, dtype=float)
    if np.any(r < 0):
        raise ValueError("rate must be nonnegative")
    with np.errstate(over="ignore"):
        need = np.maximum(1.0, np.ceil((c.c0 + c.kappa * r) / c.cpu_speed - 1e-12))
    if r.ndim:
        return need
    if not math.isfinite(need):
        raise InfeasibleLoadError(f"no finite core count decodes {rate_bps:.6g} bit/s")
    return int(need)


def scenario_profile(sc: Scenario, n_cores) -> BusyPowerProfile:
    """VBS busy-power profile on n_cores cores, one count or an array of them."""
    return vbs_profile(sc.compute, sc.radio, sc.link.channel_gain, n_cores)


def evaluate_point(sc: Scenario, rate_bps: float, n_cores: int) -> TradeoffPoint:
    """Evaluate queueing metrics, power, and cost at one operating point,
    raising the refusal the cost kernel flags there."""
    profile = scenario_profile(sc, n_cores)
    c = cost(profile, sc.traffic, sc.alpha, rate_bps)
    raise_refusal(c.code, rate_bps, profile, sc.traffic.offered_load_bps)
    return TradeoffPoint(float(rate_bps), n_cores, *map(float, c[1:]))


def optimality_gap(profile: BusyPowerProfile, t: TrafficParams, alpha: float,
                   rate_bps: float) -> float:
    """Signed stationarity gap of z = E{P} + alpha * E{n} at rate_bps;
    positive while the cost is still falling, zero at its minimizer, and
    negative where it rises.

    Where the Lambert argument a(r) falls below -1/e the gap is -inf:
    u * e**u >= -1/e > a(r) for every u, so dz/dr > 0 there.
    """
    load = t.offered_load_bps
    if not rate_bps > load:
        raise UnstableQueueError.at(load=load)
    g_eta = profile.gain * profile.pa_efficiency
    p_s = profile.sleep_adjusted_power(t.arrival_rate)
    w_arg = (
        alpha * g_eta / math.e * (rate_bps / (rate_bps - load)) ** 2
        + (g_eta * p_s - 1.0) / math.e
    )
    if w_arg < BRANCH_POINT_ARG:
        return -math.inf
    return lambert_w0(w_arg) - (rate_bps * LN2 / profile.bandwidth_hz - 1.0)


def _closed_form(profile: BusyPowerProfile,
                 t: TrafficParams) -> tuple[ExistenceResult, float | None]:
    """The paper's two existence conditions, decided only here, and the
    power minimizer r_e at alpha = 0 (None when the sleep-adjusted static
    power P_s <= 0). The size condition compares the offered load with
    r_e, so an r_e reported as existing is always a stable rate."""
    e_sw = profile.switch_energy_j
    lam_bound = (math.inf if e_sw == 0
                 else (profile.static_power_w - profile.sleep_power_w) / (2.0 * e_sw))
    p_s = profile.sleep_adjusted_power(t.arrival_rate)
    if p_s <= 0:
        return ExistenceResult(False, "arrival_rate", lam_bound, None), None
    w_arg = (profile.gain * profile.pa_efficiency * p_s - 1.0) / math.e
    r_e = profile.bandwidth_hz / LN2 * (lambert_w0(w_arg) + 1.0)
    exists = t.offered_load_bps < r_e
    return (ExistenceResult(exists, None if exists else "file_size", lam_bound,
                            r_e / t.arrival_rate), r_e)


def _optimal_rate(profile: BusyPowerProfile, t: TrafficParams) -> float:
    """r_e, or NoEnergyOptimumError naming the failed existence condition."""
    res, r_e = _closed_form(profile, t)
    if res.reason == "arrival_rate":
        raise NoEnergyOptimumError(
            f"switching cost dominates: arrival rate must stay below "
            f"{res.arrival_rate_bound:.6g}/s",
            reason="arrival_rate",
        )
    if res.reason == "file_size":
        raise NoEnergyOptimumError(
            f"offered load {t.offered_load_bps:.6g} bit/s at or above the "
            f"minimizer {r_e:.6g} bit/s; power only falls as delay grows",
            reason="file_size",
        )
    return r_e


def energy_optimal_exists(sc: Scenario, n_cores: int) -> ExistenceResult:
    """Check the two conditions for a finite-delay power minimum.

    First the arrival rate must keep the sleep-adjusted static power
    positive; then the offered load must sit below the closed-form
    minimizer. The reported bounds make both checks reproducible.
    """
    return _closed_form(scenario_profile(sc, n_cores), sc.traffic)[0]


def energy_optimal_rate(sc: Scenario, n_cores: int) -> float:
    """Closed-form rate minimizing average power for a fixed core count.

    Independent of kappa and of alpha. Raises NoEnergyOptimumError when
    no finite-delay minimum exists.
    """
    return _optimal_rate(scenario_profile(sc, n_cores), sc.traffic)


def earth_energy_optimal_rate(e: EarthParams, gain: float, bandwidth_hz: float,
                              switch_energy_j: float, t: TrafficParams) -> float:
    """Energy-minimizing rate of the macro baseline under the same sleep
    policy; its amplifier term enters through 1/delta_p."""
    return _optimal_rate(earth_profile(e, gain, bandwidth_hz, switch_energy_j), t)


def asymptotic_power(sc: Scenario, n_cores: int) -> float:
    """Average power in the infinite-delay limit r -> offered load.

    The utilization tends to 1, so sleep and switching vanish and only
    the busy power at the offered load remains. Two traffic mixes with
    equal offered load share this value. An offered load beyond the core
    or link cap raises the kernel's error.
    """
    return scenario_profile(sc, n_cores).busy_power(sc.traffic.offered_load_bps)


def _locate_root(c: float, b: float, k: float, load: float) -> float | None:
    """Approximate root of W0(a(r)) = u(r), with a(r) = c (r / (r - load))**2
    + b and u(r) = k r - 1, found with no Lambert W per step; None when the
    search fails.

    Where a and u are positive the equation is H(r) = ln a - u - ln u = 0,
    and H is decreasing. Newton steps on H stay inside the bracket of
    rates where H changed sign; a step that leaves it is replaced by the
    bracket's midpoint, or by doubling while no upper end is known. The
    alpha = 0 root, when it is stable, lies below the root and starts it.
    """
    r = 2.0 * load
    if b >= BRANCH_POINT_ARG:
        r_e = (lambert_w0(b) + 1.0) / k
        if r_e > load:
            r = r_e
    lo, hi = load, math.inf
    try:
        for _ in range(_LOCATE_MAX_ITER):
            d = r - load
            g = r / d
            a, u = c * g * g + b, k * r - 1.0
            if a > 0.0 and u > 0.0:
                h = math.log(a) - u - math.log(u)
                step = h / (-2.0 * c * g * (load / d) / d / a - k - k / u)
                if abs(step) <= _LOCATE_RTOL * r:
                    return r - step
                r_next = r - step
            elif a > 0.0 or u > 0.0:
                # W0(a) - u has the sign of a (W0(a) > 0 >= u, or
                # W0(a) <= 0 < u); no Newton step is taken.
                h, r_next = a, math.nan
            else:
                return None
            if h > 0.0:
                lo = r
            else:
                hi = r
            if lo < r_next < hi:
                r = r_next
            else:
                r = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    except ArithmeticError:
        return None
    return None


def _gap_window(profile: BusyPowerProfile, t: TrafficParams,
                alpha: float) -> tuple[float, float]:
    """(x_lo, x_hi) around the gap's root: every rate in (load, x_lo] has
    a positive computed gap and every finite rate >= x_hi a negative one.
    The empty window (load, inf) when none is certified.

    Each end is the located root moved by a relative half-width from
    _WINDOW_RTOLS, kept only if its computed gap has the right sign with
    margin M = 1e-12 * (2 + |u| + |b| / a). M bounds the gap's rounding
    error with room to spare while a and u are positive: lambert_w0 is
    within 1e-14 * (2 + |W|) of scipy's lambertw
    (tests/test_lambertw.py::test_error_stays_below_the_window_margin),
    u rounds by a few ulps, and a = c g**2 + b by a few ulps of |b| + a,
    which W0 scales by at most 1 / a. The gap is decreasing, so a rate
    beyond a certified end has a computed gap of the same sign. Near the
    branch point (a <= 0) W0 is ill-conditioned, so the window is then
    empty, as it is when u <= 0 or a exceeds 1e300.
    """
    load = t.offered_load_bps
    g_eta = profile.gain * profile.pa_efficiency
    c = alpha * g_eta / math.e
    b = (g_eta * profile.sleep_adjusted_power(t.arrival_rate) - 1.0) / math.e
    k = LN2 / profile.bandwidth_hz
    empty = load, math.inf
    r_hat = _locate_root(c, b, k, load)
    if r_hat is None or not load < r_hat < math.inf:
        return empty
    ends = []
    for side in (-1.0, 1.0):
        for rtol in _WINDOW_RTOLS:
            x = r_hat * (1.0 + side * rtol)
            if not x > load:
                return empty
            a, u = c * (x / (x - load)) ** 2 + b, k * x - 1.0
            if not (0.0 < a <= 1e300 and u > 0.0):
                return empty
            if -side * optimality_gap(profile, t, alpha, x) > 1e-12 * (2.0 + u + abs(b) / a):
                ends.append(x)
                break
        else:
            return empty
    return ends[0], ends[1]


def solve_optimal_rate(sc: Scenario, n_cores: int) -> float:
    """Rate minimizing z(r) for a fixed core count, ignoring core capacity.

    At alpha = 0 this is exactly the closed form; otherwise the unique
    root of the stationarity gap is bracketed by doubling and refined by
    bisection to 1e-12 relative width. Bisection is deliberate: the gap
    is monotone, so convergence is unconditional. Raises
    NoEnergyOptimumError when no finite-delay minimum exists.

    A sign test only evaluates the gap inside a window certified around
    the root (_gap_window); outside it the sign is known, so a solve
    evaluates the gap about 6 times instead of about 45. With an empty
    window every test evaluates it. Either way each test gets the sign
    the computed gap has, so the result has the same bits.
    """
    profile = scenario_profile(sc, n_cores)
    t = sc.traffic
    if sc.alpha == 0.0:
        return _optimal_rate(profile, t)

    load = t.offered_load_bps
    x_lo, x_hi = _gap_window(profile, t, sc.alpha)

    def gap(r: float) -> float:
        # Outside the window +1 and -1 stand in for the gap: only its
        # sign is tested.
        if load < r <= x_lo:
            return 1.0
        if x_hi <= r < math.inf:
            return -1.0
        return optimality_gap(profile, t, sc.alpha, r)

    # The gap blows up to +inf at the stability boundary; walk the lower
    # end inward until it is positive.
    eps = 1e-6
    lo = load * (1.0 + eps)
    while gap(lo) <= 0.0:
        eps *= 1e-3
        if eps < 1e-15:
            raise NoEnergyOptimumError(
                "no stationary rate above the stability boundary"
            )
        lo = load * (1.0 + eps)

    hi = lo * 2.0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if gap(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the stationary rate")

    for _ in range(_MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= _BISECT_RTOL * mid:
            return mid
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("bisection failed to converge")


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


def best_rate_for_cores(sc: Scenario, n_cores: int) -> float:
    """Best achievable rate for a fixed core count: the interior optimum
    when it fits under the core capacity, else the capacity itself."""
    return _rate_for_cores(sc, n_cores)[0]


def _choose(sc: Scenario, n_cores: int | None, n_cores_max: int) -> list[tuple[float, int]]:
    """The choose step of the joint search: the (rate, core count)
    candidates of one scenario in ascending count, each rate from the
    scalar solver. A fixed n_cores gives its best achievable rate; None
    walks the counts as joint_optimize describes. Raises the refusal of a
    scenario that leaves no candidate."""
    if n_cores is not None:
        return [(_rate_for_cores(sc, n_cores)[0], n_cores)]
    if n_cores_max < 1:
        raise ValueError("n_cores_max must be at least 1")
    s = sc.compute.cpu_speed
    need = (sc.compute.c0 + sc.compute.kappa * sc.traffic.offered_load_bps) / s
    pairs = []
    # min() keeps an overflowing need out of math.floor; the walk is then empty.
    for n in range(max(1, math.floor(min(need, n_cores_max + 1))), n_cores_max + 1):
        if n * s == (n - 1) * s:
            break
        try:
            rate, clamped = _rate_for_cores(sc, n)
        except (InfeasibleLoadError, InfeasibleScenarioError):
            continue  # no stable rate on n cores
        pairs.append((rate, n))
        # Candidate rates rise with n, so the first one over the link cap
        # ends the walk too; the evaluate step refuses it.
        if not clamped or over_link_cap(rate, sc.link.bandwidth_hz):
            break
    if not pairs:
        raise InfeasibleScenarioError(
            f"no stable operating point with up to {n_cores_max} core(s) "
            f"for offered load {sc.traffic.offered_load_bps:.6g} bit/s"
        )
    return pairs


def best_points(cases: list[tuple[Scenario, int | None]],
                n_cores_max: int) -> list[JointResult | InfeasibleError]:
    """The optimum of each (scenario, n_cores) case, or the refusal that
    leaves it none; n_cores None searches the counts up to n_cores_max.

    The scenarios may differ in traffic and alpha but share the compute,
    radio and link of the first. Each case's candidates are chosen on
    their own (_choose), then every candidate of every case is evaluated
    in one cost call. A case's candidates end before its first refused
    one, and that refusal is the case's result when it comes first. The
    winner is the cheapest candidate left; costs within TIE_REL_TOL are
    ties, and the smaller core count wins a tie.
    """
    base = cases[0][0]
    shared = (base.compute, base.radio, base.link)
    chosen, rates, counts, lams, sizes, alphas = [], [], [], [], [], []
    for sc, n_cores in cases:
        if (sc.compute, sc.radio, sc.link) != shared:
            raise ValueError("the cases must share compute, radio and link")
        try:
            pairs = _choose(sc, n_cores, n_cores_max)
        except InfeasibleError as exc:
            chosen.append(exc)
            continue
        chosen.append((sc, len(rates), len(rates) + len(pairs)))
        for rate, n in pairs:
            rates.append(rate)
            counts.append(n)
        lams += [sc.traffic.arrival_rate] * len(pairs)
        sizes += [sc.traffic.file_size_bits] * len(pairs)
        alphas += [sc.alpha] * len(pairs)

    c = cost(scenario_profile(base, np.array(counts, dtype=float)),
             TrafficParams(np.array(lams, dtype=float), np.array(sizes, dtype=float)),
             np.array(alphas, dtype=float), np.array(rates))
    codes = c.code.tolist()
    fields = [f.tolist() for f in c[1:]]
    results: list[JointResult | InfeasibleError] = []
    for case in chosen:
        if isinstance(case, InfeasibleError):
            results.append(case)
            continue
        sc, lo, hi = case
        cut = next((i for i in range(lo, hi) if codes[i]), hi)
        if cut == lo:
            try:
                raise_refusal(codes[lo], rates[lo], scenario_profile(sc, counts[lo]),
                              sc.traffic.offered_load_bps)
            except InfeasibleError as exc:
                results.append(exc)
            continue
        points = tuple(TradeoffPoint(rates[i], counts[i], *(f[i] for f in fields))
                       for i in range(lo, cut))
        best_cost = min(p.cost_z for p in points)
        # Ascending core count, so the first tie wins.
        p = next(p for p in points if p.cost_z <= best_cost * (1.0 + TIE_REL_TOL))
        results.append(JointResult(p.rate_bps, p.n_cores, p, points))
    return results


def joint_optimize(sc: Scenario, n_cores_max: int, n_cores: int | None = None) -> JointResult:
    """Jointly pick service rate and core count; n_cores fixes the count
    and picks only the rate.

    Walks N_c up to n_cores_max, from floor((c0 + kappa * load) / s):
    every smaller count falls short of the load by s / kappa or more.
    While the fixed-N_c minimizer exceeds the core capacity, the
    capacity point is kept as a candidate and the walk continues; once
    the minimizer becomes achievable it is added and the walk stops,
    because further cores only add idle-floor power. Candidate rates
    rise with N_c, so the first one the link cap refuses also ends the
    walk; that refusal is raised only when no candidate came before it.
    The walk also stops where one more core adds no capacity in floats.
    Ties within 1e-9 relative cost go to the smaller core count. This is
    best_points on one case.
    """
    (result,) = best_points([(sc, n_cores)], n_cores_max)
    if isinstance(result, InfeasibleError):
        raise result
    return result


def rate_for_delay(t: TrafficParams, target_delay_s):
    """Service rate that yields the target mean delay; scalar or array."""
    if not np.all(np.asarray(target_delay_s) > 0):
        raise ValueError("target delay must be positive")
    with np.errstate(over="ignore"):  # a tiny delay needs an infinite rate
        return t.offered_load_bps + t.file_size_bits / target_delay_s


def tradeoff_curve(sc: Scenario, delay_grid,
                   n_cores: int | None = None) -> tuple[np.ndarray, TradeoffPoint]:
    """Evaluate the scenario along a grid of target mean delays.

    Returns (status, points): a str array with each delay's status, and
    one TradeoffPoint whose fields are arrays over the delays; the fields
    of a point that is not "ok" mean nothing. n_cores fixes the core
    count; None picks the smallest sufficient count per point, as floats.
    The cost kernel runs once, on a profile that holds each point's
    count. A delay that is not positive is an invalid-delay point.
    """
    delays = np.asarray(delay_grid, dtype=float)
    valid = delays > 0
    rates = rate_for_delay(sc.traffic, np.where(valid, delays, 1.0))
    cores = (cores_needed(sc.compute, rates) if n_cores is None
             else np.full(delays.shape, n_cores))
    finite = np.isfinite(cores)
    c = cost(scenario_profile(sc, np.where(finite, cores, 1)), sc.traffic, sc.alpha, rates)
    # Points that no finite core count decodes are over-compute-cap.
    codes = np.where(finite, c.code, REFUSALS.index(InfeasibleLoadError))
    status = _CURVE_STATUSES[np.where(valid, codes, len(REFUSALS))]
    return status, TradeoffPoint(rates, cores, *c[1:])
