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
Newton search on ln a - u - ln u from twice the load, calling no Lambert
W, locates the root; two gap evaluations certify the window's ends, at
4e-12 relative either side of it, with a margin above the gap's
rounding error. Outside the window the computed gap's sign is then
known, so the bisection takes the same steps with about 6 gap
evaluations instead of 45. Where no window is certified every test
evaluates the gap. A core count whose capacity r_cap lies below the
root needs no root at all: one gap evaluation just above r_cap, with
the same margin, certifies that the solve would clamp the count, which
then costs that one evaluation (_rate_for_cores).
The closed form and the gap read only the coefficients of a
BusyPowerProfile, so the macro baseline's optimal rate comes from the
same closed form through earth_profile.

The joint search over core counts, whose walk joint_optimize states,
has two steps. Choose (_choose): one scalar rate solve per core count,
on the count's profile that best_points builds once per call, each
returned as one _CountSolve record (at alpha > 0 a clamped count costs
one gap evaluation instead); only this step decides which candidates
can be served. Evaluate (best_points): the candidates of many cases of
one station, a sweep's values, are priced in one kernel call, and one
case's, joint_optimize's, in a float call each; the cheapest wins.

Operating points are evaluated by the cost kernel queueing.cost:
evaluate_point on one rate, raising its refusal; best_points as above;
and tradeoff_curve in one call over all its (rate, core count) pairs,
returning each point's status and one TradeoffPoint of arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from ._arrays import is_number, np, quiet
from .errors import (
    REFUSALS,
    STATUSES,
    ConvergenceError,
    InfeasibleError,
    InfeasibleLoadError,
    InfeasibleScenarioError,
    LinkCapacityError,
    NoEnergyOptimumError,
    UnstableQueueError,
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
from .radio import LN2, MAX_RATE_EXPONENT, LinkBudget, over_link_cap

# Costs within this relative band are treated as ties; the smaller core
# count wins a tie.
TIE_REL_TOL = 1e-9

# Rates are searched in (offered_load * (1 + STABILITY_MARGIN), r_max].
STABILITY_MARGIN = 1e-9

_BISECT_RTOL = 1e-12
# Enough doublings to walk from the smallest subnormal to the largest float.
_MAX_BRACKET_DOUBLINGS = 2100
_MAX_BISECT_ITER = 500
# Relative half-width of the certified gap window; it leaves about four
# bisection steps inside it.
_WINDOW_RTOL = 4e-12
# The located root is final once a Newton step is this small relative to it.
_LOCATE_RTOL = 1e-14
_LOCATE_MAX_ITER = 100
# A count is clamped without a solve when the gap is certified positive
# this far above its capacity; it exceeds the bisection's width.
_CLAMP_RTOL = 1e-11


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
        if self.alpha == math.inf:
            raise ValueError("alpha must be finite")
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


class _CountSolve(NamedTuple):
    """The outcome of one core count's rate solve. kind is one of
    "optimum": the interior optimum fits under the core capacity;
    "clamped": it does not, so rate_bps is the capacity;
    "no-optimum": no finite-delay optimum exists, and rate_bps is the
    capacity, the costliest stable rate on the count;
    "refused": no stable rate on the count; rate_bps is None and
    refusal holds the InfeasibleLoadError or InfeasibleScenarioError
    a fixed count raises.
    """

    kind: str
    rate_bps: float | None
    refusal: InfeasibleError | None = None

    def fixed_rate(self) -> float:
        """The rate a fixed core count reports, or its refusal raised."""
        if self.kind == "refused":
            raise self.refusal
        return self.rate_bps


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
    r = float(rate_bps) if is_number(rate_bps) else np.asarray(rate_bps, dtype=float)
    if (r < 0) if is_number(r) else np.any(r < 0):
        raise ValueError("rate must be nonnegative")
    with quiet():
        need = (c.c0 + c.kappa * r) / c.cpu_speed - 1e-12
    if not is_number(r):
        return np.maximum(1.0, np.ceil(need))
    if not math.isfinite(need):
        raise InfeasibleLoadError(f"no finite core count decodes {rate_bps:.6g} bit/s")
    return max(1, math.ceil(need))


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


def _arrival_rate_bound(p: BusyPowerProfile) -> float:
    """Largest arrival rate that keeps the sleep-adjusted static power positive."""
    e_sw = p.switch_energy_j
    return math.inf if e_sw == 0 else (p.static_power_w - p.sleep_power_w) / (2.0 * e_sw)


def _closed_form(profile: BusyPowerProfile,
                 t: TrafficParams) -> tuple[str | None, float | None]:
    """The paper's two existence conditions, decided only here: the failed
    one ("arrival_rate", "file_size" or None), and the power minimizer r_e
    at alpha = 0 (None when P_s <= 0). The size condition compares the
    offered load with r_e, so an r_e that exists is always a stable rate."""
    p_s = profile.sleep_adjusted_power(t.arrival_rate)
    if p_s <= 0:
        return "arrival_rate", None
    w_arg = (profile.gain * profile.pa_efficiency * p_s - 1.0) / math.e
    r_e = profile.bandwidth_hz / LN2 * (lambert_w0(w_arg) + 1.0)
    return (None if t.offered_load_bps < r_e else "file_size"), r_e


def _optimal_rate(profile: BusyPowerProfile, t: TrafficParams) -> float:
    """r_e, or NoEnergyOptimumError naming the failed existence condition."""
    reason, r_e = _closed_form(profile, t)
    if reason == "arrival_rate":
        raise NoEnergyOptimumError(
            f"switching cost dominates: arrival rate must stay below "
            f"{_arrival_rate_bound(profile):.6g}/s",
            reason="arrival_rate",
        )
    if reason == "file_size":
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
    profile = scenario_profile(sc, n_cores)
    reason, r_e = _closed_form(profile, sc.traffic)
    return ExistenceResult(reason is None, reason, _arrival_rate_bound(profile),
                           None if r_e is None else r_e / sc.traffic.arrival_rate)


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
    + b and u(r) = k r - 1, found with no Lambert W; None when the search
    fails.

    Where a and u are positive the equation is H(r) = ln a - u - ln u = 0,
    and H is decreasing. Newton steps on H stay inside the bracket of
    rates where H changed sign; a step that leaves it is replaced by the
    bracket's midpoint, or by doubling while no upper end is known. The
    search starts at twice the load.
    """
    r = 2.0 * load
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


def _gap_terms(profile: BusyPowerProfile, t: TrafficParams,
               alpha: float) -> tuple[float, float, float]:
    """(c, b, k) of the gap's Lambert argument a(r) = c (r / (r - load))**2
    + b and of u(r) = k r - 1."""
    g_eta = profile.gain * profile.pa_efficiency
    return (alpha * g_eta / math.e,
            (g_eta * profile.sleep_adjusted_power(t.arrival_rate) - 1.0) / math.e,
            LN2 / profile.bandwidth_hz)


def _certified_sign(profile: BusyPowerProfile, t: TrafficParams, alpha: float,
                    terms: tuple[float, float, float], x: float, sign: float) -> bool:
    """Whether the computed gap at rate x > load has the sign of sign
    (1.0 or -1.0) with margin M = 1e-12 * (2 + u + |b| / a), evaluating
    it at most once; terms are _gap_terms. The gap is decreasing, so then every
    rate in (load, x] has a positive computed gap (sign 1.0), or every
    finite rate >= x a negative one (sign -1.0).

    M bounds the gap's rounding error with room to spare while a is
    positive and finite and u is positive: lambert_w0 is within
    1e-14 * (2 + |W|) of scipy's lambertw up to the largest float
    (tests/test_lambertw.py::test_error_stays_below_the_window_margin),
    u rounds by a few ulps, and a = c g**2 + b by a few ulps of |b| + a,
    which W0 scales by at most 1 / a. Near the branch point (a <= 0) W0
    is ill-conditioned, so no sign is certified there, nor where u <= 0
    or a overflows. Where a and u are positive the gap has the sign of
    H = ln a - u - ln u, which calls no Lambert W, so the gap is
    evaluated only where H has the sign sought: a core count whose
    optimum fits under its capacity pays two logs, not a gap.
    """
    c, b, k = terms
    a, u = c * (x / (x - t.offered_load_bps)) ** 2 + b, k * x - 1.0
    return (0.0 < a < math.inf and u > 0.0
            and sign * (math.log(a) - u - math.log(u)) > 0.0
            and sign * optimality_gap(profile, t, alpha, x) > 1e-12 * (2.0 + u + abs(b) / a))


def _gap_window(profile: BusyPowerProfile, t: TrafficParams,
                alpha: float) -> tuple[float, float]:
    """(x_lo, x_hi) around the gap's root: every rate in (load, x_lo] has
    a positive computed gap and every finite rate >= x_hi a negative one.
    The empty window (load, inf) when none is certified.

    Each end is the located root moved by the relative half-width
    _WINDOW_RTOL, kept only if _certified_sign certifies its computed
    gap's sign; the window is empty when either end is not certified.
    """
    load = t.offered_load_bps
    terms = _gap_terms(profile, t, alpha)
    r_hat = _locate_root(*terms, load)
    if r_hat is not None and load < r_hat:
        x_lo, x_hi = r_hat * (1.0 - _WINDOW_RTOL), r_hat * (1.0 + _WINDOW_RTOL)
        if (x_lo > load and _certified_sign(profile, t, alpha, terms, x_lo, 1.0)
                and _certified_sign(profile, t, alpha, terms, x_hi, -1.0)):
            return x_lo, x_hi
    return load, math.inf


def solve_optimal_rate(sc: Scenario, n_cores: int, profile=None) -> float:
    """Rate minimizing z(r) for a fixed core count, ignoring core capacity.
    profile is the count's scenario_profile, built here when None.

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
    profile = scenario_profile(sc, n_cores) if profile is None else profile
    t, alpha = sc.traffic, sc.alpha
    if alpha == 0.0:
        return _optimal_rate(profile, t)

    load = t.offered_load_bps
    x_lo, x_hi = _gap_window(profile, t, alpha)
    # The gap is evaluated only in (x_lo, x_hi), positive below and negative
    # above. It is +inf at the load; walk the lower end in until it is positive.
    # Each lower end is at least the float above the load, to which
    # load * (1 + eps) rounds back for a subnormal load. So lo > load, and the
    # bracket ends only at a finite hi: the gap raises at or below the load
    # and at an infinite rate.
    eps = 1e-6
    while True:
        lo = max(load * (1.0 + eps), math.nextafter(load, math.inf))
        if lo <= x_lo or not (x_hi <= lo < math.inf
                              or optimality_gap(profile, t, alpha, lo) <= 0.0):
            break
        eps *= 1e-3
        if eps < 1e-15:
            raise NoEnergyOptimumError(
                "no stationary rate above the stability boundary"
            )

    hi = lo * 2.0
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        if hi > x_lo and (x_hi <= hi < math.inf or optimality_gap(profile, t, alpha, hi) < 0.0):
            break
        hi *= 2.0
    else:
        raise ConvergenceError("failed to bracket the stationary rate")

    for _ in range(_MAX_BISECT_ITER):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= _BISECT_RTOL * mid:
            return mid
        if mid <= x_lo or (mid < x_hi and optimality_gap(profile, t, alpha, mid) > 0.0):
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("bisection failed to converge")


def _rate_for_cores(sc: Scenario, n_cores: int, profile=None) -> _CountSolve:
    """The outcome of solving one core count, the only place that turns
    its refusals and a missing optimum into a record. profile is the
    count's scenario_profile, built here when None.

    At alpha > 0 a count is first tested at x = r_cap * (1 + _CLAMP_RTOL),
    with at most one gap evaluation: if _certified_sign certifies a
    positive gap there, the count is clamped, and the interior optimum,
    which would be thrown away, is not solved for. The record is the one
    the full solve gives. Every rate in (load, x] then has a positive
    computed gap, so the lower-end walk finds one (load * (1 + 1e-9)
    lies below r_cap), and the bisection never moves its upper end to
    such a rate; the gap goes negative as u grows without bound, so the
    bracket closes. The bisection's midpoint is then at least
    hi / (1 + 0.5e-12) > x / (1 + 0.5e-12) > r_cap, which the full solve
    reports as clamped at r_cap. A count that is not certified is solved
    in full.
    """
    try:
        r_cap = max_supportable_rate(sc.compute, n_cores)
    except InfeasibleLoadError as exc:
        return _CountSolve("refused", None, exc)
    t = sc.traffic
    if r_cap <= t.offered_load_bps * (1.0 + STABILITY_MARGIN):
        return _CountSolve("refused", None, InfeasibleScenarioError(
            f"{n_cores} core(s) cannot reach a stable rate for this load"
        ))
    profile = scenario_profile(sc, n_cores) if profile is None else profile
    if sc.alpha > 0.0 and _certified_sign(profile, t, sc.alpha,
                                          _gap_terms(profile, t, sc.alpha),
                                          r_cap * (1.0 + _CLAMP_RTOL), 1.0):
        return _CountSolve("clamped", r_cap)
    try:
        r_hat = solve_optimal_rate(sc, n_cores, profile)
    except NoEnergyOptimumError:
        # No finite-delay minimum: the cost rises with the rate over the
        # whole stable region, so the capacity is the costliest stable
        # rate on n_cores, not the cheapest. It is what optimize reports.
        return _CountSolve("no-optimum", r_cap)
    if r_hat <= r_cap:
        return _CountSolve("optimum", r_hat)
    return _CountSolve("clamped", r_cap)


def best_rate_for_cores(sc: Scenario, n_cores: int) -> float:
    """Best achievable rate for a fixed core count: the interior optimum
    when it fits under the core capacity, else the capacity itself."""
    return _rate_for_cores(sc, n_cores).fixed_rate()


def _choose(sc: Scenario, n_cores: int | None, n_cores_max: int,
            profile) -> list[tuple[float, int]]:
    """The choose step of joint_optimize, whose docstring states the walk:
    the (rate, core count) candidates of one scenario in ascending count
    that the cost kernel serves, count n solved on profile(n), its
    scenario_profile. A fixed n_cores gives its record's rate or
    raises its refusal. The walk reads each count's _CountSolve kind: it
    skips a refused count, keeps a clamped or no-optimum count and goes
    on, and keeps the first optimum and stops. Raises the refusal of a
    scenario with no candidate.

    The walk stops at the first candidate over the link cap, so only the
    last candidate can be over it; it is dropped. The rates need not
    rise with the count: a no-optimum count's capacity can exceed the
    next count's optimum. No other refusal applies. Every rate exceeds
    the load: capacities at or below load * (1 + STABILITY_MARGIN) are
    refused, the closed form exists only above the load, and the
    bisection stays above load * (1 + eps). Every rate is at most
    max_supportable_rate, (n s - c0) / kappa, which in floats never
    exceeds the profile's max_rate_bps, ((1 + 1e-12) n s - c0) / kappa.
    """
    if n_cores is not None:
        pairs = [(_rate_for_cores(sc, n_cores, profile(n_cores)).fixed_rate(), n_cores)]
    else:
        if n_cores_max < 1:
            raise ValueError("n_cores_max must be at least 1")
        s = sc.compute.cpu_speed
        need = (sc.compute.c0 + sc.compute.kappa * sc.traffic.offered_load_bps) / s
        pairs = []
        # min() keeps an overflowing need out of math.floor; the walk is then empty.
        for n in range(max(1, math.floor(min(need, n_cores_max + 1))), n_cores_max + 1):
            if n * s == (n - 1) * s:
                break
            solve = _rate_for_cores(sc, n, profile(n))
            if solve.kind == "refused":
                continue
            pairs.append((solve.rate_bps, n))
            if solve.kind == "optimum" or over_link_cap(solve.rate_bps, sc.link.bandwidth_hz):
                break
        if not pairs:
            raise InfeasibleScenarioError(
                f"no stable operating point with up to {n_cores_max} core(s) "
                f"for offered load {sc.traffic.offered_load_bps:.6g} bit/s"
            )
    if over_link_cap(pairs[-1][0], sc.link.bandwidth_hz):
        del pairs[-1]
        if not pairs:
            raise LinkCapacityError.at(max_exponent=MAX_RATE_EXPONENT)
    return pairs


def best_points(sc: Scenario, cases: list[tuple[TrafficParams, float, int | None]],
                n_cores_max: int) -> list[JointResult | InfeasibleError]:
    """The optimum of each (traffic, alpha, n_cores) case on sc's station,
    or the refusal that leaves it none; n_cores None searches the counts
    up to n_cores_max. Every alpha is checked before the first solve, and
    each core count's profile is built once per call, for all cases.

    Each case's candidates are chosen on their own (_choose) and priced in
    one cost call, or for one case in a float call each. The cheapest wins;
    costs within TIE_REL_TOL are ties, and the smaller core count wins a tie.
    """
    scenarios = [Scenario(sc.compute, sc.radio, sc.link, t, a) for t, a, _ in cases]
    profile = functools.cache(functools.partial(scenario_profile, sc))
    spans, rates, counts, lams, sizes, alphas = [], [], [], [], [], []
    for sc_case, (traffic, alpha, n_cores) in zip(scenarios, cases):
        try:
            found = _choose(sc_case, n_cores, n_cores_max, profile)
        except InfeasibleError as exc:
            spans.append(exc)
            continue
        spans.append(slice(len(rates), len(rates) + len(found)))
        rates += [rate for rate, _ in found]
        counts += [n for _, n in found]
        lams += [traffic.arrival_rate] * len(found)
        sizes += [traffic.file_size_bits] * len(found)
        alphas += [alpha] * len(found)

    if len(cases) == 1:  # a few candidates: scalar calls, which load no numpy
        priced = [cost(profile(n), *cases[0][:2], r)[1:] for r, n in zip(rates, counts)]
    else:
        c = cost(scenario_profile(sc, np.array(counts, dtype=float)),
                 TrafficParams(np.array(lams, dtype=float), np.array(sizes, dtype=float)),
                 np.array(alphas, dtype=float), np.array(rates))
        priced = zip(*(f.tolist() for f in c[1:]))
    table = [TradeoffPoint(r, n, *p) for r, n, p in zip(rates, counts, priced)]
    results: list[JointResult | InfeasibleError] = []
    for case in spans:
        if isinstance(case, InfeasibleError):
            results.append(case)
            continue
        points = tuple(table[case])
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
    A count with no stable rate is skipped. While the fixed-N_c
    minimizer exceeds the core capacity, or no finite-delay minimizer
    exists, the capacity point is kept as a candidate and the walk
    continues; once the minimizer becomes achievable it is added and the
    walk stops, because further cores only add idle-floor power. The
    first candidate over the link cap ends the walk; _choose drops it,
    and raises LinkCapacityError if none is left. The walk also stops
    where one more core adds no capacity in floats. Ties within 1e-9
    relative cost go to the smaller core count. This is best_points on
    one case.
    """
    (result,) = best_points(sc, [(sc.traffic, sc.alpha, n_cores)], n_cores_max)
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
    statuses = np.array([*STATUSES, "invalid-delay"])
    status = statuses[np.where(valid, codes, len(REFUSALS))]  # by refusal code
    return status, TradeoffPoint(rates, cores, *c[1:])
