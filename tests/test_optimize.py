"""Rate and core-count optimization."""
import functools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference_walk import reference_best_point
from vbsenergy import optimize
from vbsenergy.errors import (
    ConvergenceError,
    InfeasibleError,
    InfeasibleLoadError,
    InfeasibleScenarioError,
    LinkCapacityError,
    NoEnergyOptimumError,
    UnstableQueueError,
)
from vbsenergy.lambertw import lambert_w0
from vbsenergy.optimize import (
    _BISECT_RTOL,
    _MAX_BISECT_ITER,
    _MAX_BRACKET_DOUBLINGS,
    Scenario,
    _optimal_rate,
    asymptotic_power,
    best_rate_for_cores,
    cores_needed,
    earth_energy_optimal_rate,
    energy_optimal_exists,
    energy_optimal_rate,
    evaluate_point,
    joint_optimize,
    max_supportable_rate,
    optimality_gap,
    rate_for_delay,
    scenario_profile,
    solve_optimal_rate,
    tradeoff_curve,
)
from vbsenergy.power import ComputeParams, EarthParams, RadioParams, earth_profile
from vbsenergy.queueing import TrafficParams, average_power, cost, queue_metrics

# Hand-checked reference numbers for the default scenario:
#   r_M(1) = 37142857.14285714,  r_M(2) = 94285714.28571428
#   energy-optimal rate, 2 cores, lambda = 1:  63827550.204645
#   macro baseline optimal rate:               73994951.79827718
R_M1 = 37142857.14285714
R_M2 = 94285714.28571428
R_E2 = 63827550.204645
R_CBS = 73994951.79827718


def test_max_supportable_rate():
    assert max_supportable_rate(ComputeParams()) == pytest.approx(R_M1, rel=1e-15)
    assert max_supportable_rate(ComputeParams(n_cores=2)) == pytest.approx(R_M2, rel=1e-15)
    with pytest.raises(InfeasibleLoadError):
        max_supportable_rate(ComputeParams(cpu_speed=6e8))  # below c0


def test_cores_needed():
    c = ComputeParams()
    assert cores_needed(c, 0.0) == 1
    assert cores_needed(c, R_M1) == 1  # boundary still fits on one core
    assert cores_needed(c, R_M1 * 1.001) == 2
    assert cores_needed(c, R_CBS) == 2
    with pytest.raises(ValueError):
        cores_needed(c, -1.0)
    with pytest.raises(InfeasibleLoadError):
        cores_needed(c, 1e308)  # no finite core count covers this load
    # an array of rates gives one count per rate, inf where none is finite
    counts = cores_needed(c, np.array([0.0, R_M1, R_M1 * 1.001, 1e308]))
    assert counts.tolist() == [1.0, 1.0, 2.0, math.inf]


def test_each_refusal_declares_its_own_status():
    statuses = [cls.status for cls in (
        UnstableQueueError, InfeasibleLoadError, LinkCapacityError,
        InfeasibleScenarioError, NoEnergyOptimumError)]
    assert statuses == ["unstable", "over-compute-cap", "over-link-cap",
                        "infeasible", "no-optimum"]
    assert all(issubclass(cls, InfeasibleError) for cls in (
        UnstableQueueError, LinkCapacityError, NoEnergyOptimumError))


def test_energy_optimal_rate():
    sc = Scenario()
    assert energy_optimal_rate(sc, 2) == pytest.approx(R_E2, rel=1e-12)


def test_energy_optimal_rate_ignores_kappa():
    # The closed form depends on static power and the link only, so the
    # rate-linear BBU coefficient must not move it at all.
    sc = Scenario()
    base = energy_optimal_rate(sc, 2)
    for kappa in (1.0, 35.0, 200.0):
        sc_k = replace(sc, compute=replace(sc.compute, kappa=kappa))
        assert energy_optimal_rate(sc_k, 2) == base


def test_existence_conditions():
    sc = Scenario()
    res = energy_optimal_exists(sc, 2)
    assert res
    assert res.reason is None
    assert res.arrival_rate_bound == pytest.approx(2.17, rel=1e-12)
    assert res.file_size_bound == pytest.approx(R_E2, rel=1e-9)

    # beyond the arrival bound switching dominates
    hot = replace(sc, traffic=TrafficParams(arrival_rate=2.5, file_size_bits=1.6e7))
    res = energy_optimal_exists(hot, 2)
    assert not res and res.reason == "arrival_rate"
    with pytest.raises(NoEnergyOptimumError) as ei:
        energy_optimal_rate(hot, 2)
    assert ei.value.reason == "arrival_rate"

    # oversized files park the load beyond the minimizer
    big = replace(sc, traffic=TrafficParams(arrival_rate=1.0, file_size_bits=7e7))
    res = energy_optimal_exists(big, 2)
    assert not res and res.reason == "file_size"
    with pytest.raises(NoEnergyOptimumError) as ei:
        energy_optimal_rate(big, 2)
    assert ei.value.reason == "file_size"


def test_existence_and_rate_agree_at_the_size_bound():
    # Offered load one rounding step below r_e, while the file size sits
    # at r_e / lambda after rounding: the existence check and the closed
    # form must still give one answer.
    t = TrafficParams(arrival_rate=0.8607086872813635,
                      file_size_bits=float.fromhex("0x1.238b2c03060e0p+26"))
    sc = replace(Scenario(), traffic=t)
    res = energy_optimal_exists(sc, 2)
    assert res and res.reason is None
    r_e = energy_optimal_rate(sc, 2)
    assert r_e > t.offered_load_bps
    assert t.file_size_bits >= res.file_size_bound


def test_optimality_gap_sign_change():
    sc = Scenario()
    prof, t = scenario_profile(sc, 2), sc.traffic
    assert optimality_gap(prof, t, sc.alpha, R_E2 * 0.9) > 0
    assert optimality_gap(prof, t, sc.alpha, R_E2 * 1.1) < 0
    assert abs(optimality_gap(prof, t, sc.alpha, R_E2)) < 1e-9
    for rate in (1.6e7, math.nan):
        with pytest.raises(UnstableQueueError):
            optimality_gap(prof, t, sc.alpha, rate)


def test_solve_matches_closed_form_at_zero_alpha():
    sc = Scenario()
    assert solve_optimal_rate(sc, 2) == energy_optimal_rate(sc, 2)


def test_solve_with_delay_penalty():
    sc = Scenario(alpha=10.0)
    r_star = solve_optimal_rate(sc, 2)
    # stationarity at the root, and a local-minimum sanity check
    assert abs(optimality_gap(scenario_profile(sc, 2), sc.traffic, sc.alpha, r_star)) < 1e-6
    z = lambda r: evaluate_point(sc, r, 2).cost_z
    assert z(r_star) <= z(r_star * 0.99)
    assert z(r_star) <= z(r_star * 1.01)
    # the penalty pushes the rate up, never down
    assert r_star > energy_optimal_rate(sc, 2)


def test_joint_optimize_default_scenario():
    res = joint_optimize(Scenario(), 8)
    assert res.n_cores == 1
    assert res.rate_bps == pytest.approx(R_M1, rel=1e-12)
    assert res.point.avg_power_w == pytest.approx(24.63117458907815, rel=1e-12)
    # one capacity-clamped candidate, then the achievable interior optimum
    assert [c.n_cores for c in res.candidates] == [1, 2]
    assert res.candidates[1].rate_bps == pytest.approx(R_E2, rel=1e-12)


def test_joint_optimize_light_and_heavy_traffic():
    light = replace(Scenario(), traffic=TrafficParams(arrival_rate=0.5))
    res = joint_optimize(light, 8)
    assert res.n_cores == 2
    assert res.point.avg_power_w == pytest.approx(16.60093, rel=1e-4)

    heavy = replace(Scenario(), traffic=TrafficParams(arrival_rate=1.5))
    res = joint_optimize(heavy, 8)
    assert res.n_cores == 1
    assert res.rate_bps == pytest.approx(3.52638e7, rel=1e-4)
    assert res.point.avg_power_w == pytest.approx(30.48639, rel=1e-4)
    assert len(res.candidates) == 1


def test_joint_optimize_infeasible():
    # offered load beyond what the allowed cores can decode
    sc = replace(Scenario(), traffic=TrafficParams(arrival_rate=3.0, file_size_bits=1.6e7))
    with pytest.raises(InfeasibleScenarioError):
        joint_optimize(sc, 1)
    joint_optimize(sc, 4)  # more cores make it feasible again
    with pytest.raises(ValueError, match="n_cores_max must be at least 1"):
        joint_optimize(Scenario(), 0)


def test_joint_optimize_stops_at_the_first_refused_candidate():
    # The clamped candidate on 22 cores is over the link cap, so a larger
    # limit cannot change the winner found within 21 cores.
    sc = replace(Scenario(), traffic=TrafficParams(arrival_rate=6.25))
    assert joint_optimize(sc, 22) == joint_optimize(sc, 21)
    assert joint_optimize(sc, 21).n_cores == 3


def test_a_cost_tie_goes_to_the_smaller_core_count():
    # With no idle floor per core, r_e is the same on every count. One
    # core's capacity just below it gives a clamped candidate that costs
    # about 8e-12 more than the interior optimum on 2 cores: a tie.
    base = Scenario(compute=ComputeParams(p_core_min_w=0.0))
    c = base.compute
    kappa = (c.cpu_speed - c.c0) / (energy_optimal_rate(base, 1) * (1.0 - 1e-5))
    res = joint_optimize(replace(base, compute=replace(c, kappa=kappa)), 8)
    one, two = res.candidates
    assert (one.n_cores, two.n_cores) == (1, 2)
    assert two.cost_z < one.cost_z <= two.cost_z * (1.0 + optimize.TIE_REL_TOL)
    assert res.point == one


def count_rate_calls(monkeypatch, limit=None):
    calls = []
    solve = optimize._rate_for_cores

    def counted(sc, n, *rest):
        calls.append(n)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"more than {limit} _rate_for_cores calls")
        return solve(sc, n, *rest)

    monkeypatch.setattr(optimize, "_rate_for_cores", counted)
    return calls


def test_joint_optimize_skips_counts_below_the_load(monkeypatch):
    # The load needs about 2.8e8 cores, so no count up to 1e5 is tried.
    calls = count_rate_calls(monkeypatch)
    sc = replace(Scenario(), traffic=TrafficParams(arrival_rate=1e9))
    with pytest.raises(InfeasibleScenarioError):
        joint_optimize(sc, 10**5)
    assert len(calls) <= 3
    # A need of 3.15 cores starts the walk at 3; the winner is the one
    # the walk from 1 found.
    calls.clear()
    heavy = replace(Scenario(), traffic=TrafficParams(arrival_rate=10.0))
    assert joint_optimize(heavy, 8).n_cores == 4
    assert calls[0] == 3


def test_joint_optimize_walk_ends_at_the_first_candidate_over_the_link_cap(monkeypatch):
    # Candidates are evaluated only after the walk, which still stops at
    # the clamped candidate on 22 cores that the link cap refuses.
    sc = replace(Scenario(), traffic=TrafficParams(arrival_rate=6.25))
    expected = joint_optimize(sc, 21)
    calls = count_rate_calls(monkeypatch, limit=21)
    assert joint_optimize(sc, 10**6) == expected
    assert calls == list(range(2, 23))


def test_joint_optimize_stops_where_a_core_adds_no_capacity(monkeypatch):
    # Near 1e292 cores one more core adds nothing in floats.
    count_rate_calls(monkeypatch, limit=10)
    sc = replace(Scenario(), traffic=TrafficParams(file_size_bits=1e300))
    with pytest.raises(InfeasibleScenarioError):
        joint_optimize(sc, int(1e300))


def test_extra_core_costs_its_idle_floor():
    # At a fixed rate, core n+1 adds exactly rho * P_core_min to the cost.
    sc = Scenario()
    rng = np.random.default_rng(41)
    for _ in range(50):
        r = float(rng.uniform(2e7, 9e7))
        a = float(rng.uniform(0.0, 20.0))
        sc_a = replace(sc, alpha=a)
        n = int(rng.integers(1, 7))
        if r > max_supportable_rate(replace(sc.compute, n_cores=n)):
            continue
        z_n = evaluate_point(sc_a, r, n).cost_z
        z_n1 = evaluate_point(sc_a, r, n + 1).cost_z
        rho = sc.traffic.offered_load_bps / r
        assert z_n1 - z_n == pytest.approx(rho * 5.0, rel=1e-12)


def test_best_rate_for_cores():
    sc = Scenario()
    # one core: the interior optimum exceeds capacity, so it clamps
    assert best_rate_for_cores(sc, 1) == pytest.approx(R_M1, rel=1e-15)
    # two cores: the interior optimum fits
    assert best_rate_for_cores(sc, 2) == pytest.approx(R_E2, rel=1e-12)
    with pytest.raises(InfeasibleScenarioError):
        best_rate_for_cores(
            replace(sc, traffic=TrafficParams(arrival_rate=3.0)), 1
        )


def test_earth_energy_optimal_rate():
    sc = Scenario()
    r = earth_energy_optimal_rate(EarthParams(), sc.link.channel_gain, 20e6, 5.0, sc.traffic)
    assert r == pytest.approx(R_CBS, rel=1e-12)
    assert queue_metrics(sc.traffic, r).mean_delay_s == pytest.approx(
        0.2758860815274494, rel=1e-12
    )


def test_power_savings_at_cbs_optimum():
    sc = Scenario()
    cbs = earth_profile(EarthParams(), sc.link.channel_gain, 20e6, 5.0)
    n = cores_needed(sc.compute, R_CBS)
    p_vbs = average_power(scenario_profile(sc, n), sc.traffic, R_CBS)
    p_cbs = average_power(cbs, sc.traffic, R_CBS)
    savings = 1.0 - p_vbs / p_cbs
    assert p_vbs == pytest.approx(25.693352266699325, rel=1e-12)
    assert p_cbs == pytest.approx(72.08086962696049, rel=1e-12)
    assert savings == pytest.approx(0.6435482479655155, rel=1e-12)


def test_asymptotic_power():
    sc = Scenario()
    assert asymptotic_power(sc, 1) == pytest.approx(28.068247786748085, rel=1e-12)
    # two traffic mixes with the same offered load share the limit
    other = replace(sc, traffic=TrafficParams(arrival_rate=2.0, file_size_bits=8e6))
    assert asymptotic_power(other, 1) == pytest.approx(asymptotic_power(sc, 1), rel=1e-15)


def test_rate_for_delay():
    t = TrafficParams()
    assert rate_for_delay(t, 1.0) == pytest.approx(3.2e7, rel=1e-15)
    qm = queue_metrics(t, rate_for_delay(t, 0.37))
    assert qm.mean_delay_s == pytest.approx(0.37, rel=1e-12)
    with pytest.raises(ValueError):
        rate_for_delay(t, 0.0)
    with pytest.raises(ValueError):
        rate_for_delay(t, math.nan)
    assert rate_for_delay(t, np.array([1.0, 0.37]))[0] == rate_for_delay(t, 1.0)


def test_tradeoff_curve_makes_one_kernel_call(monkeypatch):
    calls, kernel = [], optimize.cost

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(optimize, "cost", counted)
    status, pts = tradeoff_curve(Scenario(), np.geomspace(0.01, 10.0, 30))
    assert len(set(pts.n_cores[status == "ok"].tolist())) >= 3
    assert len(calls) == 1


def test_tradeoff_curve_statuses():
    sc = Scenario()
    status, pts = tradeoff_curve(sc, [-0.5, 0.01, 0.1, 0.4, 1.0], n_cores=2)
    assert status.tolist() == [
        "invalid-delay", "over-link-cap", "over-compute-cap", "ok", "ok",
    ]
    assert pts.mean_delay_s[3] == pytest.approx(0.4, rel=1e-12)
    # automatic core sizing removes the compute cap but not the link cap
    status, auto = tradeoff_curve(sc, [0.1, 0.4, 1.0])
    assert all(s == "ok" for s in status)
    assert auto.n_cores[0] > 2


@pytest.mark.parametrize("n_cores", [2, None])
def test_tradeoff_curve_flags_every_delay_that_is_not_positive(n_cores):
    delays = [math.nan, 0.0, -0.0, -1.0, -math.inf]
    status, _ = tradeoff_curve(Scenario(), delays, n_cores=n_cores)
    assert status.tolist() == ["invalid-delay"] * len(delays)


def test_gap_is_minus_infinity_where_the_cost_rises_off_the_lambert_branch():
    # Switching makes P_s = -38.3 W, so above about 1.2 * load the Lambert
    # argument is below -1/e: the cost rises there, and the solve finds the
    # root below those rates.
    sc = Scenario(radio=replace(RadioParams(), switch_energy_j=30.0), alpha=1.0)
    prof = scenario_profile(sc, 2)
    assert prof.sleep_adjusted_power(sc.traffic.arrival_rate) < 0
    assert optimality_gap(prof, sc.traffic, sc.alpha, 5e7) == -math.inf
    assert evaluate_point(sc, 5e7, 2).cost_z < evaluate_point(sc, 5.01e7, 2).cost_z
    r_star = solve_optimal_rate(sc, 2)
    assert sc.traffic.offered_load_bps < r_star < 5e7
    assert optimality_gap(prof, sc.traffic, sc.alpha, r_star * (1 - 1e-10)) > 0


def test_scenario_validation():
    for alpha in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Scenario(alpha=alpha)
    link = Scenario().link
    bad_radio = replace(Scenario().radio, bandwidth_hz=10e6)
    with pytest.raises(ValueError):
        Scenario(radio=bad_radio, link=link)


def test_evaluate_point_consistency():
    sc = Scenario(alpha=10.0)
    pt = evaluate_point(sc, 7.756e7, 2)
    assert pt.cost_z == pytest.approx(28.402274184059912, rel=1e-12)
    assert pt.avg_power_w == pytest.approx(25.80318386567135, rel=1e-12)
    assert pt.rho == pytest.approx(1.6e7 / 7.756e7, rel=1e-15)


# Property tests of the claims the optimize and queueing docstrings make,
# over scenarios drawn around the reference station. Both existence
# conditions fail on part of this range.
PROPERTY_SETTINGS = settings(max_examples=200, derandomize=True, database=None,
                             deadline=None)


@st.composite
def scenarios(draw, alpha=st.floats(0.0, 100.0)):
    compute = ComputeParams(p_core_min_w=draw(st.floats(0.0, 19.0)),
                            kappa=draw(st.floats(1.0, 100.0)))
    radio = RadioParams(switch_energy_j=draw(st.floats(0.0, 30.0)))
    traffic = TrafficParams(draw(st.floats(0.05, 3.0)), draw(st.floats(1e5, 1e8)))
    return Scenario(compute=compute, radio=radio, traffic=traffic, alpha=draw(alpha))


@PROPERTY_SETTINGS
@given(sc=scenarios(), n_cores=st.integers(1, 8), kappa=st.floats(1.0, 100.0),
       alpha=st.floats(0.0, 100.0))
def test_energy_optimum_depends_on_neither_kappa_nor_alpha(sc, n_cores, kappa, alpha):
    other = replace(sc, compute=replace(sc.compute, kappa=kappa), alpha=alpha)
    res = energy_optimal_exists(sc, n_cores)
    assert energy_optimal_exists(other, n_cores) == res
    if res:
        assert energy_optimal_rate(other, n_cores) == energy_optimal_rate(sc, n_cores)


@PROPERTY_SETTINGS
@given(sc=scenarios(), n_cores=st.integers(1, 7), position=st.floats(1e-6, 1.0))
def test_one_more_core_adds_its_idle_floor_weighted_by_rho(sc, n_cores, position):
    # Rates up to the core capacity, and at most 10 bit/s/Hz so that the
    # amplifier term keeps the cost, and so its rounding, moderate.
    load = sc.traffic.offered_load_bps
    r_hi = min(max_supportable_rate(replace(sc.compute, n_cores=n_cores)),
               10.0 * sc.link.bandwidth_hz)
    assume(r_hi > load)
    rate = load + position * (r_hi - load)
    z_n = evaluate_point(sc, rate, n_cores).cost_z
    z_n1 = evaluate_point(sc, rate, n_cores + 1).cost_z
    rho = load / rate
    assert abs(z_n1 - z_n - rho * sc.compute.p_core_min_w) <= 1e-12 * z_n1


@PROPERTY_SETTINGS
@given(sc=scenarios(alpha=st.floats(0.01, 100.0)), n_cores=st.integers(1, 8))
# The gap is negative at load * (1 + 1e-6) here, so the lower end walks
# inward to a root about 2.8e-7 above the load.
@example(sc=Scenario(traffic=TrafficParams(1.0, 4e8), alpha=1e-6), n_cores=10)
def test_gap_changes_sign_across_the_solved_rate(sc, n_cores):
    r_star = solve_optimal_rate(sc, n_cores)
    prof = scenario_profile(sc, n_cores)
    assert optimality_gap(prof, sc.traffic, sc.alpha, r_star * (1 - 1e-10)) > 0
    assert optimality_gap(prof, sc.traffic, sc.alpha, r_star * (1 + 1e-10)) < 0


@PROPERTY_SETTINGS
@given(sc=scenarios(), n_cores=st.integers(1, 8))
def test_existence_holds_exactly_when_the_closed_form_returns(sc, n_cores):
    res = energy_optimal_exists(sc, n_cores)
    try:
        energy_optimal_rate(sc, n_cores)
    except NoEnergyOptimumError as exc:
        assert not res.exists and res.reason == exc.reason
    else:
        assert res.exists and res.reason is None


CURVE_DELAYS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -math.inf, math.nan, math.inf, 1e-300, 5e-324,
                     1e300, 1e-3, 0.4, 10.0]),
    st.floats(1e-3, 1e3),
    st.floats(),
)


@PROPERTY_SETTINGS
@given(sc=scenarios(), delays=st.lists(CURVE_DELAYS, min_size=1, max_size=8),
       n_cores=st.none() | st.integers(1, 8))
def test_the_curve_equals_its_single_points(sc, delays, n_cores):
    # Each entry is what one evaluate_point call gives at the delay's
    # rate, on n_cores or on the smallest count that decodes the rate.
    status, pts = tradeoff_curve(sc, delays, n_cores=n_cores)
    for i, d in enumerate(delays):
        if not d > 0:
            assert status[i] == "invalid-delay"
            continue
        rate = rate_for_delay(sc.traffic, d)
        try:
            want = evaluate_point(sc, rate, cores_needed(sc.compute, rate)
                                  if n_cores is None else n_cores)
        except InfeasibleError as exc:
            assert status[i] == exc.status
        else:
            assert status[i] == "ok"
            assert [float(f[i]).hex() for f in pts] == [float(f).hex() for f in want]


def _reference_solve(sc: Scenario, n_cores: int) -> float:
    """solve_optimal_rate before the certified gap window: every sign
    test evaluates the gap. Kept verbatim as the reference."""
    profile = scenario_profile(sc, n_cores)
    t = sc.traffic
    if sc.alpha == 0.0:
        return _optimal_rate(profile, t)

    load = t.offered_load_bps

    def gap(r: float) -> float:
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


def _outcome(solve, sc, n_cores):
    """A solve's rate in float.hex, or the type of what it raised."""
    try:
        return solve(sc, n_cores).hex()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@st.composite
def penalized_scenarios(draw):
    # Switch energies up to 300 J make the sleep-adjusted power negative
    # on part of this range, tiny alphas put the root next to the load,
    # and arrival rates up to 10 /s put more roots below W / ln2, where
    # u <= 0 and the window is empty.
    compute = ComputeParams(p_core_min_w=draw(st.floats(0.0, 19.0)),
                            kappa=draw(st.floats(1.0, 100.0)))
    radio = RadioParams(switch_energy_j=draw(st.floats(0.0, 300.0)))
    traffic = TrafficParams(draw(st.floats(0.05, 10.0)), 10.0 ** draw(st.floats(4.0, 9.0)))
    return Scenario(compute=compute, radio=radio, traffic=traffic,
                    alpha=10.0 ** draw(st.floats(-9.0, 4.0)))


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(sc=penalized_scenarios(), n_cores=st.integers(1, 64))
@example(sc=Scenario(traffic=TrafficParams(1.0, 4e8), alpha=1e-6), n_cores=10)
@example(sc=Scenario(alpha=10.0), n_cores=2)
def test_windowed_solve_equals_the_reference_bits(sc, n_cores):
    assert _outcome(solve_optimal_rate, sc, n_cores) == _outcome(_reference_solve, sc, n_cores)


# 4 loads is far from each of these roots, and load * (1 + 1e-13) leaves
# no room for the window's lower end.
@pytest.mark.parametrize("located", [
    lambda load: None, lambda load: math.nan, lambda load: math.inf,
    lambda load: 4.0 * load, lambda load: load * (1.0 + 1e-13),
])
@pytest.mark.parametrize("sc, n_cores", [
    (Scenario(alpha=10.0), 2),
    (Scenario(traffic=TrafficParams(1.0, 4e8), alpha=1e-6), 10),
    (Scenario(radio=RadioParams(switch_energy_j=300.0), alpha=50.0), 4),
])
def test_a_failed_locate_leaves_the_reference_solve(monkeypatch, located, sc, n_cores):
    monkeypatch.setattr(optimize, "_locate_root", lambda c, b, k, load: located(load))
    assert _outcome(solve_optimal_rate, sc, n_cores) == _outcome(_reference_solve, sc, n_cores)


def _gap_rates(sc, n_cores):
    """Every rate solve_optimal_rate hands optimality_gap."""
    rates = []

    def recorded(*args):
        rates.append(args[-1])
        return optimality_gap(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "optimality_gap", recorded)
        try:
            solve_optimal_rate(sc, n_cores)
        except NoEnergyOptimumError:
            pass
    return rates


# The bracket and bisection test no rate against the load or inf: the
# lower-end walk ends above the load, and the gap raises at an infinite rate.
@settings(PROPERTY_SETTINGS)
@given(sc=penalized_scenarios(), n_cores=st.integers(1, 64))
def test_the_gap_is_evaluated_only_between_the_load_and_inf(sc, n_cores):
    load = sc.traffic.offered_load_bps
    assert all(load < x < math.inf for x in _gap_rates(sc, n_cores))


@pytest.mark.parametrize("located", [
    lambda load: None, lambda load: math.nan, lambda load: math.inf,
    lambda load: 4.0 * load, lambda load: load * (1.0 + 1e-13),
])
@pytest.mark.parametrize("sc, n_cores", [
    (Scenario(alpha=10.0), 2),
    (Scenario(traffic=TrafficParams(1.0, 4e8), alpha=1e-6), 10),
    (Scenario(radio=RadioParams(switch_energy_j=300.0), alpha=50.0), 4),
])
def test_a_failed_locate_evaluates_the_gap_only_between_the_load_and_inf(
        monkeypatch, located, sc, n_cores):
    monkeypatch.setattr(optimize, "_locate_root", lambda c, b, k, load: located(load))
    rates, load = _gap_rates(sc, n_cores), sc.traffic.offered_load_bps
    assert rates and all(load < x < math.inf for x in rates)


@pytest.mark.parametrize("n_cores", range(1, 9))
@pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0, 50.0, 100.0])
def test_a_penalized_solve_evaluates_the_gap_only_near_the_root(monkeypatch, alpha, n_cores):
    gaps, ws, locate_ws = [], [], []
    locate = optimize._locate_root

    def counted_gap(*args):
        gaps.append(args[-1])
        return optimality_gap(*args)

    def counted_w(x):
        ws.append(x)
        return lambert_w0(x)

    def counted_locate(*args):
        before = len(ws)
        r = locate(*args)
        locate_ws.extend(ws[before:])
        return r

    monkeypatch.setattr(optimize, "optimality_gap", counted_gap)
    monkeypatch.setattr(optimize, "lambert_w0", counted_w)
    monkeypatch.setattr(optimize, "_locate_root", counted_locate)
    sc = Scenario(alpha=alpha)
    assert solve_optimal_rate(sc, n_cores) == _reference_solve(sc, n_cores)
    assert len(gaps) <= 10  # the reference makes about 45
    assert locate_ws == []  # the locate runs on logs, not on Lambert W


def _margin(sc, n_cores, x):
    """The certificate's margin M = 1e-12 * (2 + u + |b| / a) at rate x,
    from the terms its docstring names."""
    c, b, k = optimize._gap_terms(scenario_profile(sc, n_cores), sc.traffic, sc.alpha)
    a, u = c * (x / (x - sc.traffic.offered_load_bps)) ** 2 + b, k * x - 1.0
    return 1e-12 * (2.0 + u + abs(b) / a)


# Rates below the root for sign 1.0 and above it for -1.0, where H has
# the sign sought; |b| / a is about 0.4 against 2 + u of about 3.7, so
# each of the margin's three terms moves it by more than 1e-6.
@pytest.mark.parametrize("offset", [1e-3, 0.3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("scale, certified", [(1.0 + 1e-6, True), (1.0 - 1e-6, False)])
def test_a_sign_is_certified_only_past_the_full_margin(monkeypatch, offset, sign, scale,
                                                       certified):
    sc, n_cores = Scenario(alpha=10.0), 2
    profile = scenario_profile(sc, n_cores)
    x = solve_optimal_rate(sc, n_cores) * (1.0 - sign * offset)
    gap = sign * scale * _margin(sc, n_cores, x)
    monkeypatch.setattr(optimize, "optimality_gap", lambda p, t, alpha, r: gap)
    terms = optimize._gap_terms(profile, sc.traffic, sc.alpha)
    assert optimize._certified_sign(profile, sc.traffic, sc.alpha, terms, x, sign) is certified
    assert not optimize._certified_sign(profile, sc.traffic, sc.alpha, terms, x, -sign)


@pytest.mark.parametrize("lo_scale, hi_scale", [(0.75, 0.75), (0.75, 1.25), (1.25, 0.75),
                                                (1.25, 1.25)])
def test_the_window_certifies_only_ends_past_the_margin(monkeypatch, lo_scale, hi_scale):
    # The located root is the solved one, and each end's gap is planted
    # at 0.75 or 1.25 times its margin, positive below and negative above.
    sc, n_cores = Scenario(alpha=10.0), 2
    r0 = solve_optimal_rate(sc, n_cores)
    x_lo, x_hi = r0 * (1.0 - optimize._WINDOW_RTOL), r0 * (1.0 + optimize._WINDOW_RTOL)
    gaps = {x_lo: lo_scale * _margin(sc, n_cores, x_lo),
            x_hi: -hi_scale * _margin(sc, n_cores, x_hi)}
    monkeypatch.setattr(optimize, "_locate_root", lambda c, b, k, load: r0)
    monkeypatch.setattr(optimize, "optimality_gap", lambda p, t, alpha, r: gaps[r])
    window = optimize._gap_window(scenario_profile(sc, n_cores), sc.traffic, sc.alpha)
    if lo_scale > 1.0 and hi_scale > 1.0:
        assert window == (x_lo, x_hi)
    else:
        assert window == (sc.traffic.offered_load_bps, math.inf)


# Capacities one float either side of load * (1 + STABILITY_MARGIN): at
# or below it a count is refused; above it the count is clamped there.
@pytest.mark.parametrize("alpha", [0.0, 10.0])
@pytest.mark.parametrize("step, kind", [(-math.inf, "refused"), (0.0, "refused"),
                                        (math.inf, "clamped")])
def test_the_stability_refusal_ends_at_its_margin(monkeypatch, alpha, step, kind):
    sc = Scenario(alpha=alpha)
    bound = sc.traffic.offered_load_bps * (1.0 + optimize.STABILITY_MARGIN)
    r_cap = bound if step == 0.0 else math.nextafter(bound, step)
    monkeypatch.setattr(optimize, "max_supportable_rate", lambda c, n=None: r_cap)
    solve = optimize._rate_for_cores(sc, 1)
    assert solve.kind == kind
    if kind == "refused":
        assert isinstance(solve.refusal, InfeasibleScenarioError)
    else:
        assert solve.rate_bps == r_cap


def _full_solve_record(sc: Scenario, n_cores: int):
    """_rate_for_cores before a clamped count was decided by one gap
    sign: every count is solved in full and its optimum compared with
    the capacity. Kept as the reference."""
    try:
        r_cap = optimize.max_supportable_rate(sc.compute, n_cores)
    except InfeasibleLoadError as exc:
        return optimize._CountSolve("refused", None, exc)
    if r_cap <= sc.traffic.offered_load_bps * (1.0 + optimize.STABILITY_MARGIN):
        return optimize._CountSolve("refused", None, InfeasibleScenarioError(""))
    try:
        r_hat = solve_optimal_rate(sc, n_cores)
    except NoEnergyOptimumError:
        return optimize._CountSolve("no-optimum", r_cap)
    return optimize._CountSolve(*(("optimum", r_hat) if r_hat <= r_cap else ("clamped", r_cap)))


def _record(rate_for_cores, sc, n_cores):
    """A count's record as (kind, rate in float.hex, refusal type), or
    the type of what the solve raised."""
    try:
        kind, rate, refusal = rate_for_cores(sc, n_cores)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return kind, None if rate is None else rate.hex(), type(refusal)


@settings(PROPERTY_SETTINGS, max_examples=500)
@given(sc=penalized_scenarios(), n_cores=st.integers(1, 64))
@example(sc=Scenario(alpha=10.0), n_cores=1)  # clamped
@example(sc=Scenario(alpha=1e308), n_cores=8)
def test_a_count_record_equals_the_full_solve(sc, n_cores):
    assert _record(optimize._rate_for_cores, sc, n_cores) == _record(_full_solve_record,
                                                                      sc, n_cores)


# Capacities about the solved rate r_hat: below it, inside the bisection
# width, and around x = r_cap * (1 + 1e-11), where the gap is tested.
CAP_OFFSETS = [-1e-9, -1e-12, 0.0, 1e-13, 1e-12, 5e-12, 1e-11, 1.2e-11, 1e-9]


def _capped_records(sc, n_cores, eps):
    """Both records of a count whose capacity is r_hat * (1 + eps)."""
    r_cap = solve_optimal_rate(sc, n_cores) * (1.0 + eps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "max_supportable_rate", lambda c, n=None: r_cap)
        return (_record(optimize._rate_for_cores, sc, n_cores),
                _record(_full_solve_record, sc, n_cores))


@pytest.mark.parametrize("eps", CAP_OFFSETS)
@pytest.mark.parametrize("sc, n_cores", [
    (Scenario(alpha=10.0), 2),
    (Scenario(traffic=TrafficParams(1.0, 4e8), alpha=1e-6), 10),
    (Scenario(radio=RadioParams(switch_energy_j=300.0), alpha=50.0), 4),
    (Scenario(traffic=TrafficParams(8.0, 1e6), alpha=1e4), 3),
])
def test_a_capacity_next_to_the_optimum_keeps_the_full_solve_record(sc, n_cores, eps):
    new, full = _capped_records(sc, n_cores, eps)
    assert new == full
    assert new[0] == ("clamped" if eps < 0.0 else "optimum")


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(sc=penalized_scenarios(), n_cores=st.integers(1, 64), eps=st.sampled_from(CAP_OFFSETS))
def test_a_drawn_capacity_next_to_the_optimum_keeps_the_full_solve_record(sc, n_cores, eps):
    try:
        solve_optimal_rate(sc, n_cores)
    except NoEnergyOptimumError:
        assume(False)
    new, full = _capped_records(sc, n_cores, eps)
    assume(full[0] != "refused")
    assert new == full


def test_only_a_clamped_count_evaluates_the_gap_outside_a_solve(monkeypatch):
    calls = []
    for name in ("solve_optimal_rate", "optimality_gap"):
        def counted(*args, name=name, fn=getattr(optimize, name)):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(optimize, name, counted)
    assert optimize._rate_for_cores(Scenario(alpha=10.0), 1) == ("clamped", R_M1, None)
    assert calls == ["optimality_gap"]
    calls.clear()
    assert optimize._rate_for_cores(Scenario(alpha=10.0), 2).kind == "optimum"
    assert calls[0] == "solve_optimal_rate"


def _joint_outcome(search, *args):
    """A joint search's winner and candidates in float.hex, or the type
    and message of what it raised."""
    try:
        res = search(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    hexed = [tuple(x if isinstance(x, int) else x.hex() for x in p)
             for p in (res.point, *res.candidates)]
    assert res.rate_bps == res.point.rate_bps and res.n_cores == res.point.n_cores
    return [type(x) for x in res.point], hexed


@st.composite
def joint_scenarios(draw):
    # Arrival rates up to 12 /s reach past 3 cores' capacity, and with
    # 22 or more cores the walk reaches the link cap (rate 1.2e9 bit/s);
    # switch energies up to 300 J leave some counts without an optimum.
    compute = ComputeParams(p_core_min_w=draw(st.floats(0.0, 19.0)),
                            kappa=draw(st.floats(1.0, 100.0)))
    radio = RadioParams(switch_energy_j=draw(st.floats(0.0, 300.0)))
    traffic = TrafficParams(draw(st.floats(0.05, 12.0)), 10.0 ** draw(st.floats(5.0, 8.5)))
    alpha = draw(st.just(0.0) | st.floats(0.0, 100.0) | st.floats(-9.0, 4.0).map(lambda e: 10.0 ** e))
    return Scenario(compute=compute, radio=radio, traffic=traffic, alpha=alpha)


LINK_CAPPED = replace(Scenario(), traffic=TrafficParams(arrival_rate=6.25))
COUNTS = st.none() | st.integers(1, 64)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(sc=joint_scenarios(), n_cores_max=st.integers(1, 40), n_cores=COUNTS)
@example(sc=LINK_CAPPED, n_cores_max=30, n_cores=None)
@example(sc=LINK_CAPPED, n_cores_max=30, n_cores=22)
@example(sc=replace(Scenario(), traffic=TrafficParams(arrival_rate=80.0)), n_cores_max=40,
         n_cores=None)
@example(sc=Scenario(traffic=TrafficParams(arrival_rate=3.0)), n_cores_max=1, n_cores=None)
@example(sc=Scenario(alpha=10.0), n_cores_max=8, n_cores=None)
def test_joint_optimize_equals_the_per_candidate_walk(sc, n_cores_max, n_cores):
    assert (_joint_outcome(joint_optimize, sc, n_cores_max, n_cores)
            == _joint_outcome(reference_best_point, sc, n_cores, n_cores_max))


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(sc=joint_scenarios(), n_cores_max=st.integers(1, 40), n_cores=COUNTS)
# The walk's clamped candidate on 22 cores is over the link cap, and so
# is a fixed count of 22, whose only candidate it is.
@example(sc=LINK_CAPPED, n_cores_max=30, n_cores=None)
@example(sc=LINK_CAPPED, n_cores_max=30, n_cores=22)
def test_every_chosen_candidate_is_served(sc, n_cores_max, n_cores):
    try:
        pairs = optimize._choose(sc, n_cores, n_cores_max,
                                 functools.partial(scenario_profile, sc))
    except InfeasibleError:
        return
    rates, counts = (np.array(x, dtype=float) for x in zip(*pairs))
    c = cost(scenario_profile(sc, counts), sc.traffic, sc.alpha, rates)
    assert c.code.tolist() == [0] * len(pairs)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(sc=joint_scenarios(), n_cores=st.integers(1, 8))
@example(sc=Scenario(), n_cores=1)  # clamped
@example(sc=Scenario(traffic=TrafficParams(1.0, 7e7)), n_cores=2)  # no optimum
def test_a_fixed_count_rate_against_a_dense_grid(sc, n_cores):
    # An optimum or clamped count's rate costs no more than any served
    # point of a dense grid on (load, r_cap]. A count with no optimum
    # reports r_cap although the cost rises with the rate over the grid.
    solve = optimize._rate_for_cores(sc, n_cores)
    assume(solve.kind != "refused")
    assert best_rate_for_cores(sc, n_cores) == solve.rate_bps
    load = sc.traffic.offered_load_bps
    r_cap = max_supportable_rate(sc.compute, n_cores)
    profile = scenario_profile(sc, n_cores)
    grid = cost(profile, sc.traffic, sc.alpha,
                load + (r_cap - load) * np.geomspace(1e-9, 1.0, 2001))
    z = grid.cost_z[grid.code == 0]
    assume(z.size)
    if solve.kind == "no-optimum":
        assert solve.rate_bps == r_cap
        assert np.all(np.diff(z) > 0)
    else:
        assert solve.kind in ("optimum", "clamped")
        chosen = cost(profile, sc.traffic, sc.alpha, solve.rate_bps)
        assert chosen.code == 0
        assert chosen.cost_z <= z.min() * (1.0 + 1e-12)


def _oracle_rate(profile, t: TrafficParams, alpha: float):
    """The root in r > lambda L of W0(a(r)) - (r ln2 / W - 1), the gap
    the optimize docstring states, bisected at 60 digits with mpmath from
    the profile's and traffic's float fields; None where that region
    holds no root. No code of the package's solver runs here."""
    with mpmath.workdps(60):
        f = mpmath.mpf
        lam = f(t.arrival_rate)
        load = lam * f(t.file_size_bits)
        g_eta = f(profile.gain) * f(profile.pa_efficiency)
        p_s = (f(profile.base_w) + f(profile.rf_w) - f(profile.sleep_power_w)
               - 2 * lam * f(profile.switch_energy_j))
        c, b = f(alpha) * g_eta / mpmath.e, (g_eta * p_s - 1) / mpmath.e
        k = mpmath.ln(2) / f(profile.bandwidth_hz)
        w0 = functools.cache(lambda a: mpmath.lambertw(a).real)  # a is b at alpha = 0

        def gap(r):
            a = c * (r / (r - load)) ** 2 + b if alpha else b
            if a < -1 / mpmath.e:
                return -mpmath.inf  # u e**u > a for every u: the cost rises
            return w0(a) - (k * r - 1)

        # Near the load the gap is +inf at alpha > 0; at alpha = 0 it is
        # constant in a, so a root above the load needs a positive gap there.
        if not alpha and not gap(load) > 0:
            return None
        lo, hi = load, 2 * load
        while gap(hi) > 0:
            lo, hi = hi, 2 * hi
        while hi - lo > f("1e-30") * hi:
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


# The ranges of the oracle comparison in ROADMAP: the default radio and
# link, arrival rates 0.1 to 3.2 /s, sizes 1e6 to 3e7 bits, 1 to 8 cores.
ORACLE_SETTINGS = settings(max_examples=40, derandomize=True, database=None, deadline=None)
oracle_traffic = st.builds(TrafficParams, st.floats(0.1, 3.2),
                           st.floats(6.0, math.log10(3e7)).map(lambda e: 10.0 ** e))


@ORACLE_SETTINGS
@given(t=oracle_traffic, alpha=st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e),
       n_cores=st.integers(1, 8))
def test_a_penalized_solve_lies_within_its_bisection_width_of_the_oracle(t, alpha, n_cores):
    sc = Scenario(traffic=t, alpha=alpha)
    r_star = _oracle_rate(scenario_profile(sc, n_cores), t, alpha)
    assert abs(solve_optimal_rate(sc, n_cores) - r_star) <= 1e-12 * r_star


@pytest.mark.parametrize("n_cores", [1, 4])
def test_a_subnormal_load_solves_within_its_bisection_width_of_the_oracle(n_cores):
    # load * (1 + eps) rounds back to this load for every eps the lower-end
    # walk tries; the gap raises at the load itself.
    t = TrafficParams(1e-320, 1.0)
    sc = Scenario(traffic=t, alpha=1.0)
    r_star = _oracle_rate(scenario_profile(sc, n_cores), t, 1.0)
    assert abs(solve_optimal_rate(sc, n_cores) - r_star) <= 1e-12 * r_star


# Planted scenarios on 1 core, (lambda /s, file bits, alpha, switch
# energy J), that drive _locate_root through each branch, with the root
# it returns. The first doubles on the one-sided branch (a > 0 >= u),
# then takes Newton steps. The second takes the midpoint on the
# one-sided branch (a <= 0 < u), then again for Newton steps that leave
# the bracket. The third reaches a <= 0 and u <= 0 at its second
# midpoint and locates nothing. The first two take 18 steps each; under
# the cap of 20, a search that trades its Newton steps for the fallback
# (over 40 steps) locates nothing.
LOCATE_CASES = [
    ((0.05, 1e5, 1e-6, 0.0), 70102601.741642),
    ((0.2075931278778916, 201963578.6427334, 0.0013136221299052356, 300.0), 42071155.26621397),
    ((0.05, 4e8, 1e-6, 300.0), None),
]


@pytest.mark.parametrize("case, located", LOCATE_CASES)
def test_the_located_root_at_planted_branches(monkeypatch, case, located):
    monkeypatch.setattr(optimize, "_LOCATE_MAX_ITER", 20)
    arrival_rate, size, alpha, switch = case
    t = TrafficParams(arrival_rate, size)
    sc = Scenario(radio=RadioParams(switch_energy_j=switch), traffic=t, alpha=alpha)
    profile = scenario_profile(sc, 1)
    terms = optimize._gap_terms(profile, t, alpha)
    r_hat = optimize._locate_root(*terms, t.offered_load_bps)
    r_star = _oracle_rate(profile, t, alpha)
    assert r_hat == located
    if located is None:  # the bisection alone still finds the root
        r = solve_optimal_rate(sc, 1)
        assert r == 20005409.90446899
        assert abs(r - r_star) <= 1e-12 * r_star
    else:
        assert abs(r_hat - r_star) <= 1e-14 * r_star


@ORACLE_SETTINGS
@given(t=oracle_traffic, n_cores=st.integers(1, 8))
def test_the_closed_forms_agree_with_the_oracle(t, n_cores):
    # Where a closed form refuses, the oracle finds no root above the
    # load, or one within 1e-9 of it, where a rounding can decide.
    sc = Scenario(traffic=t)
    cbs = (EarthParams(), sc.link.channel_gain, sc.link.bandwidth_hz, sc.radio.switch_energy_j)
    solves = ((lambda: energy_optimal_rate(sc, n_cores), scenario_profile(sc, n_cores)),
              (lambda: earth_energy_optimal_rate(*cbs, t), earth_profile(*cbs)))
    for solve, profile in solves:
        r_star = _oracle_rate(profile, t, 0.0)
        try:
            r = solve()
        except NoEnergyOptimumError:
            assert r_star is None or r_star <= t.offered_load_bps * (1.0 + 1e-9)
        else:
            assert r_star is not None and abs(r - r_star) <= 1e-13 * r_star
