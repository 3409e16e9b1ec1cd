"""Rate and core-count optimization."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference_walk import reference_joint
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
from vbsenergy.queueing import TrafficParams, average_power, queue_metrics

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

    def counted(sc, n):
        calls.append(n)
        if limit is not None and len(calls) > limit:
            raise AssertionError(f"more than {limit} _rate_for_cores calls")
        return solve(sc, n)

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
    for alpha in (-1.0, math.nan):
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
    # on part of this range, and tiny alphas put the root next to the load.
    compute = ComputeParams(p_core_min_w=draw(st.floats(0.0, 19.0)),
                            kappa=draw(st.floats(1.0, 100.0)))
    radio = RadioParams(switch_energy_j=draw(st.floats(0.0, 300.0)))
    traffic = TrafficParams(draw(st.floats(0.05, 3.0)), 10.0 ** draw(st.floats(4.0, 9.0)))
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


def test_a_penalized_solve_evaluates_the_gap_only_near_the_root(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return optimality_gap(*args)

    monkeypatch.setattr(optimize, "optimality_gap", counted)
    sc = Scenario(alpha=10.0)
    assert solve_optimal_rate(sc, 2) == _reference_solve(sc, 2)
    assert len(calls) <= 10  # the reference makes 45


def _joint_outcome(sc, n_cores_max, joint):
    """A joint search's winner and candidates in float.hex, or the type
    and message of what it raised."""
    try:
        res = joint(sc, n_cores_max)
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


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(sc=joint_scenarios(), n_cores_max=st.integers(1, 40))
@example(sc=replace(Scenario(), traffic=TrafficParams(arrival_rate=6.25)), n_cores_max=30)
@example(sc=replace(Scenario(), traffic=TrafficParams(arrival_rate=80.0)), n_cores_max=40)
@example(sc=Scenario(traffic=TrafficParams(arrival_rate=3.0)), n_cores_max=1)
@example(sc=Scenario(alpha=10.0), n_cores_max=8)
def test_joint_optimize_equals_the_per_candidate_walk(sc, n_cores_max):
    assert (_joint_outcome(sc, n_cores_max, joint_optimize)
            == _joint_outcome(sc, n_cores_max, reference_joint))


def test_best_points_refuses_cases_that_do_not_share_the_station():
    sc = Scenario()
    other = replace(sc, compute=replace(sc.compute, kappa=30.0))
    with pytest.raises(ValueError, match="share compute, radio and link"):
        optimize.best_points([(sc, None), (other, None)], 8)
