"""Rate and core-count optimization."""
import math
from dataclasses import replace

import numpy as np
import pytest

from vbsenergy.errors import (
    InfeasibleError,
    InfeasibleLoadError,
    InfeasibleScenarioError,
    LinkCapacityError,
    NoEnergyOptimumError,
    PowerCapExceededError,
    UnstableQueueError,
)
from vbsenergy.optimize import (
    Scenario,
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
from vbsenergy.power import ComputeParams, EarthParams, earth_profile
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
        PowerCapExceededError, InfeasibleScenarioError, NoEnergyOptimumError)]
    assert statuses == ["unstable", "over-compute-cap", "over-link-cap",
                        "over-power-cap", "infeasible", "no-optimum"]
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
    with pytest.raises(UnstableQueueError):
        optimality_gap(prof, t, sc.alpha, 1.6e7)


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


def test_tradeoff_curve_statuses():
    sc = Scenario()
    pts = tradeoff_curve(sc, [-0.5, 0.01, 0.1, 0.4, 1.0], n_cores=2)
    assert [p.status for p in pts] == [
        "invalid-delay", "over-link-cap", "over-compute-cap", "ok", "ok",
    ]
    assert all(p.point is None for p in pts[:3])
    assert pts[3].point.mean_delay_s == pytest.approx(0.4, rel=1e-12)
    # automatic core sizing removes the compute cap but not the link cap
    auto = tradeoff_curve(sc, [0.1, 0.4, 1.0])
    assert all(p.status == "ok" for p in auto)
    assert auto[0].point.n_cores > 2


@pytest.mark.parametrize("n_cores", [2, None])
def test_tradeoff_curve_flags_every_delay_that_is_not_positive(n_cores):
    delays = [math.nan, 0.0, -0.0, -1.0, -math.inf]
    pts = tradeoff_curve(Scenario(), delays, n_cores=n_cores)
    assert [p.status for p in pts] == ["invalid-delay"] * len(delays)
    assert all(p.point is None for p in pts)


def test_tradeoff_curve_flags_power_cap():
    sc = Scenario()
    capped = replace(sc, radio=replace(sc.radio, p_out_max_w=5.0))
    pts = tradeoff_curve(capped, [2.0, 1.0, 0.3, 0.2], n_cores=4)
    assert [p.status for p in pts] == ["ok", "ok", "ok", "over-power-cap"]
    assert pts[3].point is None


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(alpha=-1.0)
    link = Scenario().link
    bad_radio = replace(Scenario().radio, bandwidth_hz=10e6)
    with pytest.raises(ValueError):
        Scenario(radio=bad_radio, link=link)
    sc2 = Scenario().with_cores(4)
    assert sc2.compute.n_cores == 4


def test_evaluate_point_consistency():
    sc = Scenario(alpha=10.0)
    pt = evaluate_point(sc, 7.756e7, 2)
    assert pt.cost_z == pytest.approx(28.402274184059912, rel=1e-12)
    assert pt.avg_power_w == pytest.approx(25.80318386567135, rel=1e-12)
    assert pt.rho == pytest.approx(1.6e7 / 7.756e7, rel=1e-15)
