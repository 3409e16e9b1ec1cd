"""Walk the joint rate-and-cores search and the delay-weighted variant.

The inner problem (best rate for a fixed core count) has a closed form
when only power matters and a one-dimensional root otherwise. The outer
walk ascends core counts and stops at the first count whose optimum
fits inside the cores' compute capacity, because adding a core raises
cost by a fixed occupancy-times-static-draw increment.
"""
from dataclasses import replace

from vbsenergy import Scenario, evaluate_point, joint_optimize
from vbsenergy.optimize import scenario_profile, solve_optimal_rate
from vbsenergy.queueing import TrafficParams, cost


def main() -> None:
    sc = Scenario()
    for lam in (0.5, 1.0, 1.5):
        sc_l = replace(sc, traffic=TrafficParams(arrival_rate=lam))
        res = joint_optimize(sc_l, 8)
        print(f"arrival rate {lam:.1f}/s:")
        for cand in res.candidates:
            mark = "<- chosen" if cand.n_cores == res.point.n_cores else ""
            print(f"  {cand.n_cores} cores: rate {cand.rate_bps/1e6:7.2f} Mbit/s, "
                  f"power {cand.avg_power_w:6.2f} W {mark}")
        p = res.point
        print(f"  mean delay {p.mean_delay_s:.3f} s, occupancy {p.rho:.3f}")
        print()

    # A delay weight in the objective pushes the rate up: serving
    # faster costs transmit power but empties the queue sooner.
    print("delay weight vs optimal rate (4 cores):")
    print(f"{'alpha':>6} {'rate Mbit/s':>12} {'cost':>8} {'delay s':>8}")
    for alpha in (0.0, 1.0, 10.0, 100.0):
        sc_a = replace(sc, alpha=alpha)
        r = solve_optimal_rate(sc_a, 4)
        pt = evaluate_point(sc_a, r, 4)
        print(f"{alpha:6.1f} {r/1e6:12.2f} {pt.cost_z:8.2f} {pt.mean_delay_s:8.3f}")
    print()

    # The outer walk is safe to truncate because each extra core adds
    # exactly occupancy times the per-core static draw to the cost,
    # at any fixed service rate.
    rate = 30e6
    rho = sc.traffic.offered_load_bps / rate
    z1 = cost(scenario_profile(sc, 1), sc.traffic, sc.alpha, rate).cost_z
    z2 = cost(scenario_profile(sc, 2), sc.traffic, sc.alpha, rate).cost_z
    print(f"cost increment for the second core at 30 Mbit/s: {z2 - z1:.4f} W")
    print(f"occupancy x per-core static draw:                "
          f"{rho * sc.compute.p_core_min_w:.4f} W")


if __name__ == "__main__":
    main()
