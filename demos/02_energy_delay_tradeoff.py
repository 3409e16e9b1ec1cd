"""Trace the energy-delay tradeoff of a sleep-cycled station.

Serving faster empties the queue sooner and lets the station sleep
longer, but transmit power grows exponentially with the rate. The
average power therefore has a sweet spot -- usually. This script walks
the curve, finds the minimum, and shows the two ways it can disappear.
"""
import numpy as np

from vbsenergy import Scenario, evaluate_point
from vbsenergy.optimize import (
    asymptotic_power,
    energy_optimal_exists,
    energy_optimal_rate,
    tradeoff_curve,
)
from vbsenergy.queueing import TrafficParams, queue_metrics
from dataclasses import replace


def main() -> None:
    sc = Scenario()

    print("power along the delay curve (4 cores):")
    delays = np.linspace(0.15, 1.2, 8)
    _, curve = tradeoff_curve(sc, delays, n_cores=4)
    for d, rate, power in zip(delays, curve.rate_bps, curve.avg_power_w):
        print(f"  target delay {d:5.2f} s -> rate {rate/1e6:7.2f} "
              f"Mbit/s, power {power:7.3f} W")
    r_star = energy_optimal_rate(sc, 4)
    d_star = queue_metrics(sc.traffic, r_star).mean_delay_s
    p_star = evaluate_point(sc, r_star, 4).avg_power_w
    print(f"closed-form minimum: rate {r_star/1e6:.3f} Mbit/s, "
          f"delay {d_star:.3f} s, power {p_star:.3f} W")
    print()

    # Failure mode one: files so large the offered load sits past the
    # minimizer. Power then falls monotonically as delay grows.
    big = replace(sc, traffic=TrafficParams(arrival_rate=1.0, file_size_bits=7e7))
    res = energy_optimal_exists(big, 2)
    print(f"70 Mbit files: optimum exists? {bool(res)} (reason: {res.reason}, "
          f"size bound {res.file_size_bound/1e6:.1f} Mbit)")
    delays = [3.0, 6.0, 12.0, 25.0, 50.0]
    _, curve = tradeoff_curve(big, delays, n_cores=2)
    for d, power in zip(delays, curve.avg_power_w):
        print(f"  delay {d:5.1f} s -> power {power:7.3f} W")
    print("  (slowing down keeps paying off; the infimum sits at infinite delay)")
    print()

    # Failure mode two: arrivals so frequent that sleep/wake switching
    # costs more than sleeping saves.
    hot = replace(sc, traffic=TrafficParams(arrival_rate=2.5, file_size_bits=1.6e7))
    res = energy_optimal_exists(hot, 2)
    print(f"2.5 flows/s: optimum exists? {bool(res)} (reason: {res.reason}, "
          f"arrival bound {res.arrival_rate_bound:.2f}/s)")
    print()

    # The infinite-delay limit itself is easy to pin down.
    lim = asymptotic_power(sc, 1)
    near = evaluate_point(sc, sc.traffic.offered_load_bps * (1 + 1e-6), 1).avg_power_w
    print(f"asymptotic power (1 core): {lim:.4f} W; at 1e-6 above the offered "
          f"load the curve reads {near:.4f} W")


if __name__ == "__main__":
    main()
