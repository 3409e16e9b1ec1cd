"""Walk through the station power model piece by piece.

The virtualized station draws power in two places: a baseband unit
(BBU) running on general-purpose cores, and a radio head dominated by
the power amplifier. This script prints how each piece scales with the
served data rate and with the number of provisioned cores.
"""
import numpy as np

from vbsenergy.optimize import max_supportable_rate
from vbsenergy.power import ComputeParams, RadioParams, bbu_power, cpu_load, rrh_power, vbs_profile
from vbsenergy.radio import LinkBudget, tx_power_for_rate


def main() -> None:
    link = LinkBudget()
    radio = RadioParams()
    print(f"cell-edge channel gain over noise: {link.channel_gain:.4f} (linear)")
    print()

    # The BBU is affine in the rate: a per-core idle floor, a fixed term
    # for the rate-independent workload, and a slope from decoding.
    print("BBU power and core utilization vs rate (watts, 2 GHz cores):")
    print(f"{'rate':>12} {'1 core':>22} {'2 cores':>22}")
    for rate in (0.0, 1e7, 2e7, 3e7):
        cells = []
        for n in (1, 2):
            c = ComputeParams(n_cores=n)
            cells.append(f"{bbu_power(c, rate):7.3f} W (load {cpu_load(c, rate):4.2f})")
        print(f"{rate:12.3g} {cells[0]:>22} {cells[1]:>22}")
    print()

    # Each core adds capacity ... and its own idle floor.
    for n in (1, 2, 3, 4):
        c = ComputeParams(n_cores=n)
        profile = vbs_profile(c, radio, link.channel_gain)
        print(f"{n} core(s): capacity {max_supportable_rate(c)/1e6:8.2f} Mbit/s, "
              f"static draw {profile.static_power_w:6.2f} W")
    print()

    # The radio head converts transmit power through the amplifier
    # efficiency; transmit power itself is exponential in the rate.
    print("radio head power vs rate (20 MHz link at the cell edge):")
    for rate in np.array([1e7, 4e7, 7e7, 1e8]):
        p_out = tx_power_for_rate(link.channel_gain, link.bandwidth_hz, rate)
        print(f"  {rate/1e6:6.1f} Mbit/s -> transmit {p_out:8.3f} W, "
              f"head draws {rrh_power(radio, p_out):8.3f} W")
    print()

    # Total busy power puts both together.
    c2 = ComputeParams(n_cores=2)
    r = 7.756e7
    print(f"busy power at {r/1e6:.2f} Mbit/s on 2 cores: "
          f"{vbs_profile(c2, radio, link.channel_gain).busy_power(r):.3f} W")


if __name__ == "__main__":
    main()
