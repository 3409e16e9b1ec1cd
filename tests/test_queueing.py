"""Stationary queue metrics and sleep-cycle average power."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbsenergy.errors import REFUSALS, UnstableQueueError
from vbsenergy.optimize import Scenario, evaluate_point, scenario_profile
from vbsenergy.power import ComputeParams, EarthParams, RadioParams, earth_profile, vbs_profile
from vbsenergy.queueing import TrafficParams, average_power, cost, queue_metrics
from vbsenergy.radio import MAX_RATE_EXPONENT, LinkBudget

GAIN = LinkBudget().channel_gain
RATE = 7.756e7  # reference operating point used throughout


def test_traffic_params():
    t = TrafficParams()
    assert t.arrival_rate == 1.0
    assert t.file_size_bits == 1.6e7
    assert t.offered_load_bps == 1.6e7
    with pytest.raises(ValueError):
        TrafficParams(arrival_rate=0.0)
    with pytest.raises(ValueError):
        TrafficParams(file_size_bits=-1.0)
    for field in ("arrival_rate", "file_size_bits"):
        with pytest.raises(ValueError):
            TrafficParams(**{field: math.nan})


def test_queue_metrics_reference_point():
    qm = queue_metrics(TrafficParams(), RATE)
    assert qm.rho == pytest.approx(1.6e7 / RATE, rel=1e-15)
    assert qm.mean_delay_s == pytest.approx(0.2599090318388564, rel=1e-12)
    # with unit arrival rate the mean queue length equals the mean delay
    assert qm.mean_queue_len == pytest.approx(qm.mean_delay_s, rel=1e-15)
    assert qm.mean_cycle_s == pytest.approx(1.0 / (1.0 - qm.rho), rel=1e-14)


def test_stability_guard():
    t = TrafficParams()
    prof = vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN)
    for rate in (1.6e7, 1.5e7, math.nan):
        with pytest.raises(UnstableQueueError):
            queue_metrics(t, rate)
        with pytest.raises(UnstableQueueError):
            average_power(prof, t, rate)
        with pytest.raises(UnstableQueueError):
            evaluate_point(Scenario(), rate, 2)
        assert cost(prof, t, 0.0, rate).code == REFUSALS.index(UnstableQueueError)
    queue_metrics(t, 1.6e7 * (1.0 + 1e-9))  # just above is fine


def test_average_power_reference_point():
    t = TrafficParams()
    prof = vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN)
    assert average_power(prof, t, RATE) == pytest.approx(25.80318386567135, rel=1e-12)
    cbs = earth_profile(EarthParams(), GAIN, 20e6, 5.0)
    assert average_power(cbs, t, RATE) == pytest.approx(72.09887059171191, rel=1e-12)


def test_average_power_mixes_by_utilization():
    # Hand-built mix at the reference point: rho P_busy + (1-rho) P_sleep
    # + 2 E_sw lambda (1-rho).
    t = TrafficParams()
    prof = vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN)
    rho = t.offered_load_bps / RATE
    expect = rho * prof.busy_power(RATE) + (1 - rho) * 6.45 + 2 * 5.0 * 1.0 * (1 - rho)
    assert average_power(prof, t, RATE) == pytest.approx(expect, rel=1e-15)


def test_system_cost():
    t = TrafficParams()
    prof = vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN)
    z = cost(prof, t, 10.0, RATE).cost_z
    assert z == pytest.approx(28.402274184059912, rel=1e-12)
    assert cost(prof, t, 0.0, RATE).cost_z == pytest.approx(
        average_power(prof, t, RATE), rel=1e-15
    )
    for alpha in (-1.0, math.nan):
        with pytest.raises(ValueError):
            cost(prof, t, alpha, RATE)


def test_switching_term_scales_with_arrival_rate():
    # At fixed utilization the switch term is 2 E_sw lambda (1 - rho), so
    # doubling lambda at the same rho doubles it.
    prof = vbs_profile(ComputeParams(n_cores=4), RadioParams(), GAIN)
    t1 = TrafficParams(arrival_rate=1.0, file_size_bits=1.6e7)
    t2 = TrafficParams(arrival_rate=2.0, file_size_bits=8e6)
    r = 8e7
    p1 = average_power(prof, t1, r)
    p2 = average_power(prof, t2, r)
    rho = t1.offered_load_bps / r
    assert p2 - p1 == pytest.approx(2.0 * 5.0 * (1.0 - rho), rel=1e-9)


def test_array_rates():
    t = TrafficParams()
    prof = vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN)
    rates = np.linspace(2e7, 9e7, 8)
    qm = queue_metrics(t, rates)
    assert qm.rho.shape == rates.shape
    assert np.all(np.diff(qm.mean_delay_s) < 0)  # faster service, less delay
    p = average_power(prof, t, rates)
    assert p.shape == rates.shape


def _with_neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    alpha=st.floats(0.0, 100.0),
    arrival_rate=st.floats(0.05, 5.0),
    file_size=st.floats(1e5, 1e8),
    n_cores=st.integers(1, 8),
    drawn=st.lists(st.floats(-1e9, 1e10), max_size=8),
)
def test_kernel_grid_equals_its_single_rate_calls(alpha, arrival_rate, file_size,
                                                  n_cores, drawn):
    sc = Scenario(traffic=TrafficParams(arrival_rate, file_size), alpha=alpha)
    prof = scenario_profile(sc, n_cores)
    edges = (0.0, -1.0, sc.traffic.offered_load_bps,
             MAX_RATE_EXPONENT * prof.bandwidth_hz, prof.max_rate_bps)
    rates = np.array([r for x in edges for r in _with_neighbours(x)] + drawn
                     + [math.nan, math.inf])
    grid = cost(prof, sc.traffic, alpha, rates)
    for i, r in enumerate(rates.tolist()):
        one = cost(prof, sc.traffic, alpha, r)
        assert int(one.code) == grid.code[i]
        assert [float(f).hex() for f in one[1:]] == [float(f[i]).hex() for f in grid[1:]]
    served = grid.code == 0
    assert np.array_equal(grid.cost_z[served],
                          grid.power_w[served] + alpha * grid.mean_queue_len[served],
                          equal_nan=True)
    for r, code in zip(rates.tolist(), grid.code.tolist()):
        if code:
            with pytest.raises(REFUSALS[code]) as info:
                evaluate_point(sc, r, n_cores)
            assert type(info.value) is REFUSALS[code]
