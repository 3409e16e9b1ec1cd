"""Event simulator: determinism, bookkeeping, and analytic agreement."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vbsenergy.errors import UnstableQueueError
from vbsenergy.power import BusyPowerProfile, ComputeParams, RadioParams, vbs_profile
from vbsenergy.queueing import TrafficParams
from vbsenergy.radio import LinkBudget
from vbsenergy.simulate import (
    SimConfig,
    _draw_sizes,
    simulate,
    validate_against_analytic,
)

GAIN = LinkBudget().channel_gain


def make_config(**kw):
    defaults = dict(
        traffic=TrafficParams(),
        profile=vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN),
        rate_bps=7.756e7,
        n_arrivals=20000,
        seed=12345,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_config_validation():
    with pytest.raises(UnstableQueueError):
        make_config(rate_bps=1.6e7)
    with pytest.raises(ValueError):
        make_config(size_distribution="uniform")
    with pytest.raises(ValueError):
        make_config(n_arrivals=10)
    with pytest.raises(ValueError):
        make_config(warmup_fraction=0.6)
    with pytest.raises(ValueError):
        make_config(n_batches=1)


def test_reproducible_runs():
    a = simulate(make_config())
    b = simulate(make_config())
    assert a == b
    c = simulate(make_config(seed=99))
    assert c.mean_delay_s != a.mean_delay_s


def test_matches_analytic_model():
    report = validate_against_analytic(make_config())
    assert report.ok, [c for c in report.checks if not c.inside]
    names = [c.name for c in report.checks]
    assert names == [
        "mean_queue_len",
        "mean_delay_s",
        "mean_power_w",
        "busy_fraction",
        "mean_cycle_s",
    ]


def test_isolated_flows_have_exact_delay():
    # At a rate so high that flows essentially never overlap, every
    # deterministic flow takes exactly size/rate and every busy period
    # is one flow, so cycles equal completions. A constant-power profile
    # keeps the link model out of the picture: no rate term, and an
    # unbounded band needs no transmit power.
    rate = 1e13
    flat = BusyPowerProfile(base_w=30.0, rate_coeff=0.0, speed_factor=1.0, rf_w=0.0,
                            pa_efficiency=1.0, gain=1.0, bandwidth_hz=math.inf,
                            sleep_power_w=6.45, switch_energy_j=5.0)
    cfg = make_config(
        rate_bps=rate,
        profile=flat,
        size_distribution="deterministic",
        n_arrivals=1000,
        warmup_fraction=0.0,
        seed=7,
    )
    st = simulate(cfg)
    assert st.completed_flows == 1000
    assert st.cycles_observed == 1000
    assert st.mean_delay_s == pytest.approx(1.6e7 / rate, rel=1e-9)
    assert st.busy_fraction == pytest.approx(1.6e7 / rate, rel=0.2)


def test_energy_accounting_identity():
    # The reported power, busy fraction, window, and cycle count must
    # tie together: E = busy * P_busy + idle * P_sleep + 2 E_sw cycles.
    cfg = make_config(warmup_fraction=0.0)
    st = simulate(cfg)
    prof = cfg.profile
    busy = st.busy_fraction * st.window_s
    idle = st.window_s - busy
    expect = (
        busy * prof.busy_power(cfg.rate_bps)
        + idle * prof.sleep_power_w
        + 2.0 * prof.switch_energy_j * st.cycles_observed
    )
    assert st.mean_power_w * st.window_s == pytest.approx(expect, rel=1e-9)


def test_littles_law_holds():
    st = simulate(make_config())
    lam_eff = st.completed_flows / st.window_s
    assert st.mean_queue_len == pytest.approx(lam_eff * st.mean_delay_s, rel=0.05)


def test_batch_means_shape():
    st = simulate(make_config(n_batches=10))
    assert len(st.batch_means["power"]) == 10
    assert len(st.batch_means["queue_len"]) == 10
    assert st.mean_power_w == pytest.approx(np.mean(st.batch_means["power"]), rel=0.05)


def test_size_distributions_preserve_the_mean():
    rng = np.random.default_rng(3)
    mean = 1.6e7
    for dist in ("exponential", "deterministic"):
        draws = _draw_sizes(rng, dist, mean, 200000)
        assert np.mean(draws) == pytest.approx(mean, rel=0.01)
        assert np.all(draws >= 0)


def test_bounded_pareto_mean_and_support():
    rng = np.random.default_rng(5)
    mean = 1.6e7
    draws = _draw_sizes(rng, "bounded-pareto", mean, 400000)
    low, high = draws.min(), draws.max()
    assert high <= low * 1e3 * 1.001
    # the truncated pdf really has the requested mean
    a = 1.5
    l = low  # noqa: E741 - matches the usual pareto notation
    h = l * 1e3
    norm = 1.0 - (l / h) ** a

    def pdf(x):
        return a * l ** a / x ** (a + 1) / norm

    analytic_mean = quad(lambda x: x * pdf(x), l, h)[0]
    assert analytic_mean == pytest.approx(mean, rel=1e-3)
    assert np.mean(draws) == pytest.approx(mean, rel=0.05)


def test_pareto_sim_still_matches_queue_model():
    # processor sharing is insensitive to the size distribution, so the
    # heavy-tailed mix must reproduce the same stationary metrics
    cfg = make_config(size_distribution="bounded-pareto", n_arrivals=40000, seed=2024)
    report = validate_against_analytic(cfg)
    assert report.ok, [c for c in report.checks if not c.inside]


def test_trace_output(tmp_path):
    path = tmp_path / "events.tsv"
    cfg = make_config(n_arrivals=1000, trace_path=str(path))
    simulate(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s\tevent\tqueue_len\tenergy_j"
    kinds = {line.split("\t")[1] for line in lines[1:]}
    assert kinds == {"arrive", "depart"}
    # every flow leaves, so arrivals and departures balance
    n_arr = sum(1 for line in lines[1:] if "\tarrive\t" in line)
    n_dep = sum(1 for line in lines[1:] if "\tdepart\t" in line)
    assert n_arr == n_dep == 1000


def test_processor_sharing_slows_concurrent_flows():
    # Two permanent size classes: with deterministic sizes and a rate
    # where flows overlap, mean delay exceeds the no-sharing bound L/r
    # but matches the PS prediction.
    cfg = make_config(size_distribution="deterministic", rate_bps=3e7, n_arrivals=40000)
    st = simulate(cfg)
    assert st.mean_delay_s > 1.6e7 / 3e7
    rho = 1.6e7 / 3e7
    ps_delay = (rho / (1 - rho)) / 1.0
    assert st.mean_delay_s == pytest.approx(ps_delay, rel=0.05)
