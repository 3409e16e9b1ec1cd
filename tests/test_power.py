"""Station power models: BBU, radio head, and the macro baseline."""
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from vbsenergy.errors import InfeasibleLoadError
from vbsenergy.power import (
    ComputeParams,
    EarthParams,
    RadioParams,
    bbu_power,
    cpu_load,
    delta_pb,
    earth_busy_power,
    earth_profile,
    rrh_power,
    sleep_adjusted_power,
    static_power,
    vbs_busy_power,
    vbs_profile,
)
from vbsenergy.radio import LinkBudget, tx_power_for_rate

# Expected numbers for the default platform (2 GHz cores, 5..20 W span,
# beta = 2, c0 = 7e8, kappa = 35), worked out by hand once:
#   delta_pb                    = 15 / 4e18        = 3.75e-18
#   fixed BBU term              = dpb * c0 * s     = 5.25 W
#   rate slope                  = dpb * kappa * s  = 2.625e-7 W per bit/s
#   capacity r_M(1)             = (2e9 - 7e8) / 35 = 37142857.14285714
GAIN = LinkBudget().channel_gain


def cores(n: int) -> ComputeParams:
    return ComputeParams(n_cores=n)


def test_delta_pb():
    assert delta_pb(cores(1)) == pytest.approx(3.75e-18, rel=1e-15)


def test_cpu_load_values():
    assert cpu_load(cores(3), 1e8) == pytest.approx(0.7, rel=1e-15)
    assert cpu_load(cores(1), 0.0) == pytest.approx(0.35, rel=1e-15)
    # exactly at the capacity boundary the load is 1 and still allowed
    r_cap = (2e9 - 7e8) / 35.0
    assert cpu_load(cores(1), r_cap) == 1.0


def test_cpu_load_gate():
    r_cap = (2e9 - 7e8) / 35.0
    with pytest.raises(InfeasibleLoadError):
        cpu_load(cores(1), r_cap * 1.01)
    assert cpu_load(cores(1), r_cap * 1.01, check=False) > 1.0


def test_bbu_power_values():
    assert bbu_power(cores(1), 1e7) == pytest.approx(12.875, abs=1e-12)
    assert bbu_power(cores(2), 0.0) == pytest.approx(15.25, abs=1e-12)
    assert bbu_power(cores(1), 4e7, check=False) == pytest.approx(20.75, abs=1e-12)


def test_bbu_composed_equals_expanded():
    # N_c * P_min + dpb * (N_c s rho_c) * s**(beta-1) is the same value
    # computed through the utilization instead of the expanded form.
    rng = np.random.default_rng(29)
    for _ in range(200):
        c = ComputeParams(
            n_cores=int(rng.integers(1, 9)),
            cpu_speed=float(rng.uniform(5e8, 8e9)),
            ref_speed=float(rng.uniform(5e8, 8e9)),
            p_core_max_w=float(rng.uniform(10, 40)),
            p_core_min_w=float(rng.uniform(0, 9)),
            beta=float(rng.uniform(1.0, 3.0)),
            c0=float(rng.uniform(0, 2e9)),
            kappa=float(rng.uniform(1, 100)),
        )
        r = float(rng.uniform(0, 1e8))
        rho_c = cpu_load(c, r, check=False)
        composed = (
            c.n_cores * c.p_core_min_w
            + delta_pb(c) * (c.n_cores * c.cpu_speed * rho_c) * c.cpu_speed ** (c.beta - 1.0)
        )
        assert bbu_power(c, r, check=False) == pytest.approx(composed, rel=1e-12)


def test_rrh_power():
    rp = RadioParams()
    assert rrh_power(rp, 4.2) == pytest.approx(26.404823151125402, rel=1e-12)
    assert rrh_power(rp, 0.0) == pytest.approx(12.9, rel=1e-15)
    with pytest.raises(ValueError):
        rrh_power(rp, -0.1)


def test_static_and_sleep_adjusted_power():
    rp = RadioParams()
    assert static_power(cores(1), rp) == pytest.approx(23.15, abs=1e-12)
    assert static_power(cores(2), rp) == pytest.approx(28.15, abs=1e-12)
    assert sleep_adjusted_power(cores(2), rp, 1.0) == pytest.approx(11.7, abs=1e-12)
    # expensive switching can push it negative
    assert sleep_adjusted_power(cores(1), rp, 3.0) < 0


def test_vbs_busy_power_total():
    p = vbs_busy_power(cores(2), RadioParams(), GAIN, 7.756e7)
    assert p == pytest.approx(61.78955878884187, rel=1e-12)


def test_earth_busy_power():
    e = EarthParams()
    assert earth_busy_power(e, 4.2) == pytest.approx(84.0 + 2.8 * 4.2, rel=1e-15)
    assert earth_busy_power(e, 0.0) == pytest.approx(84.0, rel=1e-15)
    with pytest.raises(ValueError):
        earth_busy_power(e, -1.0)


def test_profiles_wrap_the_same_models():
    c, rp = cores(2), RadioParams()
    prof = vbs_profile(c, rp, GAIN)
    assert prof.busy_power(5e7) == pytest.approx(vbs_busy_power(c, rp, GAIN, 5e7), rel=1e-15)
    assert prof.sleep_power_w == rp.p_sleep_w
    assert prof.switch_energy_j == rp.switch_energy_j
    assert prof.static_power_w == pytest.approx(static_power(c, rp), rel=1e-15)
    assert prof.pa_efficiency == rp.pa_efficiency

    e = EarthParams()
    cbs = earth_profile(e, GAIN, 20e6, 5.0)
    assert cbs.sleep_power_w == 56.0
    assert cbs.static_power_w == 84.0
    assert cbs.pa_efficiency == pytest.approx(1.0 / 2.8, rel=1e-15)


def test_profile_check_load_toggle():
    c, rp = cores(1), RadioParams()
    r_over = 5e7  # above the one-core capacity
    with pytest.raises(InfeasibleLoadError):
        vbs_profile(c, rp, GAIN).busy_power(r_over)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_profile_kernel_equals_composed_models_exactly(n):
    # The simulator goldens hash SimStats bit for bit, so the coefficient
    # kernel must reproduce bbu_power + rrh_power exactly, not to rounding.
    c, rp = cores(n), RadioParams()
    r_cap = (n * 2e9 - 7e8) / 35.0
    rates = np.concatenate([
        np.linspace(0.0, r_cap, 2001),
        np.random.default_rng(n).uniform(0.0, r_cap, 2000),
    ])
    composed = bbu_power(c, rates) + rrh_power(rp, tx_power_for_rate(GAIN, 20e6, rates))
    assert np.array_equal(vbs_profile(c, rp, GAIN).busy_power(rates), composed)
    assert vbs_busy_power(c, rp, GAIN, float(rates[7])) == composed[7]


def test_profiles_survive_pickle():
    for prof in (vbs_profile(cores(2), RadioParams(), GAIN),
                 earth_profile(EarthParams(), GAIN, 20e6, 5.0)):
        back = pickle.loads(pickle.dumps(prof))
        assert back == prof
        assert back.busy_power(5e7) == prof.busy_power(5e7)


def test_array_support():
    rates = np.array([1e7, 2e7, 3e7])
    p = bbu_power(cores(1), rates)
    assert p.shape == rates.shape
    assert np.all(np.diff(p) > 0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        ComputeParams(n_cores=0)
    with pytest.raises(ValueError):
        ComputeParams(beta=0.5)
    with pytest.raises(ValueError):
        ComputeParams(p_core_max_w=5.0, p_core_min_w=5.0)
    with pytest.raises(ValueError):
        ComputeParams(kappa=0.0)
    with pytest.raises(ValueError):
        RadioParams(pa_efficiency=0.0)
    with pytest.raises(ValueError):
        RadioParams(switch_energy_j=-1.0)
    with pytest.raises(ValueError):
        EarthParams(p0_w=50.0, p_sleep_w=56.0)
    with pytest.raises(ValueError):
        EarthParams(n_trx=0)
    nan = math.nan
    for field in ("cpu_speed", "ref_speed", "beta", "c0", "kappa"):
        with pytest.raises(ValueError):
            ComputeParams(**{field: nan})
    for field in ("p_rf_w", "p_sleep_w", "bandwidth_hz", "switch_energy_j"):
        with pytest.raises(ValueError):
            RadioParams(**{field: nan})
    with pytest.raises(ValueError):
        EarthParams(delta_p=nan)
    profile = vbs_profile(cores(1), RadioParams(), GAIN)
    for field in ("sleep_power_w", "switch_energy_j"):
        with pytest.raises(ValueError):
            replace(profile, **{field: nan})
    with pytest.raises(ValueError):
        profile.busy_power(nan)
    # ref_speed**beta or cpu_speed**(beta-1) overflows or underflows.
    for kwargs in ({"beta": 1e300}, {"ref_speed": 1e300}, {"ref_speed": 1e-300},
                   {"cpu_speed": 1e300, "beta": 3.0}, {"cpu_speed": 1e-300, "beta": 3.0}):
        with pytest.raises(ValueError):
            ComputeParams(**kwargs)
    ComputeParams(cpu_speed=1e-300)  # beta = 2 keeps cpu_speed**(beta-1) positive
