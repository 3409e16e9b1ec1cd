"""Path loss, link budget, and the rate/power mapping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbsenergy.config import apply_override, build_settings, default_text
from vbsenergy.radio import (
    LinkBudget,
    path_loss_db,
    shannon_rate,
    tx_power_for_rate,
)
from vbsenergy.units import db_to_linear

# Cell-edge figures at the default link: 0.5 km, 2 GHz, 9 dB noise
# figure, -174 dBm/Hz noise density, 20 MHz. Expected values were
# computed once through the dB chain by hand.
EDGE_LOSS_DB = 116.7812721630343
EDGE_LOSS_LIN = 476570566444.29285
EDGE_GAIN = 3.3177433551574707


def test_path_loss_at_cell_edge():
    assert path_loss_db(500.0) == pytest.approx(EDGE_LOSS_DB, rel=1e-14)
    assert db_to_linear(path_loss_db(500.0)) == pytest.approx(EDGE_LOSS_LIN, rel=1e-12)


def test_path_loss_distance_slope():
    # 37.6 dB per decade of distance
    assert path_loss_db(5000.0) - path_loss_db(500.0) == pytest.approx(37.6, abs=1e-9)


def test_carrier_shift():
    # doubling the carrier adds 20 log10(2) dB
    shift = path_loss_db(500.0, 4e9) - path_loss_db(500.0)
    assert shift == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        path_loss_db(500.0, 0.0)


def test_link_budget_validation():
    for field in ("carrier_freq_hz", "cell_radius_m", "noise_figure_db",
                  "noise_density_dbm_hz", "bandwidth_hz"):
        with pytest.raises(ValueError):
            LinkBudget(**{field: math.nan})
    # The path loss, and so the gain, leaves the float range.
    for kwargs in ({"carrier_freq_hz": 1e300}, {"carrier_freq_hz": 1e-300},
                   {"cell_radius_m": 1e300}, {"cell_radius_m": 1e-300}):
        with pytest.raises(ValueError):
            LinkBudget(**kwargs)
    for kwargs in ({"noise_figure_db": 1e300}, {"noise_density_dbm_hz": 1e300}):
        with pytest.raises(ValueError):
            LinkBudget(**kwargs)


def test_default_link_gain():
    link = LinkBudget()
    assert link.channel_gain == pytest.approx(EDGE_GAIN, rel=1e-12)
    # building from dB figures is the same budget
    via_db = LinkBudget(noise_figure_db=9.0, noise_density_dbm_hz=-174.0)
    assert via_db.channel_gain == link.channel_gain


def test_gain_chain_consistency():
    # gain = 1 / (L * F * N0 * W), recomputed from raw dB figures
    loss = 10.0 ** (path_loss_db(500.0) / 10.0)
    nf = 10.0 ** 0.9
    n0 = 10.0 ** ((-174.0 - 30.0) / 10.0)
    expect = 1.0 / (loss * nf * n0 * 20e6)
    assert LinkBudget().channel_gain == pytest.approx(expect, rel=1e-12)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(radius=st.floats(10.0, 5e4), carrier=st.floats(1e8, 1e11),
       nf_db=st.floats(0.0, 30.0), n0_dbm_hz=st.floats(-200.0, -100.0),
       bandwidth=st.floats(1e3, 1e9))
def test_every_link_gain_follows_the_db_chain(radius, carrier, nf_db, n0_dbm_hz, bandwidth):
    link = LinkBudget(carrier_freq_hz=carrier, cell_radius_m=radius, noise_figure_db=nf_db,
                      noise_density_dbm_hz=n0_dbm_hz, bandwidth_hz=bandwidth)
    loss_db = 128.1 + 37.6 * math.log10(radius / 1000.0) + 20.0 * math.log10(carrier / 2e9)
    expect = 1.0 / (10.0 ** (loss_db / 10.0) * 10.0 ** (nf_db / 10.0)
                    * 10.0 ** ((n0_dbm_hz - 30.0) / 10.0) * bandwidth)
    assert link.channel_gain == pytest.approx(expect, rel=1e-12)
    # The same figures as [link] settings build the same budget.
    text = default_text()
    for key, value in (("carrier_frequency", f"{carrier!r} Hz"),
                       ("cell_radius", f"{radius!r} m"),
                       ("noise_figure", f"{nf_db!r} dB"),
                       ("noise_density", f"{n0_dbm_hz!r} dBm/Hz"),
                       ("bandwidth", f"{bandwidth!r} Hz")):
        apply_override(text, "link", key, value)
    configured = build_settings(text).scenario.link
    assert configured.channel_gain.hex() == link.channel_gain.hex()


def test_shannon_rate_value():
    g, w = EDGE_GAIN, 20e6
    assert shannon_rate(g, w, 4.2) == pytest.approx(w * math.log2(1.0 + g * 4.2), rel=1e-15)
    assert shannon_rate(g, w, 0.0) == 0.0


def test_rate_power_round_trip():
    g, w = EDGE_GAIN, 20e6
    rng = np.random.default_rng(13)
    for r in 10.0 ** rng.uniform(4, 8.5, 300):
        p = tx_power_for_rate(g, w, r)
        assert shannon_rate(g, w, p) == pytest.approx(r, rel=1e-12)
    for p in 10.0 ** rng.uniform(-3, 3, 300):
        r = shannon_rate(g, w, p)
        assert tx_power_for_rate(g, w, r) == pytest.approx(p, rel=1e-12)


def test_tx_power_guards():
    g, w = EDGE_GAIN, 20e6
    assert tx_power_for_rate(g, w, 0.0) == 0.0
    for rate in (-1.0, math.nan):
        with pytest.raises(ValueError):
            tx_power_for_rate(g, w, rate)
    # spectral efficiency above 60 bit/s/Hz would overflow in float space
    with pytest.raises(ValueError):
        tx_power_for_rate(g, w, 61.0 * w)
    tx_power_for_rate(g, w, 59.9 * w)  # just under the guard is fine


def test_array_broadcasting():
    g, w = EDGE_GAIN, 20e6
    rates = np.array([1e6, 1e7, 5e7])
    p = tx_power_for_rate(g, w, rates)
    assert p.shape == rates.shape
    np.testing.assert_allclose(shannon_rate(g, w, p), rates, rtol=1e-12)
