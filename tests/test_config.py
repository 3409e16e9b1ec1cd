"""Configuration loading, overrides, and validation."""
import pytest

from vbsenergy.config import (
    _REGISTRY,
    apply_override,
    build_settings,
    default_text,
    read_config,
    render_config,
)
from vbsenergy.errors import ConfigError
from vbsenergy.optimize import Scenario
from vbsenergy.power import EarthParams


def test_defaults_build_the_reference_station():
    s = build_settings(default_text())
    assert s.scenario.compute.n_cores == 1
    assert s.scenario.compute.cpu_speed == 2e9
    assert s.scenario.compute.p_core_max_w == 20.0
    assert s.scenario.compute.c0 == 7e8
    assert s.scenario.compute.kappa == 35.0
    assert s.scenario.radio.pa_efficiency == pytest.approx(0.311, rel=1e-15)
    assert s.scenario.radio.p_sleep_w == 6.45
    assert s.scenario.radio.switch_energy_j == 5.0
    assert s.scenario.radio.bandwidth_hz == 20e6
    assert s.scenario.link.bandwidth_hz == 20e6
    assert s.scenario.link.channel_gain == pytest.approx(3.3177433551574707, rel=1e-12)
    assert s.scenario.traffic.arrival_rate == 1.0
    assert s.scenario.traffic.file_size_bits == 1.6e7
    assert s.earth is not None and s.earth.p0_w == 84.0
    assert s.earth_switch_energy_j == 5.0  # inherits the radio value
    assert s.scenario.alpha == 0.0
    assert s.n_cores_max == 8
    assert s.size_distribution == "exponential"


def test_every_key_sets_its_own_field():
    # The defaults are the library's reference station, so a key mapped
    # to the wrong field shows up as an unequal object.
    s = build_settings(default_text())
    assert s.scenario == Scenario()
    assert s.earth == EarthParams()
    keys = {(section, key) for section, items in default_text().items() for key in items}
    assert set(_REGISTRY) == keys | {k for k, row in _REGISTRY.items() if row[2] is None}


def test_config_file_merging(tmp_path):
    path = tmp_path / "station.ini"
    path.write_text("[traffic]\narrival_rate = 0.5 /s\n\n[earth]\nswitch_energy = 2 J\n")
    s = build_settings(read_config(str(path)))
    assert s.scenario.traffic.arrival_rate == 0.5
    assert s.earth_switch_energy_j == 2.0
    assert s.scenario.radio.switch_energy_j == 5.0  # unchanged


def test_env_var_config(tmp_path, monkeypatch):
    path = tmp_path / "env.ini"
    path.write_text("[compute]\nn_cores = 3\n")
    monkeypatch.setenv("VBSENERGY_CONFIG", str(path))
    s = build_settings(read_config())
    assert s.scenario.compute.n_cores == 3
    monkeypatch.delenv("VBSENERGY_CONFIG")
    assert build_settings(read_config()).scenario.compute.n_cores == 1


def test_unknown_sections_and_keys(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[turbo]\nboost = 1\n")
    with pytest.raises(ConfigError):
        read_config(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[compute]\nhyperthreads = 2\n")
    with pytest.raises(ConfigError):
        read_config(str(bad_key))
    with pytest.raises(ConfigError):
        read_config(str(tmp_path / "missing.ini"))


def test_value_validation():
    text = default_text()
    apply_override(text, "compute", "n_cores", "1.5")
    with pytest.raises(ConfigError):
        build_settings(text)

    text = default_text()
    apply_override(text, "link", "noise_figure", "9")  # dB suffix required
    with pytest.raises(ConfigError):
        build_settings(text)

    text = default_text()
    apply_override(text, "run", "alpha", "-2")
    with pytest.raises(ConfigError):
        build_settings(text)

    text = default_text()
    apply_override(text, "run", "size_distribution", "zipf")
    with pytest.raises(ConfigError):
        build_settings(text)

    text = default_text()
    apply_override(text, "earth", "enabled", "maybe")
    with pytest.raises(ConfigError):
        build_settings(text)

    text = default_text()
    apply_override(text, "run", "seed", "-1")
    with pytest.raises(ConfigError):
        build_settings(text)

    with pytest.raises(ConfigError):
        apply_override(default_text(), "compute", "warp", "9")

    with pytest.raises(ConfigError, match="missing setting compute.n_cores"):
        build_settings({"compute": {}})


def test_integers_are_refused_from_2_to_the_53():
    # Below 2**53 a float holds every integer, so the text is kept exactly.
    text = default_text()
    apply_override(text, "run", "seed", "9007199254740991")
    assert build_settings(text).seed == 2**53 - 1
    for value in ("9007199254740992", "12345678901234567891", "1e300", "-1e300"):
        text = default_text()
        apply_override(text, "run", "seed", value)
        with pytest.raises(ConfigError, match=r"\[run\] seed"):
            build_settings(text)


def test_bad_parameter_combination_reports_config_error():
    text = default_text()
    apply_override(text, "compute", "p_core_min", "25 W")  # above the max
    with pytest.raises(ConfigError):
        build_settings(text)


def test_earth_disabled():
    text = default_text()
    apply_override(text, "earth", "enabled", "false")
    s = build_settings(text)
    assert s.earth is None


def test_render_round_trips_verbatim():
    text = default_text()
    apply_override(text, "traffic", "arrival_rate", "1.5 /s")
    rendered = render_config(text)
    assert "[traffic]" in rendered
    assert "arrival_rate = 1.5 /s" in rendered
    assert "cpu_speed = 2 GHz" in rendered
    # the rendered text parses back to the same settings
    from vbsenergy.config import _parse_ini

    again = build_settings(_parse_ini(rendered, "<rendered>"))
    assert again.scenario.traffic.arrival_rate == 1.5


def test_overrides_through_loader(tmp_path):
    text = read_config(None)
    apply_override(text, "run", "alpha", "10")
    apply_override(text, "traffic", "file_size", "4 MB")
    s = build_settings(text)
    assert s.scenario.alpha == 10.0
    assert s.scenario.traffic.file_size_bits == 3.2e7
