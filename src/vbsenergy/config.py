"""INI configuration for station, link, traffic, and run settings.

Values carry optional unit suffixes (``2 GHz``, ``5 J``, ``-174 dBm/Hz``,
``31.1 %``); bare numbers are SI base units. The raw text of every
setting is kept alongside the built parameter objects so the effective
configuration can be printed back verbatim.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .errors import ConfigError
from .optimize import Scenario
from .power import ComputeParams, EarthParams, RadioParams
from .queueing import TrafficParams
from .radio import LinkBudget
from .simulate import SIZE_DISTRIBUTIONS
from .units import parse_quantity

ENV_CONFIG = "VBSENERGY_CONFIG"

# (section, key) -> (parse kind, field it sets, default text). This
# table is the only declaration of a setting: default_text() lists the
# defaults in table order, and a key whose default is None may be absent.
# Units may be written with suffixes (GHz, W, J, km, MB, dB, %); bare
# numbers are SI base units (Hz, W, J, m, s, bits), and file sizes are
# decimal: 1 MB = 8e6 bits. "int", "bool" and "choice" are handled
# locally; every other kind goes through parse_quantity. A section's
# fields are keyword arguments of the object it builds; [run] alpha is a
# Scenario field and the other [run] fields are Settings fields.
# earth.enabled and earth.switch_energy set no field, so build_settings
# reads them by name; an absent earth.switch_energy falls back to the
# radio switch energy so both baselines pay the same wake cost.
_REGISTRY: dict[tuple[str, str], tuple[str, str | None, str | None]] = {
    ("compute", "n_cores"): ("int", "n_cores", "1"),
    ("compute", "cpu_speed"): ("frequency", "cpu_speed", "2 GHz"),
    ("compute", "ref_speed"): ("frequency", "ref_speed", "2 GHz"),
    ("compute", "p_core_max"): ("power", "p_core_max_w", "20 W"),
    ("compute", "p_core_min"): ("power", "p_core_min_w", "5 W"),
    ("compute", "beta"): ("dimensionless", "beta", "2"),
    ("compute", "c0"): ("dimensionless", "c0", "7e8"),
    ("compute", "kappa"): ("dimensionless", "kappa", "35"),
    ("radio", "pa_efficiency"): ("fraction", "pa_efficiency", "31.1 %"),
    ("radio", "rf_power"): ("power", "p_rf_w", "12.9 W"),
    ("radio", "sleep_power"): ("power", "p_sleep_w", "6.45 W"),
    ("radio", "switch_energy"): ("energy", "switch_energy_j", "5 J"),
    ("link", "carrier_frequency"): ("frequency", "carrier_freq_hz", "2 GHz"),
    ("link", "cell_radius"): ("distance", "cell_radius_m", "0.5 km"),
    ("link", "noise_figure"): ("db", "noise_figure_db", "9 dB"),
    ("link", "noise_density"): ("dbm_per_hz", "noise_density_dbm_hz", "-174 dBm/Hz"),
    ("link", "bandwidth"): ("frequency", "bandwidth_hz", "20 MHz"),
    ("traffic", "arrival_rate"): ("arrival", "arrival_rate", "1 /s"),
    ("traffic", "file_size"): ("datasize", "file_size_bits", "2 MB"),
    ("earth", "enabled"): ("bool", None, "true"),
    ("earth", "n_trx"): ("int", "n_trx", "1"),
    ("earth", "p0"): ("power", "p0_w", "84 W"),
    ("earth", "delta_p"): ("dimensionless", "delta_p", "2.8"),
    ("earth", "sleep_power"): ("power", "p_sleep_w", "56 W"),
    ("earth", "switch_energy"): ("energy", None, None),
    ("run", "alpha"): ("dimensionless", "alpha", "0"),
    ("run", "n_cores_max"): ("int", "n_cores_max", "8"),
    ("run", "seed"): ("int", "seed", "12345"),
    ("run", "arrivals"): ("int", "arrivals", "100000"),
    ("run", "warmup_fraction"): ("fraction", "warmup_fraction", "0.1"),
    ("run", "size_distribution"): ("choice", "size_distribution", "exponential"),
}

_BOOL_WORDS = {
    "true": True, "yes": True, "1": True, "on": True,
    "false": False, "no": False, "0": False, "off": False,
}

ConfigText = dict[str, dict[str, str]]


@dataclass(frozen=True)
class Settings:
    """Parsed configuration: raw text plus built parameter objects."""

    text: ConfigText
    scenario: Scenario
    earth: EarthParams | None
    earth_switch_energy_j: float
    n_cores_max: int
    seed: int
    arrivals: int
    warmup_fraction: float
    size_distribution: str


def _parse_ini(content: str, origin: str) -> ConfigText:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        cp.read_string(content, source=origin)
    except configparser.Error as exc:
        # Each message names the file and line, but spreads them over
        # several lines; an error is one line.
        raise ConfigError(" ".join(str(exc).split())) from exc
    out: ConfigText = {}
    for section in cp.sections():
        out[section] = dict(cp.items(section))
    return out


def default_text() -> ConfigText:
    """The registry's defaults, sections and keys in table order."""
    text: ConfigText = {}
    for (section, key), (_, _, default) in _REGISTRY.items():
        items = text.setdefault(section, {})
        if default is not None:
            items[key] = default
    return text


def read_config(path: str | None = None) -> ConfigText:
    """Defaults merged with an optional INI file.

    When ``path`` is None the environment variable VBSENERGY_CONFIG is
    consulted; unknown sections or keys are rejected.
    """
    text = default_text()
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return text
    try:
        with open(path) as fh:
            content = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    loaded = _parse_ini(content, path)
    for section, items in loaded.items():
        if section not in text:
            allowed = ", ".join(sorted(text))
            raise ConfigError(
                f"{path}: unknown section [{section}] (sections: {allowed})"
            )
        for key, value in items.items():
            if (section, key) not in _REGISTRY:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            text[section][key] = value
    return text


def apply_override(text: ConfigText, section: str, key: str, value: str) -> None:
    if (section, key) not in _REGISTRY:
        raise ConfigError(f"unknown setting {section}.{key}")
    text.setdefault(section, {})[key] = value


def render_config(text: ConfigText) -> str:
    """Current settings as INI text, values verbatim."""
    blocks = []
    for section, items in text.items():
        lines = [f"[{section}]"]
        lines += [f"{key} = {value}" for key, value in items.items()]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _value(text: ConfigText, section: str, key: str):
    """One setting parsed by its kind; None for an absent optional key."""
    raw = text.get(section, {}).get(key)
    kind, _, default = _REGISTRY[(section, key)]
    if raw is None:
        if default is None:
            return None
        raise ConfigError(f"missing setting {section}.{key}")
    where = f"[{section}] {key}"
    if kind == "bool":
        word = raw.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{where}: expected true/false, got {word!r}")
        return _BOOL_WORDS[word]
    if kind == "choice":
        choice = raw.strip()
        if choice not in SIZE_DISTRIBUTIONS:
            raise ConfigError(f"{where}: {choice!r} not in {SIZE_DISTRIBUTIONS}")
        return choice
    if kind == "int":
        value = parse_quantity(raw, "count", where=where)
        if value != int(value):
            raise ConfigError(f"{where}: expected an integer, got {raw!r}")
        # From 2**53 on a float no longer holds every integer, so the
        # parsed value may differ from the text.
        if abs(value) >= 2.0 ** 53:
            raise ConfigError(f"{where}: integer magnitude must be below 2**53, got {raw!r}")
        return int(value)
    return parse_quantity(raw, kind, where=where)


def _fields(text: ConfigText, section: str) -> dict:
    """The section's settings as keyword arguments, in table order."""
    return {field: _value(text, sec, key)
            for (sec, key), (_, field, _) in _REGISTRY.items()
            if sec == section and field is not None}


def build_settings(text: ConfigText) -> Settings:
    """Parse and assemble the text map into parameter objects."""
    try:
        compute = ComputeParams(**_fields(text, "compute"))
        link = LinkBudget.from_db(**_fields(text, "link"))
        # The radio front end shares the link bandwidth by construction.
        radio = RadioParams(**_fields(text, "radio"), bandwidth_hz=link.bandwidth_hz)
        traffic = TrafficParams(**_fields(text, "traffic"))
        earth = (EarthParams(**_fields(text, "earth"))
                 if _value(text, "earth", "enabled") else None)
        earth_switch = _value(text, "earth", "switch_energy")
        if earth_switch is None:
            earth_switch = radio.switch_energy_j
        run = _fields(text, "run")
        alpha = run.pop("alpha")
        if alpha < 0:
            raise ConfigError("[run] alpha: must be nonnegative")
        settings = Settings(
            text=text,
            scenario=Scenario(compute, radio, link, traffic, alpha),
            earth=earth,
            earth_switch_energy_j=earth_switch,
            **run,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if settings.n_cores_max < 1:
        raise ConfigError("[run] n_cores_max: must be at least 1")
    if settings.seed < 0:
        raise ConfigError("[run] seed: must be nonnegative")
    return settings
