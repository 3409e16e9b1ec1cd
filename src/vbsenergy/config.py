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
from typing import Iterable

from .errors import ConfigError
from .optimize import Scenario
from .power import ComputeParams, EarthParams, RadioParams
from .queueing import TrafficParams
from .radio import LinkBudget
from .simulate import SIZE_DISTRIBUTIONS
from .units import parse_quantity

ENV_CONFIG = "VBSENERGY_CONFIG"

DEFAULT_CONFIG = """\
# Virtual base station model settings. Units may be written with
# suffixes (GHz, W, J, km, MB, dB, %); bare numbers are SI base units
# (Hz, W, J, m, s, bits). File sizes are decimal: 1 MB = 8e6 bits.

[compute]
n_cores = 1
cpu_speed = 2 GHz
ref_speed = 2 GHz
p_core_max = 20 W
p_core_min = 5 W
beta = 2
c0 = 7e8
kappa = 35

[radio]
pa_efficiency = 31.1 %
rf_power = 12.9 W
sleep_power = 6.45 W
switch_energy = 5 J

[link]
carrier_frequency = 2 GHz
cell_radius = 0.5 km
noise_figure = 9 dB
noise_density = -174 dBm/Hz
bandwidth = 20 MHz

[traffic]
arrival_rate = 1 /s
file_size = 2 MB

[earth]
enabled = true
n_trx = 1
p0 = 84 W
delta_p = 2.8
sleep_power = 56 W

[run]
alpha = 0
n_cores_max = 8
seed = 12345
arrivals = 100000
warmup_fraction = 0.1
size_distribution = exponential
"""

# (section, key) -> parse kind. "int", "bool", and "choice" are handled
# locally; everything else goes through parse_quantity.
_REGISTRY: dict[tuple[str, str], str] = {
    ("compute", "n_cores"): "int",
    ("compute", "cpu_speed"): "frequency",
    ("compute", "ref_speed"): "frequency",
    ("compute", "p_core_max"): "power",
    ("compute", "p_core_min"): "power",
    ("compute", "beta"): "dimensionless",
    ("compute", "c0"): "dimensionless",
    ("compute", "kappa"): "dimensionless",
    ("radio", "pa_efficiency"): "fraction",
    ("radio", "rf_power"): "power",
    ("radio", "sleep_power"): "power",
    ("radio", "switch_energy"): "energy",
    ("link", "carrier_frequency"): "frequency",
    ("link", "cell_radius"): "distance",
    ("link", "noise_figure"): "db",
    ("link", "noise_density"): "dbm_per_hz",
    ("link", "bandwidth"): "frequency",
    ("traffic", "arrival_rate"): "arrival",
    ("traffic", "file_size"): "datasize",
    ("earth", "enabled"): "bool",
    ("earth", "n_trx"): "int",
    ("earth", "p0"): "power",
    ("earth", "delta_p"): "dimensionless",
    ("earth", "sleep_power"): "power",
    ("earth", "switch_energy"): "energy",
    ("run", "alpha"): "dimensionless",
    ("run", "n_cores_max"): "int",
    ("run", "seed"): "int",
    ("run", "arrivals"): "int",
    ("run", "warmup_fraction"): "fraction",
    ("run", "size_distribution"): "choice",
}

# Keys that may be absent; earth.switch_energy falls back to the radio
# switch energy so both baselines pay the same wake cost by default.
_OPTIONAL = {("earth", "switch_energy")}

_BOOL_WORDS = {
    "true": True, "yes": True, "1": True, "on": True,
    "false": False, "no": False, "0": False, "off": False,
}

ConfigText = dict[str, dict[str, str]]


@dataclass(frozen=True)
class Settings:
    """Parsed configuration: raw text plus built parameter objects."""

    text: ConfigText
    compute: ComputeParams
    radio: RadioParams
    link: LinkBudget
    traffic: TrafficParams
    earth: EarthParams | None
    earth_switch_energy_j: float
    alpha: float
    n_cores_max: int
    seed: int
    arrivals: int
    warmup_fraction: float
    size_distribution: str

    @property
    def scenario(self) -> Scenario:
        return Scenario(
            compute=self.compute,
            radio=self.radio,
            link=self.link,
            traffic=self.traffic,
            alpha=self.alpha,
        )


def _parse_ini(content: str, origin: str) -> ConfigText:
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        cp.read_string(content, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    out: ConfigText = {}
    for section in cp.sections():
        out[section] = dict(cp.items(section))
    return out


def default_text() -> ConfigText:
    return _parse_ini(DEFAULT_CONFIG, "<defaults>")


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


def _get(text: ConfigText, section: str, key: str) -> str | None:
    value = text.get(section, {}).get(key)
    if value is None and (section, key) not in _OPTIONAL:
        raise ConfigError(f"missing setting {section}.{key}")
    return value


def _quantity(text: ConfigText, section: str, key: str) -> float:
    kind = _REGISTRY[(section, key)]
    return parse_quantity(_get(text, section, key), kind, where=f"[{section}] {key}")


def _integer(text: ConfigText, section: str, key: str) -> int:
    raw = _get(text, section, key)
    value = parse_quantity(raw, "count", where=f"[{section}] {key}")
    if value != int(value):
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}")
    return int(value)


def _boolean(text: ConfigText, section: str, key: str) -> bool:
    raw = _get(text, section, key).strip().lower()
    if raw not in _BOOL_WORDS:
        raise ConfigError(f"[{section}] {key}: expected true/false, got {raw!r}")
    return _BOOL_WORDS[raw]


def build_settings(text: ConfigText) -> Settings:
    """Parse and assemble the text map into parameter objects."""
    try:
        compute = ComputeParams(
            n_cores=_integer(text, "compute", "n_cores"),
            cpu_speed=_quantity(text, "compute", "cpu_speed"),
            ref_speed=_quantity(text, "compute", "ref_speed"),
            p_core_max_w=_quantity(text, "compute", "p_core_max"),
            p_core_min_w=_quantity(text, "compute", "p_core_min"),
            beta=_quantity(text, "compute", "beta"),
            c0=_quantity(text, "compute", "c0"),
            kappa=_quantity(text, "compute", "kappa"),
        )
        link = LinkBudget.from_db(
            carrier_freq_hz=_quantity(text, "link", "carrier_frequency"),
            cell_radius_m=_quantity(text, "link", "cell_radius"),
            noise_figure_db=_quantity(text, "link", "noise_figure"),
            noise_density_dbm_hz=_quantity(text, "link", "noise_density"),
            bandwidth_hz=_quantity(text, "link", "bandwidth"),
        )
        # The radio front end shares the link bandwidth by construction.
        radio = RadioParams(
            pa_efficiency=_quantity(text, "radio", "pa_efficiency"),
            p_rf_w=_quantity(text, "radio", "rf_power"),
            p_sleep_w=_quantity(text, "radio", "sleep_power"),
            bandwidth_hz=link.bandwidth_hz,
            switch_energy_j=_quantity(text, "radio", "switch_energy"),
        )
        traffic = TrafficParams(
            arrival_rate=_quantity(text, "traffic", "arrival_rate"),
            file_size_bits=_quantity(text, "traffic", "file_size"),
        )
        earth: EarthParams | None = None
        if _boolean(text, "earth", "enabled"):
            earth = EarthParams(
                n_trx=_integer(text, "earth", "n_trx"),
                p0_w=_quantity(text, "earth", "p0"),
                delta_p=_quantity(text, "earth", "delta_p"),
                p_sleep_w=_quantity(text, "earth", "sleep_power"),
            )
        if text.get("earth", {}).get("switch_energy") is not None:
            earth_switch = _quantity(text, "earth", "switch_energy")
        else:
            earth_switch = radio.switch_energy_j

        alpha = _quantity(text, "run", "alpha")
        if alpha < 0:
            raise ConfigError("[run] alpha: must be nonnegative")
        size_dist = _get(text, "run", "size_distribution").strip()
        if size_dist not in SIZE_DISTRIBUTIONS:
            raise ConfigError(
                f"[run] size_distribution: {size_dist!r} not in {SIZE_DISTRIBUTIONS}"
            )
        settings = Settings(
            text=text,
            compute=compute,
            radio=radio,
            link=link,
            traffic=traffic,
            earth=earth,
            earth_switch_energy_j=earth_switch,
            alpha=alpha,
            n_cores_max=_integer(text, "run", "n_cores_max"),
            seed=_integer(text, "run", "seed"),
            arrivals=_integer(text, "run", "arrivals"),
            warmup_fraction=_quantity(text, "run", "warmup_fraction"),
            size_distribution=size_dist,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if settings.n_cores_max < 1:
        raise ConfigError("[run] n_cores_max: must be at least 1")
    if settings.seed < 0:
        raise ConfigError("[run] seed: must be nonnegative")
    return settings


def load_settings(path: str | None = None,
                  overrides: Iterable[tuple[str, str, str]] = ()) -> Settings:
    """One-call loader: defaults, optional file, then overrides."""
    text = read_config(path)
    for section, key, value in overrides:
        apply_override(text, section, key, value)
    return build_settings(text)
