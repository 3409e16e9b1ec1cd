"""Unit conversions and quantity parsing.

Internally everything is SI: watts, joules, hertz, meters, seconds, and
bits. File sizes use decimal megabytes, so 1 MB = 8e6 bits. Decibel
figures are parsed and kept as given, in dB, and converted to linear
exactly once, when a LinkBudget is built.
"""
from __future__ import annotations

import math
import re

from .errors import ConfigError

BITS_PER_BYTE = 8.0
BITS_PER_MB = 8e6

# A count is an integer below this in magnitude: from 2**53 on a float
# no longer holds every integer, so the parsed value may differ from
# the text.
COUNT_LIMIT = 2.0 ** 53


def db_to_linear(value_db: float) -> float:
    """Convert a dB ratio to a linear ratio."""
    return 10.0 ** (value_db / 10.0)


def dbm_per_hz_to_w_per_hz(value_dbm_hz: float) -> float:
    """Convert a spectral density from dBm/Hz to W/Hz."""
    return 10.0 ** ((value_dbm_hz - 30.0) / 10.0)


# Unit tables per quantity kind. Values are multipliers to the SI base
# unit; an empty suffix means the bare number is already in base units.
_UNIT_TABLES: dict[str, dict[str, float]] = {
    "frequency": {"": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "power": {"": 1.0, "W": 1.0, "mW": 1e-3, "kW": 1e3},
    "energy": {"": 1.0, "J": 1.0, "mJ": 1e-3, "kJ": 1e3},
    "datasize": {
        "": 1.0,
        "bit": 1.0,
        "bits": 1.0,
        "kbit": 1e3,
        "Mbit": 1e6,
        "Gbit": 1e9,
        "B": BITS_PER_BYTE,
        "kB": 8e3,
        "MB": BITS_PER_MB,
        "GB": 8e9,
    },
    "distance": {"": 1.0, "m": 1.0, "km": 1e3},
    "arrival": {"": 1.0, "/s": 1.0, "per_s": 1.0},
    "bitrate": {"": 1.0, "bps": 1.0, "bit/s": 1.0, "kbps": 1e3, "Mbps": 1e6, "Gbps": 1e9},
    "dimensionless": {"": 1.0},
    "count": {"": 1.0},
}

# Kinds that stay in dB on parse; conversion happens downstream.
_DB_KINDS = {"db": "dB", "dbm_per_hz": "dBm/Hz"}

_NUMBER_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")


def parse_quantity(text: str, kind: str, where: str = "value") -> float:
    """Parse a number with an optional unit suffix into base units.

    ``kind`` selects the accepted unit family. dB-valued kinds require
    the explicit suffix (a bare number would be ambiguous) and return
    the dB figure unchanged. ``fraction`` accepts a percentage or a
    bare value in [0, 1]. ``count`` gives an int of magnitude below
    2**53. A result that is not finite is refused.
    """
    m = _NUMBER_RE.match(text)
    if not m:
        raise ConfigError(f"{where}: cannot parse quantity {text!r}")
    value = float(m.group(1))
    suffix = m.group(2)

    if kind in _DB_KINDS:
        if suffix != _DB_KINDS[kind]:
            raise ConfigError(
                f"{where}: expected a value with unit {_DB_KINDS[kind]!r}, got {text!r}"
            )
    elif kind == "fraction":
        if suffix == "%":
            value /= 100.0
        elif suffix != "":
            raise ConfigError(f"{where}: unknown unit {suffix!r} for a fraction")
        elif not 0.0 <= value <= 1.0:
            raise ConfigError(
                f"{where}: bare fraction must lie in [0, 1]; use a % suffix for percentages"
            )
    else:
        table = _UNIT_TABLES.get(kind)
        if table is None:
            raise ConfigError(f"{where}: unknown quantity kind {kind!r}")
        if suffix not in table:
            allowed = ", ".join(repr(u) for u in table if u) or "none"
            raise ConfigError(
                f"{where}: unit {suffix!r} not valid here (allowed: {allowed})"
            )
        value *= table[suffix]
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not a finite quantity")
    if kind == "count":
        if value != int(value):
            raise ConfigError(f"{where}: expected an integer, got {text!r}")
        if abs(value) >= COUNT_LIMIT:
            raise ConfigError(f"{where}: integer magnitude must be below 2**53, got {text!r}")
        return int(value)
    return value
