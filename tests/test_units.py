"""Quantity parsing and dB conversions."""
import math

import pytest

from vbsenergy.errors import ConfigError
from vbsenergy.units import (
    BITS_PER_MB,
    db_to_linear,
    dbm_per_hz_to_w_per_hz,
    parse_quantity,
)


def test_megabyte_is_decimal():
    assert BITS_PER_MB == 8e6
    assert parse_quantity("2 MB", "datasize") == 1.6e7


@pytest.mark.parametrize(
    "text,kind,expected",
    [
        ("20 MHz", "frequency", 2e7),
        ("2 GHz", "frequency", 2e9),
        ("2e9", "frequency", 2e9),
        ("12.9 W", "power", 12.9),
        ("500 mW", "power", 0.5),
        ("5 J", "energy", 5.0),
        ("0.5 km", "distance", 500.0),
        ("1.5 /s", "arrival", 1.5),
        ("50 Mbps", "bitrate", 5e7),
        ("16000 kbit", "datasize", 1.6e7),
        ("35", "dimensionless", 35.0),
    ],
)
def test_unit_suffixes(text, kind, expected):
    assert parse_quantity(text, kind) == pytest.approx(expected, rel=1e-15)


def test_db_kinds_require_suffix():
    assert parse_quantity("9 dB", "db") == 9.0
    assert parse_quantity("-174 dBm/Hz", "dbm_per_hz") == -174.0
    with pytest.raises(ConfigError):
        parse_quantity("9", "db")
    with pytest.raises(ConfigError):
        parse_quantity("-174", "dbm_per_hz")


def test_fractions():
    assert parse_quantity("31.1 %", "fraction") == pytest.approx(0.311, rel=1e-15)
    assert parse_quantity("0.25", "fraction") == 0.25
    with pytest.raises(ConfigError):
        parse_quantity("1.5", "fraction")  # bare value above 1
    with pytest.raises(ConfigError):
        parse_quantity("10 furlongs", "fraction")


def test_bad_quantities():
    with pytest.raises(ConfigError):
        parse_quantity("fast", "frequency")
    with pytest.raises(ConfigError):
        parse_quantity("20 parsec", "distance")
    with pytest.raises(ConfigError):
        parse_quantity("1", "no-such-kind")


@pytest.mark.parametrize("text,kind", [
    ("1e400", "dimensionless"),
    ("-1e400 W", "power"),
    ("1e300 GHz", "frequency"),  # finite until the unit scales it
    ("1e400 dB", "db"),
    ("1e400 %", "fraction"),
])
def test_non_finite_quantities_are_rejected(text, kind):
    with pytest.raises(ConfigError):
        parse_quantity(text, kind)


def test_db_conversions():
    assert db_to_linear(9.0) == pytest.approx(10.0 ** 0.9, rel=1e-15)
    # -174 dBm/Hz is the canonical thermal noise floor
    assert dbm_per_hz_to_w_per_hz(-174.0) == pytest.approx(10.0 ** (-20.4), rel=1e-15)
    assert math.isclose(dbm_per_hz_to_w_per_hz(-30.0), 1e-6, rel_tol=1e-15)
