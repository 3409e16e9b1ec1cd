"""Radio link budget and the rate/transmit-power mapping.

The link uses a macro-cell urban path loss, a cell-edge user at the cell
radius, and AWGN capacity over the configured bandwidth. The normalized
channel gain g folds path loss, receiver noise figure, and the thermal
noise floor into a single coefficient, so the spectral efficiency at
transmit power p is log2(1 + g * p).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._arrays import holds, is_number, np
from .errors import LinkCapacityError
from .units import db_to_linear, dbm_per_hz_to_w_per_hz

LN2 = math.log(2.0)

# Largest allowed rate/bandwidth ratio in the power inversion. 2**60 is
# already an absurd spectral efficiency; beyond it the exponential would
# only feed overflow into downstream code.
MAX_RATE_EXPONENT = 60.0

_REF_CARRIER_HZ = 2e9


def path_loss_db(distance_m: float, carrier_freq_hz: float = _REF_CARRIER_HZ) -> float:
    """Macro-cell urban path loss in dB.

    At the 2 GHz reference carrier this is 128.1 + 37.6 log10(d_km).
    Other carriers shift the intercept by 20 log10(f / 2 GHz), the
    free-space frequency scaling.
    """
    if not distance_m > 0:
        raise ValueError("distance must be positive")
    if not carrier_freq_hz > 0:
        raise ValueError("carrier frequency must be positive")
    return (128.1 + 37.6 * math.log10(distance_m / 1000.0)
            + 20.0 * math.log10(carrier_freq_hz / _REF_CARRIER_HZ))


@dataclass(frozen=True)
class LinkBudget:
    """Cell-edge link parameters; noise figure and noise density in dB.

    channel_gain is derived once at construction, in 1/W:
    g = 1 / (path_loss * noise_figure * noise_density * bandwidth),
    each factor linear; the dB figures are converted here and only here.
    """

    carrier_freq_hz: float = _REF_CARRIER_HZ
    cell_radius_m: float = 500.0
    noise_figure_db: float = 9.0
    noise_density_dbm_hz: float = -174.0
    bandwidth_hz: float = 20e6
    channel_gain: float = field(init=False)

    def __post_init__(self) -> None:
        try:
            noise_figure = db_to_linear(self.noise_figure_db)
            noise_density = dbm_per_hz_to_w_per_hz(self.noise_density_dbm_hz)
        except OverflowError:
            raise ValueError("noise figure and density must be inside the float range") from None
        if not self.cell_radius_m > 0:
            raise ValueError("cell radius must be positive")
        if not noise_figure >= 1.0:
            raise ValueError("noise figure must be >= 0 dB")
        if not noise_density > 0:
            raise ValueError("noise density must be positive")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth must be positive")
        try:
            loss = db_to_linear(path_loss_db(self.cell_radius_m, self.carrier_freq_hz))
            g = 1.0 / (loss * noise_figure * noise_density * self.bandwidth_hz)
        except (OverflowError, ZeroDivisionError):
            g = 0.0
        if not 0.0 < g < math.inf:
            raise ValueError("link parameters must give a positive finite channel gain")
        object.__setattr__(self, "channel_gain", g)


def shannon_rate(gain: float, bandwidth_hz: float, p_out_w):
    """Achievable rate in bit/s at transmit power p_out_w."""
    if np.any(np.asarray(p_out_w) < 0):
        raise ValueError("transmit power must be nonnegative")
    r = bandwidth_hz * np.log2(1.0 + gain * p_out_w)
    return float(r) if np.ndim(r) == 0 else r


def over_link_cap(rate_bps, bandwidth_hz: float):
    """Whether the link refuses rate_bps, scalar or array: its ratio to
    the bandwidth is above MAX_RATE_EXPONENT."""
    return rate_bps / bandwidth_hz > MAX_RATE_EXPONENT


def tx_power_for_rate(gain: float, bandwidth_hz: float, rate_bps,
                      max_exponent: float = MAX_RATE_EXPONENT):
    """Transmit power needed for rate_bps; exact inverse of shannon_rate.
    Its 2**x is libm's, through float ** on every path (np.exp2's SIMD loops
    round differently), and inf where float ** would raise on overflow.
    Equal rates give equal bits within one libm CPU dispatch: glibc's pow
    with AVX2 and FMA masked differs by 1 ulp on about 6 in 10,000
    exponents in [0, 60)."""
    r = float(rate_bps) if is_number(rate_bps) else np.asarray(rate_bps, dtype=float)
    if not holds(r >= 0):
        raise ValueError("rate must be nonnegative")
    exponent = r / bandwidth_hz
    if not holds(exponent <= max_exponent):
        raise LinkCapacityError.at(max_exponent=max_exponent)
    if is_number(r):
        return ((2.0 ** exponent if exponent < 1024.0 else math.inf) - 1.0) / gain
    p = [2.0 ** x if x < 1024.0 else math.inf for x in exponent.ravel().tolist()]
    return (np.array(p).reshape(exponent.shape) - 1.0) / gain
