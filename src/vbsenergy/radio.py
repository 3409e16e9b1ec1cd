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

import numpy as np

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
    loss = 128.1 + 37.6 * math.log10(distance_m / 1000.0)
    if carrier_freq_hz != _REF_CARRIER_HZ:
        loss += 20.0 * math.log10(carrier_freq_hz / _REF_CARRIER_HZ)
    return loss


def path_loss_linear(distance_m: float, carrier_freq_hz: float = _REF_CARRIER_HZ) -> float:
    """Linear path loss factor (always > 1 at macro distances)."""
    return db_to_linear(path_loss_db(distance_m, carrier_freq_hz))


@dataclass(frozen=True)
class LinkBudget:
    """Cell-edge link parameters, stored linear.

    channel_gain is derived once at construction:
    g = 1 / (path_loss * noise_figure * noise_density * bandwidth),
    in 1/W.
    """

    carrier_freq_hz: float = _REF_CARRIER_HZ
    cell_radius_m: float = 500.0
    noise_figure: float = db_to_linear(9.0)
    noise_density_w_per_hz: float = dbm_per_hz_to_w_per_hz(-174.0)
    bandwidth_hz: float = 20e6
    channel_gain: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.cell_radius_m > 0:
            raise ValueError("cell radius must be positive")
        if not self.noise_figure >= 1.0:
            raise ValueError("linear noise figure must be >= 1")
        if not self.noise_density_w_per_hz > 0:
            raise ValueError("noise density must be positive")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth must be positive")
        try:
            loss = path_loss_linear(self.cell_radius_m, self.carrier_freq_hz)
            g = 1.0 / (loss * self.noise_figure * self.noise_density_w_per_hz * self.bandwidth_hz)
        except (OverflowError, ZeroDivisionError):
            g = 0.0
        if not 0.0 < g < math.inf:
            raise ValueError("link parameters must give a positive finite channel gain")
        object.__setattr__(self, "channel_gain", g)

    @classmethod
    def from_db(
        cls,
        carrier_freq_hz: float = _REF_CARRIER_HZ,
        cell_radius_m: float = 500.0,
        noise_figure_db: float = 9.0,
        noise_density_dbm_hz: float = -174.0,
        bandwidth_hz: float = 20e6,
    ) -> "LinkBudget":
        """Build from the usual dB-valued inputs, converting exactly once."""
        try:
            noise_figure = db_to_linear(noise_figure_db)
            noise_density = dbm_per_hz_to_w_per_hz(noise_density_dbm_hz)
        except OverflowError:
            raise ValueError("noise figure and density must be inside the float range") from None
        return cls(
            carrier_freq_hz=carrier_freq_hz,
            cell_radius_m=cell_radius_m,
            noise_figure=noise_figure,
            noise_density_w_per_hz=noise_density,
            bandwidth_hz=bandwidth_hz,
        )


def shannon_rate(gain: float, bandwidth_hz: float, p_out_w):
    """Achievable rate in bit/s at transmit power p_out_w."""
    if np.any(np.asarray(p_out_w) < 0):
        raise ValueError("transmit power must be nonnegative")
    r = bandwidth_hz * np.log2(1.0 + gain * p_out_w)
    return float(r) if np.ndim(r) == 0 else r


def tx_power_for_rate(gain: float, bandwidth_hz: float, rate_bps,
                      max_exponent: float = MAX_RATE_EXPONENT):
    """Transmit power needed for rate_bps; exact inverse of shannon_rate."""
    r = np.asarray(rate_bps)
    if np.count_nonzero(~(r >= 0)):
        raise ValueError("rate must be nonnegative")
    exponent = r / bandwidth_hz
    if np.count_nonzero(exponent > max_exponent):
        raise LinkCapacityError.at(max_exponent=max_exponent)
    p = (np.exp2(exponent) - 1.0) / gain
    return float(p) if np.ndim(p) == 0 else p
