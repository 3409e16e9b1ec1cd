"""Supply-power models for a virtualized base station and a macro baseline.

The virtualized station (VBS) splits into a baseband unit (BBU) running
on N_c general-purpose cores and an RF chain dominated by the power
amplifier. Per-core draw interpolates between an idle floor P_Bm and a
full-speed ceiling P_BM, growing with CPU utilization times clock speed
to the power beta. Baseband utilization itself has a fixed component
(coding, platform overhead) and a component linear in the data rate, so
the expanded busy power of the BBU is

    P_B(r) = N_c * P_Bm + dPB * c0 * s**(beta-1) + dPB * kappa * r * s**(beta-1)

with dPB = (P_BM - P_Bm) / s0**beta. The macro baseline follows the
affine EARTH-style model P0 + delta_p * p_out per transceiver.

Both stations share one busy-power shape: a static draw, a rate-linear
baseband term, and the amplifier input (2**(r/W) - 1) / (g * eta) for
the transmit power that carries rate r. BusyPowerProfile holds its
coefficients (for the macro baseline the rate term is zero and
eta = 1 / delta_p); vbs_profile and earth_profile build it.

All powers are watts, rates bit/s, energies joules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from ._arrays import is_number, np, where
from .errors import (
    REFUSALS,
    InfeasibleLoadError,
    LinkCapacityError,
    UnstableQueueError,
)
from .radio import MAX_RATE_EXPONENT, over_link_cap, tx_power_for_rate

# Tolerance for the load <= 1 feasibility check, so a rate computed from
# the exact capacity boundary does not trip on rounding.
_LOAD_SLACK = 1e-12


@dataclass(frozen=True)
class ComputeParams:
    """BBU compute platform. Speeds are instructions/s, c0 instructions/s,
    kappa instructions/bit."""

    n_cores: int = 1
    cpu_speed: float = 2e9
    ref_speed: float = 2e9
    p_core_max_w: float = 20.0
    p_core_min_w: float = 5.0
    beta: float = 2.0
    c0: float = 7e8
    kappa: float = 35.0

    def __post_init__(self) -> None:
        check_cores(self.n_cores)
        if not (self.cpu_speed > 0 and self.ref_speed > 0):
            raise ValueError("core speeds must be positive")
        if not self.p_core_max_w > self.p_core_min_w >= 0:
            raise ValueError("need p_core_max_w > p_core_min_w >= 0")
        if not self.beta >= 1:
            raise ValueError("beta must be >= 1")
        if not self.c0 >= 0:
            raise ValueError("c0 must be nonnegative")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        try:
            scales = (self.ref_speed ** self.beta, self.cpu_speed ** (self.beta - 1.0))
        except OverflowError:
            scales = (math.inf,)
        if not all(0.0 < x < math.inf for x in scales):
            raise ValueError("core speeds and beta must keep ref_speed**beta and "
                             "cpu_speed**(beta-1) positive and finite")


def check_cores(n_cores):
    """n_cores, one count or a numpy array of them, if each is a positive integer."""
    if is_number(n_cores):  # pure Python: a numpy check costs more than a profile
        ok = n_cores >= 1 and n_cores == int(n_cores)
    else:
        ok = np.all(np.isfinite(n_cores) & (n_cores >= 1) & (np.floor(n_cores) == n_cores))
    if not ok:
        raise ValueError("n_cores must be a positive integer")
    return n_cores


@dataclass(frozen=True)
class RadioParams:
    """RF chain of the VBS: amplifier efficiency, fixed RF overhead, the
    sleep-state draw of the whole station, and the energy cost of one
    sleep/wake transition."""

    pa_efficiency: float = 0.311
    p_rf_w: float = 12.9
    p_sleep_w: float = 6.45
    bandwidth_hz: float = 20e6
    switch_energy_j: float = 5.0

    def __post_init__(self) -> None:
        if not 0 < self.pa_efficiency <= 1:
            raise ValueError("pa_efficiency must be in (0, 1]")
        if not (self.p_rf_w >= 0 and self.p_sleep_w >= 0):
            raise ValueError("powers must be nonnegative")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth must be positive")
        if not self.switch_energy_j >= 0:
            raise ValueError("switch energy must be nonnegative")


@dataclass(frozen=True)
class EarthParams:
    """Affine macro-station baseline: per-TRX static draw plus a slope on
    transmit power, with its own sleep draw."""

    n_trx: int = 1
    p0_w: float = 84.0
    delta_p: float = 2.8
    p_sleep_w: float = 56.0

    def __post_init__(self) -> None:
        if self.n_trx < 1 or self.n_trx != int(self.n_trx):
            raise ValueError("n_trx must be a positive integer")
        if not self.delta_p > 0:
            raise ValueError("delta_p must be positive")
        if not self.p0_w > self.p_sleep_w >= 0:
            raise ValueError("need p0_w > p_sleep_w >= 0")


def delta_pb(c: ComputeParams) -> float:
    """Per-core power span normalized by the reference speed: the slope
    of core power against load * speed**beta."""
    return (c.p_core_max_w - c.p_core_min_w) / c.ref_speed ** c.beta


def cpu_load(c: ComputeParams, rate_bps, check: bool = True):
    """Average utilization per core at the given data rate.

    The value is (c0 + kappa * r) / (N_c * s). With check=True a load
    above 1 raises InfeasibleLoadError; with check=False the raw value
    is returned so callers can probe infeasible rates.
    """
    load = (c.c0 + c.kappa * np.asarray(rate_bps, dtype=float)) / (c.n_cores * c.cpu_speed)
    if check and np.any(load > 1.0 + _LOAD_SLACK):
        raise InfeasibleLoadError(
            f"rate needs load {np.max(load):.6g} > 1 on {c.n_cores} core(s)"
        )
    return float(load) if np.ndim(load) == 0 else load


def bbu_power(c: ComputeParams, rate_bps, check: bool = True):
    """BBU supply power at the given rate, in watts.

    Uses the expanded affine-in-rate form; composing per-core power with
    cpu_load gives the same value to rounding.
    """
    cpu_load(c, rate_bps, check=check)  # feasibility gate only
    s_pow = c.cpu_speed ** (c.beta - 1.0)
    p = _bbu_floor(c, c.n_cores) + delta_pb(c) * c.kappa * np.asarray(rate_bps, dtype=float) * s_pow
    return float(p) if np.ndim(p) == 0 else p


def rrh_power(rp: RadioParams, p_out_w):
    """Radio head supply power: amplifier input p_out/eta plus fixed RF."""
    p_out = np.asarray(p_out_w, dtype=float)
    if np.any(p_out < 0):
        raise ValueError("transmit power must be nonnegative")
    p = p_out / rp.pa_efficiency + rp.p_rf_w
    return float(p) if np.ndim(p) == 0 else p


def _bbu_floor(c: ComputeParams, n_cores):
    """Rate-independent BBU power on n_cores cores: idle floors plus the fixed load."""
    return n_cores * c.p_core_min_w + delta_pb(c) * c.c0 * c.cpu_speed ** (c.beta - 1.0)


def static_power(c: ComputeParams, rp: RadioParams) -> float:
    """Rate-independent part of the VBS busy power (transmit power excluded)."""
    return _bbu_floor(c, c.n_cores) + rp.p_rf_w


def sleep_adjusted_power(c: ComputeParams, rp: RadioParams, arrival_rate: float) -> float:
    """Static busy power net of sleep draw and amortized switching cost.

    This is the constant that decides whether slowing down ever pays:
    static - sleep - 2 * arrival_rate * E_switch. It may be negative when
    switching is expensive relative to the static/sleep gap.
    """
    return static_power(c, rp) - rp.p_sleep_w - 2.0 * arrival_rate * rp.switch_energy_j


def vbs_busy_power(c: ComputeParams, rp: RadioParams, gain: float, rate_bps):
    """Total VBS supply power while serving at rate_bps."""
    return vbs_profile(c, rp, gain).busy_power(rate_bps)


def earth_busy_power(e: EarthParams, p_out_w):
    """Macro-baseline supply power at transmit power p_out_w."""
    p_out = np.asarray(p_out_w, dtype=float)
    if np.any(p_out < 0):
        raise ValueError("transmit power must be nonnegative")
    p = e.n_trx * e.p0_w + e.delta_p * p_out
    return float(p) if np.ndim(p) == 0 else p


@dataclass(frozen=True)
class BusyPowerProfile:
    """Coefficients of the shared busy-power shape plus the sleep-cycle
    constants. Rates beyond the link budget and above max_rate_bps (the
    core capacity, with cpu_load's rounding slack) are refused. For an
    array of core counts, base_w and max_rate_bps are arrays too; such a
    profile serves grids, through coded_busy_power, not busy_power."""

    base_w: float | np.ndarray
    rate_coeff: float
    speed_factor: float
    rf_w: float
    pa_efficiency: float
    gain: float
    bandwidth_hz: float
    sleep_power_w: float
    switch_energy_j: float
    max_rate_bps: float | np.ndarray = math.inf

    def __post_init__(self) -> None:
        if not (self.sleep_power_w >= 0 and self.switch_energy_j >= 0):
            raise ValueError("sleep power and switch energy must be nonnegative")

    @property
    def static_power_w(self) -> float:
        """Rate-independent part of the busy power."""
        return self.base_w + self.rf_w

    def sleep_adjusted_power(self, arrival_rate: float) -> float:
        """Static busy power net of sleep draw and amortized switching:
        static - sleep - 2 * arrival_rate * E_switch. Slowing down can only
        pay while this is positive."""
        return self.static_power_w - self.sleep_power_w - 2.0 * arrival_rate * self.switch_energy_j

    def busy_power(self, rate_bps: float) -> float:
        """Supply power while serving at one rate, on a profile of one core
        count; a refused rate raises. A grid of rates goes through
        coded_busy_power or queueing.cost, which flag each refused rate."""
        r = float(rate_bps)
        code, p = self.coded_busy_power(r)
        raise_refusal(code, r, self)
        return float(p)

    def coded_busy_power(self, r, stable=True):
        """Busy power at r, a float or a float array, and the index in
        errors.REFUSALS of the first refusal that applies there (0 if
        none); stable marks the rates the queue serves. Call it on an array
        under _arrays.quiet: a refused rate's power means nothing and may
        overflow."""
        link = over_link_cap(r, self.bandwidth_hz)
        unstable = where(stable, False, True)
        p_out = tx_power_for_rate(self.gain, self.bandwidth_hz,
                                  where(unstable | link, 0.0, r))
        masks = {UnstableQueueError: unstable, LinkCapacityError: link,
                 InfeasibleLoadError: r > self.max_rate_bps}
        code = 0
        for k in range(len(REFUSALS) - 1, 0, -1):  # the first refusal wins
            code = where(masks[REFUSALS[k]], k, code)
        # This grouping reproduces bbu_power + rrh_power bit for bit.
        p = ((self.base_w + self.rate_coeff * r * self.speed_factor)
             + (p_out / self.pa_efficiency + self.rf_w))
        return code, p


def raise_refusal(code: int, rate: float, profile: BusyPowerProfile,
                  load: float | None = None) -> None:
    """Raise the error of refusal code (an index in errors.REFUSALS) at one
    rate, unless code is 0; load is the offered load that an unstable
    rate's message names."""
    if code:
        raise REFUSALS[code].at(load=load, rate=rate, capacity=profile.max_rate_bps,
                                max_exponent=MAX_RATE_EXPONENT)


def vbs_profile(c: ComputeParams, rp: RadioParams, gain: float, n_cores=None) -> BusyPowerProfile:
    """Profile for the virtualized station on n_cores cores, one count or a
    numpy array of counts (c.n_cores when None)."""
    n = c.n_cores if n_cores is None else check_cores(n_cores)
    return BusyPowerProfile(
        base_w=_bbu_floor(c, n),
        rate_coeff=delta_pb(c) * c.kappa,
        speed_factor=c.cpu_speed ** (c.beta - 1.0),
        rf_w=rp.p_rf_w,
        pa_efficiency=rp.pa_efficiency,
        gain=gain,
        bandwidth_hz=rp.bandwidth_hz,
        sleep_power_w=rp.p_sleep_w,
        switch_energy_j=rp.switch_energy_j,
        max_rate_bps=((1.0 + _LOAD_SLACK) * n * c.cpu_speed - c.c0) / c.kappa,
    )


def earth_profile(e: EarthParams, gain: float, bandwidth_hz: float,
                  switch_energy_j: float) -> BusyPowerProfile:
    """Profile for the macro baseline under the same sleep-cycle policy:
    no rate-linear term, and the amplifier slope delta_p as 1 / eta."""
    return BusyPowerProfile(
        base_w=e.n_trx * e.p0_w,
        rate_coeff=0.0,
        speed_factor=1.0,
        rf_w=0.0,
        pa_efficiency=1.0 / e.delta_p,
        gain=gain,
        bandwidth_hz=bandwidth_hz,
        sleep_power_w=e.n_trx * e.p_sleep_w,
        switch_energy_j=switch_energy_j,
    )
