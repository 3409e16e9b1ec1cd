"""Flow-level queueing model with sleep cycles.

Flows arrive as a Poisson process and share the downlink rate r as a
processor-sharing queue, so only the mean file size matters. While the
system is empty the station sleeps; the first arrival of a cycle wakes
it. Waking and falling asleep each cost E_switch joules, charged as
2 * E_switch per cycle.

Average power therefore mixes busy and sleep draw by the utilization and
adds the switching energy over the mean cycle length:

    E{P} = rho * P_busy(r) + (1 - rho) * P_sleep + 2 E_sw * lambda (1 - rho)

The planning objective adds a delay penalty through the mean number of
flows in the system: z = E{P} + alpha * E{n}. cost is the one kernel
that evaluates it, on one rate in Python floats, with no numpy, or on an
array of rates, flagging each refused rate with a code; average_power
and optimize.evaluate_point are that kernel on one rate followed by
raise_refusal, so a grid flags and a point raises.
The arrival rate, file size and alpha may be arrays too, one entry per
rate, so the operating points of many scenarios go through one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ._arrays import div, holds, is_number, np, quiet
from .errors import UnstableQueueError
from .power import BusyPowerProfile, raise_refusal


@dataclass(frozen=True)
class TrafficParams:
    """Poisson flow arrivals (per second) with mean file size in bits.
    Either field may be a numpy array with one entry per rate of a cost
    call, which then evaluates several traffic mixes at once."""

    arrival_rate: float | np.ndarray = 1.0
    file_size_bits: float | np.ndarray = 1.6e7

    def __post_init__(self) -> None:
        if not holds(self.arrival_rate > 0):
            raise ValueError("arrival rate must be positive")
        if not holds(self.file_size_bits > 0):
            raise ValueError("file size must be positive")

    @property
    def offered_load_bps(self) -> float | np.ndarray:
        """Arriving work in bit/s; the service rate must exceed this."""
        return self.arrival_rate * self.file_size_bits


@dataclass(frozen=True)
class QueueMetrics:
    """Stationary metrics of the sleep-cycled processor-sharing queue."""

    rho: float
    mean_queue_len: float
    mean_delay_s: float
    mean_cycle_s: float


def queue_metrics(t: TrafficParams, rate_bps: float) -> QueueMetrics:
    """Utilization, mean flows in system, mean delay, and mean cycle length
    at one rate; a rate at or below the offered load raises."""
    if not rate_bps > t.offered_load_bps:
        raise UnstableQueueError.at(load=t.offered_load_bps)
    rho = t.offered_load_bps / rate_bps
    mean_n = rho / (1.0 - rho)
    mean_delay = mean_n / t.arrival_rate
    mean_cycle = 1.0 / (t.arrival_rate * (1.0 - rho))
    return QueueMetrics(
        rho=rho,
        mean_queue_len=mean_n,
        mean_delay_s=mean_delay,
        mean_cycle_s=mean_cycle,
    )


class Cost(NamedTuple):
    """The cost kernel's result, one entry per rate. code is the index
    of the rate's refusal in errors.REFUSALS, 0 when it is served; the
    other fields of a refused rate mean nothing."""

    code: np.ndarray
    rho: np.ndarray
    mean_queue_len: np.ndarray
    mean_delay_s: np.ndarray
    power_w: np.ndarray
    cost_z: np.ndarray


def cost(profile: BusyPowerProfile, t: TrafficParams, alpha, rates) -> Cost:
    """Average power plus alpha times the mean number of flows in system,
    with its parts, at each of the rates (a scalar or an array).

    The profile's core counts, t's arrival rate and file size, and alpha
    may each be an array that pairs one value with each rate. Every step
    is an elementwise + - * / or libm's 2**x, so an entry has the bits of
    the call on its own Python floats, whose x / 0 is numpy's (div).

    A rate is refused as unstable unless it exceeds the offered load (so
    NaN is refused), then by the profile for the link and core caps.
    alpha is watts per queued flow; alpha = 0 gives z = E{P}. Raising
    the core count at a fixed rate adds exactly rho * P_core_min to the
    cost, the idle floor of the extra core weighted by the time it is
    powered.
    """
    if not holds(alpha >= 0):
        raise ValueError("alpha must be nonnegative")
    r = float(rates) if is_number(rates) else np.asarray(rates, dtype=float)
    load = t.offered_load_bps
    with quiet():
        code, p_busy = profile.coded_busy_power(r, r > load)
        rho = div(load, r)
        mean_n = div(rho, 1.0 - rho)
        power = (rho * p_busy + (1.0 - rho) * profile.sleep_power_w
                 + 2.0 * profile.switch_energy_j * t.arrival_rate * (1.0 - rho))
        return Cost(code, rho, mean_n, mean_n / t.arrival_rate, power,
                    power + alpha * mean_n)


def average_power(profile: BusyPowerProfile, t: TrafficParams, rate_bps: float) -> float:
    """Long-run average supply power at one service rate; a refused rate raises."""
    c = cost(profile, t, 0.0, rate_bps)
    raise_refusal(c.code, rate_bps, profile, t.offered_load_bps)
    return float(c.power_w)
