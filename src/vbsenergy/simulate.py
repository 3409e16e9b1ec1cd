"""Event-driven simulation of the sleep-cycled processor-sharing station.

The simulator is the independent check on the analytic model: it draws
Poisson arrivals and per-flow sizes, serves all concurrent flows at an
equal share of the configured rate, sleeps whenever the system empties,
and integrates supply energy over time. Nothing here reuses the
stationary formulas.

Processor sharing is tracked in credit space. While flows are present,
a cumulative per-flow service credit C(t) grows at rate r / n(t); a flow
arriving at time a with size x finishes when C reaches C(a) + x. Events
are therefore just arrivals and the smallest finish tag in a heap, and
each event advances the clock in O(log n).

The event loop only moves the queue. It logs the clock and the queue
length after every event, and the flow index of every departure, into
typed arrays; everything else is read from that log afterwards. Each
pair of consecutive entries is a constant-occupancy segment, the events
where the length falls are departures, and those where it reaches zero
end a sleep/wake cycle. The optional trace replays the same log.

Energy bookkeeping: busy intervals cost P_busy(r), idle intervals cost
P_sleep, and each completed sleep/wake cycle costs 2 * E_switch, charged
at the instant the system empties. The run drains the queue after the
last arrival, so it ends on a cycle boundary.

Statistics use the method of batch means: the post-warmup window is cut
into equal-duration batches and a Student-t interval is formed from the
per-batch means. The generator is numpy's PCG64 seeded through
SeedSequence, so equal seeds reproduce results bit for bit.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as _stats

from .errors import UnstableQueueError
from .power import BusyPowerProfile
from .queueing import TrafficParams, average_power, queue_metrics

SIZE_DISTRIBUTIONS = ("exponential", "deterministic", "bounded-pareto")

# Bounded Pareto shape and upper/lower span used for the heavy-tailed
# size option; the scale is solved from the requested mean.
_PARETO_SHAPE = 1.5
_PARETO_SPAN = 1e3


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    rate_bps must exceed the offered load. n_arrivals counts every
    generated flow; the first warmup_fraction of them only warm the
    system and are excluded from statistics. trace_path, when set, gets
    a tab-separated record per event.
    """

    traffic: TrafficParams
    profile: BusyPowerProfile
    rate_bps: float
    size_distribution: str = "exponential"
    n_arrivals: int = 100_000
    warmup_fraction: float = 0.1
    seed: int = 12345
    n_batches: int = 20
    confidence: float = 0.95
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.rate_bps <= self.traffic.offered_load_bps:
            raise UnstableQueueError.at(load=self.traffic.offered_load_bps)
        if self.size_distribution not in SIZE_DISTRIBUTIONS:
            raise ValueError(
                f"size_distribution must be one of {SIZE_DISTRIBUTIONS}"
            )
        if self.n_arrivals < 1000:
            raise ValueError("need at least 1000 arrivals for stable statistics")
        if not 0.0 <= self.warmup_fraction <= 0.5:
            raise ValueError("warmup_fraction must lie in [0, 0.5]")
        if self.n_batches < 2:
            raise ValueError("need at least 2 batches")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class SimStats:
    """Point estimates with confidence halfwidths at the configured level.

    batch_means keeps the per-batch values so intervals can be re-derived
    at another confidence level without re-running.
    """

    mean_queue_len: float
    queue_len_halfwidth: float
    mean_delay_s: float
    delay_halfwidth_s: float
    mean_power_w: float
    power_halfwidth_w: float
    busy_fraction: float
    busy_fraction_halfwidth: float
    mean_cycle_s: float
    cycle_halfwidth_s: float
    cycles_observed: int
    completed_flows: int
    window_s: float
    confidence: float
    batch_means: dict[str, tuple[float, ...]] = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class MetricCheck:
    name: str
    analytic: float
    simulated: float
    halfwidth: float
    inside: bool


@dataclass(frozen=True)
class ValidationReport:
    """Analytic values against simulated confidence intervals."""

    ok: bool
    confidence: float
    checks: tuple[MetricCheck, ...]
    stats: SimStats


def halfwidth(batch_values, confidence: float) -> float:
    """Student-t halfwidth of the mean of one batch series."""
    v = np.asarray(batch_values, dtype=float)
    n = v.size
    if n < 2:
        return math.inf
    tq = _stats.t.ppf(0.5 + confidence / 2.0, n - 1)
    return float(tq * v.std(ddof=1) / math.sqrt(n))


def _draw_sizes(rng: np.random.Generator, distribution: str, mean_bits: float,
                n: int) -> np.ndarray:
    if distribution == "exponential":
        return rng.exponential(mean_bits, size=n)
    if distribution == "deterministic":
        return np.full(n, mean_bits)
    # bounded Pareto: invert the CDF, with the scale solved so the mean
    # of the truncated law equals mean_bits.
    a = _PARETO_SHAPE
    span = _PARETO_SPAN
    mean_unit = (a / (a - 1.0)) * (1.0 - span ** (1.0 - a)) / (1.0 - span ** (-a))
    low = mean_bits / mean_unit
    high = low * span
    u = rng.random(n)
    return low * (1.0 - u * (1.0 - (low / high) ** a)) ** (-1.0 / a)


def _batch_time_stats(t0, t1, n_act, edges):
    """Per-batch time-average queue length and busy time from piecewise
    constant segments, by clipping every segment against every batch."""
    area = np.zeros(len(edges) - 1)
    busy = np.zeros(len(edges) - 1)
    for k in range(len(edges) - 1):
        overlap = np.clip(np.minimum(t1, edges[k + 1]) - np.maximum(t0, edges[k]), 0.0, None)
        area[k] = float(np.sum(overlap * n_act))
        busy[k] = float(np.sum(overlap[n_act > 0]))
    return area, busy


def _batch_mean_by_time(times, values, edges):
    """Mean of event-attached values grouped into time batches; batches
    with no events are dropped."""
    idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, len(edges) - 2)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    sums = np.bincount(idx, weights=values, minlength=len(edges) - 1)
    mask = counts > 0
    return sums[mask] / counts[mask], counts


def _write_trace(fh, log_t, log_n, p_busy: float, p_sleep: float, e_sw: float) -> None:
    """Replay the event log as one tab-separated line per event, with the
    supply energy drawn so far; an emptying's 2 * E_switch is charged
    after its line."""
    fh.write("time_s\tevent\tqueue_len\tenergy_j\n")
    energy = 0.0
    for k in range(1, len(log_t)):
        now, n, n_prev = log_t[k], log_n[k], log_n[k - 1]
        dt = now - log_t[k - 1]
        if dt > 0.0:
            energy += dt * (p_busy if n_prev else p_sleep)
        fh.write(f"{now:.9f}\t{'arrive' if n > n_prev else 'depart'}\t{n}\t{energy:.6f}\n")
        if not n:
            energy += 2.0 * e_sw


def simulate(cfg: SimConfig) -> SimStats:
    """Run one simulation and return batch-means statistics."""
    rate = cfg.rate_bps
    p_busy = float(cfg.profile.busy_power(rate))
    p_sleep = cfg.profile.sleep_power_w
    e_sw = cfg.profile.switch_energy_j
    # Open first, so that a bad path fails before any simulation work.
    trace = open(cfg.trace_path, "w") if cfg.trace_path else None

    t_cfg = cfg.traffic
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    n_total = cfg.n_arrivals
    arrivals = np.cumsum(rng.exponential(1.0 / t_cfg.arrival_rate, size=n_total))
    sizes = _draw_sizes(rng, cfg.size_distribution, t_cfg.file_size_bits, n_total)
    warm_count = int(cfg.warmup_fraction * n_total)
    t_warm = float(arrivals[warm_count]) if warm_count > 0 else 0.0

    # The loop only moves the queue. heap holds (finish_tag, flow_index);
    # the log holds the clock and queue length from the start and after
    # every event, and the flow index of every departure.
    arr = arrivals.tolist()
    arr.append(math.inf)
    size = sizes.tolist()
    heap: list[tuple[float, int]] = []
    credit = 0.0
    now = 0.0
    log_t = array("d", [now])
    log_n = array("q", [0])
    log_flow = array("q")
    i = 0
    while i < n_total or heap:
        if heap:
            t_done = now + (heap[0][0] - credit) * len(heap) / rate
        else:
            t_done = math.inf
        arriving = arr[i] < t_done
        t_new = arr[i] if arriving else t_done
        if t_new > now:
            if heap:
                credit += (t_new - now) * rate / len(heap)
            now = t_new
        if arriving:
            heapq.heappush(heap, (credit + size[i], i))
            i += 1
        else:
            credit, idx = heapq.heappop(heap)  # exact snap kills drift
            log_flow.append(idx)
        log_t.append(now)
        log_n.append(len(heap))
    del arr, size  # free the per-flow lists before the batch statistics
    if trace:
        with trace:
            _write_trace(trace, log_t, log_n, p_busy, p_sleep, e_sw)

    t = np.frombuffer(log_t)
    n = np.frombuffer(log_n, dtype=np.int64)
    t_prev, t_ev, n_prev, n_ev = t[:-1], t[1:], n[:-1], n[1:]
    window = now - t_warm
    edges = np.linspace(t_warm, now, cfg.n_batches + 1)
    dur_b = np.diff(edges)

    # Post-warmup segments: (max(t_prev, t_warm), t, n_prev) where t
    # exceeds that start.
    t0 = np.maximum(t_prev, t_warm)
    keep = t_ev > t0
    area_b, busy_b = _batch_time_stats(t0[keep], t_ev[keep], n_prev[keep].astype(float), edges)

    # Departures are the events where n falls, and cycles end where it
    # reaches 0; both count only after the warm-up.
    flow = np.frombuffer(log_flow, dtype=np.int64)
    late = flow >= warm_count
    delay_t = t_ev[n_ev < n_prev][late]
    delay_v = delay_t - arrivals[flow[late]]
    empty_t = t_ev[n_ev == 0]
    after = empty_t >= t_warm
    cyc_t, cycle_v = empty_t[after], np.diff(empty_t, prepend=0.0)[after]

    delay_b, _ = _batch_mean_by_time(delay_t, delay_v, edges)
    cycle_b, cycles_b = _batch_mean_by_time(cyc_t, cycle_v, edges)
    energy_b = busy_b * p_busy + (dur_b - busy_b) * p_sleep + cycles_b * 2.0 * e_sw

    qlen_b = area_b / dur_b
    power_b = energy_b / dur_b
    busyfrac_b = busy_b / dur_b
    total_busy = float(np.sum(busy_b))
    total_energy = float(np.sum(energy_b))

    batches = {
        "queue_len": tuple(float(x) for x in qlen_b),
        "delay": tuple(float(x) for x in delay_b),
        "power": tuple(float(x) for x in power_b),
        "busy_fraction": tuple(float(x) for x in busyfrac_b),
        "cycle": tuple(float(x) for x in cycle_b),
    }

    return SimStats(
        mean_queue_len=float(np.sum(area_b)) / window,
        queue_len_halfwidth=halfwidth(qlen_b, cfg.confidence),
        mean_delay_s=float(np.mean(delay_v)) if delay_v.size else math.nan,
        delay_halfwidth_s=halfwidth(delay_b, cfg.confidence),
        mean_power_w=total_energy / window,
        power_halfwidth_w=halfwidth(power_b, cfg.confidence),
        busy_fraction=total_busy / window,
        busy_fraction_halfwidth=halfwidth(busyfrac_b, cfg.confidence),
        mean_cycle_s=float(np.mean(cycle_v)) if cycle_v.size else math.nan,
        cycle_halfwidth_s=halfwidth(cycle_b, cfg.confidence),
        cycles_observed=int(cycle_v.size),
        completed_flows=int(delay_v.size),
        window_s=window,
        confidence=cfg.confidence,
        batch_means=batches,
    )


def validate_against_analytic(cfg: SimConfig, confidence: float = 0.99) -> ValidationReport:
    """Simulate and compare the stationary model against the run's
    confidence intervals at the requested level (default 99%).

    A metric is flagged when the analytic value falls outside the
    simulated interval; ok is True when nothing is flagged.
    """
    stats = simulate(cfg)
    qm = queue_metrics(cfg.traffic, cfg.rate_bps)
    power = average_power(cfg.profile, cfg.traffic, cfg.rate_bps)

    pairs = (
        ("mean_queue_len", qm.mean_queue_len, stats.mean_queue_len, "queue_len"),
        ("mean_delay_s", qm.mean_delay_s, stats.mean_delay_s, "delay"),
        ("mean_power_w", power, stats.mean_power_w, "power"),
        ("busy_fraction", qm.rho, stats.busy_fraction, "busy_fraction"),
        ("mean_cycle_s", qm.mean_cycle_s, stats.mean_cycle_s, "cycle"),
    )
    checks = []
    for name, analytic, simulated, key in pairs:
        hw = halfwidth(stats.batch_means[key], confidence)
        inside = abs(analytic - simulated) <= hw
        checks.append(MetricCheck(name, analytic, simulated, hw, inside))
    return ValidationReport(
        ok=all(c.inside for c in checks),
        confidence=confidence,
        checks=tuple(checks),
        stats=stats,
    )
