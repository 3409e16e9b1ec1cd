"""The event loop, trace writer and batch statistics as they were before
the loop ran in phases over one event log and the batch sums worked on
slices: a len(heap) per event, one array append each for the clock, the
queue length and a departure's flow index, one f-string and one write
per trace line, and every segment clipped against every batch. Kept
verbatim as the reference for vbsenergy.simulate.simulate, _write_trace
and _batch_time_stats."""
import heapq
import math
from array import array

import numpy as np

from vbsenergy.simulate import (
    CONFIDENCE,
    N_BATCHES,
    SimConfig,
    SimStats,
    _batch_mean_by_time,
    _draw_sizes,
    halfwidth,
)


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
    edges = np.linspace(t_warm, now, N_BATCHES + 1)
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
        queue_len_halfwidth=halfwidth(qlen_b, CONFIDENCE),
        mean_delay_s=float(np.mean(delay_v)) if delay_v.size else math.nan,
        delay_halfwidth_s=halfwidth(delay_b, CONFIDENCE),
        mean_power_w=total_energy / window,
        power_halfwidth_w=halfwidth(power_b, CONFIDENCE),
        busy_fraction=total_busy / window,
        busy_fraction_halfwidth=halfwidth(busyfrac_b, CONFIDENCE),
        mean_cycle_s=float(np.mean(cycle_v)) if cycle_v.size else math.nan,
        cycle_halfwidth_s=halfwidth(cycle_b, CONFIDENCE),
        cycles_observed=int(cycle_v.size),
        completed_flows=int(delay_v.size),
        window_s=window,
        confidence=CONFIDENCE,
        batch_means=batches,
    )
