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

The event loop only moves the queue. It runs in three phases: while the
system is idle the next event must be an arrival; a single flow is
served at the full rate, with its finish tag in a local, until it
leaves or the next arrival comes first; and only then does a busy
period with a heap run, until a local count of the flows present falls
to zero. At low load most flows arrive to an empty station and leave
alone, so they never touch the heap. The lone flow computes its finish
time as (tag - C) / r, which has the bits of the heap's
(tag - C) * n / r at n = 1, and the arrival step that hands it to the
heap adds (t - now) * r, the bits of (t - now) * r / 1.

After every event the loop logs one event entry into a typed array:
the flow index of a departure, or -1 for an arrival. It logs the clock
only at departures. The clock never runs past the next arrival, so an
arrival's event time is exactly its arrival time, and the clock after
every event is rebuilt from the arrival times and the departure log.
Everything else is read from these logs afterwards. One cumulative sum
over the entries gives the queue length after every event; each pair of
consecutive events is a constant-occupancy segment, and the events where
the length reaches zero end a sleep/wake cycle. The optional trace
replays the same log, a chunk of lines at a time.

The trace prints each time with 9 decimals and each energy with 6, in
the bytes of "%.9f" and "%.6f", which round the exact binary value to
nearest with ties to even. A chunk is built in numpy as one byte matrix
with a column per line, its digits cut off one at a time by integer
division and its leading zeros NUL bytes that are dropped. The digits
are exact: the fraction x - floor(x) is exact, its product with
10**places is correctly rounded, and where that product lies halfway
between two integers, the sign of its rounding error, exact by
Veltkamp's split and Dekker's Fast2Sum, breaks the tie. That
holds for every time and energy below 2**63 with the sign bit clear; a
chunk with any other value (negative, -0.0, not finite or at least
2**63) is written with the "%" template instead.

Energy bookkeeping: busy intervals cost P_busy(r), idle intervals cost
P_sleep, and each completed sleep/wake cycle costs 2 * E_switch, charged
at the instant the system empties. The run drains the queue after the
last arrival, so it ends on a cycle boundary.

Statistics use the method of batch means: the post-warmup window is cut
into equal-duration batches and a Student-t interval is formed from the
per-batch means. One loop over the batches integrates a weight per
segment: the queue length over every segment for the area, and 1 over
the busy segments, those with flows present, for the busy time. Segment
starts and ends are both sorted, so only a slice of the segments, found
by binary search, can meet one batch. Each batch computes its slice's
weighted overlaps in place in a zeroed buffer as long as the series'
segments and sums the whole buffer: every segment outside the slice
overlaps the batch by exactly +0.0, so np.sum adds the same array in the
same pairwise order as a clip of every segment against the batch, and
gives the same bits. The generator is numpy's PCG64 seeded through
SeedSequence, so equal seeds reproduce results bit for bit within one
numpy SIMD dispatch and one libm CPU dispatch: bounded-Pareto sizes end
in np.power, whose bits depend on the SIMD loops numpy picks, and the
busy power's 2**x is libm's pow, whose bits depend on the code path
glibc picks for the CPU (AVX2 and FMA, or not).
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field

from ._arrays import np
from .errors import UnstableQueueError
from .power import BusyPowerProfile
from .queueing import TrafficParams, average_power, queue_metrics

SIZE_DISTRIBUTIONS = ("exponential", "deterministic", "bounded-pareto")

# Bounded Pareto shape and upper/lower span used for the heavy-tailed
# size option; the scale is solved from the requested mean.
_PARETO_SHAPE = 1.5
_PARETO_SPAN = 1e3

# Batch count and the confidence level of the SimStats halfwidths.
N_BATCHES = 20
CONFIDENCE = 0.95

# Two-sided Student-t quantiles by confidence level, the entry at index
# df - 1 for df 1 to N_BATCHES - 1: a batch series has at most N_BATCHES
# values, fewer when empty batches are dropped. Each entry is
# float(scipy.special.stdtrit(df, 0.5 + confidence / 2)), the function
# scipy.stats.t.ppf calls, generated with scipy 1.17.1 and written as its
# repr, which reads back to the same bits. The table keeps scipy out of
# the runtime; tests/test_simulate.py checks every entry against scipy.
_T_QUANTILES: dict[float, tuple[float, ...]] = {
    0.95: (
        12.706204736174694, 4.302652729749462, 3.1824463052837078,
        2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
        2.364624251592784, 2.306004135204166, 2.262157162798205,
        2.228138851986274, 2.200985160091639, 2.1788128296672284,
        2.1603686564627913, 2.144786687917804, 2.131449545559776,
        2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
        2.0930240544083087,
    ),
    0.99: (
        63.656741162871526, 9.924843200918287, 5.840909309733355,
        4.604094871349992, 4.032142983555228, 3.7074280213248065,
        3.4994832973504924, 3.355387331333395, 3.249835541592126,
        3.16927267261695, 3.1058065155392804, 3.0545395893929013,
        3.012275838716578, 2.9768427343708344, 2.946712883475238,
        2.9207816224251, 2.8982305196774183, 2.8784404727386077,
        2.8609346064649794,
    ),
}
_LEVELS = " or ".join(map(str, _T_QUANTILES))


@dataclass(frozen=True)
class SimConfig:
    """One simulation run.

    rate_bps must exceed the offered load. n_arrivals counts every
    generated flow; the first warmup_fraction of them only warm the
    system and are excluded from statistics. trace_path, when not None,
    gets a tab-separated record per event.
    """

    traffic: TrafficParams
    profile: BusyPowerProfile
    rate_bps: float
    size_distribution: str = "exponential"
    n_arrivals: int = 100_000
    warmup_fraction: float = 0.1
    seed: int = 12345
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if not self.rate_bps > self.traffic.offered_load_bps:
            raise UnstableQueueError.at(load=self.traffic.offered_load_bps)
        if self.size_distribution not in SIZE_DISTRIBUTIONS:
            raise ValueError(
                f"size_distribution must be one of {SIZE_DISTRIBUTIONS}"
            )
        if self.n_arrivals < 1000:
            raise ValueError("need at least 1000 arrivals for stable statistics")
        if not 0.0 <= self.warmup_fraction <= 0.5:
            raise ValueError("warmup_fraction must lie in [0, 0.5]")


@dataclass(frozen=True)
class SimStats:
    """Point estimates with confidence halfwidths at the CONFIDENCE level.

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
    """Student-t halfwidth of the mean of one batch series.

    The quantile comes from ``_T_QUANTILES``, a table of
    ``scipy.special.stdtrit`` values (the function ``scipy.stats.t.ppf``
    calls), so the bits are scipy's without importing it. The table
    holds every pair a caller sends: confidence 0.95 or 0.99 (SimStats
    uses CONFIDENCE, and validate_against_analytic refuses any other
    level first) at 1 to N_BATCHES - 1 degrees of freedom (a series has
    at most N_BATCHES values). Fewer than two values give an infinite
    halfwidth.
    """
    v = np.asarray(batch_values, dtype=float)
    n = v.size
    if n < 2:
        return math.inf
    with np.errstate(over="ignore"):  # a spread past the float range is inf
        return float(_T_QUANTILES[confidence][n - 2] * v.std(ddof=1) / math.sqrt(n))


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


def _batch_integral(t0, t1, edges, weight=None):
    """Per-batch integral of a piecewise constant series over segments
    [t0, t1], t0 and t1 each sorted: weight on each segment, or 1 where
    weight is None.

    Only the segments in [searchsorted(t1, lo, "right"),
    searchsorted(t0, hi)) can meet batch [lo, hi]; every other one
    overlaps it by exactly +0.0. So the full-length buffer that holds the
    slice's weighted overlaps, the clip of min(t1, hi) - max(t0, lo) at 0
    computed in place, and is zeroed again after each sum, is entry for
    entry the array a clip of every segment against the batch would give.
    """
    out = np.zeros(len(edges) - 1)
    buf = np.zeros(len(t0))
    for k in range(len(out)):
        lo, hi = edges[k], edges[k + 1]
        s = slice(np.searchsorted(t1, lo, "right"), np.searchsorted(t0, hi))
        part = buf[s]
        np.minimum(t1[s], hi, out=part)
        part -= np.maximum(t0[s], lo)
        np.clip(part, 0.0, None, out=part)
        if weight is not None:
            part *= weight[s]
        out[k] = float(np.sum(buf))
        part[:] = 0.0
    return out


def _batch_time_stats(t0, t1, n_act, edges):
    """Per-batch queue-length area and busy time from piecewise constant
    segments (start t0, end t1, n_act flows present), t0 and t1 each
    sorted: the integral of n_act over every segment, and of 1 over the
    segments with flows present."""
    on = n_act > 0
    return _batch_integral(t0, t1, edges, n_act), _batch_integral(t0[on], t1[on], edges)


def _batch_mean_by_time(times, values, edges):
    """Mean of event-attached values grouped into time batches; batches
    with no events are dropped."""
    idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, len(edges) - 2)
    counts = np.bincount(idx, minlength=len(edges) - 1)
    sums = np.bincount(idx, weights=values, minlength=len(edges) - 1)
    mask = counts > 0
    return sums[mask] / counts[mask], counts


# Events per chunk of trace lines: each chunk's energies, fields and
# text are built and written together, so the writer's memory does not
# grow with the run.
_TRACE_CHUNK = 2048
_TRACE_LINE = "%.9f\t%s\t%d\t%.6f\n"
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's splitter for a 53-bit significand


def _fixed_point(x, places):
    """Integer part and the places fraction digits, as int64 arrays, of
    "%.*f" % (places, x) for each x: the exact binary value rounded to
    places decimals, ties to even. Every x must be finite, below 2**63
    and have its sign bit clear; places (broadcast against x) must be 6
    or 9.

    The fraction f = x - floor(x) is exact, and p = f * 10**places is
    the correctly rounded product. So p rounds to the same integer as
    the exact product, except where p lies halfway between two integers:
    there the sign of the product's rounding error e decides, and only
    e == 0 is a true tie. 10**places has at most 21 significant bits and
    each half of f's Veltkamp split at most 27, so a and b, the halves
    times 10**places, are exact; a + b rounds to p, and since |a| >= |b|,
    Dekker's Fast2Sum gives e = b - (p - a) exactly. A fraction that
    rounds to 10**places carries into the integer part.
    """
    whole = np.floor(x)
    f = x - whole
    scale = 10.0 ** places
    p = f * scale
    q = np.rint(p)
    tie = np.abs(p - q) == 0.5
    if tie.any():
        c = f * _SPLIT
        hi = c - (c - f)
        a, b = hi * scale, (f - hi) * scale
        e = b - (p - a)
        q = np.where(tie & (e != 0.0), p + np.copysign(0.5, e), q)
    carry = q == scale
    return (whole + carry).astype(np.int64), (q - scale * carry).astype(np.int64)


def _digit_rows(rows, at, v, width: int, blank: bool) -> int:
    """Write each v (integers, not negative) down its column of rows as
    width ASCII digits from row at, and return the row after them. With
    blank, the digit for 10**j is NUL where v < 10**j, so an integer
    prints without its leading zeros and a zero keeps its last digit."""
    end = at + width
    rest = v
    for i in range(end - 1, at - 1, -1):
        q = rest // 10
        rows[i] = rest - 10 * q
        rest = q
    rows[at:end] += 48
    if blank:
        for j in range(1, width):
            rows[end - 1 - j] *= v >= 10 ** j
    return end


def _trace_lines(values, grew, n_ev) -> str:
    """The trace lines of one chunk, in the "%" template's bytes: values
    holds the lines' times and energies as two rows, within
    _fixed_point's domain, and n_ev their queue lengths, not negative.

    The chunk is one uint8 matrix with a column per line and a row per
    byte: the digits of each number, the event name and the separators,
    every integer as wide as the chunk's widest. Its transpose is the
    lines' text with NUL for the leading zeros, which are dropped.
    """
    whole, frac = _fixed_point(values, np.array([[9], [6]]))  # the time's and energy's places
    frac = frac.astype(np.uint32)  # below 10**9, and uint32 divides faster
    wt, wn, we = (len(str(v.max())) for v in (whole[0], n_ev, whole[1]))
    # Beside the integers: 9 + 6 decimals, the 6-byte name and ".\t\t\t.\n".
    lines = np.empty((wt + wn + we + 27, len(n_ev)), dtype=np.uint8)
    at = _digit_rows(lines, 0, whole[0], wt, True)
    lines[at] = ord(".")
    at = _digit_rows(lines, at + 1, frac[0], 9, False)
    lines[at] = ord("\t")
    # Every index is in range; mode "clip" skips the checked copy.
    # The event names, one column each, as ASCII rows: column 1 where n grew.
    names = np.frombuffer(b"departarrive", np.uint8).reshape(2, 6).T
    np.take(names, grew.view(np.int8), axis=1, out=lines[at + 1:at + 7], mode="clip")
    lines[at + 7] = ord("\t")
    at = _digit_rows(lines, at + 8, n_ev, wn, True)
    lines[at] = ord("\t")
    at = _digit_rows(lines, at + 1, whole[1], we, True)
    lines[at] = ord(".")
    at = _digit_rows(lines, at + 1, frac[1], 6, False)
    lines[at] = ord("\n")
    return lines.T.tobytes().replace(b"\0", b"").decode("ascii")


def _write_trace(fh, t, n, p_busy: float, p_sleep: float, e_sw: float) -> None:
    """Replay the event log (clock t and queue length n, from the start
    and after every event) as one tab-separated line per event, with the
    supply energy drawn so far; an emptying's 2 * E_switch is charged
    after its line.

    The energy is one running sum over interleaved increments: a
    segment's dt * power (0.0 when dt <= 0), then 2 * E_switch where the
    queue empties (else 0.0). np.add.accumulate adds left to right, so
    every partial sum has the bits of a Python += chain.

    A chunk whose times and energies are all below 2**63 with the sign
    bit clear is built in numpy by _trace_lines, with exact digits. Any
    other chunk (a value that is negative, -0.0, not finite or at least
    2**63) is written through the "%" template, which gives the same
    bytes for the values both can write.
    """
    fh.write("time_s\tevent\tqueue_len\tenergy_j\n")
    energy = 0.0
    for a in range(1, len(t), _TRACE_CHUNK):
        b = min(a + _TRACE_CHUNK, len(t))
        now, n_ev, n_prev = t[a:b], n[a:b], n[a - 1:b - 1]
        dt = now - t[a - 1:b - 1]
        inc = np.empty(2 * (b - a) + 1)
        inc[0] = energy
        inc[1::2] = np.where(dt > 0.0, dt * np.where(n_prev != 0, p_busy, p_sleep), 0.0)
        inc[2::2] = np.where(n_ev == 0, 2.0 * e_sw, 0.0)
        np.add.accumulate(inc, out=inc)  # now the energy after each step
        energy = float(inc[-1])
        grew = n_ev > n_prev
        values = np.stack((now, inc[1::2]))
        if np.all((values < 2.0 ** 63) & ~np.signbit(values)):
            fh.write(_trace_lines(values, grew, n_ev))
            continue
        fh.writelines(_TRACE_LINE % (x, ("depart", "arrive")[g], m, e) for x, g, m, e
                      in zip(now.tolist(), grew.tolist(), n_ev.tolist(), inc[1::2].tolist()))


def simulate(cfg: SimConfig) -> SimStats:
    """Run one simulation and return batch-means statistics."""
    p_busy = cfg.profile.busy_power(cfg.rate_bps)  # a refused rate opens no trace
    if cfg.trace_path is None:
        return _run(cfg, p_busy, None)
    # Open first, so that a bad path fails before any simulation work; LF
    # line ends on every platform.
    with open(cfg.trace_path, "w", newline="") as trace:
        return _run(cfg, p_busy, trace)


def _run(cfg: SimConfig, p_busy: float, trace) -> SimStats:
    """The simulation behind simulate; the trace goes to the open file
    trace unless it is None."""
    rate = cfg.rate_bps
    p_sleep = cfg.profile.sleep_power_w
    e_sw = cfg.profile.switch_energy_j

    t_cfg = cfg.traffic
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    n_total = cfg.n_arrivals
    arrivals = np.cumsum(rng.exponential(1.0 / t_cfg.arrival_rate, size=n_total))
    sizes = _draw_sizes(rng, cfg.size_distribution, t_cfg.file_size_bits, n_total)
    warm_count = int(cfg.warmup_fraction * n_total)
    t_warm = float(arrivals[warm_count]) if warm_count > 0 else 0.0

    # The loop only moves the queue. heap holds (finish_tag, flow_index)
    # and k counts its entries; the event log holds per event the flow
    # index of a departure or -1 for an arrival, and the departure log
    # the clock after every departure.
    arr = arrivals.tolist()
    arr.append(math.inf)
    size = sizes.tolist()
    del sizes
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    credit = 0.0
    now = 0.0
    log_t = array("d")
    log_ev = array("q")
    put_t, put_ev = log_t.append, log_ev.append
    i = 0
    while i < n_total:
        # Idle: the heap is empty, so the next event is arrival i, and
        # the clock is never past an arrival.
        now = arr[i]
        tag = credit + size[i]
        i += 1
        put_ev(-1)
        # One flow, served at the full rate: its tag stays off the heap
        # unless the next arrival comes before it is done. A size is
        # never negative, so t_done is never before now.
        t_done = now + (tag - credit) / rate
        t_new = arr[i]
        if not t_new < t_done:
            now = t_done
            credit = tag
            put_ev(i - 1)
            put_t(now)
            continue
        if t_new > now:
            credit += (t_new - now) * rate
            now = t_new
        push(heap, (tag, i - 1))
        push(heap, (credit + size[i], i))
        i += 1
        put_ev(-1)
        k = 2
        while k:  # busy until the queue empties
            t_done = now + (heap[0][0] - credit) * k / rate
            t_new = arr[i]
            if t_new < t_done:
                if t_new > now:
                    credit += (t_new - now) * rate / k
                    now = t_new
                push(heap, (credit + size[i], i))
                i += 1
                k += 1
                put_ev(-1)
            else:
                if t_done > now:
                    now = t_done
                credit, idx = pop(heap)  # exact snap kills drift
                k -= 1
                put_ev(idx)
                put_t(now)
    del arr, size  # free the per-flow lists before the batch statistics

    # Queue lengths and the clock from the start and after every event:
    # +1 and the arrival's own time per arrival, -1 and the logged clock
    # per departure.
    ev = np.frombuffer(log_ev, dtype=np.int64)
    arriving = ev < 0
    n = np.zeros(len(ev) + 1, dtype=np.int64)
    np.cumsum(np.where(arriving, 1, -1), out=n[1:])
    t = np.zeros(len(ev) + 1)
    t[1:][arriving] = arrivals
    t[1:][~arriving] = np.frombuffer(log_t)
    del log_t, put_t
    flow = ev[~arriving]
    del ev, arriving, log_ev, put_ev  # the departures' flow indices are all the stats need
    if trace:
        _write_trace(trace, t, n, p_busy, p_sleep, e_sw)

    t_prev, t_ev, n_prev, n_ev = t[:-1], t[1:], n[:-1], n[1:]
    window = now - t_warm
    edges = np.linspace(t_warm, now, N_BATCHES + 1)
    dur_b = np.diff(edges)

    # Post-warmup segments: (max(t_prev, t_warm), t, n_prev) where t
    # exceeds that start.
    keep = t_ev > np.maximum(t_prev, t_warm)
    area_b, busy_b = _batch_time_stats(np.maximum(t_prev[keep], t_warm), t_ev[keep],
                                       n_prev[keep], edges)

    # Departures are the events where n falls, and cycles end where it
    # reaches 0; both count only after the warm-up.
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


def validate_against_analytic(cfg: SimConfig, confidence: float = 0.99) -> ValidationReport:
    """Simulate and compare the stationary model against the run's
    confidence intervals at the requested level (default 99%).

    A metric is flagged when the analytic value falls outside the
    simulated interval; ok is True when nothing is flagged. A confidence
    other than 0.95 or 0.99, the levels halfwidth has quantiles for, is
    refused before simulating.
    """
    if confidence not in _T_QUANTILES:
        raise ValueError(f"confidence must be {_LEVELS}, got {confidence!r}")
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
