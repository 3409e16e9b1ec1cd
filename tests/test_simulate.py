"""Event simulator: determinism, bookkeeping, and analytic agreement."""
import dataclasses
import hashlib
import io
import math
import os
import tempfile
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.integrate import quad

import reference_sim
import vbsenergy.simulate as simulate_module
from vbsenergy.errors import UnstableQueueError
from vbsenergy.power import BusyPowerProfile, ComputeParams, RadioParams, vbs_profile
from vbsenergy.queueing import TrafficParams
from vbsenergy.radio import LinkBudget
from vbsenergy.simulate import (
    N_BATCHES,
    SIZE_DISTRIBUTIONS,
    SimConfig,
    _draw_sizes,
    _fixed_point,
    _write_trace,
    halfwidth,
    simulate,
    validate_against_analytic,
)

GAIN = LinkBudget().channel_gain


def make_config(**kw):
    defaults = dict(
        traffic=TrafficParams(),
        profile=vbs_profile(ComputeParams(n_cores=2), RadioParams(), GAIN),
        rate_bps=7.756e7,
        n_arrivals=20000,
        seed=12345,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_halfwidth_of_a_spread_past_the_float_range_is_infinite():
    assert halfwidth([1e300, -1e300] * 10, 0.95) == math.inf


@pytest.mark.parametrize("confidence", [0.95, 0.99])
def test_halfwidth_equals_the_scipy_reference_bits(confidence):
    # Every (confidence, df) pair of the quantile table: df 1 to 19,
    # which dropped empty batches can produce. scipy.stats is only the
    # reference here; the package never imports scipy.
    from scipy import stats

    v = np.random.default_rng(11).lognormal(size=N_BATCHES)
    for n in range(2, N_BATCHES + 1):
        ref = stats.t.ppf(0.5 + confidence / 2, n - 1) * v[:n].std(ddof=1) / math.sqrt(n)
        assert halfwidth(v[:n], confidence).hex() == float(ref).hex(), n


@pytest.mark.parametrize("confidence,n", [(0.9, N_BATCHES), (0.5, 2),
                                          (0.95, N_BATCHES + 1), (0.99, 40)])
def test_halfwidth_refuses_a_pair_outside_the_quantile_table(confidence, n):
    with pytest.raises(ValueError, match="0.95 or 0.99"):
        halfwidth(np.arange(float(n)), confidence)


def test_config_validation():
    for rate in (1.6e7, math.nan):
        with pytest.raises(UnstableQueueError):
            make_config(rate_bps=rate)
    with pytest.raises(ValueError):
        make_config(size_distribution="uniform")
    with pytest.raises(ValueError):
        make_config(n_arrivals=10)
    with pytest.raises(ValueError):
        make_config(warmup_fraction=0.6)


def test_reproducible_runs():
    a = simulate(make_config())
    b = simulate(make_config())
    assert a == b
    c = simulate(make_config(seed=99))
    assert c.mean_delay_s != a.mean_delay_s


def _stats_digest(st):
    """sha256 over every SimStats field, floats as float.hex."""
    parts = []
    for f in dataclasses.fields(st):
        v = getattr(st, f.name)
        if isinstance(v, float):
            parts.append(f"{f.name}={v.hex()}")
        elif isinstance(v, dict):
            for key, seq in v.items():
                parts.append(f"{f.name}.{key}=" + ",".join(x.hex() for x in seq))
        else:
            parts.append(f"{f.name}={v!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# Digests of 5000-arrival runs, one per size law, recorded from a loop
# that kept its own per-event records; any change to the simulated bits
# shows here. Same seed, same bits is a documented guarantee.
RECORDED_STATS = {
    "exponential": "18887670982863578b314b607d54e39df5df20c1aa239057ad348ee1cbb1a332",
    "deterministic": "27aa4e0364133e39ac56fc0947fcc588e46b5d4c2970e3932a14f645c0d7ece9",
    "bounded-pareto": "2eb689e3d31a4dceb2bc4515d76e0a0d7eaafca494591d62b30c158afc74020c",
}
RECORDED_TRACE = "383276ffa517e61ae4f75f6e4869b9bfc7b39545d9f903970344fb1bd4289f38"


@pytest.mark.parametrize("law", sorted(RECORDED_STATS))
def test_stats_match_the_recorded_bits(law):
    st = simulate(make_config(n_arrivals=5000, size_distribution=law))
    assert _stats_digest(st) == RECORDED_STATS[law]


def test_trace_matches_the_recorded_bytes(tmp_path):
    path = tmp_path / "events.tsv"
    simulate(make_config(n_arrivals=5000, trace_path=str(path)))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDED_TRACE


# Sixteen cores keep every rate down to rho = 0.05 within the core
# capacity, so the busy power still depends on the rate.
WIDE = vbs_profile(ComputeParams(n_cores=16), RadioParams(), GAIN)
# A constant-power profile keeps the link model out of the picture: no
# rate term, and an unbounded band needs no transmit power.
FLAT = BusyPowerProfile(base_w=30.0, rate_coeff=0.0, speed_factor=1.0, rf_w=0.0,
                        pa_efficiency=1.0, gain=1.0, bandwidth_hz=math.inf,
                        sleep_power_w=6.45, switch_energy_j=5.0)


def _run_both(cfg, tmp):
    """Digest and trace bytes of the package's run and the reference's."""
    out = []
    for run, name in ((simulate, "new.tsv"), (reference_sim.simulate, "ref.tsv")):
        path = os.path.join(tmp, name)
        stats = run(dataclasses.replace(cfg, trace_path=path))
        with open(path, "rb") as fh:
            out.append((_stats_digest(stats), fh.read()))
    return out


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), law=hs.sampled_from(SIZE_DISTRIBUTIONS),
       rho=hs.floats(0.05, 0.98), n_arrivals=hs.integers(1000, 6000),
       warmup=hs.floats(0.0, 0.5))
def test_loop_and_trace_equal_the_reference_bits(seed, law, rho, n_arrivals, warmup):
    cfg = make_config(profile=WIDE, rate_bps=TrafficParams().offered_load_bps / rho,
                      size_distribution=law, n_arrivals=n_arrivals,
                      warmup_fraction=warmup, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = _run_both(cfg, tmp)
    assert new[0] == ref[0]
    assert new[1] == ref[1]


@pytest.mark.parametrize("rho", [0.05, 0.5, 0.98])
def test_deterministic_sizes_equal_the_reference_bits(tmp_path, rho):
    # Equal sizes: flows leave in arrival order, and at low load most
    # busy periods serve a single flow.
    cfg = make_config(profile=WIDE, rate_bps=TrafficParams().offered_load_bps / rho,
                      size_distribution="deterministic", n_arrivals=3000, seed=5)
    new, ref = _run_both(cfg, str(tmp_path))
    assert new == ref


def test_an_arrival_at_a_departure_instant_comes_after_it(tmp_path, monkeypatch):
    # At 1 bit/s, a flow whose size is the gap to the next arrival
    # finishes exactly when that arrival comes if it is alone and the
    # gap subtracts exactly, as it does for the first two arrivals here.
    # The departure goes first: the queue empties and a new cycle starts.
    cfg = make_config(traffic=TrafficParams(arrival_rate=1.0, file_size_bits=0.5),
                      profile=WIDE, rate_bps=1.0, n_arrivals=1000, seed=3)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    gaps = np.append(np.diff(np.cumsum(rng.exponential(1.0, size=cfg.n_arrivals))), 1.0)
    for module in (simulate_module, reference_sim):
        monkeypatch.setattr(module, "_draw_sizes", lambda *args: gaps)
    new, ref = _run_both(cfg, str(tmp_path))
    assert new == ref
    lines = [line.split("\t") for line in new[1].decode().splitlines()[1:4]]
    assert [line[1:3] for line in lines] == [["arrive", "1"], ["depart", "0"], ["arrive", "1"]]
    assert lines[1][0] == lines[2][0]


def _sizes_with(where, value):
    """A _draw_sizes that draws exponential sizes and then sets the
    entries at where (an index or a slice) to value."""
    def draw(rng, distribution, mean_bits, n):
        sizes = rng.exponential(mean_bits, size=n)
        sizes[where] = value
        return sizes
    return draw


def _lines(trace):
    return [line.split("\t") for line in trace.decode().splitlines()[1:]]


# At 1 bit/s and one arrival per second, a flow of 0.5 bit is served for
# half a second if it is alone, so both the lone-flow phase and busy
# periods occur.
LONE = make_config(traffic=TrafficParams(arrival_rate=1.0, file_size_bits=0.5),
                   profile=WIDE, rate_bps=1.0, n_arrivals=1000, seed=3)


def test_zero_size_flows_equal_the_reference_bits(tmp_path, monkeypatch):
    # A zero-size flow that arrives alone is done at its arrival instant
    # (t_done == now) and leaves before anything else happens; every
    # third flow has size 0, in lone-flow and busy phases alike.
    for module in (simulate_module, reference_sim):
        monkeypatch.setattr(module, "_draw_sizes", _sizes_with(slice(None, None, 3), 0.0))
    new, ref = _run_both(LONE, str(tmp_path))
    assert new == ref
    first, second = _lines(new[1])[:2]
    assert [first[1:3], second[1:3]] == [["arrive", "1"], ["depart", "0"]]
    assert first[0] == second[0]


def test_an_arrival_hands_a_lone_flow_to_the_heap(tmp_path, monkeypatch):
    # The first flow needs 1000 s alone, so the second arrival finds it
    # still in service and it is served on from the heap.
    for module in (simulate_module, reference_sim):
        monkeypatch.setattr(module, "_draw_sizes", _sizes_with(0, 1e3))
    new, ref = _run_both(LONE, str(tmp_path))
    assert new == ref
    assert [line[1:3] for line in _lines(new[1])[:2]] == [["arrive", "1"], ["arrive", "2"]]


def test_isolated_flows_equal_the_reference_bits(tmp_path):
    # The configuration of test_isolated_flows_have_exact_delay: every
    # flow is alone, so the heap is never used.
    cfg = make_config(rate_bps=1e13, profile=FLAT, size_distribution="deterministic",
                      n_arrivals=1000, warmup_fraction=0.0, seed=7)
    new, ref = _run_both(cfg, str(tmp_path))
    assert new == ref
    lines = _lines(new[1])
    assert {tuple(line[1:3]) for line in lines[0::2]} == {("arrive", "1")}
    assert {tuple(line[1:3]) for line in lines[1::2]} == {("depart", "0")}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), size=hs.integers(0, 400),
       zeros=hs.sampled_from([0.0, 0.3]), idle=hs.sampled_from([0.0, 0.3, 1.0]),
       warm=hs.sampled_from([0.0, 0.1, 0.37, 0.5]), cut=hs.booleans(),
       n_batches=hs.sampled_from([1, 3, N_BATCHES]), span=hs.sampled_from([1.0, 1.5]))
def test_batch_time_stats_equal_the_reference_bits(seed, size, zeros, idle, warm, cut,
                                                   n_batches, span):
    # Segments of a clock cut at a warm-up time as simulate cuts them,
    # dropping those that end at or before their start when cut is set.
    # Zero gaps give zero-length segments, few segments long ones across
    # batch edges, a count of 0 an idle run, and edges past the last
    # segment (span 1.5) batches that no segment meets.
    rng = np.random.default_rng(seed)
    gaps = np.where(rng.random(size) < zeros, 0.0, rng.exponential(size=size))
    n_act = np.where(rng.random(size) < idle, 0.0, rng.integers(1, 5, size).astype(float))
    t = np.concatenate(([0.0], np.cumsum(gaps)))
    t_warm = warm * t[-1]
    t0, t1 = np.maximum(t[:-1], t_warm), t[1:]
    if cut:
        keep = t1 > t0
        t0, t1, n_act = t0[keep], t1[keep], n_act[keep]
    edges = np.linspace(t_warm, t_warm + span * (t[-1] - t_warm), n_batches + 1)
    new = simulate_module._batch_time_stats(t0, t1, n_act, edges)
    ref = reference_sim._batch_time_stats(t0, t1, n_act, edges)
    for a, b in zip(new, ref):
        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]


def test_batch_time_stats_hold_one_slice_temporary():
    # 100,000 busy unit segments in 20 batches: each batch meets a slice
    # of 5,001. The busy pass holds the busy mask, the busy segments'
    # copies of t0 and t1 and its buffer, and the area pass's buffer is
    # gone by then. Beside them the peak holds one slice-sized temporary,
    # not the three of a clip of min(t1, hi) - max(t0, lo).
    n = 100_000
    t0 = np.arange(n, dtype=float)
    t1, n_act = t0 + 1.0, np.ones(n)
    edges = np.linspace(0.0, float(n), 21)
    tracemalloc.start()
    try:
        simulate_module._batch_time_stats(t0, t1, n_act, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 3 * t0.nbytes + n
    assert held < peak < held + 2 * (t0.nbytes // 20)


# 1000 arrivals make 2000 events: a multiple of 1000 and of 2000, one
# more than 1999, one less than 2001 and than 3 * 667; a chunk of 1
# writes line by line.
@pytest.mark.parametrize("chunk", [1, 667, 1000, 1999, 2000, 2001])
def test_trace_chunks_write_the_reference_bytes(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(simulate_module, "_TRACE_CHUNK", chunk)
    cfg = make_config(n_arrivals=1000, seed=21)
    new, ref = _run_both(cfg, str(tmp_path))
    assert new == ref


def _fixed_strings(xs, places):
    whole, frac = _fixed_point(np.array(xs, dtype=float), places)
    return [f"{w}.{f:0{places}d}" for w, f in zip(whole.tolist(), frac.tolist())]


BELOW_2_63 = math.nextafter(2.0 ** 63, 0.0)
# Values where a digit helper goes wrong first: zero and subnormals; exact
# ties at 9 places (m / 2**10, m odd) and at 6 (m / 2**7); the doubles
# nearest the decimal ties i + (k + 0.5) / 10**places, which are rarely
# ties themselves but often round to one when scaled; the double below
# each integer, whose fraction rounds up into the integer part; 2**52 and
# 2**53 and their neighbours; and the largest double below 2**63.
PLANTED = (
    [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308]
    + [m / 2 ** 10 for m in range(1, 4096, 2)] + [m / 2 ** 7 for m in range(1, 1024, 2)]
    + [(2 ** 40 + m) / 2 ** 10 for m in range(1, 200, 2)]
    + [i + (k + 0.5) / 10 ** p for p in (6, 9) for i in (0, 1, 37, 2 ** 20)
       for k in range(0, 10 ** p, 10 ** p // 997)]
    + [math.nextafter(k + 1.0, 0.0) for k in (0, 1, 9, 99, 10 ** 6 - 1, 2 ** 20, 2 ** 40)]
    + [x for e in (52, 53) for x in (math.nextafter(2.0 ** e, 0.0), 2.0 ** e,
                                     math.nextafter(2.0 ** e, math.inf))]
    + [BELOW_2_63]
)


@pytest.mark.parametrize("places", [6, 9])
def test_fixed_point_digits_of_planted_values_equal_percent_formatting(places):
    assert _fixed_strings(PLANTED, places) == ["%.*f" % (places, x) for x in PLANTED]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(us=hs.lists(hs.floats(-1074.0, 63.0, exclude_max=True), min_size=1, max_size=50),
       places=hs.sampled_from([6, 9]))
def test_fixed_point_digits_equal_percent_formatting(us, places):
    # Each x log-uniform on [5e-324, 2**63).
    xs = [min(2.0 ** u, BELOW_2_63) for u in us]
    assert _fixed_strings(xs, places) == ["%.*f" % (places, x) for x in xs]


def _reference_trace(t, n, powers):
    out = io.StringIO()
    reference_sim._write_trace(out, t.tolist(), n.tolist(), *powers)
    return out.getvalue()


def _package_trace(t, n, powers, chunk):
    out = io.StringIO()
    with mock.patch.object(simulate_module, "_TRACE_CHUNK", chunk):
        _write_trace(out, t, n, *powers)
    return out.getvalue()


LOG_VALUES = hs.one_of(
    hs.floats(-12.0, 19.0).map(lambda u: 10.0 ** u),
    hs.integers(0, 2 ** 40).map(lambda m: m / 2 ** 10),
    hs.integers(0, 2 ** 40).map(lambda k: math.nextafter(k + 1.0, 0.0)),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(events=hs.lists(hs.tuples(LOG_VALUES, hs.integers(0, 2 ** 40)), min_size=1, max_size=40),
       powers=hs.tuples(*[hs.floats(0.0, 1e3)] * 3), chunk=hs.integers(1, 9))
def test_trace_writer_equals_the_reference_on_random_logs(events, powers, chunk):
    # Times from 1e-12 to 1e19, dyadic ties and the doubles below
    # integers, in any order; times and energies past 2**63 put their
    # chunk on the "%" path.
    t = np.array([0.0] + [x for x, _ in events])
    n = np.array([0] + [k for _, k in events])
    assert _package_trace(t, n, powers, chunk) == _reference_trace(t, n, powers)


# Integers where a printed width changes, 10**k - 1 and 10**k up to
# 10**18 (times from 10**16 on round to the doubles there); fractions that
# carry into the integer part at 9 places for a time and 6 for an energy;
# and zeros. The leading-zero mask decides each top digit here.
WIDTH_EDGES = [m for k in range(19) for m in (10 ** k - 1, 10 ** k)]


@pytest.mark.parametrize("carry", [False, True])
def test_trace_lines_at_digit_width_boundaries(carry):
    k = len(WIDTH_EDGES)
    t = np.array(WIDTH_EDGES, dtype=float) + 0.9999999995 * carry
    e = np.roll(WIDTH_EDGES, 13).astype(float) + 0.9999995 * carry
    n_ev = np.roll(WIDTH_EDGES, 7)
    grew = np.arange(k) % 2 == 0
    lines = ["%.9f\t%s\t%d\t%.6f\n" % (x, ("depart", "arrive")[g], m, y)
             for x, g, m, y in zip(t.tolist(), grew.tolist(), n_ev.tolist(), e.tolist())]
    values = np.stack((t, e))
    assert simulate_module._trace_lines(values, grew, n_ev) == "".join(lines)
    for i in range(k):  # each line alone, as narrow as its own numbers
        s = slice(i, i + 1)
        assert simulate_module._trace_lines(values[:, s], grew[s], n_ev[s]) == lines[i]


def test_trace_writer_takes_the_percent_path_only_outside_the_digit_domain(monkeypatch):
    # Chunks of three lines: the second holds a time of -0.0, the fourth
    # nan and the sixth one past 2**63; the others are built in numpy.
    t = np.array([0.0, 0.5, 1.25, 2.0, 3.0, -0.0, 3.5, 4.0, 4.5, 5.0, math.nan, 5.5, 6.0,
                  6.5, 7.0, 7.5, 8.0, 1e19, 9.0])
    n = np.array([0, 1, 2, 1, 0, 1, 0, 1, 2, 1, 0, 1, 0, 1, 2, 1, 0, 1, 0])
    built = []  # the first time of each chunk built in numpy
    lines = simulate_module._trace_lines

    def spy(values, *args):
        built.append(values[0, 0])
        return lines(values, *args)

    monkeypatch.setattr(simulate_module, "_trace_lines", spy)
    powers = (30.0, 6.45, 5.0)
    assert _package_trace(t, n, powers, 3) == _reference_trace(t, n, powers)
    assert built == [0.5, 4.0, 6.5]


def test_trace_writer_memory_does_not_grow_with_the_run(monkeypatch):
    # The writer formats a chunk of lines at a time, so its peak
    # allocation is set by the chunk size, not by the 200,000 events of
    # this run; a writer that built the whole text at once peaks at
    # about 40 MB here.
    logged = []
    monkeypatch.setattr(simulate_module, "_write_trace", lambda fh, *args: logged.append(args))
    simulate(make_config(n_arrivals=100_000, trace_path=os.devnull))
    (args,) = logged
    with open(os.devnull, "w") as fh:
        tracemalloc.start()
        try:
            _write_trace(fh, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2_000_000


def test_trace_energy_ties_to_the_stats(tmp_path):
    # With no warm-up the trace and the stats cover the same window. The
    # last line is the final emptying, whose switch energy is charged
    # after the line is written.
    path = tmp_path / "events.tsv"
    cfg = make_config(n_arrivals=5000, warmup_fraction=0.0, trace_path=str(path))
    st = simulate(cfg)
    last = path.read_text().splitlines()[-1].split("\t")
    assert last[1:3] == ["depart", "0"]
    traced = float(last[3]) + 2.0 * cfg.profile.switch_energy_j
    assert traced == pytest.approx(st.mean_power_w * st.window_s, rel=1e-9)


def test_unopenable_trace_path_fails_before_simulating(tmp_path, monkeypatch):
    import vbsenergy.simulate as module

    def no_draws(*args):
        raise AssertionError("simulation work started")

    monkeypatch.setattr(module, "_draw_sizes", no_draws)
    with pytest.raises(OSError):
        simulate(make_config(trace_path=str(tmp_path / "missing" / "t.tsv")))


def test_the_trace_is_opened_for_lf_line_ends(tmp_path, monkeypatch):
    # With newline="" each "\n" is written as it is, on every platform.
    opened = []

    def spy(*args, **kwargs):
        opened.append(kwargs)
        return open(*args, **kwargs)

    monkeypatch.setattr(simulate_module, "open", spy, raising=False)
    simulate(make_config(n_arrivals=1000, trace_path=str(tmp_path / "t.tsv")))
    assert [kw.get("newline") for kw in opened] == [""]


# Levels inside (0, 1) that have no quantile table are refused the same way.
@pytest.mark.parametrize("confidence", [0.0, 1.0, -1.0, 1.5, math.nan, 0.5, 0.9, 0.999])
def test_validation_refuses_a_confidence_outside_the_unit_interval(monkeypatch, confidence):
    import vbsenergy.simulate as module

    def no_run(cfg):
        raise AssertionError("simulation started")

    monkeypatch.setattr(module, "simulate", no_run)
    with pytest.raises(ValueError, match="confidence"):
        validate_against_analytic(make_config(), confidence)


def test_matches_analytic_model():
    report = validate_against_analytic(make_config())
    assert report.ok, [c for c in report.checks if not c.inside]
    names = [c.name for c in report.checks]
    assert names == [
        "mean_queue_len",
        "mean_delay_s",
        "mean_power_w",
        "busy_fraction",
        "mean_cycle_s",
    ]


def test_isolated_flows_have_exact_delay():
    # At a rate so high that flows essentially never overlap, every
    # deterministic flow takes exactly size/rate and every busy period
    # is one flow, so cycles equal completions.
    rate = 1e13
    cfg = make_config(
        rate_bps=rate,
        profile=FLAT,
        size_distribution="deterministic",
        n_arrivals=1000,
        warmup_fraction=0.0,
        seed=7,
    )
    st = simulate(cfg)
    assert st.completed_flows == 1000
    assert st.cycles_observed == 1000
    assert st.mean_delay_s == pytest.approx(1.6e7 / rate, rel=1e-9)
    assert st.busy_fraction == pytest.approx(1.6e7 / rate, rel=0.2)


def test_energy_accounting_identity():
    # The reported power, busy fraction, window, and cycle count must
    # tie together: E = busy * P_busy + idle * P_sleep + 2 E_sw cycles.
    cfg = make_config(warmup_fraction=0.0)
    st = simulate(cfg)
    prof = cfg.profile
    busy = st.busy_fraction * st.window_s
    idle = st.window_s - busy
    expect = (
        busy * prof.busy_power(cfg.rate_bps)
        + idle * prof.sleep_power_w
        + 2.0 * prof.switch_energy_j * st.cycles_observed
    )
    assert st.mean_power_w * st.window_s == pytest.approx(expect, rel=1e-9)


def test_littles_law_holds():
    st = simulate(make_config())
    lam_eff = st.completed_flows / st.window_s
    assert st.mean_queue_len == pytest.approx(lam_eff * st.mean_delay_s, rel=0.05)


def test_batch_means_shape():
    st = simulate(make_config())
    assert len(st.batch_means["power"]) == 20
    assert len(st.batch_means["queue_len"]) == 20
    assert st.mean_power_w == pytest.approx(np.mean(st.batch_means["power"]), rel=0.05)


def test_size_distributions_preserve_the_mean():
    rng = np.random.default_rng(3)
    mean = 1.6e7
    for dist in ("exponential", "deterministic"):
        draws = _draw_sizes(rng, dist, mean, 200000)
        assert np.mean(draws) == pytest.approx(mean, rel=0.01)
        assert np.all(draws >= 0)


def test_bounded_pareto_mean_and_support():
    rng = np.random.default_rng(5)
    mean = 1.6e7
    draws = _draw_sizes(rng, "bounded-pareto", mean, 400000)
    low, high = draws.min(), draws.max()
    assert high <= low * 1e3 * 1.001
    # the truncated pdf really has the requested mean
    a = 1.5
    l = low  # noqa: E741 - matches the usual pareto notation
    h = l * 1e3
    norm = 1.0 - (l / h) ** a

    def pdf(x):
        return a * l ** a / x ** (a + 1) / norm

    analytic_mean = quad(lambda x: x * pdf(x), l, h)[0]
    assert analytic_mean == pytest.approx(mean, rel=1e-3)
    assert np.mean(draws) == pytest.approx(mean, rel=0.05)


def test_pareto_sim_still_matches_queue_model():
    # processor sharing is insensitive to the size distribution, so the
    # heavy-tailed mix must reproduce the same stationary metrics
    cfg = make_config(size_distribution="bounded-pareto", n_arrivals=40000, seed=2024)
    report = validate_against_analytic(cfg)
    assert report.ok, [c for c in report.checks if not c.inside]


def test_trace_output(tmp_path):
    path = tmp_path / "events.tsv"
    cfg = make_config(n_arrivals=1000, trace_path=str(path))
    simulate(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s\tevent\tqueue_len\tenergy_j"
    kinds = {line.split("\t")[1] for line in lines[1:]}
    assert kinds == {"arrive", "depart"}
    # every flow leaves, so arrivals and departures balance
    n_arr = sum(1 for line in lines[1:] if "\tarrive\t" in line)
    n_dep = sum(1 for line in lines[1:] if "\tdepart\t" in line)
    assert n_arr == n_dep == 1000


def _lindley_emptying_times(arrivals, work_s):
    """When a work-conserving server with these arrival instants and
    service times empties. The workload just before arrival k is
    P_k - min(P_0..P_k), where P_k sums the service times minus the gaps
    before arrival k (Lindley's recursion); the server empties after
    arrival k when that workload plus its own work runs out before the
    next arrival."""
    p = np.concatenate(([0.0], np.cumsum(work_s[:-1] - np.diff(arrivals))))
    done = arrivals + p - np.minimum.accumulate(p) + work_s
    return done[np.append(done[:-1] <= arrivals[1:], True)]


@pytest.mark.parametrize("law", SIZE_DISTRIBUTIONS)
@pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
def test_emptying_instants_match_a_lindley_recursion(tmp_path, law, rho):
    # Processor sharing is work-conserving, so the busy periods do not
    # depend on the service order: the trace's queue_len == 0 rows must
    # be a FIFO server's emptying instants on the same draws, up to the
    # trace's printed resolution of 1e-9 s.
    t, n, seed = TrafficParams(), 20000, 7
    rate = t.offered_load_bps / rho
    path = tmp_path / "trace.tsv"
    simulate(make_config(rate_bps=rate, size_distribution=law, n_arrivals=n, seed=seed,
                         trace_path=str(path)))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    arrivals = np.cumsum(rng.exponential(1.0 / t.arrival_rate, size=n))
    sizes = _draw_sizes(rng, law, t.file_size_bits, n)
    expect = _lindley_emptying_times(arrivals, sizes / rate)
    rows = (line.split("\t") for line in path.read_text().splitlines()[1:])
    got = np.array([float(r[0]) for r in rows if r[2] == "0"])
    assert got.size == expect.size
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


def test_processor_sharing_slows_concurrent_flows():
    # Two permanent size classes: with deterministic sizes and a rate
    # where flows overlap, mean delay exceeds the no-sharing bound L/r
    # but matches the PS prediction.
    cfg = make_config(size_distribution="deterministic", rate_bps=3e7, n_arrivals=40000)
    st = simulate(cfg)
    assert st.mean_delay_s > 1.6e7 / 3e7
    rho = 1.6e7 / 3e7
    ps_delay = (rho / (1 - rho)) / 1.0
    assert st.mean_delay_s == pytest.approx(ps_delay, rel=0.05)


def test_simulate_module_is_not_shadowed():
    import vbsenergy.simulate as module

    assert isinstance(module, types.ModuleType)
    assert module.simulate is simulate
