"""Unit tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pytest  # noqa: E402

import ops  # noqa: E402
import tracer  # noqa: E402
import workload as workloadlib  # noqa: E402
from run import parse_importtime, per_layer, quantile, tail  # noqa: E402
from workload import GOLDENS, Outcome, check  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(30)]
    value, pct, beyond = tail(lat)
    assert value == 19.0 and beyond == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_quantile_is_a_sample_with_that_share_at_or_below():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert quantile(values, 0.9) == 5.0
    assert quantile(values, 0.5) == 3.0
    assert quantile(values, 0.2) == 1.0
    assert quantile([float(i) for i in range(1, 101)], 0.9) == 90.0


def test_trace_overhead_pairs_each_traced_pass_with_its_untraced_twin():
    passes = [{"phase": "untraced", "wall_s": w} for w in (1.0, 2.0, 9.0)]
    passes += [{"phase": "traced", "wall_s": w} for w in (1.1, 2.3)]
    m = per_layer({"passes": passes, "layers": {}}, {})
    assert m["trace.overhead_s"][0] == pytest.approx(0.2)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 5.0, 0, 0),    # child of root
        (2, 2.0, 3.0, 1, 0),    # grandchild
        (1, 6.0, 7.0, 0, 0),    # second child of root
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 3.0, 1.0, 1.0])


def test_layer_metrics_ratios_and_self_time():
    names = ["cli.main", "optimize.solve_optimal_rate", "optimize.optimality_gap",
             "lambertw.lambert_w0"]
    spans = [
        (0, 0.0, 1.0, -1, 0),
        (1, 0.1, 0.5, 0, 0),
        (2, 0.1, 0.2, 1, 0),
        (3, 0.12, 0.15, 2, 0),
        (2, 0.2, 0.3, 1, 0),
    ]
    m = tracer.layer_metrics(names, spans, {"results.rows": 4, "results.ok_rows": 3})
    assert m["optimize.gap_evals_per_solve"] == (2.0, "ratio")
    assert m["lambertw.calls"] == (1, "count")
    assert m["cli.self_s"][0] == pytest.approx(0.6)
    assert m["optimize.self_s"][0] == pytest.approx(0.4 - 0.03)
    assert m["results.ok_row_ratio"] == (0.75, "ratio")
    assert m["simulate.events_per_s"] == (0.0, "1/s")


def test_merge_renumbers_names_and_parents():
    a = {"names": ["cli.main"], "spans": [(0, 0.0, 1.0, -1, 0)], "counts": {"x": 1}}
    b = {"names": ["results.write_rows", "cli.main"],
         "spans": [(1, 2.0, 3.0, -1, 1), (0, 2.5, 2.6, 0, 1)], "counts": {"x": 2}}
    names, spans, counts = tracer.merge([a, b])
    assert names == ["cli.main", "results.write_rows"]
    assert spans[1] == (0, 2.0, 3.0, -1, 1)
    assert spans[2] == (1, 2.5, 2.6, 1, 1)
    assert counts["x"] == 3


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       700 |        700 |     scipy.stats",
        "import time:        30 |        730 |   vbsenergy.simulate",
        "import time:        20 |        900 | vbsenergy",
    ])
    m = parse_importtime(text)
    assert m["import.total_s"] == pytest.approx(900e-6)
    assert m["import.numpy_s"] == pytest.approx(150e-6)
    assert m["import.scipy_s"] == pytest.approx(700e-6)
    assert m["import.vbsenergy_self_s"] == pytest.approx(50e-6)


def test_check_tells_known_defects_from_wrong_output():
    refused = ops.CLI_ERROR_OPS[0]
    golden = {"exit": 2, "known_defect_exit": 1}
    assert check(refused, Outcome(2, "", "error: bad\n", 0.0), golden)[0] == "ok"
    assert check(refused, Outcome(1, "", "Traceback ...", 0.0), golden)[0] == "defect"
    assert check(refused, Outcome(0, "a,b\n", "", 0.0), golden)[0] == "wrong"
    op = ops.cli_power("50Mbps", 2)
    good = {"exit": 0, "stdout_sha256": hashlib.sha256(b"x\n").hexdigest()}
    assert check(op, Outcome(0, "x\n", "", 0.0), good)[0] == "ok"
    assert check(op, Outcome(0, "y\n", "", 0.0), good)[0] == "wrong"
    assert check(op, Outcome(0, "x\n", "", 0.0), None)[0] == "wrong"


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_streamed_op_has_a_golden(workload):
    with open(GOLDENS) as fh:
        goldens = json.load(fh)[workload]
    keys = {op.key for op in ops.catalogue(workload)}
    assert keys <= set(goldens)
    for seed in range(20):
        stream = ops.passes(workload, seed)
        for _ in range(5):
            assert {op.key for op in next(stream)} <= keys


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_pass_has_ops_of_every_class(workload):
    classes = ops.CLASSES[workload]
    assert len(classes) == 4
    assert {op.cls for op in ops.catalogue(workload)} == set(classes)
    stream = ops.passes(workload, 7)
    for _ in range(3):
        assert {op.cls for op in next(stream)} == set(classes)


def test_setup_probes_are_spread_over_the_run(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(workloadlib.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(workloadlib, "setup_probe", lambda: clock[0])
    probes = workloadlib.SetupProbes(0.0, 9.0)
    while not probes.done:
        probes()
        clock[0] += 0.25
    assert probes.samples == [float(i * 9.0 / workloadlib.SETUP_PROBES)
                              for i in range(workloadlib.SETUP_PROBES)]


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_passes_have_fixed_composition(workload):
    def kinds(seed):
        stream = ops.passes(workload, seed)
        return [sorted(op.kind for op in next(stream)) for _ in range(3)]
    assert kinds(1)[0] == kinds(1)[1] == kinds(2)[2]
