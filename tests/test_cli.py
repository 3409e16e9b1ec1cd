"""Command line interface: subcommands, CSV output, and exit codes."""
import contextlib
import csv
import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_writer
from reference_walk import reference_sweep
from vbsenergy import cli, optimize
from vbsenergy.cli import COLUMNS, COMPARE_COLUMNS, SWEEP_VARS, build_parser, main, write_rows
from vbsenergy.config import _REGISTRY
from vbsenergy.errors import ConfigError, InfeasibleLoadError, InfeasibleScenarioError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_power_command(capsys):
    code, out, _ = run_cli(capsys, "power", "--rate", "77.56 Mbps", "--cores", "2")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["command"] == "power"
    assert row["status"] == "ok"
    assert row["source"] == "analytic"
    assert float(row["rate_bps"]) == 7.756e7
    assert int(row["n_cores"]) == 2
    assert float(row["avg_power_w"]) == pytest.approx(25.80318386567135, rel=1e-9)
    assert float(row["mean_delay_s"]) == pytest.approx(0.2599090318388564, rel=1e-9)


def test_power_rejects_unstable_rate(capsys):
    code, _, err = run_cli(capsys, "power", "--rate", "10 Mbps")
    assert code == 3
    assert "offered load" in err


def test_power_rejects_rate_over_core_capacity(capsys):
    # 50 Mbit/s does not fit on the single configured core
    code, _, err = run_cli(capsys, "power", "--rate", "50 Mbps")
    assert code == 3
    assert run_cli(capsys, "power", "--rate", "50 Mbps", "--cores", "2")[0] == 0


def test_power_rejects_rate_over_link_capacity(capsys):
    code, out, err = run_cli(capsys, "power", "--rate", "2Gbps")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_optimize_joint(capsys):
    code, out, _ = run_cli(capsys, "optimize")
    assert code == 0
    row = parse_rows(out)[0]
    assert int(row["n_cores"]) == 1
    assert float(row["rate_bps"]) == pytest.approx(37142857.14285714, rel=1e-9)
    assert float(row["avg_power_w"]) == pytest.approx(24.63117458907815, rel=1e-9)


def test_optimize_fixed_cores_and_verbose(capsys):
    code, out, err = run_cli(capsys, "optimize", "--cores", "2", "--verbose")
    assert code == 0
    row = parse_rows(out)[0]
    assert int(row["n_cores"]) == 2
    assert float(row["rate_bps"]) == pytest.approx(63827550.204645, rel=1e-9)
    assert "candidate:" in err


@pytest.mark.parametrize("config, override, error, message", [
    ("", ["--lambda", "3/s"], InfeasibleScenarioError,
     "1 core(s) cannot reach a stable rate for this load"),
    ("[compute]\nc0 = 3e9\n", [], InfeasibleLoadError,
     "1 core(s) cannot even run the rate-independent load"),
], ids=["lambda", "c0"])
def test_a_refused_fixed_count_raises_its_own_refusal(capsys, tmp_path, config, override,
                                                       error, message):
    cfg = tmp_path / "station.ini"
    cfg.write_text(config)
    settings = cli._settings(build_parser().parse_args(
        ["--config", str(cfg), "optimize", *override]))
    with pytest.raises(error) as refused:
        optimize.joint_optimize(settings.scenario, settings.n_cores_max, 1)
    assert type(refused.value) is error and str(refused.value) == message
    code, out, err = run_cli(capsys, "--config", str(cfg), "optimize", "--cores", "1", *override)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_a_sweep_row_on_a_refused_count_reads_infeasible(capsys):
    code, out, _ = run_cli(capsys, "sweep", "n_cores=1:3:3", "--lambda", "3/s")
    assert code == 0
    assert [r["status"] for r in parse_rows(out)] == ["infeasible", "ok", "ok"]


def test_optimize_with_overrides(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--lambda", "0.5 /s")
    assert code == 0
    row = parse_rows(out)[0]
    assert int(row["n_cores"]) == 2
    assert float(row["avg_power_w"]) == pytest.approx(16.60093, rel=1e-4)


def test_optimize_solves_past_a_probe_where_the_cost_rises(capsys):
    # The bracket's first doubling probes 80 Mbit/s, where the cost rises
    # and the stationarity gap is -inf; the 2-core root lies below it.
    code, out, _ = run_cli(capsys, "optimize", "--lambda", "2.5/s", "--alpha", "0.5",
                           "--cores", "2")
    assert code == 0
    assert parse_rows(out)[0]["rate_bps"] == "52264154.5708"
    code, out, _ = run_cli(capsys, "optimize", "--lambda", "2.5/s", "--alpha", "0.5")
    assert code == 0
    assert parse_rows(out)[0]["n_cores"] == "2"


@pytest.mark.parametrize("argv", [
    ("--lambda", "1e-320/s", "--file-size", "1bit"),
    ("--lambda", "1e-300/s", "--file-size", "1e-20bit", "--cores", "4"),
])
def test_optimize_solves_a_subnormal_offered_load(capsys, argv):
    # load * (1 + eps) rounds back to a subnormal load, so the rate solve
    # starts its lower end at the float above the load.
    code, out, _ = run_cli(capsys, "optimize", *argv, "--alpha", "1")
    assert code == 0
    assert parse_rows(out)[0]["status"] == "ok"


def test_sweep_single_step_equals_power(capsys):
    # a one-point delay sweep must agree with the power command at the
    # rate that yields that delay (32 Mbit/s for a 1 s target)
    code, sweep_out, _ = run_cli(capsys, "sweep", "target_delay=1:1:1", "--cores", "2")
    assert code == 0
    code, power_out, _ = run_cli(capsys, "power", "--rate", "32 Mbps", "--cores", "2")
    assert code == 0
    srow, prow = parse_rows(sweep_out)[0], parse_rows(power_out)[0]
    for col in ("rate_bps", "rho", "mean_queue_len", "mean_delay_s",
                "avg_power_w", "cost_z"):
        assert srow[col] == prow[col]


def test_sweep_flags_infeasible_points(capsys):
    code, out, _ = run_cli(capsys, "sweep", "target_delay=0.1:1:4:log", "--cores", "1")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 4
    statuses = [r["status"] for r in rows]
    assert statuses[0] == "over-compute-cap"
    assert statuses[-1] == "ok"
    assert rows[0]["avg_power_w"] == ""  # flagged rows keep blank metrics
    assert "[target_delay=" in rows[0]["scenario_id"]


def test_sweep_prints_core_counts_as_integers(capsys):
    code, out, _ = run_cli(capsys, "sweep", "target_delay=0.5:1:2", "--cores", "1000000000000")
    assert code == 0
    assert [r["n_cores"] for r in parse_rows(out)] == ["1000000000000"] * 2
    code, out, _ = run_cli(capsys, "sweep", "target_delay=0.5:1:2")  # sized per point
    assert [r["n_cores"] for r in parse_rows(out)] == ["2", "1"]


def test_sweep_cores(capsys):
    code, out, _ = run_cli(capsys, "sweep", "n_cores=1:4:4")
    assert code == 0
    rows = parse_rows(out)
    assert [int(r["n_cores"]) for r in rows] == [1, 2, 3, 4]
    assert all(r["status"] == "ok" for r in rows)
    # more cores never fall below the one-core optimum's power here
    powers = [float(r["avg_power_w"]) for r in rows]
    assert min(powers) == pytest.approx(powers[0], rel=1e-9)


def test_sweep_checks_the_core_grid_before_solving(capsys, monkeypatch):
    def solve(*args):
        raise AssertionError("a point was solved before the grid was checked")

    # Every sweep value's rates come from this solve, fixed count or not.
    monkeypatch.setattr(optimize, "_rate_for_cores", solve)
    code, out, err = run_cli(capsys, "sweep", "n_cores=1:4:5")
    assert code == 2
    assert out == "" and "got 1.75" in err


def test_sweep_checks_every_alpha_before_solving(capsys, monkeypatch):
    def solve(*args):
        raise AssertionError("a point was solved before every alpha was checked")

    # Only the third of the seven values, -1, is negative.
    monkeypatch.setattr(optimize, "_rate_for_cores", solve)
    code, out, err = run_cli(capsys, "sweep", "alpha=5:-1:7")
    assert code == 2
    assert out == "" and err == "error: alpha must be nonnegative\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "lambda=0.2:3:80"),
    ("sweep", "alpha=0.5:100:20:log", "--cores-max", "16"),
])
def test_a_sweep_builds_each_core_count_profile_once(capsys, monkeypatch, argv):
    walked, built = set(), []
    solve, profile = optimize._rate_for_cores, optimize.vbs_profile

    def counted_solve(sc, n, *rest):
        walked.add(n)
        return solve(sc, n, *rest)

    def counted_profile(*args):
        built.append(args[-1])
        return profile(*args)

    monkeypatch.setattr(optimize, "_rate_for_cores", counted_solve)
    monkeypatch.setattr(optimize, "vbs_profile", counted_profile)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    # One scalar profile per count walked, and the kernel's array of counts.
    assert len(built) <= len(walked) + 1


@pytest.mark.parametrize("argv, solves, gaps", [
    # The six walks hold 8 clamped counts, each decided by one gap, and
    # 6 optimum counts, which evaluate the gap only in their solves; with
    # every count solved this read 14 solves and 94 gaps.
    (("sweep", "alpha=0.5:50:6", "--cores-max", "8"), 6, 48),
    (("sweep", "lambda=0.2:3:6"), 14, 0),
])
def test_sweep_solves_and_gaps_go_through_the_traced_names(capsys, monkeypatch, argv,
                                                           solves, gaps):
    # perfbench/tracer.py counts solves and gap evaluations by rebinding
    # these module globals, so a solve or gap moved off them, or one
    # added, changes what the benchmark reads.
    calls = dict.fromkeys(("solve_optimal_rate", "optimality_gap"), 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(optimize, name)):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(optimize, name, counted)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == {"solve_optimal_rate": solves, "optimality_gap": gaps}


@st.composite
def batched_sweeps(draw):
    # Arrival rates up to 12 /s take 3 cores past their capacity, and at
    # 6.25 /s or more a walk of 22 cores reaches the link cap. The
    # examples below add a first candidate that the link cap refuses.
    var = draw(st.sampled_from(("alpha", "lambda", "file_size", "n_cores")))
    steps = draw(st.integers(1, 6))
    if var == "n_cores":
        lo = draw(st.integers(1, 30))
        hi = lo + steps - 1
    else:
        lo, hi = sorted(draw(st.lists({
            "alpha": st.floats(0.0, 100.0),
            "lambda": st.floats(0.05, 12.0),
            "file_size": st.floats(1e5, 3e8),
        }[var], min_size=2, max_size=2)))
    argv = ["sweep", f"{var}={lo!r}:{hi!r}:{steps}"]
    # An n_cores sweep refuses --cores; the refusal has its own test.
    if var != "n_cores" and draw(st.booleans()):
        argv += ["--cores", str(draw(st.integers(1, 8)))]
    argv += ["--cores-max", str(draw(st.integers(1, 30)))]
    for flag, values in (("--alpha", st.sampled_from(("0", "2", "10", "1e-6"))),
                         ("--lambda", st.sampled_from(("0.5/s", "3/s", "6.25/s", "10/s")))):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(batched_sweeps())
@example(["sweep", "lambda=0.2:12:8", "--cores", "3"])
@example(["sweep", "lambda=5:8:4", "--cores-max", "30"])
@example(["sweep", "alpha=0:100:5", "--lambda", "6.25/s", "--cores-max", "25"])
@example(["sweep", "file_size=1e6:1.6e8:6", "--cores-max", "24"])
@example(["sweep", "file_size=5e7:1.5e8:3", "--lambda", "10/s", "--cores-max", "80"])
@example(["sweep", "n_cores=1:24:24", "--lambda", "10/s"])
def test_batched_sweep_writes_the_per_value_bytes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    want = io.StringIO()
    reference_sweep(argv, want)
    assert out.getvalue() == want.getvalue()


def test_sweep_lambda_joint(capsys):
    code, out, _ = run_cli(capsys, "sweep", "lambda=0.5:1.5:3")
    assert code == 0
    rows = parse_rows(out)
    assert [int(r["n_cores"]) for r in rows] == [2, 1, 1]
    savings_power = [float(r["avg_power_w"]) for r in rows]
    assert savings_power == sorted(savings_power)  # heavier traffic costs more


def test_sweep_rejects_unknown_variable(capsys):
    code, _, err = run_cli(capsys, "sweep", "voltage=1:2:3")
    assert code == 2
    assert "voltage" in err
    assert run_cli(capsys, "sweep", "alpha=1:2")[0] == 2
    assert run_cli(capsys, "sweep", "alpha=0:1:0")[0] == 2
    assert run_cli(capsys, "sweep", "n_cores=1:2:2:log")[0] == 0  # log is allowed


def test_compare_cbs_optimal(capsys):
    code, out, _ = run_cli(capsys, "compare", "--policy", "cbs-optimal")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row["delay_s"]) == pytest.approx(0.2758860815274494, rel=1e-9)
    assert float(row["savings"]) == pytest.approx(0.6435482479655155, rel=1e-9)
    assert int(row["vbs_cores"]) == 2


def test_compare_grid(capsys):
    code, out, _ = run_cli(capsys, "compare")
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 40
    assert all(r["status"] == "ok" for r in rows)  # auto sizing keeps all feasible
    # the virtual station wins clearly at moderate delays; at very small
    # delays amplifier power dominates and the advantage shrinks
    mid = [r for r in rows if 0.2 <= float(r["delay_s"]) <= 2.0]
    assert mid and all(float(r["savings"]) > 0.55 for r in mid)
    tiny = min(rows, key=lambda r: float(r["delay_s"]))
    assert float(tiny["savings"]) < float(mid[0]["savings"])


def test_compare_requires_earth(capsys, tmp_path):
    cfg = tmp_path / "no-earth.ini"
    cfg.write_text("[earth]\nenabled = false\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "compare")
    assert code == 2
    assert "disabled" in err


def test_simulate_deterministic_output(capsys):
    args = ("simulate", "--rate", "50 Mbps", "--cores", "2",
            "--arrivals", "5000", "--seed", "42")
    code_a, out_a, err_a = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical CSV for equal seeds
    row = parse_rows(out_a)[0]
    assert row["source"] == "simulated"
    assert row["seed"] == "42"
    assert row["status"] == "ok"
    assert "inside 99% interval" in err_a
    # a different seed changes the sample path
    code_c, out_c, _ = run_cli(capsys, "simulate", "--rate", "50 Mbps",
                               "--cores", "2", "--arrivals", "5000", "--seed", "43")
    assert code_c == 0
    assert out_c != out_a


def test_simulate_rejects_overloaded_core_count(capsys):
    code, _, err = run_cli(capsys, "simulate", "--rate", "50 Mbps",
                           "--arrivals", "2000")
    assert code == 3


def test_config_show(capsys):
    code, out, _ = run_cli(capsys, "config-show")
    assert code == 0
    assert "[compute]" in out
    assert "n_cores = 1" in out
    assert "arrival_rate = 1 /s" in out


def test_config_show_reflects_overrides(capsys):
    code, out, _ = run_cli(capsys, "config-show", "--lambda", "1.5 /s",
                           "--file-size", "4 MB")
    assert code == 0
    assert "arrival_rate = 1.5 /s" in out
    assert "file_size = 4 MB" in out


def test_config_file_flows_through(capsys, tmp_path):
    cfg = tmp_path / "station.ini"
    cfg.write_text("[traffic]\narrival_rate = 0.5 /s\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "optimize")
    assert code == 0
    assert int(parse_rows(out)[0]["n_cores"]) == 2


def test_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "broken.ini"
    cfg.write_text("[compute]\nn_cores = charm\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "power", "--rate", "32 Mbps")
    assert code == 2
    assert "n_cores" in err


@pytest.mark.parametrize("content", ["[run\n", "[run]\ngarbage\n"],
                         ids=["unclosed-section", "bare-line"])
def test_malformed_config_file_exits_with_one_error_line(capsys, tmp_path, content):
    cfg = tmp_path / "broken.ini"
    cfg.write_text(content)
    code, out, err = run_cli(capsys, "--config", str(cfg), "optimize")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg) in err and "line" in err


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, "optimize", "--output", str(out_path))
    assert code == 0
    assert out == ""
    content = out_path.read_text()
    assert content.startswith("scenario_id,command,")
    assert "\r" not in content  # LF endings regardless of platform


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["power"])  # --rate is required
    assert ei.value.code == 2


# Inputs outside the model's domain (exit 2) or refused by it (exit 3).
# Each ends in one error line and no CSV.
REFUSED = [
    (("sweep", "lambda=0:1:3"), 2),
    (("sweep", "lambda0:1:3"), 2),
    (("sweep", "lambda=0:1:3:log"), 2),
    (("sweep", "alpha=0:1:1:log"), 2),
    (("sweep", "file_size=-1:1e7:3"), 2),
    (("sweep", "alpha=-1:1:3", "--cores", "2"), 2),
    (("optimize", "--cores", "0"), 2),
    (("sweep", "target_delay=nan:1:3"), 2),
    (("sweep", "target_delay=-1:0:2", "--cores", "0"), 2),
    # Far more steps or arrivals than memory holds; the allocation fails
    # at once.
    (("sweep", "target_delay=1:2:100000000000"), 2),
    (("simulate", "--rate", "50Mbps", "--cores", "2", "--arrivals", "9000000000000000"), 2),
    # Finite endpoints of opposite sign whose span overflows.
    (("sweep", "n_cores=1e308:-1e308:3"), 2),
    (("sweep", "target_delay=1e308:-1e308:3"), 2),
    (("optimize", "--alpha", "1e400"), 2),
    (("power", "--rate", "1e400"), 2),
    (("simulate", "--rate", "50 Mbps", "--cores", "2", "--arrivals", "1e400"), 2),
    (("sweep", "alpha=1:1e400:3"), 2),
    (("optimize", "--cores-max", "0"), 2),
    # Core counts past 2**53, where a float no longer holds every integer.
    (("sweep", "target_delay=0.1:1:3", "--cores", "100000000000000000000"), 2),
    (("power", "--rate", "50Mbps", "--cores", "100000000000000000000"), 2),
    (("sweep", "n_cores=1:9007199254740992:2"), 2),
    # An n_cores sweep sets the count itself, so --cores is refused.
    (("sweep", "n_cores=1:3:3", "--cores", "0"), 2),
    (("sweep", "n_cores=1:3:3", "--cores", "7"), 2),
    (("sweep", "lambda=0.5:1.5:3", "--cores-max", "0"), 2),
    (("simulate", "--rate", "50 Mbps", "--cores", "2", "--arrivals", "1000",
      "--seed", "-1"), 2),
    (("simulate", "--rate", "50 Mbps", "--cores", "2", "--arrivals", "1000",
      "--seed", "12345678901234567891"), 2),
    (("optimize", "--output", "/nonexistent/x.csv"), 2),
    (("simulate", "--rate", "50 Mbps", "--cores", "2", "--arrivals", "1000",
      "--output", "/nonexistent/x.csv"), 2),
    (("simulate", "--rate", "50 Mbps", "--cores", "2", "--arrivals", "1000",
      "--trace", "/nonexistent/t.tsv"), 2),
    (("simulate", "--rate", "50Mbps", "--cores", "2", "--arrivals", "2000", "--trace", ""), 2),
    (("power", "--rate", "10 Mbps"), 3),
    # The joint walk's first candidate is over the link cap.
    (("optimize", "--file-size", "162.5 MB", "--cores-max", "30"), 3),
]


@pytest.mark.parametrize("argv,expected", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
def test_refused_inputs_exit_with_one_error_line(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# Settings whose derived constants leave the float range (a power of a
# speed, the path loss, or a dB figure overflows or underflows), and a
# count past 2**53, where a float no longer holds every integer.
OUT_OF_RANGE = [
    ("compute", "n_cores", "1e300"),
    ("compute", "beta", "1e300"),
    ("compute", "ref_speed", "1e300"),
    ("compute", "ref_speed", "1e-300"),
    ("link", "carrier_frequency", "1e300"),
    ("link", "carrier_frequency", "1e-300"),
    ("link", "cell_radius", "1e300"),
    ("link", "cell_radius", "1e-300"),
    ("link", "noise_figure", "1e300 dB"),
    ("link", "noise_density", "1e300 dBm/Hz"),
]


@pytest.mark.parametrize("section,key,value", OUT_OF_RANGE,
                         ids=[f"{s}.{k}={v}" for s, k, v in OUT_OF_RANGE])
def test_settings_outside_the_float_range_exit_2(capsys, tmp_path, section, key, value):
    path = tmp_path / "station.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    code, out, err = run_cli(capsys, "--config", str(path), "optimize")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def run_python(code):
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_analytic_commands_load_neither_scipy_nor_numpy_ma():
    # scipy is only a test dependency, and np.unique would import
    # numpy.ma on its first call.
    code = (
        "import contextlib, io, sys\n"
        "import vbsenergy, vbsenergy.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert vbsenergy.cli.main(['optimize', '--cores', '2', '--alpha', '5']) == 0\n"
        "    assert vbsenergy.cli.main(['compare', '--policy', 'grid']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))\n"
    )
    assert run_python(code) == "[]\n"


def test_simulate_loads_no_scipy_module_and_runs_without_scipy():
    # The Student-t quantiles come from a table in the package, so a
    # simulation imports no scipy module, and one where scipy cannot be
    # imported at all prints the same rows.
    outputs = []
    for block in ("", "sys.modules['scipy'] = None\n"):
        code = (
            "import sys\n" + block +
            "import vbsenergy.cli\n"
            "code = vbsenergy.cli.main(['simulate', '--rate', '50Mbps', '--cores', '2',\n"
            "                           '--seed', '3', '--arrivals', '5000'])\n"
            "print(sorted(m for m, mod in sys.modules.items()\n"
            "             if m.split('.')[0] == 'scipy' and mod is not None))\n"
            "sys.exit(code)\n"
        )
        outputs.append(run_python(code))
    assert outputs[0].endswith(",ok\n[]\n")
    assert outputs[1] == outputs[0]


def test_simulation_that_fails_after_opening_its_trace_closes_it(capsys, tmp_path, monkeypatch):
    # The arrival draw for this many flows fails only after the trace
    # file is open; the run exits 2 and must still close the file.
    import vbsenergy.simulate

    opened = []

    def keep(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(vbsenergy.simulate, "open", keep, raising=False)
    code, out, _ = run_cli(capsys, "simulate", "--rate", "50Mbps", "--cores", "2",
                           "--arrivals", "9000000000000000", "--trace", str(tmp_path / "t.tsv"))
    assert (code, out) == (2, "")
    (fh,) = opened
    assert fh.closed


@pytest.mark.parametrize("linked", [False, True], ids=["same-name", "symlink"])
def test_output_and_trace_on_one_file_are_refused_before_simulating(capsys, tmp_path,
                                                                    monkeypatch, linked):
    import vbsenergy.simulate

    def no_run(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr(vbsenergy.simulate, "_run", no_run)
    path = tmp_path / "run.csv"
    trace = tmp_path / "link.tsv" if linked else path
    if linked:
        trace.symlink_to(path)
    code, out, err = run_cli(capsys, "simulate", "--rate", "50Mbps", "--cores", "2",
                             "--arrivals", "2000", "--output", str(path), "--trace", str(trace))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_bytes() == b""


def test_refused_command_leaves_the_output_file_empty(capsys, tmp_path):
    out_path = tmp_path / "result.csv"
    code, out, _ = run_cli(capsys, "power", "--rate", "10 Mbps", "--output", str(out_path))
    assert code == 3
    assert out == ""
    assert out_path.read_text() == ""


# sha256 of stdout for one argv per row shape: analytic points, flagged
# and blank sweep rows, both compare policies, a simulated row and the
# rendered configuration. Recorded before rows became plain tuples.
STDOUT_SHA256 = [
    (("power", "--rate", "50Mbps", "--cores", "2"),
     "d78d294c5499dfa2b192a52dd84f3895802667f555d9ab427b796cfeb6eea148"),
    (("optimize", "--cores", "2", "--alpha", "5"),
     "9c19b82c3b4bbf95cad80731c843c6cb79101b70877a8326ada6dbd3e790be9b"),
    (("optimize", "--cores-max", "8", "--lambda", "1.5/s", "--alpha", "2"),
     "348b98396bb933f82a25556fbc92f9e7ab2f60c9723c527cc606dc65e744efde"),
    (("sweep", "target_delay=1e-300:1:4"),
     "616f1f902c4534f546777cbacbd1ea315db8c7dd5db78c3dbf327ac04338a1b9"),
    (("sweep", "lambda=0.5:3:6", "--cores", "1"),
     "5abda9bf6f868cd5f531d4e4e0e74ba283c7a14c852a67a17a5a081ba88241af"),
    (("sweep", "n_cores=1:4:4", "--alpha", "2"),
     "07babb36ffba2b7781ea26aaa3e94ed7d842f33ca81565d6c43c3b30e875f77d"),
    (("compare", "--policy", "grid"),
     "34aa769494715425e8ed3df081a237bd4e745e8cb31a496b91c23baacf054320"),
    (("compare", "--policy", "cbs-optimal"),
     "13c460ca24b7e14854eb74a49e64c3142871c4fcd94f76e815cb10511f4f5504"),
    (("simulate", "--rate", "50Mbps", "--cores", "2", "--arrivals", "5000", "--seed", "7"),
     "b43cc32c1d7ddf09d969e00babc6e49a164358a88f0714c61892f8d2636d58b7"),
    (("config-show",),
     "4850aecdbea36b6b351a1e998315baeb28ed85e874f7228f185b515a184296e6"),
]


@pytest.mark.parametrize("argv,digest", STDOUT_SHA256,
                         ids=[" ".join(a) for a, _ in STDOUT_SHA256])
def test_stdout_matches_the_recorded_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# One argv per command and sweep variable; the n_cores sweep refuses its
# first count and the log delay sweep its first delay.
CSV_COMMANDS = [
    ("power", "--rate", "50Mbps", "--cores", "2"),
    ("optimize", "--alpha", "2"),
    ("sweep", "target_delay=0.1:1:4:log", "--cores", "1"),
    ("sweep", "alpha=0:10:3"),
    ("sweep", "lambda=0.5:3:4"),
    ("sweep", "file_size=1e6:3e7:3"),
    ("sweep", "n_cores=1:3:3", "--lambda", "3/s"),
    ("compare", "--policy", "grid"),
    ("compare", "--policy", "cbs-optimal"),
    ("simulate", "--rate", "50Mbps", "--cores", "2", "--arrivals", "2000", "--seed", "7"),
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=" ".join)
def test_every_csv_line_has_the_header_fields_and_no_quote(capsys, argv):
    # write_rows quotes nothing, so a field with a comma, a quote or a
    # line break would shift or split its line.
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, *lines = csv.reader(io.StringIO(out))
    assert lines and len(lines) == out.count("\n") - 1
    assert all(len(line) == len(header) for line in lines)
    assert '"' not in out


# The columns the CLI fills with text, core counts or the seed; every
# other column holds floats. A column draws a few cells of its kind,
# with or without blanks, and fills its rows from them at random
# (drawing every cell would make the test slow). No text cell holds a
# comma, a quote or a line break, as no CLI field does.
STR_COLUMNS = {"scenario_id", "command", "n_cores", "source", "seed", "status", "vbs_cores"}
_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e308])
_STRS = st.integers(max_value=2**53 - 1) | st.text(
    st.characters(blacklist_characters=',"\r\n'), max_size=6)


def column_cells(kind):
    return st.one_of(st.lists(kind, min_size=1, max_size=6),
                     st.lists(kind | st.none(), min_size=1, max_size=6),
                     st.lists(st.none(), min_size=1, max_size=2))


@st.composite
def csv_tables(draw):
    header = draw(st.sampled_from([COLUMNS, COMPARE_COLUMNS]))
    n_rows = draw(st.integers(0, 50))
    rnd = draw(st.randoms(use_true_random=True))
    columns = []
    for name in header:
        cells = draw(column_cells(_STRS if name in STR_COLUMNS else _FLOATS))
        columns.append([rnd.choice(cells) for _ in range(n_rows)])
    return header, list(zip(*columns))


def assert_writes_the_reference_bytes(rows, header=COLUMNS):
    got, want = io.StringIO(), io.StringIO()
    write_rows(got, rows, header)
    reference_writer.write_rows(want, rows, header)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(csv_tables())
def test_column_writer_writes_the_reference_bytes(table):
    header, rows = table
    assert_writes_the_reference_bytes(rows, header)


def test_column_writer_blanks_an_int_and_none_column_and_an_all_none_column():
    # An auto-sized sweep gives a refused row no core count, so n_cores
    # mixes ints and None; an analytic row never has a seed.
    ok = cli._row("a", "sweep", (5e7, 2, 0.5, 1.0, 0.26, 25.8, 27.1))
    refused = cli._row("b", "sweep", None, "infeasible")
    rows = [ok, refused, ok]
    n_cores, seed = COLUMNS.index("n_cores"), COLUMNS.index("seed")
    assert {type(r[n_cores]) for r in rows} == {int, type(None)}
    assert {r[seed] for r in rows} == {None}
    assert_writes_the_reference_bytes(rows)
    out = io.StringIO()
    write_rows(out, rows)
    assert out.getvalue().splitlines()[1:3] == [
        "a,sweep,50000000,2,0.5,1,0.26,25.8,27.1,analytic,,ok",
        "b,sweep,,,,,,,,analytic,,infeasible",
    ]


# Each command line with its exit code, the sha256 of its stdout, both
# recorded while every command still imported numpy, and whether it may
# load numpy. The scalar commands come first, then the seven refused
# inputs of perfbench's cli-cold catalogue (CLI_ERROR_OPS), whose error
# lines end the run before any array is built; sweeps, the compare grid
# and simulate compute on arrays.
EMPTY = hashlib.sha256(b"").hexdigest()
FRESH_PROCESS = [
    (("power", "--rate", "50Mbps", "--cores", "2"), 0,
     "d78d294c5499dfa2b192a52dd84f3895802667f555d9ab427b796cfeb6eea148", False),
    (("config-show",), 0,
     "4850aecdbea36b6b351a1e998315baeb28ed85e874f7228f185b515a184296e6", False),
    (("optimize", "--cores", "2", "--alpha", "0"), 0,
     "5682fc9e6eded70cdd23f7938dfaef3ae8ea3cca93e5fd5a572f179739dbb3cc", False),
    (("optimize", "--cores", "3", "--alpha", "5"), 0,
     "832d6468cf6553fff14708c2723f295a276e0dd842695b323ac3017da068427d", False),
    (("optimize", "--alpha", "10", "--cores-max", "8"), 0,
     "8d955fce04d7634dccc2f9189f604c2f30024d56eb3e5716d4140d3184d00b88", False),
    (("optimize", "--lambda", "1.5/s", "--cores-max", "4"), 0,
     "8be22e72d3e73c7fce7db43980f99b8f28855f18170732d5b043f5094589fd3c", False),
    (("compare", "--policy", "cbs-optimal"), 0,
     "13c460ca24b7e14854eb74a49e64c3142871c4fcd94f76e815cb10511f4f5504", False),
    (("sweep", "lambda=0:1:3"), 2, EMPTY, False),
    (("sweep", "file_size=-1:1e7:3"), 2, EMPTY, False),
    (("sweep", "alpha=-1:1:3", "--cores", "2"), 2, EMPTY, False),
    (("optimize", "--cores", "0"), 2, EMPTY, False),
    (("sweep", "target_delay=nan:1:3"), 2, EMPTY, False),
    (("optimize", "--lambda", "10/s", "--cores", "1"), 3, EMPTY, False),
    (("power", "--rate", "1Mbps"), 3, EMPTY, False),
    (("sweep", "alpha=1:50:12"), 0,
     "71946f625b782b179452f79268084f8e259d0f5e376065e1c7e7017c40104f94", True),
    (("sweep", "target_delay=0.1:2:12"), 0,
     "d4a15ee3e7cf2a2b66ab098adf6d480599578d4a660c1ecd637d538bb4195617", True),
    (("compare", "--policy", "grid"), 0,
     "34aa769494715425e8ed3df081a237bd4e745e8cb31a496b91c23baacf054320", True),
    (("simulate", "--rate", "50Mbps", "--cores", "2", "--arrivals", "5000", "--seed", "7"), 0,
     "b43cc32c1d7ddf09d969e00babc6e49a164358a88f0714c61892f8d2636d58b7", True),
]


@pytest.mark.parametrize("argv,code,digest,loads_numpy", FRESH_PROCESS,
                         ids=[" ".join(a) for a, *_ in FRESH_PROCESS])
def test_only_array_commands_load_numpy(monkeypatch, argv, code, digest, loads_numpy):
    # A fresh process runs the command as the console script does, then
    # reports whether numpy's core ran (numpy._core, numpy.core before 2.0):
    # importing the package binds numpy without running it, and only an
    # array loads it.
    monkeypatch.delenv("VBSENERGY_CONFIG", raising=False)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    script = ("import sys, vbsenergy.cli\n"
              "code = vbsenergy.cli.main(sys.argv[1:])\n"
              "print(any(m in sys.modules for m in ('numpy._core', 'numpy.core')),\n"
              "      file=sys.stderr)\n"
              "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()) == (code, digest)
    assert proc.stderr.splitlines()[-1] == str(loads_numpy), proc.stderr


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 40))
@example(0.0, 5e-324, 7)  # a step that underflows to 0
@example(1e308, -1e308, 3)  # a span that overflows
@example(0.1, 2.0, 12)
def test_linear_sweep_grids_are_np_linspace(start, stop, steps):
    # Linear grids are built in floats, with np.linspace's arithmetic, so
    # that a sweep refused for its values stops before numpy loads.
    spec = f"alpha={start!r}:{stop!r}:{steps}"
    with np.errstate(all="ignore"):
        want = np.linspace(start, stop, steps)
    if np.isfinite(want).all():
        _, values = cli._parse_sweep_spec(spec)
        assert [v.hex() for v in values] == [v.hex() for v in want.tolist()]
    else:
        with pytest.raises(ConfigError, match="leaves the float range"):
            cli._parse_sweep_spec(spec)


# Calls in one process that could leak parser state into the next, with
# their exit codes: a flag then its absence, a usage error then a valid
# call, and a file output then stdout. OUTPUT stands for a file path.
OUTPUT = "OUTPUT"
PARSER_SEQUENCES = [
    [(("optimize", "--alpha", "5"), 0), (("optimize",), 0)],
    [(("optimize", "--cores"), 2), (("optimize", "--cores", "2"), 0)],
    [(("power", "--rate", "50Mbps", "--cores", "2", "--output", OUTPUT), 0),
     (("power", "--rate", "50Mbps", "--cores", "2"), 0)],
]


@pytest.mark.parametrize("sequence", PARSER_SEQUENCES, ids=[
    " then ".join(" ".join(argv) for argv, _ in seq) for seq in PARSER_SEQUENCES])
def test_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path, sequence):
    # Usage messages wrap at the terminal width, which COLUMNS fixes.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("VBSENERGY_CONFIG", raising=False)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    assert build_parser() is build_parser()

    def run(i, argv, side):
        path = tmp_path / f"{side}-{i}.csv"
        argv = [str(path) if a == OUTPUT else a for a in argv]
        if side == "fresh":
            proc = subprocess.run([sys.executable, "-m", "vbsenergy.cli", *argv],
                                  env=env, capture_output=True)
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out, err = captured.out.encode(), captured.err.encode()
        return code, out, err, path.read_bytes() if path.exists() else None

    in_process = [run(i, argv, "in-process") for i, (argv, _) in enumerate(sequence)]
    assert [r[0] for r in in_process] == [code for _, code in sequence]
    for i, ((argv, _), got) in enumerate(zip(sequence, in_process)):
        assert got == run(i, argv, "fresh"), argv


def test_tiny_load_with_delay_penalty_brackets_the_root(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--lambda", "1e-60/s",
                           "--alpha", "1", "--cores", "2")
    assert code == 0
    assert parse_rows(out)[0]["status"] == "ok"


def test_sweep_flags_a_delay_no_finite_core_count_meets(capsys):
    code, out, _ = run_cli(capsys, "sweep", "target_delay=1e-300:1:2")
    assert code == 0
    assert [r["status"] for r in parse_rows(out)] == ["over-compute-cap", "ok"]


# Edge values, plus a few in the model's domain so runs get past parsing.
# Neither output nor trace path leaves a file behind.
FUZZ_OUTPUTS = (os.devnull, "/nonexistent/x.csv")
FUZZ_TRACES = (os.devnull, "/nonexistent/t.tsv")
FUZZ_KEYS = sorted(_REGISTRY)
FUZZ_VALUES = ("0", "-1", "1e-300", "1e300", "1e400", "nan", "junk", "1", "2", "3e7",
               "100000000000000000000")
_TRAFFIC_FLAGS = ("--alpha", "--lambda", "--file-size")
FUZZ_FLAGS = {
    "power": ("--cores", "--output", *_TRAFFIC_FLAGS),
    "optimize": ("--cores", "--cores-max", "--output", *_TRAFFIC_FLAGS),
    "sweep": ("--cores", "--cores-max", "--output", *_TRAFFIC_FLAGS),
    "compare": ("--policy", "--output", *_TRAFFIC_FLAGS),
    "simulate": ("--cores", "--seed", "--output", "--trace", *_TRAFFIC_FLAGS),
    "config-show": _TRAFFIC_FLAGS,
}


@st.composite
def fuzz_argv(draw):
    value = st.sampled_from(FUZZ_VALUES)
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    if command == "sweep":
        var = draw(st.sampled_from(SWEEP_VARS))
        steps = draw(st.sampled_from(("1", "3", *FUZZ_VALUES)))
        log = draw(st.sampled_from(("", ":log")))
        argv.append(f"{var}={draw(value)}:{draw(value)}:{steps}{log}")
    if command in ("power", "simulate"):
        argv += ["--rate", draw(value)]
    if command == "simulate":
        argv += ["--arrivals", "1000"]
    if command == "optimize" and draw(st.booleans()):
        argv.append("--verbose")
    for flag in draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), unique=True)):
        if flag == "--policy":
            choices = ("grid", "cbs-optimal", *FUZZ_VALUES)
        elif flag == "--output":
            choices = FUZZ_OUTPUTS
        elif flag == "--trace":
            choices = FUZZ_TRACES
        else:
            choices = FUZZ_VALUES
        argv += [flag, draw(st.sampled_from(choices))]
    # One key per file: two keys together can ask for a walk over
    # millions of core counts (kappa = 3e7 with n_cores_max = 3e7).
    setting = draw(st.none() | st.tuples(st.sampled_from(FUZZ_KEYS), value))
    return argv, setting


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(fuzz_argv())
def test_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, case):
    argv, setting = case
    if setting is not None:
        (section, key), value = setting
        path = tmp_path_factory.getbasetemp() / "fuzz.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        argv = ["--config", str(path), *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
