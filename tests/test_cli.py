"""Command line interface: subcommands, CSV output, and exit codes."""
import csv
import io

import pytest

from vbsenergy.cli import main


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


def test_optimize_with_overrides(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--lambda", "0.5 /s")
    assert code == 0
    row = parse_rows(out)[0]
    assert int(row["n_cores"]) == 2
    assert float(row["avg_power_w"]) == pytest.approx(16.60093, rel=1e-4)


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


def test_sweep_cores(capsys):
    code, out, _ = run_cli(capsys, "sweep", "n_cores=1:4:4")
    assert code == 0
    rows = parse_rows(out)
    assert [int(r["n_cores"]) for r in rows] == [1, 2, 3, 4]
    assert all(r["status"] == "ok" for r in rows)
    # more cores never fall below the one-core optimum's power here
    powers = [float(r["avg_power_w"]) for r in rows]
    assert min(powers) == pytest.approx(powers[0], rel=1e-9)


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
