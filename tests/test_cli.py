"""End-to-end command line tests running in-process."""

import numpy as np
import pytest

from servofunnel import bvp, simulate
from servofunnel.cli import run_cli

QUICK_CFG = (
    "params = reference\n"
    "t_end = 0.25\n"
    "bvp_N = 60\n"
)


@pytest.fixture()
def quick_scenario(tmp_path):
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(QUICK_CFG)
    return cfg


def test_validate_registered_model(capsys):
    assert run_cli(["validate", "--model", "robot-reference"]) == 0
    out = capsys.readouterr().out
    assert "passed: True" in out


def test_validate_unknown_model(capsys):
    assert run_cli(["validate", "--model", "hovercraft"]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_missing_scenario(tmp_path, capsys):
    code = run_cli(["simulate", "--scenario", str(tmp_path / "nope.cfg"),
                    "--mode", "C3"])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_drive = on\n")
    code = run_cli(["simulate", "--scenario", str(cfg), "--mode", "C3"])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_invert_writes_solution(quick_scenario, tmp_path, capsys):
    out_dir = tmp_path / "inv"
    code = run_cli(["invert", "--scenario", str(quick_scenario),
                    "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "grid_points: 61" in out
    assert "final_residual:" in out
    csv = out_dir / "bvp.csv"
    assert csv.exists()
    data = np.loadtxt(csv, delimiter=",", skiprows=1)
    assert data.shape == (61, 15)


def test_simulate_feedforward_mode(quick_scenario, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    code = run_cli(["simulate", "--scenario", str(quick_scenario),
                    "--mode", "C3", "--out", str(out_dir)])
    assert code == 0
    out = capsys.readouterr().out
    assert "peak_input:" in out
    assert "step_count:" in out
    assert (out_dir / "c3.csv").exists()


def test_simulate_funnel_exit_names_chain_and_time(tmp_path, capsys):
    # Feedback alone on the reference plant loses the bundled error.
    cfg = tmp_path / "exit.cfg"
    cfg.write_text("params = reference\nt_end = 0.7\n")
    code = run_cli(["simulate", "--scenario", str(cfg), "--mode", "C2",
                    "--out", str(tmp_path / "sim")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ebar reached its funnel boundary at t = 0.631")


def test_compare_solves_one_inversion_for_c1_and_c3(quick_scenario, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(simulate, "_BVP_CACHE", {})
    calls = []
    solve = bvp.solve_bvp

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(bvp, "solve_bvp", counting_solve)
    code = run_cli(["compare", "--scenario", str(quick_scenario),
                    "--out", str(tmp_path / "study")])
    assert code == 0
    assert len(calls) == 1


def test_compare_produces_study_artifacts(quick_scenario, tmp_path, capsys):
    out_dir = tmp_path / "study"
    code = run_cli(["compare", "--scenario", str(quick_scenario),
                    "--out", str(out_dir)])
    assert code == 0
    for name in ("c1.csv", "c2.csv", "c3.csv", "report.txt", "plot.gp"):
        assert (out_dir / name).exists()
    report = (out_dir / "report.txt").read_text()
    assert "ratio_output_1:" in report
    assert "ratio_ee_2:" in report
    assert "C1.min_funnel_margin:" in report
    out = capsys.readouterr().out
    assert "wrote" in out
