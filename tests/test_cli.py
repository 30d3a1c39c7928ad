"""End-to-end command line tests running in-process."""

import multiprocessing
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import servofunnel
from servofunnel import bvp, simulate
from servofunnel.cli import run_cli
from servofunnel.errors import FunnelViolation, StepSizeUnderflow

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
    defect = re.search(r"^max index1_solve defect against the LU: (\S+)$", out, re.M)
    assert defect and float(defect.group(1)) <= 1e-12


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


@pytest.mark.parametrize("keys", ["bvp_N = 5\n",
                                  "bvp_T0 = 1.0\nbvp_Tf = 0.5\n",
                                  "bvp_T0 = 3.0\n",
                                  "bvp_Tf = -1.0\n"])
@pytest.mark.parametrize("command", [["invert"], ["simulate", "--mode", "C2"]])
def test_bad_inversion_keys_are_config_errors(tmp_path, capsys, keys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(keys)
    code = run_cli(command + ["--scenario", str(cfg),
                              "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("keys", ["t_end = nan\n", "t_end = inf\n",
                                  "funnel.0.q = nan\n", "K1 = nan\n",
                                  "funnel.0.q = -1\n", "funnel.2.kappa = 0\n",
                                  "max_step = 1e-13\n", "out_dir =\n"])
def test_out_of_range_values_are_config_errors(tmp_path, capsys, keys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(keys)
    code = run_cli(["simulate", "--mode", "C3", "--scenario", str(cfg),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def _modules_loaded_by(statement):
    """Names in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(servofunnel.__file__))
    probe = f"import sys; {statement}; print(*sorted(sys.modules))"
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src)).stdout.split()


def test_import_loads_no_heavy_scipy_subpackage():
    # Start-up cost: the runtime needs numpy and scipy.linalg only.
    loaded = _modules_loaded_by("import servofunnel.cli")
    assert "servofunnel.simulate" in loaded
    for name in ("scipy.interpolate", "scipy.optimize", "scipy.sparse",
                 "scipy.special"):
        assert name not in loaded


def test_package_import_loads_only_what_is_asked_for():
    # The package re-exports nothing: callers import its modules.
    loaded = _modules_loaded_by("import servofunnel")
    assert [name for name in loaded if name.startswith("servofunnel.")] == []
    loaded = _modules_loaded_by("import servofunnel.robot")
    assert "servofunnel.robot" in loaded
    assert "servofunnel.cli" not in loaded


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


def test_compare_lanes_match_simulate(quick_scenario, tmp_path):
    # C2 runs in the forked process, C1 and C3 in this one; each CSV is
    # the one the single-mode command writes.
    assert run_cli(["compare", "--scenario", str(quick_scenario),
                    "--out", str(tmp_path / "study")]) == 0
    for mode in ("C1", "C2", "C3"):
        assert run_cli(["simulate", "--scenario", str(quick_scenario),
                        "--mode", mode, "--out", str(tmp_path / mode)]) == 0
        name = f"{mode.lower()}.csv"
        assert ((tmp_path / "study" / name).read_bytes()
                == (tmp_path / mode / name).read_bytes())


def test_compare_leaves_no_child_process(quick_scenario, tmp_path):
    assert run_cli(["compare", "--scenario", str(quick_scenario),
                    "--out", str(tmp_path / "study")]) == 0
    assert multiprocessing.active_children() == []


def test_compare_reports_funnel_exit_of_forked_lane(tmp_path, capsys):
    # C2 on the reference plant leaves its funnel in the forked process;
    # the error keeps its type and time across the process boundary.
    cfg = tmp_path / "exit.cfg"
    cfg.write_text("params = reference\nt_end = 0.7\n")
    code = run_cli(["compare", "--scenario", str(cfg),
                    "--out", str(tmp_path / "study")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ebar reached its funnel boundary at t = 0.631")
    assert multiprocessing.active_children() == []


def test_compare_reports_first_failure_in_mode_order(quick_scenario, tmp_path,
                                                     monkeypatch, capsys):
    # Patched before the fork, so the C2 lane inherits it.  C3 fails first
    # in time, but C2 precedes it in C1, C2, C3 order.
    integrate = simulate.integrate_closed_loop

    def failing_lanes(scn):
        if scn.mode == "C2":
            time.sleep(0.2)
            raise StepSizeUnderflow("C2 lane", time=0.125)
        if scn.mode == "C3":
            raise FunnelViolation("C3 lane", time=0.0625)
        return integrate(scn)

    monkeypatch.setattr(simulate, "integrate_closed_loop", failing_lanes)
    code = run_cli(["compare", "--scenario", str(quick_scenario),
                    "--out", str(tmp_path / "study")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "error: C2 lane at t = 0.125000\n"
    assert captured.out.splitlines() == [f"wrote {tmp_path / 'study' / 'c1.csv'}"]
