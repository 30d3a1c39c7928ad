"""Command line driver for inversion, simulation and comparison runs.

Subcommands map onto the library entry points: ``invert`` solves the
feedforward boundary value problem, ``simulate`` runs one controller
configuration, ``compare`` runs all three on a shared inversion and
writes a metrics report plus a gnuplot script, and ``validate`` checks a
registered model against its finite-difference oracles.  ``compare`` runs
C2 in one forked process while this process solves the inversion and
runs C1 and C3, so it needs a platform with ``fork``.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import simulate as sim_mod
from .errors import ConfigError, ServoFunnelError
from .model import get_model, validate_model

_PLOT_SCRIPT = """\
# Tracking study plots; run `gnuplot plot.gp` next to the CSV files.
set datafile separator ','
set terminal pngcairo size 1400,900
set output 'tracking.png'
set multiplot layout 2,2
set xlabel 't [s]'
set key bottom left
set title 'output y1'
plot 'c1.csv' using 1:12 with lines title 'C1', \\
     'c2.csv' using 1:12 with lines title 'C2', \\
     'c3.csv' using 1:12 with lines title 'C3', \\
     'c1.csv' using 1:14 with lines dashtype 2 title 'reference'
set title 'output y2'
plot 'c1.csv' using 1:13 with lines title 'C1', \\
     'c2.csv' using 1:13 with lines title 'C2', \\
     'c3.csv' using 1:13 with lines title 'C3', \\
     'c1.csv' using 1:15 with lines dashtype 2 title 'reference'
set title 'bundled error against the funnel boundary'
plot 'c1.csv' using 1:24 with lines title 'C1', \\
     'c2.csv' using 1:24 with lines title 'C2', \\
     'c1.csv' using 1:25 with lines dashtype 2 title 'boundary'
set title 'inputs (C1)'
plot 'c1.csv' using 1:20 with lines title 'u1', \\
     'c1.csv' using 1:21 with lines title 'u2'
unset multiplot
"""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="servofunnel",
        description="Feedforward inversion and funnel tracking control "
                    "for a kinematic-loop robot.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one controller mode")
    p_sim.add_argument("--scenario", required=True, help="scenario file")
    p_sim.add_argument("--mode", required=True, choices=("C1", "C2", "C3"))
    p_sim.add_argument("--out", default=None, help="output directory")

    p_inv = sub.add_parser("invert", help="solve the feedforward BVP only")
    p_inv.add_argument("--scenario", required=True, help="scenario file")
    p_inv.add_argument("--out", default=None, help="output directory")

    p_cmp = sub.add_parser("compare", help="run C1, C2 and C3 and report")
    p_cmp.add_argument("--scenario", required=True, help="scenario file")
    p_cmp.add_argument("--out", default=None, help="output directory")

    p_val = sub.add_parser("validate", help="check a registered model")
    p_val.add_argument("--model", required=True,
                       help="model name, e.g. robot-reference")
    return parser


def _cmd_simulate(args):
    scn = sim_mod.parse_scenario(args.scenario)
    scn.mode = args.mode
    path, _, metrics = sim_mod.run_scenario(scn, out_dir=args.out)
    for line in metrics.report_lines():
        print(line)
    print(f"wrote {path}")
    return 0


def _cmd_invert(args):
    scn = sim_mod.parse_scenario(args.scenario)
    out_dir = args.out or scn.out_dir
    os.makedirs(out_dir, exist_ok=True)
    sol = sim_mod.solve_inversion(scn)
    path = os.path.join(out_dir, "bvp.csv")
    sol.write_csv(path)
    print(f"grid_points: {sol.grid.size}")
    print(f"newton_iterations: {sol.newton_iterations}")
    print(f"final_residual: {sol.final_residual:.6e}")
    print(f"peak_input: {np.linalg.norm(sol.u, axis=1).max():.10g}")
    print(f"wrote {path}")
    return 0


def _run_lane(scn, mode, out_dir):
    """Run ``scn`` in ``mode`` and write its CSV; returns ``(path, Metrics)``."""
    path, _, metrics = sim_mod.run_scenario(replace(scn, mode=mode), out_dir=out_dir)
    return path, metrics


def _cmd_compare(args):
    scn = sim_mod.parse_scenario(args.scenario)
    out_dir = args.out or scn.out_dir
    os.makedirs(out_dir, exist_ok=True)
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=fork) as pool:
        c2 = pool.submit(_run_lane, scn, "C2", out_dir)
        lanes = {"C1": _run_lane(scn, "C1", out_dir)}
        print(f"wrote {lanes['C1'][0]}")
        try:
            lanes["C3"] = _run_lane(scn, "C3", out_dir)
        finally:  # C2 precedes C3: its failure is the one reported, its line printed first
            lanes["C2"] = c2.result()
            print(f"wrote {lanes['C2'][0]}")
    print(f"wrote {lanes['C3'][0]}")
    metrics_by_mode = {mode: lanes[mode][1] for mode in ("C1", "C2", "C3")}
    report = sim_mod.compare(metrics_by_mode)
    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write(report.as_text())
    plot_path = os.path.join(out_dir, "plot.gp")
    with open(plot_path, "w") as fh:
        fh.write(_PLOT_SCRIPT)
    print(f"wrote {report_path}")
    print(f"wrote {plot_path}")
    print(report.as_text(), end="")
    return 0


def _cmd_validate(args):
    try:
        model, operating_set = get_model(args.model)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    report = validate_model(model, operating_set)
    print(report.summary())
    return 0 if report.passed else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "invert": _cmd_invert,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
}


def run_cli(argv=None):
    """Parse arguments and dispatch; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ServoFunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())
