"""Batch experiment front-end.

Subcommands: run a configured plan, sweep it over one axis, compute a stats
report from saved results, or validate a config and print derived physical
quantities without running anything. Scenario input comes from a preset
name or a key=value config file (grammar documented in the README); a few
flags override the experiment block; --threads sets the worker thread
count (default 1).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import (
    ALGORITHM_NAMES,
    PRESET_NAMES,
    ScenarioConfig,
    parse_config,
    preset_config,
)
from .experiments import SWEEP_AXES, make_plan, run_experiment
from .records import (
    PLOT_METRICS,
    STATS_METRICS,
    write_csv,
    write_plot_data,
    write_records,
    write_stats_report,
)

# =====================================================================
# Argument plumbing
# =====================================================================

def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="scenario config file (key=value grammar)")
    sub.add_argument("--preset", metavar="NAME", choices=PRESET_NAMES,
                     help=f"built-in scenario, one of {', '.join(PRESET_NAMES)}"
                          " (default desk_small when --config is absent)")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="DIR", default="results",
                     help="output directory (default: ./results)")
    sub.add_argument("--seed", type=int, metavar="U64",
                     help="override the master seed")
    sub.add_argument("--trials", type=int, metavar="N",
                     help="override the trial count")
    sub.add_argument("--algorithms", metavar="LIST",
                     help="comma-separated subset of "
                          f"{{{','.join(ALGORITHM_NAMES)}}}")
    sub.add_argument("--threads", type=int, default=1, metavar="N",
                     help="worker threads (default: 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holo-isac",
        description="Near-field ISAC batch experiments: run, sweep, stats, "
                    "validate.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="execute the configured plan")
    _add_scenario_flags(p_run)
    _add_run_flags(p_run)

    p_sweep = subs.add_parser("sweep", help="run the plan over a value grid")
    _add_scenario_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=[a for a in SWEEP_AXES if a != "none"],
                         help="swept quantity")
    p_sweep.add_argument("--grid", required=True, metavar="V1,V2,...",
                         help="comma-separated sweep values")

    p_stats = subs.add_parser(
        "stats", help="statistical comparison battery over saved results")
    p_stats.add_argument("results", metavar="RECORDS",
                         help="result record file from run or sweep")
    p_stats.add_argument("--baseline", metavar="RECORDS",
                         help="second record file; compare per algorithm "
                              "against it instead of across algorithms")
    p_stats.add_argument("--out", metavar="PATH",
                         help="report path (default: stats_report.txt next "
                              "to the input)")
    p_stats.add_argument("--metrics", metavar="LIST",
                         default=",".join(STATS_METRICS),
                         help="comma-separated metric columns "
                              f"(default: {','.join(STATS_METRICS)})")

    p_val = subs.add_parser(
        "validate", help="check a config and print derived quantities")
    _add_scenario_flags(p_val)
    return parser


def load_scenario(args) -> ScenarioConfig:
    if args.config is not None and args.preset is not None:
        raise ValueError("--config and --preset are mutually exclusive")
    if args.config is not None:
        return parse_config(args.config)
    return preset_config(args.preset or "desk_small")


def _parse_algorithms(text):
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    for name in names:
        if name not in ALGORITHM_NAMES:
            raise ValueError(
                f"unknown algorithm {name!r}; choose from "
                f"{', '.join(ALGORITHM_NAMES)}")
    if not names:
        raise ValueError("--algorithms list is empty")
    return names


# =====================================================================
# Subcommands
# =====================================================================

def _execute_plan(args, sweep_axis="none", sweep_values=()) -> int:
    config = load_scenario(args)
    if args.seed is not None:
        config = replace(config,
                         experiment=replace(config.experiment,
                                            master_seed=args.seed))
    if args.trials is not None:
        config = replace(config,
                         experiment=replace(config.experiment,
                                            trials=args.trials))
    algorithms = (_parse_algorithms(args.algorithms)
                  if args.algorithms is not None else None)
    plan = make_plan(config, sweep_axis=sweep_axis, sweep_values=sweep_values,
                     algorithms=algorithms)
    rows = run_experiment(plan, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    rec_path = os.path.join(args.out, "results.records")
    write_records(rows, rec_path)
    write_csv(rows, os.path.join(args.out, "results.csv"))
    write_plot_data(rows, os.path.join(args.out, "plot_data.csv"))

    failures = sum(row.failed for row in rows)
    stalled = sum(not row.converged for row in rows if not row.failed)
    print(f"wrote {len(rows)} rows to {rec_path} (+ results.csv, "
          f"plot_data.csv)")
    print(f"trials={plan.num_trials} sweep_points={len(plan.grid)} "
          f"algorithms={len(plan.algorithms)} threads={args.threads}")
    print(f"failures={failures} non_converged={stalled}")
    if rows and failures == len(rows):
        print(f"error: every one of the {len(rows)} rows failed",
              file=sys.stderr)
        return 1
    return 0


def cmd_run(args) -> int:
    return _execute_plan(args)


def cmd_sweep(args) -> int:
    values = tuple(float(tok) for tok in args.grid.split(",") if tok.strip())
    if not values:
        raise ValueError("--grid must contain at least one value")
    return _execute_plan(args, sweep_axis=args.axis, sweep_values=values)


def cmd_stats(args) -> int:
    metrics = tuple(tok.strip() for tok in args.metrics.split(",")
                    if tok.strip())
    known = PLOT_METRICS + ("iterations_used",)
    for metric in metrics:
        if metric not in known:
            raise ValueError(f"unknown metric {metric!r}; choose from "
                             f"{', '.join(known)}")
    if not metrics:
        raise ValueError("--metrics list is empty")
    out = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.results)), "stats_report.txt")
    findings = write_stats_report(args.results, out,
                                  baseline_rows=args.baseline,
                                  metrics=metrics)
    print(f"wrote {findings} findings to {out}")
    return 0


def cmd_validate(args) -> int:
    config = load_scenario(args)
    geom = config.array_geometry()
    print("config: OK")
    print(f"antennas = {geom.m_total} ({config.geometry.mx}x"
          f"{config.geometry.my})")
    print(f"wavelength = {config.wavelength:.6g} m")
    print(f"element_spacing = {geom.dx:.6g} m")
    print(f"rayleigh_distance = {geom.rayleigh_distance:.6g} m")
    print(f"p_max = {config.powers.p_max_dbm:.6g} dBm = "
          f"{config.p_max_watts:.6g} W")
    print(f"sigma_n2 = {config.sigma_n2_watts:.6g} W")
    print(f"sigma_s2 = {config.sigma_s2_watts:.6g} W")
    print(f"users = {config.population.num_users}, targets = "
          f"{config.population.num_targets}, groups = "
          f"{config.population.num_groups}")
    print(f"trials = {config.experiment.trials}, master_seed = "
          f"{config.experiment.master_seed}")
    return 0


# =====================================================================
# Entry point
# =====================================================================

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "stats": cmd_stats,
                "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
