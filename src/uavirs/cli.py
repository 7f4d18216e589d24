"""Command-line entry point: run experiments from scenario files.

Subcommands:
  trajopt <scenario>   minimum-time UAV data-collection mission
  deploy <scenario>    hybrid surface-deployment strategy comparison
  validate <scenario>  schema/semantic validation only

Each run writes plot-ready CSV tables plus one machine-readable summary
record into --out. Output numerics are fully deterministic: re-running the
same scenario file reproduces byte-identical tables.

Exit codes: 0 success, 2 usage/validation error, 3 infeasible, 4 internal
error.

`main` builds its parser once per process and parses each call into a fresh
namespace, so in-process callers can drive it repeatedly.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, List

from . import __version__
from .errors import ConfigurationError, ScenarioError
from .scenario import (
    DeploymentExperiment,
    DeploymentStrategy,
    Scenario,
    TrajectoryExperiment,
    _read_scenario,
    load_scenario,
    scenario_digest,
)

if TYPE_CHECKING:  # pragma: no cover - each command loads its own solver
    from .deployment import DeploymentResult
    from .trajectory import MissionResult

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


def _fmt(value: float) -> str:
    """Shortest round-trip float formatting, so emitted tables re-parse exactly."""
    return repr(float(value))


def trajectory_table(result: MissionResult) -> str:
    """CSV: slot, t_seconds, x, y, z, then one airtime-fraction column per node."""
    header = ["slot", "t_seconds", "x", "y", "z"] + [
        f"tau_{nid}" for nid in result.node_ids
    ]
    lines = [",".join(header)]
    wp = result.trajectory.waypoints.tolist()  # Python floats: no numpy scalar per value
    slots = result.schedule.fractions.T.tolist()  # [slot][node]
    delta = result.trajectory.slot_duration
    m = result.trajectory.num_slots
    for t, (x, y, z) in enumerate(wp):
        row = [str(t), _fmt(t * delta), _fmt(x), _fmt(y), _fmt(z)]
        if t < m:
            row += [_fmt(v) for v in slots[t]]
        else:  # the final waypoint closes the path; no slot is flown from it
            row += [_fmt(0.0)] * len(result.node_ids)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def deployment_table(results: List[DeploymentResult]) -> str:
    """CSV: strategy, element split, altitude, per-user rates, min rate."""
    user_ids = results[0].user_ids
    header = ["strategy", "n_aerial", "n_terrestrial", "altitude_m"] + [
        f"rate_{uid}" for uid in user_ids
    ] + ["min_rate"]
    lines = [",".join(header)]
    for res in results:
        row = [
            res.strategy.value,
            str(res.plan.aerial_elements),
            str(res.plan.terrestrial_elements),
            _fmt(res.plan.uirs_altitude),
        ]
        row += [_fmt(r) for r in res.per_user_rates]
        row.append(_fmt(res.min_rate))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _summary(scenario_bytes: bytes, wall_time: float, experiment: str, **fields) -> dict:
    """The summary record: provenance, then the experiment's own fields."""
    return dict(
        scenario_digest=scenario_digest(scenario_bytes),
        tool_version=__version__,
        wall_time_s=wall_time,
        experiment=experiment,
        **fields,
    )


def _open_in_place(path: Path):
    """Path.write_text's open without O_TRUNC, whose cut to zero made rewrites 6-10x slower."""
    return open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8")


def emit_results(table: str, summary: dict, scenario_file: Path, out_dir: Path) -> List[Path]:
    """Rewrite <stem>_<experiment>.csv and <stem>_summary.json in place; returns their paths.

    Both open before either is written; an unwritable output is a ScenarioError naming --out,
    and a file this call created is removed again (an earlier one is left as it was)."""
    table_path = out_dir / f"{scenario_file.stem}_{summary['experiment']}.csv"
    summary_path = out_dir / f"{scenario_file.stem}_summary.json"
    fresh = [path for path in (table_path, summary_path) if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with _open_in_place(table_path) as table_out, _open_in_place(summary_path) as summary_out:
            summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
            for out, text in ((table_out, table), (summary_out, summary_text)):
                out.write(text)
                out.truncate()
    except OSError as exc:  # a write that fails after the open names no file
        for path in fresh:
            with contextlib.suppress(OSError):  # never created, or not removable
                path.unlink()
        where = exc.filename or out_dir
        raise ScenarioError(f"cannot write {where}: {exc.strerror or exc}", field="--out") from exc
    return [table_path, summary_path]


def _apply_trajectory_overrides(scenario: Scenario, args) -> Scenario:
    """The scenario with each given flag replaced; the types built check every value.

    A ValueError names its flag. The slot length and max_time are replaced
    together: the experiment checks the pair, naming --max-time if given.
    """
    exp = scenario.experiment
    constraints, max_time = exp.constraints, exp.max_time
    flag = "--rate-target"
    try:
        if args.rate_target is not None:
            exp = replace(exp, rate_target=args.rate_target)
        flag = "--slot-duration"
        if args.slot_duration is not None:
            constraints = replace(constraints, slot_duration=args.slot_duration)
        if args.max_time is not None:
            flag, max_time = "--max-time", args.max_time
        if args.slot_duration is not None or args.max_time is not None:
            exp = replace(exp, constraints=constraints, max_time=max_time)
    except ValueError as exc:
        raise ScenarioError(str(exc), field=flag) from exc
    return scenario if exp is scenario.experiment else scenario.with_experiment(exp)


def _cmd_trajopt(args) -> int:
    scenario_file = Path(args.scenario)
    scenario, scenario_bytes = _read_scenario(scenario_file)
    if not isinstance(scenario.experiment, TrajectoryExperiment):
        raise ScenarioError("scenario holds a deployment experiment; use the deploy subcommand")
    scenario = _apply_trajectory_overrides(scenario, args)
    from .trajectory import min_time_mission  # numpy and scipy load only here

    started = time.perf_counter()
    result = min_time_mission(scenario)
    summary = _summary(
        scenario_bytes,
        time.perf_counter() - started,
        "trajectory",
        mission_time_s=result.mission_time,
        achieved_min_rate_bps_hz=result.achieved_min_rate,
        rate_target_bps_hz=result.rate_target,
        converged=result.converged,
        iterations=result.iterations,
        per_node_rates_bps_hz={
            nid: float(r) for nid, r in zip(result.node_ids, result.per_node_rates)
        },
    )
    written = emit_results(trajectory_table(result), summary, scenario_file, Path(args.out))
    if not args.quiet:
        status = "converged" if result.converged else "INFEASIBLE within max_time"
        print(
            f"trajopt {scenario.name}: mission_time={result.mission_time:.3f} s, "
            f"min_rate={result.achieved_min_rate:.4f} bps/Hz "
            f"(target {result.rate_target}) [{status}]"
        )
        for path in written:
            print(f"  wrote {path}")
    return EXIT_OK if result.converged else EXIT_INFEASIBLE


def _cmd_deploy(args) -> int:
    scenario_file = Path(args.scenario)
    scenario, scenario_bytes = _read_scenario(scenario_file)
    if not isinstance(scenario.experiment, DeploymentExperiment):
        raise ScenarioError("scenario holds a trajectory experiment; use the trajopt subcommand")
    strategies = scenario.experiment.strategies
    if args.strategies == "all":
        strategies = tuple(DeploymentStrategy)
    elif args.strategies is not None:
        strategies = (DeploymentStrategy(args.strategies),)
    from .deployment import _HybridRule, evaluate_strategy  # the deployment solver loads only here

    started = time.perf_counter()
    rule = _HybridRule.of(scenario)  # one rule builds and prices every strategy's plan
    results = [evaluate_strategy(scenario, s, _rule=rule) for s in strategies]
    summary = _summary(
        scenario_bytes,
        time.perf_counter() - started,
        "deployment",
        strategies={
            res.strategy.value: {
                "n_aerial": res.plan.aerial_elements,
                "n_terrestrial": res.plan.terrestrial_elements,
                "altitude_m": res.plan.uirs_altitude,
                "per_user_rates_bps_hz": {
                    uid: r for uid, r in zip(res.user_ids, res.per_user_rates)
                },
                "min_rate_bps_hz": res.min_rate,
            }
            for res in results
        },
    )
    written = emit_results(deployment_table(results), summary, scenario_file, Path(args.out))
    if not args.quiet:
        for res in results:
            print(
                f"deploy {scenario.name} [{res.strategy.value}]: "
                f"split=({res.plan.aerial_elements}, {res.plan.terrestrial_elements}), "
                f"altitude={res.plan.uirs_altitude:g} m, "
                f"min_rate={res.min_rate:.4f} bps/Hz"
            )
        for path in written:
            print(f"  wrote {path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = load_scenario(Path(args.scenario))
    if not args.quiet:
        kind = (
            "trajectory"
            if isinstance(scenario.experiment, TrajectoryExperiment)
            else "deployment"
        )
        print(f"OK: {scenario.name} ({kind} experiment, {len(scenario.nodes)} nodes)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavirs",
        description="UAV + reflecting-surface network simulator and optimizer",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario file to run")
    common.add_argument("--out", default="./out", help="output directory (default ./out)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    p_traj = sub.add_parser(
        "trajopt", parents=[common], help="minimum-time data-collection mission"
    )
    p_traj.add_argument(
        "--rate-target", type=float, default=None, help="override the per-node rate target"
    )
    p_traj.add_argument(
        "--slot-duration", type=float, default=None, help="override the slot length (s)"
    )
    p_traj.add_argument(
        "--max-time", type=float, default=None, help="override the mission-time cap (s)"
    )
    p_traj.set_defaults(func=_cmd_trajopt)

    p_dep = sub.add_parser(
        "deploy", parents=[common], help="surface-deployment strategy comparison"
    )
    p_dep.add_argument(
        "--strategies",
        choices=[s.value for s in DeploymentStrategy] + ["all"],
        default=None,
        help="which deployment strategies to evaluate (default: the scenario's list)",
    )
    p_dep.set_defaults(func=_cmd_deploy)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario", help="scenario file to validate")
    p_val.add_argument("--quiet", action="store_true")
    p_val.set_defaults(func=_cmd_validate)
    return parser


_parser = functools.cache(build_parser)  # built by the first main() call, then shared


def main(argv=None) -> int:
    """Run one subcommand; each call gets a new namespace from the one shared parser."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
