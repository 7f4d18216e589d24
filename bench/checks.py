"""Output checks for one CLI solve, run outside the timed region.

Each check returns a list of problems; an empty list means the output passed.
The trajectory check recomputes per-node rates from the CSV through the
package's public per_slot_rates. The deployment check recomputes every
per-user rate with raw float math from the scenario geometry, the way
tests/oracles.py does, so it shares no rate code with the solver.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import List, Optional

import numpy as np

from uavirs import load_scenario
from uavirs.trajectory import Trajectory, per_slot_rates

SPEED_TOL = 1e-9  # metres, as in the CLI contract: segment <= v_max * slot + 1e-9
POSITION_TOL = 1e-9  # metres, endpoint and altitude pinning
RATE_RTOL = 1e-9


def output_paths(out_dir: Path, scenario_file: Path, command: str):
    """(CSV table, JSON summary) that the CLI writes for one scenario file."""
    table = "trajectory" if command == "trajopt" else "deployment"
    stem = scenario_file.stem
    return out_dir / f"{stem}_{table}.csv", out_dir / f"{stem}_summary.json"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RATE_RTOL, abs_tol=1e-12)


def check_trajectory(scenario_file: Path, table: str, summary: dict) -> List[str]:
    scenario = load_scenario(scenario_file)
    exp = scenario.experiment
    limits = exp.constraints
    rows = list(csv.reader(io.StringIO(table)))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    node_ids = [name[len("tau_"):] for name in header[5:]]
    waypoints = body[:, 2:5]
    tau = body[:-1, 5:].T
    m = tau.shape[1]
    problems = []

    steps = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    if steps.max() > limits.max_step + SPEED_TOL:
        problems.append(f"segment {steps.max()!r} m exceeds {limits.max_step!r} m")
    for label, want, got in (
        ("start", limits.start.as_array(), waypoints[0]),
        ("end", limits.end.as_array(), waypoints[-1]),
    ):
        if np.abs(got - want).max() > POSITION_TOL:
            problems.append(f"{label} waypoint moved to {got.tolist()}")
    if np.abs(waypoints[:, 2] - limits.fixed_altitude).max() > POSITION_TOL:
        problems.append("altitude left the fixed altitude")
    if tau.min() < 0.0 or tau.sum(axis=0).max() > 1.0 + 1e-9:
        problems.append("airtime fractions leave [0, 1] or a slot sums above 1")
    if not math.isclose(summary["mission_time_s"], m * limits.slot_duration, abs_tol=1e-9):
        problems.append("mission_time_s disagrees with the CSV slot count")
    if problems:  # per_slot_rates refuses speed-infeasible paths
        return problems

    rates = per_slot_rates(scenario, Trajectory(waypoints, limits.slot_duration))
    per_node = (tau * rates).sum(axis=1) / m
    reported = summary["per_node_rates_bps_hz"]
    for nid, rate in zip(node_ids, per_node):
        if not _close(float(rate), reported[nid]):
            problems.append(f"{nid}: recomputed rate {rate!r} != reported {reported[nid]!r}")
    if per_node.min() < exp.rate_target - 1e-9:
        problems.append(
            f"min rate {per_node.min()!r} misses the target {exp.rate_target!r}"
        )
    return problems


def _leg_amplitude(scenario, a_id, a_pos, b_id, b_pos, altitude) -> float:
    """sqrt(g0 * d**-alpha) of one leg with its state resolved by threshold."""
    rule = scenario.link_rules.get(a_id, b_id)
    if rule is None or altitude >= rule.min_altitude_for_los:
        exponent = scenario.path_loss_classes["los"].exponent
    elif rule.fallback_state.value == "blocked":
        return 0.0
    else:
        exponent = scenario.path_loss_classes["nlos"].exponent
    g0 = 10.0 ** (scenario.radio.ref_path_gain_db / 10.0)
    d = max(1.0, math.dist(a_pos, b_pos))
    return math.sqrt(g0 * d**-exponent)


def _raw_rate(scenario, user, surface, elements: int, altitude: float) -> float:
    """User rate through `surface` (or the direct link alone when None)."""
    bs = scenario.bs_node()
    bs_pos = (bs.position.x, bs.position.y, bs.position.z)
    user_pos = (user.position.x, user.position.y, user.position.z)
    amp = _leg_amplitude(
        scenario, bs.id, bs_pos, user.id, user_pos, max(bs_pos[2], user_pos[2])
    )
    if surface is not None and elements > 0:
        x, y, z = surface.position.x, surface.position.y, surface.position.z
        if surface.kind.value == "aerial":
            z = altitude
        up = _leg_amplitude(scenario, bs.id, bs_pos, surface.id, (x, y, z), z)
        down = _leg_amplitude(scenario, surface.id, (x, y, z), user.id, user_pos, z)
        amp += elements * up * down
    snr = scenario.radio.tx_power * amp * amp / scenario.radio.noise_power
    return math.log2(1.0 + snr) / len(scenario.user_nodes())


def _terrestrial_covers(surface, user) -> bool:
    if surface.covered_node_ids is not None:
        return user.id in surface.covered_node_ids
    offset = [u - s for u, s in zip(
        (user.position.x, user.position.y, user.position.z),
        (surface.position.x, surface.position.y, surface.position.z),
    )]
    if sum(o * n for o, n in zip(offset, surface.facing_normal)) <= 0.0:
        return False
    radius = surface.coverage_radius
    return radius is None or math.hypot(*offset) <= radius


def _aerial_los(scenario, surface, user, altitude: float) -> bool:
    rule = scenario.link_rules.get(surface.id, user.id)
    return rule is None or altitude >= rule.min_altitude_for_los


def check_deployment(scenario_file: Path, table: str, summary: dict) -> List[str]:
    scenario = load_scenario(scenario_file)
    budget = scenario.experiment.n_budget
    aerial = next(s for s in scenario.surfaces if s.kind.value == "aerial")
    terrestrial = next(s for s in scenario.surfaces if s.kind.value == "terrestrial")
    users = scenario.user_nodes()
    problems = []
    min_rates = {}
    for row in csv.DictReader(io.StringIO(table)):
        strategy = row["strategy"]
        n_air, n_ter = int(row["n_aerial"]), int(row["n_terrestrial"])
        altitude = float(row["altitude_m"])
        if n_air + n_ter != budget:
            problems.append(f"{strategy}: split ({n_air}, {n_ter}) != budget {budget}")
        rates = []
        for user in users:
            reported = float(row[f"rate_{user.id}"])
            options = [_raw_rate(scenario, user, None, 0, altitude)]
            if strategy in ("user", "hybrid") and _terrestrial_covers(terrestrial, user):
                options.append(_raw_rate(scenario, user, terrestrial, n_ter, altitude))
            if strategy in ("bs", "hybrid") and _aerial_los(scenario, aerial, user, altitude):
                options.append(_raw_rate(scenario, user, aerial, n_air, altitude))
            if not any(_close(reported, option) for option in options):
                problems.append(
                    f"{strategy}/{user.id}: rate {reported!r} matches none of {options!r}"
                )
            rates.append(reported)
        min_rates[strategy] = float(row["min_rate"])
        if min_rates[strategy] != min(rates):
            problems.append(f"{strategy}: min_rate is not the smallest user rate")
        if summary["strategies"][strategy]["min_rate_bps_hz"] != min_rates[strategy]:
            problems.append(f"{strategy}: summary and CSV disagree")
    if not min_rates.get("hybrid", -1.0) >= min_rates.get("bs", math.inf) >= min_rates.get(
        "user", math.inf
    ):
        problems.append(f"min rates are not ordered hybrid >= bs >= user: {min_rates}")
    return problems


def check_solve(
    command: str, scenario_file: Path, out_dir: Path, rc: int
) -> tuple[List[str], Optional[bytes], Optional[dict]]:
    """Check one solve's outputs; returns (problems, CSV bytes, summary).

    Exit code 3 (infeasible within max_time) still writes the capped result,
    so its outputs are read and checked; any other failure wrote nothing.
    """
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if rc not in (0, 3):
        return problems, None, None
    table_path, summary_path = output_paths(out_dir, scenario_file, command)
    table = table_path.read_bytes()
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    check = check_trajectory if command == "trajopt" else check_deployment
    problems += check(scenario_file, table.decode("utf-8"), summary)
    return problems, table, summary
