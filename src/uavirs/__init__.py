"""uavirs: simulator and optimizer for UAV + reflecting-surface networks.

The package models reflecting-surface-enhanced air-to-ground channels,
optimizes minimum-time UAV data-collection trajectories under max-min rate
targets, and optimizes hybrid aerial/terrestrial surface deployment with
reflecting-element allocation.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .channel import (
    LinkRuleSet,
    LinkState,
    LinkStateRule,
    Node,
    NodeRole,
    PathLossModel,
    Position3D,
    RadioParams,
    leg_amplitude,
    link_rate,
    path_gain,
    resolve_link_state,
)
from .errors import ConfigurationError, ScenarioError
from .irs import IrsSurface, SurfaceKind, covers
from .scenario import (
    DeploymentExperiment,
    DeploymentStrategy,
    Scenario,
    TrajectoryConstraints,
    TrajectoryExperiment,
    load_scenario,
    loads_scenario,
    scenario_digest,
    scenario_path,
)


# Each solver's names, and the module __getattr__ imports for them on first use.
_SOLVER_OF = dict.fromkeys(
    ("deployment", "DeploymentPlan", "DeploymentResult", "allocation_sweep", "evaluate_strategy",
     "user_rate"), "deployment"
) | dict.fromkeys(
    ("trajectory", "CandidateProbe", "MissionResult", "Schedule", "Trajectory",
     "improve_trajectory", "min_time_mission", "optimal_schedule", "per_slot_rates",
     "straight_line_trajectory"), "trajectory"
)


def __getattr__(name):
    """Import a solver on first use of its names (PEP 562).

    Loading and validating scenarios needs neither solver: `uavirs deploy`
    loads only the deployment solver, and `uavirs trajopt` only the trajectory
    solver. The latter brings numpy and scipy, which nothing else in the
    package needs (array input aside) and which are most of its import time.
    """
    module = _SOLVER_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    solver = _import_module(f".{module}", __name__)
    return solver if name == module else getattr(solver, name)


__all__ = [
    "__version__",
    "CandidateProbe",
    "ConfigurationError",
    "DeploymentExperiment",
    "DeploymentPlan",
    "DeploymentResult",
    "DeploymentStrategy",
    "IrsSurface",
    "LinkRuleSet",
    "LinkState",
    "LinkStateRule",
    "MissionResult",
    "Node",
    "NodeRole",
    "PathLossModel",
    "Position3D",
    "RadioParams",
    "Scenario",
    "ScenarioError",
    "Schedule",
    "SurfaceKind",
    "Trajectory",
    "TrajectoryConstraints",
    "TrajectoryExperiment",
    "allocation_sweep",
    "covers",
    "evaluate_strategy",
    "improve_trajectory",
    "leg_amplitude",
    "link_rate",
    "load_scenario",
    "loads_scenario",
    "min_time_mission",
    "optimal_schedule",
    "path_gain",
    "per_slot_rates",
    "resolve_link_state",
    "scenario_digest",
    "scenario_path",
    "straight_line_trajectory",
    "user_rate",
]
