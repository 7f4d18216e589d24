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
from .deployment import (
    DeploymentPlan,
    DeploymentResult,
    DeploymentStrategy,
    allocation_sweep,
    evaluate_strategy,
    user_rate,
)
from .errors import ConfigurationError, ScenarioError
from .irs import IrsSurface, SurfaceKind, covers
from .scenario import (
    DeploymentExperiment,
    Scenario,
    TrajectoryConstraints,
    TrajectoryExperiment,
    load_scenario,
    loads_scenario,
    scenario_digest,
    scenario_path,
)


def __getattr__(name):
    """Import the trajectory solver, and numpy and scipy with it, on first use (PEP 562).

    The names of __all__ not bound above are the solver's; nothing else in the
    package needs scipy, and only array input needs numpy. The two are most of
    the package's import time.
    """
    if name != "trajectory" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    trajectory = _import_module(".trajectory", __name__)
    return trajectory if name == "trajectory" else getattr(trajectory, name)


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
