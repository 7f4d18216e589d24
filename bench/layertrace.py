"""Per-layer trace: count and time calls at the boundaries of uavirs modules.

LayerTrace wraps every public function of the layer modules, plus the LP
solver the trajectory module calls, by rebinding each name in every uavirs
module that holds it. Calls inside a module go through its own global names,
so they are counted too. Nothing under src/ changes, and uninstall() restores
every original binding.

A stack of open calls gives each function's self time: its own duration minus
the part its traced callees cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Callable, Dict, List

LAYERS = ("scenario", "cli", "trajectory", "deployment", "irs", "channel")
# Solver calls made inside a layer, traced under the name of the layer calling them.
EXTERNAL = {"trajectory": ("linprog",)}


class CallStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class LayerTrace:
    """Rebinds layer functions to timing wrappers while installed."""

    def __init__(self):
        self.stats: Dict[str, CallStats] = {}
        self.improve_accepted = 0
        self.lp_stage_s = [0.0, 0.0]  # stage 1, stage 2 (with retries)
        self.lp_retries = 0
        self.missions: List[object] = []  # MissionResult of every traced solve
        self.splits = 0
        self._stack: List[list] = []  # per open call: [child seconds, LP calls]
        self._saved: List[tuple] = []

    def __getitem__(self, name: str) -> CallStats:
        return self.stats.get(name, CallStats())

    def _improve_returned(self, args, result) -> None:
        self.improve_accepted += result is not args[1]

    def _mission_returned(self, args, result) -> None:
        self.missions.append(result)

    def _sweep_returned(self, args, result) -> None:
        self.splits += len(result)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        clock = time.perf_counter
        is_lp = name == "trajectory.linprog"
        on_return = {
            "trajectory.improve_trajectory": self._improve_returned,
            "trajectory.min_time_mission": self._mission_returned,
            "deployment.allocation_sweep": self._sweep_returned,
        }.get(name)

        def traced(*args, **kwargs):
            if is_lp and stack:
                parent = stack[-1]
                stage = min(parent[1], 1)
                self.lp_retries += parent[1] >= 2
                parent[1] += 1
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                stats.calls += 1
                stats.total_s += seconds
                stats.self_s += seconds - frame[0]
                if is_lp and stack:
                    self.lp_stage_s[stage] += seconds
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"uavirs.{layer}") for layer in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
            for attr in EXTERNAL.get(layer, ()):
                obj = getattr(module, attr, None)
                if obj is not None:
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in targets.items()}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def metrics(self, solves: int) -> Dict[str, tuple]:
        """Per-layer metrics per traced solve: name -> (value, unit)."""
        n = max(solves, 1)
        improve = self["trajectory.improve_trajectory"]
        schedule = self["trajectory.optimal_schedule"]
        mission = self["trajectory.min_time_mission"]
        lp = self["trajectory.linprog"]
        timed_probes = sum(
            sum(1 for p in getattr(r, "probes", ()) if getattr(p, "note", "") != "speed")
            for r in self.missions
        )
        out = {
            "mission_time_s": (
                sum(getattr(r, "mission_time", 0.0) for r in self.missions) / n, "s"),
            "trajectory.improve_s": (improve.total_s / n, "s"),
            "trajectory.improve_calls": (improve.calls / n, "count"),
            "trajectory.improve_accept_ratio": (
                self.improve_accepted / improve.calls if improve.calls else 0.0, "ratio"),
            "trajectory.probes": (timed_probes / n, "count"),
            "trajectory.bcd_iterations": (
                sum(getattr(r, "iterations", 0) for r in self.missions) / n, "count"),
            "trajectory.mission_s": (mission.total_s / n, "s"),
            "trajectory.other_s": (
                (mission.total_s - improve.total_s - schedule.total_s) / n, "s"),
            "trajectory.schedule_calls": (schedule.calls / n, "count"),
            "trajectory.schedule_s": (schedule.total_s / n, "s"),
            "trajectory.schedule_build_s": (schedule.self_s / n, "s"),
            "trajectory.lp_solves": (lp.calls / n, "count"),
            "trajectory.lp_stage1_s": (self.lp_stage_s[0] / n, "s"),
            "trajectory.lp_stage2_s": (self.lp_stage_s[1] / n, "s"),
            "trajectory.lp_stage2_retries": (self.lp_retries / n, "count"),
            "deployment.evaluate_s": (self["deployment.evaluate_strategy"].total_s / n, "s"),
            "deployment.sweep_s": (self["deployment.allocation_sweep"].total_s / n, "s"),
            "deployment.splits": (self.splits / n, "count"),
            "deployment.user_rate_calls": (self["deployment.user_rate"].calls / n, "count"),
            "deployment.user_rate_s": (self["deployment.user_rate"].total_s / n, "s"),
            "irs.covers_calls": (self["irs.covers"].calls / n, "count"),
            "irs.min_serving_altitude_calls": (
                self["irs.min_serving_altitude"].calls / n, "count"),
            "channel.path_gain_calls": (self["channel.path_gain"].calls / n, "count"),
            "channel.resolve_link_state_calls": (
                self["channel.resolve_link_state"].calls / n, "count"),
            "scenario.load_s": (self["scenario.load_scenario"].total_s / n, "s"),
            "cli.emit_s": (self["cli.emit_results"].total_s / n, "s"),
        }
        return out

    def table(self) -> List[str]:
        """One line per traced function, busiest self time first."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1].self_s)
        return [
            f"  {name:<40} calls={s.calls:<8} total={s.total_s:.6f}s self={s.self_s:.6f}s"
            for name, s in rows
            if s.calls
        ]
