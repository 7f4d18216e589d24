import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from uavirs import trajectory
from uavirs.scenario import load_scenario, loads_scenario, scenario_path
from uavirs.trajectory import min_time_mission

from families import HOVER_CEILING, trajectory_scene

FIG4 = load_scenario(scenario_path("fig4"))


class TestTrajectoryFamily:
    def test_a_seed_gives_the_same_bytes(self, package_env):
        # in a fresh interpreter, under another string hash seed
        code = "from families import trajectory_scene; print(trajectory_scene(7), end='')"
        env = dict(package_env, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] += os.pathsep + str(Path(__file__).resolve().parent)
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == trajectory_scene(7)
        assert trajectory_scene(7) != trajectory_scene(8)

    @pytest.mark.parametrize("seed", range(20))
    def test_scene_follows_the_definition(self, seed):
        scn = loads_scenario(trajectory_scene(seed))
        fig4_sensors = {n.id: n.position for n in FIG4.sensor_nodes()}
        sensors = scn.sensor_nodes()
        k = len(sensors)
        assert 2 <= k <= 8
        assert [n.id for n in sensors] == sorted(n.id for n in sensors)
        for node in sensors:
            home = fig4_sensors[node.id]
            assert abs(node.position.x - home.x) <= 10.0
            assert abs(node.position.y - home.y) <= 10.0
            assert node.position.z == home.z
        (surface,) = scn.surfaces
        assert surface.num_elements in (0, 300)
        assert surface.covered_node_ids == FIG4.surfaces[0].covered_node_ids & {
            n.id for n in sensors
        }
        target = scn.experiment.rate_target
        assert 0.6 * HOVER_CEILING / k - 5e-4 <= target <= 0.95 * HOVER_CEILING / k + 5e-4
        assert (scn.experiment.constraints, scn.experiment.max_time) == (
            FIG4.experiment.constraints,
            30.0,
        )

    def test_the_backtrack_cap_keeps_every_answer(self):
        # The line search stops at max_step / 2048 (16 candidates). Its
        # earlier cap of 30 took no other step on these scenes: the same
        # mission time, verdict and min-rate bits.
        for seed in range(10):
            scn = loads_scenario(trajectory_scene(seed))
            res = min_time_mission(scn)
            with mock.patch.object(trajectory, "_MAX_BACKTRACKS", 30):
                longer = min_time_mission(scn)
            assert (res.mission_time, res.converged) == (longer.mission_time, longer.converged)
            assert float(res.achieved_min_rate).hex() == float(longer.achieved_min_rate).hex()
