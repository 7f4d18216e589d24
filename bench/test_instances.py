"""Tests of the seeded instance generator.

Run with: python3 -m unittest discover -s bench -p "test_*.py"
"""

import itertools
import math
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import instances

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from uavirs import load_scenario, scenario_digest  # noqa: E402
from uavirs.cli import main as cli_main  # noqa: E402

SEEDS = (0, 1, 2, 7, 12345)


def points(scenario):
    """Every positioned object and the mission endpoints, in file order."""
    out = [n.position for n in scenario.nodes] + [s.position for s in scenario.surfaces]
    exp = scenario.experiment
    if hasattr(exp, "constraints"):
        out += [exp.constraints.start, exp.constraints.end]
    return out


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def generate(self, workload, seed, sub="a"):
        return instances.generate(ROOT, workload, seed, self.tmp / sub / f"{workload}-{seed}")

    def test_seed_zero_is_the_shipped_file(self):
        for workload, (_, stem) in instances.WORKLOADS.items():
            (path,) = self.generate(workload, 0)
            shipped = instances.shipped_path(ROOT, stem).read_bytes()
            self.assertEqual(path.read_bytes(), shipped)
            self.assertEqual(scenario_digest(path.read_bytes()), scenario_digest(shipped))

    def test_equal_seeds_give_identical_files(self):
        for workload, seed in itertools.product(instances.WORKLOADS, SEEDS):
            first = [p.read_bytes() for p in self.generate(workload, seed, "a")]
            again = [p.read_bytes() for p in self.generate(workload, seed, "b")]
            self.assertEqual(first, again)

    def test_other_seeds_change_the_files(self):
        for workload in instances.WORKLOADS:
            one = [p.read_bytes() for p in self.generate(workload, 1)]
            two = [p.read_bytes() for p in self.generate(workload, 2)]
            self.assertNotEqual(one, two)

    def test_every_file_validates(self):
        for workload, seed in itertools.product(instances.WORKLOADS, SEEDS):
            for path in self.generate(workload, seed):
                self.assertEqual(cli_main(["validate", str(path), "--quiet"]), 0, path)

    def test_rigid_motion_keeps_every_distance(self):
        for workload, (command, stem) in instances.WORKLOADS.items():
            if command != "trajopt":
                continue
            shipped = points(load_scenario(instances.shipped_path(ROOT, stem)))
            for seed in SEEDS[1:]:
                (path,) = self.generate(workload, seed)
                moved_scenario = load_scenario(path)
                moved = points(moved_scenario)
                self.assertNotEqual(moved, shipped)
                for (a, b), (c, d) in zip(
                    itertools.combinations(shipped, 2), itertools.combinations(moved, 2)
                ):
                    self.assertAlmostEqual(a.distance_to(b), c.distance_to(d), delta=1e-6)
                for p, q in zip(shipped, moved):
                    self.assertEqual(p.z, q.z)
                for surface in moved_scenario.surfaces:
                    self.assertAlmostEqual(math.hypot(*surface.facing_normal), 1.0, delta=1e-8)

    def test_budgets_cover_each_stratum_and_nothing_else_changes(self):
        shipped = load_scenario(instances.shipped_path(ROOT, "fig5"))
        low, high = instances.BUDGET_RANGE
        width = (high - low) / instances.DEPLOY_INSTANCES
        for seed in SEEDS[1:]:
            paths = self.generate("deploy-sweep", seed)
            self.assertEqual(len(paths), instances.DEPLOY_INSTANCES)
            for i, path in enumerate(paths):
                scenario = load_scenario(path)
                budget = scenario.experiment.n_budget
                self.assertLessEqual(low + i * width - 1, budget)
                self.assertLess(budget, low + (i + 1) * width)
                self.assertEqual(
                    replace(scenario, experiment=shipped.experiment), shipped
                )


if __name__ == "__main__":
    unittest.main()
