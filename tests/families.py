"""Seeded scene families: scenario texts drawn from random.Random(seed).

trajectory_scene(seed) is the trajectory family: jittered subsets of fig4's
sensors, with or without its surface, at a target each scene can reach at
some mission time. The same seed gives the same bytes.
"""

import random

import yaml

from uavirs import scenario_path

# The direct-only hover ceiling of a fig4 sensor (bps/Hz): its rate from
# straight above it at the shipped altitude. A target below ceiling / K is
# feasible at some mission time for K such sensors.
HOVER_CEILING = 10.497


def trajectory_scene(seed: int) -> str:
    """Scenario text of the trajectory family's scene for seed.

    Drawn from random.Random(seed) in this order: K = randint(2, 8); the
    kept sensors, sample(range(8), K) of fig4's in sorted order, each moved
    by uniform(-10, 10) m in x and then in y; the surface's element count,
    choice([0, 300]), covering fig4's covered sensors that are kept; and the
    target, round(uniform(0.6, 0.95) * HOVER_CEILING / K, 3). max_time stays
    at fig4's 30 s.
    """
    rng = random.Random(seed)
    doc = yaml.safe_load(scenario_path("fig4").read_text(encoding="utf-8"))
    uav, *sensors = doc["nodes"]
    k = rng.randint(2, 8)
    kept = [sensors[i] for i in sorted(rng.sample(range(8), k))]
    for node in kept:
        x, y, z = node["position"]
        x += rng.uniform(-10.0, 10.0)
        y += rng.uniform(-10.0, 10.0)
        node["position"] = [x, y, z]
    kept_ids = [node["id"] for node in kept]
    (surface,) = doc["surfaces"]
    surface["num_elements"] = rng.choice([0, 300])
    surface["covered_node_ids"] = [i for i in surface["covered_node_ids"] if i in kept_ids]
    doc["experiment"]["rate_target"] = round(rng.uniform(0.6, 0.95) * HOVER_CEILING / k, 3)
    doc["name"] = f"fig4-family-{seed}"
    doc["description"] = f"trajectory family scene {seed}: {k} jittered fig4 sensors"
    doc["nodes"] = [uav, *kept]
    return yaml.safe_dump(doc, sort_keys=False)
