"""Reproduce the data-collection comparison: minimum mission time with versus
without the 300-element terrestrial surface, on the shipped fig4 scenario.

Run with `python demos/data_collection_mission.py` (takes ~1 s).
"""

from uavirs import load_scenario, min_time_mission, scenario_path


def describe(label, scenario, result):
    print(f"\n{label}")
    print(f"  mission time       : {result.mission_time:.1f} s")
    print(f"  achieved min rate  : {result.achieved_min_rate:.3f} bps/Hz "
          f"(target {result.rate_target})")
    print(f"  durations probed   : {len(result.probes)}, "
          f"BCD iterations {result.iterations}")
    print("  closest approach per sensor:")
    for node in scenario.sensor_nodes():
        covered = scenario.covering_surface(node.id) is not None
        d = result.trajectory.closest_approach(node.position)
        print(f"    {node.id} ({'covered' if covered else 'uncovered'}): {d:6.1f} m")


def main():
    scenario = load_scenario(scenario_path("fig4"))
    print(f"scenario: {scenario.name}")
    print(f"  {len(scenario.sensor_nodes())} sensors, surface with "
          f"{scenario.surfaces[0].num_elements} elements covering "
          f"{sorted(scenario.surfaces[0].covered_node_ids)}")

    with_surface = min_time_mission(scenario)
    without_surface = min_time_mission(scenario.without_irs())

    describe("WITH the reflecting surface", scenario, with_surface)
    describe("WITHOUT the surface", scenario, without_surface)

    ratio = without_surface.mission_time / with_surface.mission_time
    print(f"\nthe surface cuts the mission from {without_surface.mission_time:.1f} s "
          f"to {with_surface.mission_time:.1f} s ({ratio:.1f}x): the UAV no longer "
          "needs to fly toward the covered cluster and only tours the uncovered "
          "sensors south of the flight axis.")


if __name__ == "__main__":
    main()
