"""Answer-level mission tests: orderings any correct solver must keep.

They pin no search path (no LP, step or probe count, and no mission time),
so a new trajectory step or bisection keeps them as they are. Each mission
is fig4's, with its surface at an element count and a rate target; one
found under the cap counts by its time, one not found counts as longest.
"""

import math
from dataclasses import replace
from functools import lru_cache

import pytest

from uavirs.scenario import load_scenario, scenario_path
from uavirs.trajectory import min_time_mission

FIG4 = load_scenario(scenario_path("fig4"))


@lru_cache(maxsize=None)
def mission_time(elements: int, target: float) -> float:
    """fig4's mission time (s) with elements on its surface at target; inf if not found."""
    scn = replace(FIG4, surfaces=tuple(s.with_elements(elements) for s in FIG4.surfaces))
    res = min_time_mission(scn.with_experiment(replace(scn.experiment, rate_target=target)))
    return res.mission_time if res.converged else math.inf


@pytest.mark.parametrize(
    "elements, targets",
    [
        (0, (0.8, 0.9, 1.0, 1.05)),  # fig4_noirs: 3.0, 3.3, 5.1, 7.2 s today
        (300, (0.9, 1.0, 1.1)),  # fig4: 3.0, 3.0, 4.8 s today
    ],
)
def test_time_does_not_fall_as_the_target_rises(elements, targets):
    times = [mission_time(elements, t) for t in targets]
    assert math.isfinite(times[0])
    assert times == sorted(times)


def test_time_does_not_rise_with_the_element_count():
    # fig4 at 1.1: not found, 6.8, 4.8 and 3.2 s today
    times = [mission_time(n, 1.1) for n in (0, 150, 300, 600)]
    assert math.isfinite(times[-1])
    assert times == sorted(times, reverse=True)


@pytest.mark.parametrize("target", [0.9, 1.0, 1.1])
def test_the_surface_never_slows_a_mission(target):
    # 3.0 against 3.3 s, 3.0 against 5.1 s, and 4.8 s against not found today
    assert mission_time(300, target) <= mission_time(0, target)
