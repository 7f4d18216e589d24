"""The trajectory solver, and numpy and scipy with it, load only when a trajectory is solved.

Each check runs in a fresh interpreter, since this test process has long since
imported both.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from uavirs.scenario import scenario_path

SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"
NUMPY_LOADED = "[m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')]"


def run_fresh(code, env, cwd):
    """Run code in a new interpreter; returns its stdout, failing on a non-zero exit."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "calls",
    [
        "uavirs.load_scenario(uavirs.scenario_path('fig5'))",
        "assert cli.main(['deploy', fig5, '--out', 'out', '--quiet']) == 0",
        "assert cli.main(['validate', fig5, '--quiet']) == 0",
        "assert cli.main(['validate', str(uavirs.scenario_path('fig4')), '--quiet']) == 0",
    ],
    ids=["load", "deploy", "validate-fig5", "validate-fig4"],
)
def test_no_scipy_without_a_trajectory_solve(calls, package_env, tmp_path):
    out = run_fresh(
        f"""
        import sys
        import uavirs
        from uavirs import cli
        fig5 = str(uavirs.scenario_path('fig5'))
        {calls}
        print({SCIPY_LOADED})
        print({NUMPY_LOADED})
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["[]", "[]"]


def test_every_public_name_resolves(package_env, tmp_path):
    out = run_fresh(
        """
        import uavirs
        missing = [name for name in uavirs.__all__ if not hasattr(uavirs, name)]
        namespace = {}
        exec("from uavirs import *", namespace)
        unexported = sorted(set(uavirs.__all__) - set(namespace))
        print(missing, unexported, uavirs.TrajectoryConstraints is uavirs.trajectory.TrajectoryConstraints)
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["[]", "[]", "True"]


def test_trajopt_solves_after_the_deferred_load(package_env, tmp_path):
    out = run_fresh(
        f"""
        import sys
        from uavirs import cli
        print({SCIPY_LOADED} != [])
        print(cli.main(['trajopt', {str(scenario_path('fig4'))!r}, '--out', 'out', '--quiet']))
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["False", "0"]
    summary = json.loads((tmp_path / "out" / "fig4_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["mission_time_s"] == pytest.approx(3.0)
