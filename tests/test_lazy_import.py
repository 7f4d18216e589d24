"""The trajectory solver, and numpy and scipy with it, load only when a trajectory is solved.

Even then, of scipy's packages only the top-level one loads: the solver takes
the HiGHS core and LAPACK's dpbtrf/dpbtrs straight from their compiled
modules, which are the same objects scipy.optimize and scipy.linalg give,
whichever side loads first.

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
SCIPY_PACKAGES_LOADED = "[m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]"


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
        print({SCIPY_PACKAGES_LOADED})
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["False", "0", "[]"]
    summary = json.loads((tmp_path / "out" / "fig4_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["mission_time_s"] == pytest.approx(3.0)


SCIPY_IMPORTS = "import scipy.linalg.lapack, scipy.optimize; from scipy.optimize._highspy import _core"


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "solver-first"])
def test_solver_shares_scipys_compiled_modules(scipy_first, package_env, tmp_path):
    before, after = (SCIPY_IMPORTS, "") if scipy_first else ("", SCIPY_IMPORTS)
    out = run_fresh(
        f"""
        {before}
        from uavirs import cli, trajectory
        print(cli.main(['trajopt', {str(scenario_path('fig4'))!r}, '--out', 'out', '--quiet']))
        {after}
        print(trajectory.highs is _core)
        print(trajectory.dpbtrf is scipy.linalg.lapack.dpbtrf)
        print(trajectory.dpbtrs is scipy.linalg.lapack.dpbtrs)
        print(scipy.optimize.linprog([1.0], bounds=[(2.0, None)], method="highs").x[0])
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["0", "True", "True", "True", "2.0"]
    summary = json.loads((tmp_path / "out" / "fig4_summary.json").read_text())
    assert summary["mission_time_s"] == pytest.approx(3.0)


def test_missing_compiled_module_is_named():
    from uavirs import trajectory

    with pytest.raises(ImportError, match=r"scipy\.linalg\._no_such_module"):
        trajectory._compiled("scipy.linalg", "_no_such_module")
