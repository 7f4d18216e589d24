"""Each run loads only the code it calls.

Each solver loads on first use: the deployment solver only for a deployment,
and the trajectory solver, and numpy and scipy with it, only when a
trajectory is solved. Even then, of scipy's packages only the top-level one
loads: the solver takes the HiGHS core and LAPACK's dpbtrf/dpbtrs straight
from their compiled modules, which are the same objects scipy.optimize and
scipy.linalg give, whichever side loads first. The HiGHS core loads with the
solver; LAPACK's _flapack only on the first interior-point solve of the speed
projection, which a mission with no speed slack (fig4) never makes.

No run loads hashlib's OpenSSL module _hashlib: scenario_digest hashes with
CPython's built-in SHA-256, to the same hex digest. Nor does any run load
importlib.resources: scenario_path joins the package's own directory, which is
what importlib.resources.files gives for a package on disk.

Each check runs in a fresh interpreter, since this test process has long since
imported all of them.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from uavirs.scenario import scenario_path

SCIPY_LOADED = "[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]"
NUMPY_LOADED = "[m for m in sys.modules if m == 'numpy' or m.startswith('numpy.')]"
SCIPY_PACKAGES_LOADED = "[m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]"


def run_fresh(code, env, cwd, flags=()):
    """Run code in a new interpreter; returns its stdout, failing on a non-zero exit."""
    done = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
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


@pytest.mark.parametrize(
    "calls, loaded",
    [
        ("uavirs.load_scenario(uavirs.scenario_path('fig5'))", False),
        ("assert cli.main(['validate', fig4, '--quiet']) == 0", False),
        ("assert cli.main(['validate', fig5, '--quiet']) == 0", False),
        ("assert cli.main(['trajopt', fig4, '--out', 'out', '--quiet']) == 0", False),
        ("assert cli.main(['deploy', fig5, '--out', 'out', '--quiet']) == 0", True),
    ],
    ids=["load", "validate-fig4", "validate-fig5", "trajopt-fig4", "deploy-fig5"],
)
def test_deployment_solver_loads_only_for_deploy(calls, loaded, package_env, tmp_path):
    out = run_fresh(
        f"""
        import sys
        import uavirs
        from uavirs import cli
        fig4 = str(uavirs.scenario_path('fig4'))
        fig5 = str(uavirs.scenario_path('fig5'))
        print('uavirs.deployment' in sys.modules)
        {calls}
        print('uavirs.deployment' in sys.modules)
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["False", str(loaded)]


@pytest.mark.parametrize("first", ["deployment", "evaluate_strategy"])
def test_deployment_names_resolve_on_first_use(first, package_env, tmp_path):
    out = run_fresh(
        f"""
        import sys
        import uavirs
        print('uavirs.deployment' in sys.modules)
        getattr(uavirs, {first!r})
        print(uavirs.evaluate_strategy is uavirs.deployment.evaluate_strategy)
        from uavirs import deployment, scenario
        strategy = uavirs.DeploymentStrategy
        print(strategy is scenario.DeploymentStrategy is deployment.DeploymentStrategy)
        print(strategy.__module__)
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["False", "True", "True", "uavirs.scenario"]


def test_no_importlib_resources(package_env, tmp_path):
    # -S skips the site module, so no .pth file in site-packages imports
    # importlib.resources first; the dependencies' directories go on PYTHONPATH.
    import numpy
    import scipy
    import yaml

    env = dict(package_env)
    site_dirs = [os.path.dirname(os.path.dirname(m.__file__)) for m in (numpy, scipy, yaml)]
    env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], *site_dirs])
    out = run_fresh(
        """
        import sys
        from uavirs import cli, load_scenario, scenario_path
        fig4, fig5 = str(scenario_path('fig4')), str(scenario_path('fig5'))

        def report(step):
            print(step, [m for m in sys.modules if m.startswith('importlib.resources')])

        print([m for m in ('site', 'importlib.resources') if m in sys.modules])
        load_scenario(scenario_path('fig4_noirs'))
        report('load')
        assert cli.main(['validate', fig4, '--quiet']) == 0
        assert cli.main(['validate', fig5, '--quiet']) == 0
        report('validate')
        assert cli.main(['trajopt', fig4, '--out', 'out', '--quiet']) == 0
        report('trajopt-fig4')
        assert cli.main(['deploy', fig5, '--out', 'out', '--quiet']) == 0
        report('deploy-fig5')
        print('numpy' in sys.modules and 'scipy' in sys.modules)

        import importlib.resources
        for name in ('fig4', 'fig4_noirs', 'fig5'):
            shipped = importlib.resources.files('uavirs') / 'scenarios' / f'{name}.scenario'
            print(name, scenario_path(name) == shipped)
        """,
        env,
        tmp_path,
        flags=["-S"],
    )
    assert out.splitlines() == [
        "[]",
        "load []",
        "validate []",
        "trajopt-fig4 []",
        "deploy-fig5 []",
        "True",
        "fig4 True",
        "fig4_noirs True",
        "fig5 True",
    ]


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


@pytest.mark.parametrize(
    "calls",
    [
        "",
        "uavirs.load_scenario(uavirs.scenario_path('fig5'))",
        "assert cli.main(['deploy', fig5, '--out', 'out', '--quiet']) == 0",
        "assert cli.main(['validate', fig5, '--quiet']) == 0",
        "assert cli.main(['trajopt', fig4, '--out', 'out', '--quiet']) == 0",
    ],
    ids=["import", "load", "deploy", "validate", "trajopt-fig4"],
)
def test_no_openssl_hashing(calls, package_env, tmp_path):
    out = run_fresh(
        f"""
        import sys
        import uavirs
        from uavirs import cli
        fig4 = str(uavirs.scenario_path('fig4'))
        fig5 = str(uavirs.scenario_path('fig5'))
        {calls}
        print([m for m in ('hashlib', '_hashlib') if m in sys.modules])
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["[]"]


DIGEST_INPUTS = ["", b"", "nodes: []\n", b"nodes: []\n", "caf\u00e9 \u2192 \U0001f681", bytes(range(256))]


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib-fallback"])
def test_digest_is_hashlibs_sha256(builtin, package_env, tmp_path):
    # Without the built-in modules (a None entry in sys.modules fails their
    # import) scenario_digest falls back to hashlib, to the same digest.
    hide = "" if builtin else "sys.modules['_sha2'] = sys.modules['_sha256'] = None"
    out = run_fresh(
        f"""
        import sys
        {hide}
        from uavirs.scenario import scenario_digest
        inputs = {DIGEST_INPUTS!r}
        digests = [scenario_digest(text) for text in inputs]
        print('_hashlib' in sys.modules)
        import hashlib
        data = [t.encode('utf-8') if isinstance(t, str) else t for t in inputs]
        print(digests == [hashlib.sha256(d).hexdigest() for d in data])
        print(len(set(digests)))
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == [str(not builtin), "True", "4"]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
@pytest.mark.parametrize(
    "name, lapack", [("fig4", False), ("fig4_noirs", True)], ids=["fig4", "fig4_noirs"]
)
def test_lapack_loads_on_the_first_projection(name, lapack, package_env, tmp_path):
    # fig4 is feasible at its shortest duration, where the speed budget has no
    # slack, so it never projects; fig4_noirs projects in its line searches.
    out = run_fresh(
        f"""
        from uavirs import cli, trajectory
        print(cli.main(['trajopt', {str(scenario_path(name))!r}, '--out', 'out', '--quiet']))
        with open('/proc/self/maps') as maps:
            print(any('_flapack' in line for line in maps))
        print(all(name in vars(trajectory) for name in ('dpbtrf', 'dpbtrs')))
        """,
        package_env,
        tmp_path,
    )
    assert out.split() == ["0", str(lapack), str(lapack)]
