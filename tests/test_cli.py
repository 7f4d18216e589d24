import argparse
import csv
import importlib
import json
import os
import stat
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import uavirs
from uavirs import deployment
from uavirs.cli import (
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    _apply_trajectory_overrides,
    build_parser,
    main,
)
from uavirs.scenario import load_scenario, scenario_digest, scenario_path
from uavirs.trajectory import Trajectory, per_slot_rates

QUICK_TRAJECTORY = """
name: quick
nodes:
  - {id: uav, role: uav, position: [0.0, 0.0, 30.0]}
  - {id: sn1, role: sensor, position: [20.0, 15.0, 0.0]}
  - {id: sn2, role: sensor, position: [45.0, -10.0, 0.0]}
path_loss_classes:
  uav_sn: 2.6
experiment:
  kind: trajectory
  start: [0.0, 0.0, 30.0]
  end: [60.0, 0.0, 30.0]
  fixed_altitude: 30.0
  v_max: 50.0
  slot_duration: 0.1
  rate_target: 1.0
  max_time: 10.0
"""


@pytest.fixture()
def quick_file(tmp_path):
    path = tmp_path / "quick.scenario"
    path.write_text(QUICK_TRAJECTORY)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidate:
    def test_valid_scenario(self, capsys):
        assert main(["validate", str(scenario_path("fig4"))]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_invalid_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("nodes: 7\n")
        assert main(["validate", str(bad)]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.scenario")]) == EXIT_USAGE

    def test_max_time_too_short_for_the_flight(self, tmp_path, capsys):
        short = tmp_path / "short.scenario"
        short.write_text(
            scenario_path("fig4").read_text().replace("max_time: 30.0", "max_time: 0.5")
        )
        assert main(["validate", str(short)]) == EXIT_USAGE
        assert "experiment.max_time" in capsys.readouterr().err

    def test_exponent_without_dot_gets_a_yaml_hint(self, tmp_path, capsys):
        # YAML 1.1 reads 1e4 as a string; its floats need a dot and an
        # exponent sign.
        path = tmp_path / "fast.scenario"
        fig4 = scenario_path("fig4").read_text()
        path.write_text(fig4.replace("v_max: 50.0", "v_max: 1e4"))
        assert main(["validate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "experiment.v_max: expected a number, got '1e4'" in err
        assert "write 1.0e+4" in err
        path.write_text(fig4.replace("v_max: 50.0", "v_max: 1.0e+4"))
        assert main(["validate", str(path)]) == EXIT_OK

    def test_step_above_the_limit_names_v_max(self, tmp_path, capsys):
        # 1e70 m, the largest accepted step, is v_max 1e70 in 1 s slots.
        path = tmp_path / "far.scenario"
        fig4 = scenario_path("fig4").read_text().replace("slot_duration: 0.1", "slot_duration: 1.0")
        path.write_text(fig4.replace("v_max: 50.0", "v_max: 1.0e+70"))
        assert main(["validate", str(path)]) == EXIT_OK
        path.write_text(fig4.replace("v_max: 50.0", "v_max: 2.0e+70"))
        assert main(["validate", str(path)]) == EXIT_USAGE
        assert (
            "error: experiment.v_max: sets the step v_max * slot_duration to 2e+70 m, out of range"
            in capsys.readouterr().err
        )


class TestKindMismatch:
    def test_trajopt_on_deployment_scenario(self, capsys):
        code = main(["trajopt", str(scenario_path("fig5")), "--quiet"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: scenario holds a deployment experiment; use the deploy subcommand\n"
        )

    def test_deploy_on_trajectory_scenario(self, quick_file, capsys):
        code = main(["deploy", str(quick_file), "--quiet"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: scenario holds a trajectory experiment; use the trajopt subcommand\n"
        )


class TestTrajopt:
    def test_writes_consistent_outputs(self, quick_file, tmp_path):
        out = tmp_path / "out"
        assert main(["trajopt", str(quick_file), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = read_rows(out / "quick_trajectory.csv")
        summary = json.loads((out / "quick_summary.json").read_text())
        assert summary["experiment"] == "trajectory"
        assert summary["converged"] is True
        assert summary["achieved_min_rate_bps_hz"] >= 1.0 - 1e-6

        # the emitted table reproduces the reported per-node rates exactly
        waypoints = np.array([[float(r["x"]), float(r["y"]), float(r["z"])] for r in rows])
        node_ids = [k[4:] for k in rows[0] if k.startswith("tau_")]
        tau = np.array(
            [[float(r[f"tau_{nid}"]) for r in rows[:-1]] for nid in node_ids]
        )
        scenario = load_scenario(quick_file)
        traj = Trajectory(waypoints, scenario.experiment.constraints.slot_duration)
        R = per_slot_rates(scenario, traj)
        delta = scenario.experiment.constraints.slot_duration
        rates = (tau * R).sum(axis=1) * delta / summary["mission_time_s"]
        for nid, rate in zip(node_ids, rates):
            assert summary["per_node_rates_bps_hz"][nid] == rate

        # final row closes the path at the configured endpoint with zero airtime
        assert float(rows[-1]["x"]) == 60.0
        assert all(float(rows[-1][f"tau_{nid}"]) == 0.0 for nid in node_ids)

    def test_slot_duration_override(self, quick_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "trajopt",
                str(quick_file),
                "--out",
                str(out),
                "--slot-duration",
                "0.2",
                "--quiet",
            ]
        )
        assert code == EXIT_OK
        rows = read_rows(out / "quick_trajectory.csv")
        assert float(rows[1]["t_seconds"]) == 0.2

    def test_infeasible_exit_code(self, quick_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "trajopt",
                str(quick_file),
                "--out",
                str(out),
                "--rate-target",
                "50.0",
                "--quiet",
            ]
        )
        assert code == EXIT_INFEASIBLE
        summary = json.loads((out / "quick_summary.json").read_text())
        assert summary["converged"] is False

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--rate-target", "0"),
            ("--rate-target", "-1"),
            ("--rate-target", "nan"),
            ("--rate-target", "inf"),
            ("--slot-duration", "0"),
            ("--slot-duration", "nan"),
            ("--slot-duration", "20"),  # no whole slot fits the 10 s max_time
            ("--slot-duration", "1e300"),  # v_max * slot_duration squares to inf
            ("--max-time", "-5"),
            ("--max-time", "inf"),
            ("--max-time", "0.5"),  # the straight 60 m flight takes 1.2 s
            ("--max-time", "1e308"),  # max_time / slot_duration overflows to inf
        ],
    )
    def test_bad_override_is_a_usage_error(self, quick_file, tmp_path, capsys, flag, value):
        code = main(
            ["trajopt", str(quick_file), "--out", str(tmp_path / "out"), flag, value, "--quiet"]
        )
        assert code == EXIT_USAGE
        assert f"error: {flag}:" in capsys.readouterr().err

    def test_slot_duration_and_max_time_apply_together(self, quick_file):
        # one 20 s slot does not fit the file's 10 s max_time, but fits 40 s
        args = build_parser().parse_args(
            ["trajopt", str(quick_file), "--slot-duration", "20", "--max-time", "40"]
        )
        exp = _apply_trajectory_overrides(load_scenario(quick_file), args).experiment
        assert (exp.constraints.slot_duration, exp.max_time) == (20.0, 40.0)

    def test_no_override_keeps_the_loaded_scenario(self, quick_file):
        scenario = load_scenario(quick_file)
        args = build_parser().parse_args(["trajopt", str(quick_file)])
        assert _apply_trajectory_overrides(scenario, args) is scenario

    def test_internal_value_error_is_not_a_usage_error(self, quick_file, tmp_path, capsys):
        with mock.patch(
            "uavirs.trajectory.optimal_schedule", side_effect=ValueError("numerical trouble")
        ):
            code = main(["trajopt", str(quick_file), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_INTERNAL
        assert "internal error: numerical trouble" in capsys.readouterr().err

    def test_determinism_quick(self, quick_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["trajopt", str(quick_file), "--out", str(out1), "--quiet"])
        main(["trajopt", str(quick_file), "--out", str(out2), "--quiet"])
        assert (out1 / "quick_trajectory.csv").read_bytes() == (
            out2 / "quick_trajectory.csv"
        ).read_bytes()

    def test_two_slot_mission_solves(self, tmp_path):
        # At 800 m/s fig4's 150 m flight fits in two 0.1 s slots, and the
        # line search projects two-slot paths.
        source = tmp_path / "fast.scenario"
        source.write_text(scenario_path("fig4").read_text().replace("v_max: 50.0", "v_max: 800.0"))
        assert main(["trajopt", str(source), "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_OK
        summary = json.loads((tmp_path / "out" / "fast_summary.json").read_text())
        assert summary["converged"] is True
        assert summary["mission_time_s"] < 3.0  # fig4 at 50 m/s takes 3.0 s


class TestDeploy:
    def test_all_strategies_table(self, tmp_path):
        out = tmp_path / "out"
        code = main(["deploy", str(scenario_path("fig5")), "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        rows = read_rows(out / "fig5_deployment.csv")
        assert [r["strategy"] for r in rows] == ["user", "bs", "hybrid"]
        by_strategy = {r["strategy"]: r for r in rows}
        assert float(by_strategy["hybrid"]["min_rate"]) >= float(
            by_strategy["bs"]["min_rate"]
        )
        assert float(by_strategy["bs"]["min_rate"]) >= float(
            by_strategy["user"]["min_rate"]
        )
        assert float(by_strategy["bs"]["altitude_m"]) == 50.0
        assert float(by_strategy["hybrid"]["altitude_m"]) == 30.0
        split = int(by_strategy["hybrid"]["n_aerial"]) + int(
            by_strategy["hybrid"]["n_terrestrial"]
        )
        assert split == 600

    def test_single_strategy_flag(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "deploy",
                str(scenario_path("fig5")),
                "--out",
                str(out),
                "--strategies",
                "bs",
                "--quiet",
            ]
        )
        assert code == EXIT_OK
        rows = read_rows(out / "fig5_deployment.csv")
        assert [r["strategy"] for r in rows] == ["bs"]

    @pytest.mark.parametrize(
        "flag, expected",
        [([], ["hybrid"]), (["--strategies", "all"], ["user", "bs", "hybrid"])],
        ids=["default-keeps-the-file", "all-overrides-the-file"],
    )
    def test_strategies_flag_against_the_file(self, flag, expected, tmp_path):
        source = tmp_path / "hybrid_only.scenario"
        text = scenario_path("fig5").read_text()
        assert "strategies: [user, bs, hybrid]" in text
        source.write_text(text.replace("strategies: [user, bs, hybrid]", "strategies: [hybrid]"))
        out = tmp_path / "out"
        assert main(["deploy", str(source), "--out", str(out), "--quiet", *flag]) == EXIT_OK
        rows = read_rows(out / "hybrid_only_deployment.csv")
        assert [r["strategy"] for r in rows] == expected

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["deploy", str(scenario_path("fig5")), "--out", str(out1), "--quiet"])
        main(["deploy", str(scenario_path("fig5")), "--out", str(out2), "--quiet"])
        assert (out1 / "fig5_deployment.csv").read_bytes() == (
            out2 / "fig5_deployment.csv"
        ).read_bytes()

    def test_one_hybrid_rule_per_run(self, tmp_path):
        # each of the three strategies used to build its own rule
        of = deployment._HybridRule.of
        with mock.patch.object(deployment._HybridRule, "of", wraps=of) as build:
            argv = ["deploy", str(scenario_path("fig5")), "--out", str(tmp_path), "--quiet"]
            assert main(argv) == EXIT_OK
        assert build.call_count == 1


class TestOutputs:
    """A re-run into the same --out rewrites its outputs in place, as a fresh run writes them."""

    @staticmethod
    def deploy(out, *flags):
        argv = ["deploy", str(scenario_path("fig5")), "--out", str(out), "--quiet", *flags]
        assert main(argv) == EXIT_OK

    @staticmethod
    def summary_lines(path):
        return [line for line in path.read_text().splitlines() if '"wall_time_s"' not in line]

    @pytest.mark.parametrize(
        "first, second, shrinks",
        [([], ["--strategies", "hybrid"], True), (["--strategies", "hybrid"], [], False)],
        ids=["shrinks", "grows"],
    )
    def test_rerun_matches_a_fresh_run(self, first, second, shrinks, tmp_path):
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        self.deploy(fresh, *second)
        self.deploy(reused, *first)
        before = (reused / "fig5_deployment.csv").stat().st_size
        self.deploy(reused, *second)
        csv_after = (reused / "fig5_deployment.csv").read_bytes()
        assert (len(csv_after) < before) == shrinks
        assert csv_after == (fresh / "fig5_deployment.csv").read_bytes()
        assert self.summary_lines(reused / "fig5_summary.json") == self.summary_lines(
            fresh / "fig5_summary.json"
        )
        json.loads((reused / "fig5_summary.json").read_text())  # nothing left past the end

    def test_trajopt_rerun_gives_the_same_csv(self, quick_file, tmp_path):
        out = tmp_path / "out"
        argv = ["trajopt", str(quick_file), "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_OK
        first = (out / "quick_trajectory.csv").read_bytes()
        assert main(argv) == EXIT_OK
        assert (out / "quick_trajectory.csv").read_bytes() == first

    def test_new_output_gets_write_texts_mode(self, tmp_path):
        old = os.umask(0o027)
        try:
            self.deploy(tmp_path / "out")
            (tmp_path / "reference").write_text("x", encoding="utf-8")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.glob("**/*") if p.is_file()}
        assert modes == {0o666 & ~0o027}

    def test_rerun_does_not_truncate_on_open(self, tmp_path):
        out = tmp_path / "out"
        self.deploy(out)
        with mock.patch("os.open", wraps=os.open) as opened:
            self.deploy(out)
        flags = {str(call.args[0]): call.args[1] for call in opened.call_args_list}
        outputs = {str(out / "fig5_deployment.csv"), str(out / "fig5_summary.json")}
        assert outputs <= set(flags)
        assert not any(flags[path] & os.O_TRUNC for path in outputs)

    @pytest.mark.parametrize("taken", ["out", "out/fig5_deployment.csv", "out/fig5_summary.json"])
    def test_unwritable_output_is_a_usage_error(self, taken, tmp_path, capsys):
        # each used to exit 4: "[Errno 17] File exists" or "[Errno 21] Is a directory"
        if taken == "out":
            (tmp_path / "out").write_text("a file, not a directory")
        else:
            (tmp_path / taken).mkdir(parents=True)
        argv = ["deploy", str(scenario_path("fig5")), "--out", str(tmp_path / "out"), "--quiet"]
        assert main(argv) == EXIT_USAGE
        problem = "File exists" if taken == "out" else "Is a directory"
        err = capsys.readouterr().err
        assert err == f"error: --out: cannot write {tmp_path / taken}: {problem}\n"

    def test_unwritable_summary_leaves_the_earlier_csv(self, tmp_path):
        # the CSV used to be rewritten before the summary failed to open
        out = tmp_path / "out"
        self.deploy(out, "--strategies", "hybrid")
        before = (out / "fig5_deployment.csv").read_bytes()
        (out / "fig5_summary.json").unlink()
        (out / "fig5_summary.json").mkdir()
        argv = ["deploy", str(scenario_path("fig5")), "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_USAGE
        assert (out / "fig5_deployment.csv").read_bytes() == before

    def test_unwritable_summary_leaves_no_new_csv(self, tmp_path):
        # the CSV opens first; a summary that cannot open must not leave it behind, empty
        out = tmp_path / "out"
        (out / "fig5_summary.json").mkdir(parents=True)
        argv = ["deploy", str(scenario_path("fig5")), "--out", str(out), "--quiet"]
        assert main(argv) == EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == ["fig5_summary.json"]
        assert (out / "fig5_summary.json").is_dir()


class TestDigest:
    @pytest.mark.parametrize(
        "command, solver",
        [
            ("trajopt", "uavirs.trajectory.min_time_mission"),
            ("deploy", "uavirs.deployment.evaluate_strategy"),
        ],
        ids=["trajopt-min_time_mission", "deploy-evaluate_strategy"],
    )
    def test_digest_is_of_the_bytes_that_ran(self, command, solver, quick_file, tmp_path):
        source = quick_file
        if command == "deploy":
            source = tmp_path / "fig5.scenario"
            source.write_bytes(scenario_path("fig5").read_bytes())
        ran = source.read_bytes()
        module, name = solver.rsplit(".", 1)
        solve = getattr(importlib.import_module(module), name)

        def edit_then_solve(scenario, *args, **kwargs):
            source.write_bytes(ran + b"# edited during the run\n")
            return solve(scenario, *args, **kwargs)

        out = tmp_path / "out"
        with mock.patch(solver, edit_then_solve):
            assert main([command, str(source), "--out", str(out), "--quiet"]) == EXIT_OK
        summary = json.loads((out / f"{source.stem}_summary.json").read_text())
        assert summary["scenario_digest"] == scenario_digest(ran)
        assert summary["scenario_digest"] != scenario_digest(source.read_bytes())


class TestSharedParser:
    """main builds its parser once per process; no call sees another's options."""

    def test_second_call_builds_no_parser(self):
        fig5 = str(scenario_path("fig5"))
        assert main(["validate", fig5, "--quiet"]) == EXIT_OK
        init = argparse.ArgumentParser.__init__  # counts the subcommands' parsers too
        with mock.patch.object(
            argparse.ArgumentParser, "__init__", autospec=True, side_effect=init
        ) as built:
            assert main(["validate", fig5, "--quiet"]) == EXIT_OK
        assert built.call_count == 0

    def test_rate_target_does_not_leak(self, quick_file, tmp_path):
        out = tmp_path / "out"
        for flags, target in ((["--rate-target", "0.5"], 0.5), ([], 1.0)):
            code = main(["trajopt", str(quick_file), "--out", str(out), "--quiet", *flags])
            assert code == EXIT_OK
            summary = json.loads((out / "quick_summary.json").read_text())
            assert summary["rate_target_bps_hz"] == target

    def test_strategies_do_not_leak(self, tmp_path):
        out = tmp_path / "out"
        fig5 = str(scenario_path("fig5"))
        for flags, expected in (
            (["--strategies", "user"], ["user"]),
            ([], ["user", "bs", "hybrid"]),  # the file's list
        ):
            assert main(["deploy", fig5, "--out", str(out), "--quiet", *flags]) == EXIT_OK
            assert [r["strategy"] for r in read_rows(out / "fig5_deployment.csv")] == expected

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--version"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.strip() == uavirs.__version__

    @pytest.mark.parametrize(
        "argv, code",
        [(["--version"], 0), (["frobnicate"], EXIT_USAGE), (["deploy"], EXIT_USAGE)],
        ids=["version", "unknown-command", "missing-scenario"],
    )
    def test_next_call_solves_after_an_exit(self, argv, code, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == code
        out = tmp_path / "out"
        fig5 = str(scenario_path("fig5"))
        assert main(["deploy", fig5, "--out", str(out), "--quiet"]) == EXIT_OK
        hybrid = read_rows(out / "fig5_deployment.csv")[-1]
        assert hybrid["strategy"] == "hybrid"
        assert (hybrid["n_aerial"], hybrid["n_terrestrial"]) == ("224", "376")
        assert float(hybrid["altitude_m"]) == 30.0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, package_env):
        result = subprocess.run(
            [sys.executable, "-m", "uavirs", "validate", str(scenario_path("fig5"))],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=package_env,
        )
        assert result.returncode == 0
        assert "OK" in result.stdout

    def test_usage_error_exit_code(self, package_env):
        result = subprocess.run(
            [sys.executable, "-m", "uavirs", "frobnicate"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert result.returncode == 2

    def test_huge_v_max_is_a_usage_error(self, tmp_path, package_env):
        # v_max * slot_duration = 1e307 m squares to inf; before it was
        # rejected, the speed projection's step halving spun forever.
        source = tmp_path / "huge.scenario"
        source.write_text(
            scenario_path("fig4").read_text().replace("v_max: 50.0", "v_max: 1.0e+308")
        )
        result = subprocess.run(
            [sys.executable, "-m", "uavirs", "trajopt", str(source), "--out", "out", "--quiet"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=package_env,
            timeout=60,
        )
        assert result.returncode == EXIT_USAGE
        assert "error: experiment.v_max:" in result.stderr
