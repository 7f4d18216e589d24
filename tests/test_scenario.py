import dataclasses
import importlib.util
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, strategies as st
from yaml.constructor import ConstructorError

from uavirs.channel import LinkRuleSet, LinkState, LinkStateRule, Node, NodeRole
from uavirs.cli import EXIT_USAGE, main
from uavirs.deployment import DeploymentPlan, DeploymentStrategy, evaluate_strategy
from uavirs.errors import FieldError, ScenarioError
from uavirs.irs import SurfaceKind
from uavirs.scenario import (
    DeploymentExperiment,
    TrajectoryExperiment,
    _document,
    load_scenario,
    loads_scenario,
    scenario_digest,
    scenario_path,
)

MINIMAL_TRAJECTORY = """
name: mini
nodes:
  - {id: uav, role: uav, position: [0.0, 0.0, 30.0]}
  - {id: sn1, role: sensor, position: [50.0, 0.0, 0.0]}
path_loss_classes:
  uav_sn: 2.6
experiment:
  kind: trajectory
  start: [0.0, 0.0, 30.0]
  end: [100.0, 0.0, 30.0]
  fixed_altitude: 30.0
  v_max: 50.0
  rate_target: 0.5
"""


class TestShippedScenarios:
    def test_fig4_loads_with_expected_structure(self):
        scn = load_scenario(scenario_path("fig4"))
        assert len(scn.sensor_nodes()) == 8
        (surface,) = scn.surfaces
        assert surface.num_elements == 300
        assert surface.kind is SurfaceKind.TERRESTRIAL
        assert surface.covered_node_ids == frozenset({"sn3", "sn4", "sn5", "sn6"})
        for nid in ("sn3", "sn4", "sn5", "sn6"):
            assert scn.covering_surface(nid) is surface
        for nid in ("sn1", "sn2", "sn7", "sn8"):
            assert scn.covering_surface(nid) is None
        exp = scn.experiment
        assert isinstance(exp, TrajectoryExperiment)
        assert exp.constraints.v_max == 50.0
        assert exp.constraints.start.as_array().tolist() == [50.0, 0.0, 30.0]
        assert exp.constraints.end.as_array().tolist() == [200.0, 0.0, 30.0]
        assert {c: m.exponent for c, m in scn.path_loss_classes.items()} == {
            "uav_sn": 2.6,
            "uav_irs": 2.4,
            "irs_sn": 2.2,
        }

    def test_fig4_noirs_variant(self):
        scn = load_scenario(scenario_path("fig4_noirs"))
        assert all(s.num_elements == 0 for s in scn.surfaces)

    def test_fig5_loads_with_expected_structure(self):
        scn = load_scenario(scenario_path("fig5"))
        exp = scn.experiment
        assert isinstance(exp, DeploymentExperiment)
        assert exp.n_budget == 600
        assert len(scn.user_nodes()) == 2
        rule1 = scn.link_rules.rule_for("uirs", "user1")
        rule2 = scn.link_rules.rule_for("uirs", "user2")
        assert (rule1.min_altitude_for_los, rule2.min_altitude_for_los) == (30.0, 50.0)
        direct = scn.link_rules.rule_for("bs", "user1")
        assert direct.fallback_state is LinkState.BLOCKED
        assert math.isinf(direct.min_altitude_for_los)


class TestValidation:
    def test_minimal_document(self):
        scn = loads_scenario(MINIMAL_TRAJECTORY)
        assert scn.name == "mini"
        assert scn.radio.tx_power == 0.1  # defaults echoed
        assert scn.experiment.max_time == 60.0
        assert scn.experiment.constraints.slot_duration == 0.1

    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
            loads_scenario("nodes: [\n  {id: }")

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="wibble"):
            loads_scenario(MINIMAL_TRAJECTORY + "\nwibble: 3\n")

    def test_unknown_nested_key(self):
        bad = MINIMAL_TRAJECTORY.replace(
            "kind: trajectory", "kind: trajectory\n  warp_speed: 9"
        )
        with pytest.raises(ScenarioError, match="experiment.warp_speed"):
            loads_scenario(bad)

    def test_negative_budget_rejected(self):
        doc = """
name: bad-budget
nodes:
  - {id: bs, role: bs, position: [0.0, 0.0, 25.0]}
  - {id: user1, role: user, position: [80.0, 0.0, 0.0]}
surfaces:
  - {id: uirs, kind: aerial, position: [10.0, 0.0, 50.0]}
  - id: tirs
    kind: terrestrial
    position: [120.0, 10.0, 5.0]
    facing_normal: [0.0, -1.0, 0.0]
path_loss_classes: {los: 2.2, nlos: 3.5}
experiment: {kind: deployment, n_budget: -1}
"""
        with pytest.raises(ScenarioError, match="experiment.n_budget"):
            loads_scenario(doc)

    def test_duplicate_node_ids_rejected(self):
        bad = MINIMAL_TRAJECTORY.replace(
            "- {id: sn1, role: sensor, position: [50.0, 0.0, 0.0]}",
            "- {id: sn1, role: sensor, position: [50.0, 0.0, 0.0]}\n"
            "  - {id: sn1, role: sensor, position: [60.0, 0.0, 0.0]}",
        )
        with pytest.raises(ScenarioError, match="unique"):
            loads_scenario(bad)

    def test_colocated_nodes_rejected(self):
        bad = MINIMAL_TRAJECTORY.replace(
            "- {id: sn1, role: sensor, position: [50.0, 0.0, 0.0]}",
            "- {id: sn1, role: sensor, position: [50.0, 0.0, 0.0]}\n"
            "  - {id: sn2, role: sensor, position: [50.0, 0.0, 0.0]}",
        )
        with pytest.raises(ScenarioError, match="share a position"):
            loads_scenario(bad)

    def test_missing_required_class_rejected(self):
        bad = MINIMAL_TRAJECTORY.replace("uav_sn: 2.6", "some_other: 2.6")
        with pytest.raises(ScenarioError, match="uav_sn"):
            loads_scenario(bad)

    def test_unknown_covered_node_rejected(self):
        bad = MINIMAL_TRAJECTORY.replace(
            "path_loss_classes:\n  uav_sn: 2.6",
            "surfaces:\n"
            "  - id: irs\n"
            "    kind: terrestrial\n"
            "    position: [50.0, 20.0, 10.0]\n"
            "    facing_normal: [0.0, -1.0, 0.0]\n"
            "    covered_node_ids: [snX]\n"
            "path_loss_classes:\n  uav_sn: 2.6\n  uav_irs: 2.4\n  irs_sn: 2.2",
        )
        with pytest.raises(ScenarioError, match="snX"):
            loads_scenario(bad)

    def test_bad_role_rejected(self):
        bad = MINIMAL_TRAJECTORY.replace("role: sensor", "role: satellite")
        with pytest.raises(ScenarioError, match="role"):
            loads_scenario(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "absent.scenario")

    def test_booleans_are_not_numbers(self):
        bad = MINIMAL_TRAJECTORY.replace("v_max: 50.0", "v_max: true")
        with pytest.raises(ScenarioError, match="v_max"):
            loads_scenario(bad)

    @pytest.mark.parametrize("v_max", ["1.0e+308", "1.0e+160", "1.0e-170"])
    def test_step_out_of_float_range_names_v_max(self, v_max):
        text = MINIMAL_TRAJECTORY.replace("v_max: 50.0", f"v_max: {v_max}")
        with pytest.raises(ScenarioError, match="out of range") as info:
            loads_scenario(text)
        assert info.value.field == "experiment.v_max"

    @pytest.mark.parametrize("max_time", ["0.5", "2.9", "-1.0"])
    def test_max_time_shorter_than_straight_flight_rejected(self, max_time):
        # fig4 flies 150 m at 50 m/s in 0.1 s slots: 30 slots, 3.0 s at least.
        text = scenario_path("fig4").read_text().replace(
            "max_time: 30.0", f"max_time: {max_time}"
        )
        with pytest.raises(ScenarioError, match="cannot cover") as info:
            loads_scenario(text)
        assert info.value.field == "experiment.max_time"

    def test_max_time_of_more_slots_than_a_float_holds_rejected(self):
        # 1e308 s of 0.1 s slots is inf slots; slot_range once raised OverflowError
        text = scenario_path("fig4").read_text().replace("max_time: 30.0", "max_time: 1.0e+308")
        with pytest.raises(ScenarioError, match="finite number of slots") as info:
            loads_scenario(text)
        assert info.value.field == "experiment.max_time"

    def test_max_time_of_exactly_the_straight_flight_accepted(self):
        text = scenario_path("fig4").read_text().replace("max_time: 30.0", "max_time: 3.0")
        assert loads_scenario(text).experiment.max_time == 3.0

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "binary.scenario"
        path.write_bytes(b"name: \xff\xfe\n")
        with pytest.raises(ScenarioError, match="cannot read.*utf-8"):
            load_scenario(path)

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path)

    def test_list_fallback_names_the_field(self):
        text = scenario_path("fig5").read_text().replace("fallback: nlos", "fallback: [nlos]", 1)
        with pytest.raises(ScenarioError, match="expected one of") as info:
            loads_scenario(text)
        assert info.value.field == "link_state_rules[0].fallback"

    def test_trajectory_rule_without_fallback_names_its_fallback(self):
        # fallback defaults to nlos, which a trajectory solver would price as
        # LoS; the error names the rule's own key, by its place in the file
        fig4 = scenario_path("fig4").read_text()
        rules = (
            "link_state_rules:\n"
            "  - {endpoints: [uav, sn2], fallback: blocked}\n"
            "  - {endpoints: [uav, sn1], min_altitude_for_los: 10.0}\n"
        )
        with pytest.raises(ScenarioError) as info:
            loads_scenario(fig4 + rules)
        assert info.value.field == "link_state_rules[1].fallback"
        assert "trajectory rules need fallback: blocked" in str(info.value)
        scn = loads_scenario(fig4 + rules.replace("10.0}", "10.0, fallback: blocked}"))
        assert [r.fallback_state for r in scn.link_rules] == [LinkState.BLOCKED] * 2

    def test_trajectory_scenario_built_in_code_rejects_an_nlos_fallback(self):
        fig4 = load_scenario(scenario_path("fig4"))
        rules = LinkRuleSet([LinkStateRule(("uav", "sn1"), 10.0)])  # falls back to nlos
        with pytest.raises(ScenarioError) as info:
            replace(fig4, link_rules=rules)
        assert info.value.field == "link_state_rules[0].fallback"
        assert str(info.value) == (
            "link_state_rules[0].fallback: trajectory rules need fallback: blocked; "
            "the solver would price nlos, the default, as LoS"
        )

    def test_code_built_nlos_fallback_is_named_by_its_place_in_the_rules(self):
        # ('uav', 'sn1') sorts before ('uav', 'sn2'), but it was given second
        fig4 = load_scenario(scenario_path("fig4"))
        rules = LinkRuleSet([
            LinkStateRule(("uav", "sn2"), 10.0, LinkState.BLOCKED),
            LinkStateRule(("uav", "sn1"), 10.0),  # falls back to nlos
        ])
        with pytest.raises(ScenarioError) as info:
            replace(fig4, link_rules=rules)
        assert info.value.field == "link_state_rules[1].fallback"

    def test_list_strategy_names_the_field(self):
        text = scenario_path("fig5").read_text().replace(
            "strategies: [user, bs, hybrid]", "strategies: [[user], bs]"
        )
        with pytest.raises(ScenarioError, match="expected one of") as info:
            loads_scenario(text)
        assert info.value.field == "experiment.strategies[0]"

    def test_non_string_key_is_a_parse_error(self):
        # a key that is no string is a parse error at its place, before any field is read
        text = scenario_path("fig5").read_text() + "1: one\nwibble: 3\n"
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert info.value.field is None
        assert str(info.value) == "parse error at line 40, column 1: expected a string key"

    def test_crlf_file_loads_like_lf(self, tmp_path):
        path = tmp_path / "crlf.scenario"
        path.write_bytes(scenario_path("fig5").read_bytes().replace(b"\n", b"\r\n"))
        assert load_scenario(path) == load_scenario(scenario_path("fig5"))


DELETE = object()


def single_fault(name, path, value):
    """A shipped scenario with the entry at path deleted (value DELETE) or replaced."""
    doc = yaml.safe_load(scenario_path(name).read_text(encoding="utf-8"))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return yaml.safe_dump(doc, sort_keys=False)


# (scenario, path, new value, field, message): one case per distinct loader message.
SINGLE_FAULTS = [
    ("fig4", ("nodes", 0), ["a"], "nodes[0]", "node entries must be mappings"),
    ("fig4", ("surfaces", 0), "x", "surfaces[0]", "surface entries must be mappings"),
    ("fig5", ("link_state_rules", 0), 0,
     "link_state_rules[0]", "link-state rules must be mappings"),
    ("fig4", ("radio",), [], "radio", "radio must be a mapping"),
    ("fig4", ("experiment",), "x", "experiment", "experiment must be a mapping"),
    ("fig5", ("link_state_rules", 0, "endpoints"), ["a"],
     "link_state_rules[0].endpoints", "expected a pair of ids, got ['a']"),
    ("fig5", ("link_state_rules", 0, "endpoints", 0), 0,
     "link_state_rules[0].endpoints[0]", "expected a non-empty string, got 0"),
    ("fig5", ("link_state_rules", 0, "endpoints"), ["user1", "user1"],
     "link_state_rules[0]", "link endpoints must differ, got ('user1', 'user1')"),
    ("fig5", ("link_state_rules", 1, "endpoints"), ["user1", "uirs"],
     "link_state_rules", "duplicate link-state rule for pair ('uirs', 'user1')"),
    ("fig5", ("link_state_rules", 0, "min_altitude_for_los"), -1.5,
     "link_state_rules[0].min_altitude_for_los", "must be >= 0"),
    ("fig5", ("link_state_rules", 0, "min_altitude_for_los"), math.nan,
     "link_state_rules[0].min_altitude_for_los", "expected a finite number, got nan"),
    ("fig5", ("link_state_rules", 0, "fallback"), "x",
     "link_state_rules[0].fallback", "expected one of ['blocked', 'nlos'], got 'x'"),
    ("fig4", ("surfaces", 0, "facing_normal"), [0.0, 0.0, 0.0],
     "surfaces[0].facing_normal", "must be a finite, non-zero 3-vector, got (0.0, 0.0, 0.0)"),
    ("fig4", ("surfaces", 0, "facing_normal"), DELETE,
     "surfaces[0].facing_normal", "is required on a terrestrial surface"),
    ("fig4", ("surfaces", 0, "facing_normal"), "x",
     "surfaces[0].facing_normal", "expected a 3-vector, got 'x'"),
    ("fig4", ("surfaces", 0, "facing_normal", 1), "x",
     "surfaces[0].facing_normal[1]", "expected a number, got 'x'"),
    ("fig4", ("surfaces", 0, "covered_node_ids"), "x",
     "surfaces[0].covered_node_ids", "expected a list of node ids"),
    ("fig4", ("surfaces", 0, "covered_node_ids", 0), "",
     "surfaces[0].covered_node_ids[0]", "expected a non-empty string, got ''"),
    ("fig4", ("surfaces", 0, "num_elements"), -1,
     "surfaces[0].num_elements", "must be an integer >= 0, got -1"),
    ("fig4", ("surfaces", 0, "num_elements"), 2.5,
     "surfaces[0].num_elements", "must be an integer >= 0, got 2.5"),
    ("fig4", ("surfaces", 0, "kind"), "x",
     "surfaces[0].kind", "expected one of ['aerial', 'terrestrial'], got 'x'"),
    ("fig5", ("surfaces", 1, "coverage_radius"), 0,
     "surfaces[1].coverage_radius", "must be > 0, got 0.0"),
    ("fig5", ("surfaces", 1, "coverage_radius"), math.inf,
     "surfaces[1].coverage_radius", "expected a finite number, got inf"),
    ("fig4", ("radio", "tx_power_w"), -1, "radio", "tx_power must be finite and > 0, got -1.0"),
    ("fig4", ("radio", "noise_power_w"), 0,
     "radio", "noise_power must be finite and > 0, got 0.0"),
    ("fig4", ("radio", "ref_path_gain_db"), 2.5,
     "radio", "ref_path_gain_db must be finite and <= 0 (attenuation), got 2.5"),
    ("fig4", ("radio", "tx_power_w"), "1e4",
     "radio.tx_power_w", "expected a number, got '1e4' (YAML reads it as text; write 1.0e+4)"),
    ("fig4", ("path_loss_classes", "uav_sn"), 0,
     "path_loss_classes.uav_sn", "path-loss exponent must be >= 1, got 0.0"),
    ("fig4", ("path_loss_classes",), {}, "path_loss_classes", "expected a non-empty mapping"),
    ("fig4", ("path_loss_classes", "irs_sn"), DELETE,
     "path_loss_classes", "missing required link class 'irs_sn'"),
    ("fig4", ("nodes",), DELETE, "nodes", "missing required key"),
    ("fig4", ("nodes",), [], "nodes", "expected a non-empty list"),
    ("fig4", ("nodes", 0, "id"), DELETE, "nodes[0].id", "missing required key"),
    ("fig4", ("nodes", 0, "role"), "x",
     "nodes[0].role", "expected one of ['bs', 'sensor', 'uav', 'user'], got 'x'"),
    ("fig4", ("nodes", 1, "position"), [1], "nodes[1].position", "expected [x, y, z], got [1]"),
    ("fig4", ("nodes", 1, "position"), [1.0, 2.0, -3.0],
     "nodes[1].position", "altitude must be >= 0, got z=-3.0"),
    ("fig4", ("nodes", 0, "a"), 1, "nodes[0].a", "unknown key"),
    ("fig4", ("surfaces",), "x", "surfaces", "expected a list"),
    ("fig5", ("link_state_rules",), {}, "link_state_rules", "expected a list"),
    ("fig4", ("description",), [], "description", "expected a string"),
    ("fig4", ("name",), "", "name", "expected a non-empty string, got ''"),
    ("fig4", ("experiment", "kind"), "x",
     "experiment.kind", "expected 'trajectory' or 'deployment', got 'x'"),
    ("fig4", ("experiment", "kind"), DELETE, "experiment.kind", "missing required key"),
    ("fig4", ("experiment", "kind"), [], "experiment.kind", "expected a non-empty string, got []"),
    ("fig4", ("experiment", "start"), [0.0, 0.0, 0.0],
     "experiment", "start and end must lie at the fixed altitude"),
    ("fig4", ("experiment", "v_max"), 0, "experiment.v_max", "must be > 0"),
    ("fig4", ("experiment", "slot_duration"), -1, "experiment.slot_duration", "must be > 0"),
    ("fig4", ("experiment", "v_max"), 1e+308,
     "experiment.v_max",
     "sets the step v_max * slot_duration to 1.0000000000000001e+307 m, out of range: "
     "it must be at most 1e+70 m and its square a float > 0"),
    ("fig4", ("experiment", "rate_target"), 0,
     "experiment.rate_target", "must be > 0 and finite, got 0.0"),
    ("fig4", ("experiment", "rate_target"), math.inf,
     "experiment.rate_target", "expected a finite number, got inf"),
    ("fig4", ("experiment", "max_time"), 2.5,
     "experiment.max_time", "2.5 s cannot cover the straight 150.0 m flight"),
    ("fig4", ("experiment", "max_time"), 1e+308,
     "experiment.max_time", "must be a finite number of slots, got 1e+308 s"),
    ("fig5", ("experiment", "n_budget"), -1,
     "experiment.n_budget", "must be an integer >= 0, got -1"),
    ("fig5", ("experiment", "n_budget"), True,
     "experiment.n_budget", "must be an integer >= 0, got True"),
    ("fig5", ("experiment", "n_budget"), DELETE, "experiment.n_budget", "missing required key"),
    ("fig5", ("experiment", "strategies"), [],
     "experiment.strategies", "expected a non-empty list, got []"),
    ("fig5", ("experiment", "strategies"), ["user", "user"],
     "experiment.strategies", "must be unique"),
    ("fig5", ("experiment", "strategies"), ["a"],
     "experiment.strategies[0]", "expected one of ['bs', 'hybrid', 'user'], got 'a'"),
    ("fig4", ("nodes", 0), DELETE, "nodes", "trajectory scenarios need exactly one UAV node"),
    ("fig5", ("surfaces", 1), DELETE,
     "surfaces", "deployment scenarios need exactly one aerial and one terrestrial surface"),
    ("fig4", ("nodes", 3), DELETE, "surfaces", "surface 'irs' covers unknown node 'sn3'"),
    ("fig5", ("nodes", 1), DELETE, "link_state_rules", "unknown endpoint 'user1'"),
    ("fig5", ("surfaces", 0, "covered_node_ids"), ["user1"],
     "surfaces", "aerial surface 'uirs' cannot list covered_node_ids in a deployment "
     "scenario: aerial service follows the LoS thresholds alone"),
    # the trajectory solver prices an NLoS link as LoS, so only blocked may fall back
    ("fig4_noirs", ("link_state_rules",),
     [{"endpoints": ["uav", "sn1"], "min_altitude_for_los": 100.0, "fallback": "nlos"}],
     "link_state_rules[0].fallback",
     "trajectory rules need fallback: blocked; the solver would price nlos, the default, as LoS"),
    ("fig4_noirs", ("path_loss_classes", "uav_snn"), 9.0,
     "path_loss_classes", "link class 'uav_snn' is never priced by this experiment"),
    ("fig5", ("path_loss_classes", "NLOS"), 9.0,
     "path_loss_classes", "link class 'NLOS' is never priced by this experiment"),
]


class TestSingleFaultErrors:
    """Every loader message, with the field it names, on one fault in a shipped file."""

    @pytest.mark.parametrize(
        "name, path, value, field, message",
        SINGLE_FAULTS,
        ids=[f"{i:02d}-{case[3]}" for i, case in enumerate(SINGLE_FAULTS)],
    )
    def test_field_and_message(self, name, path, value, field, message):
        with pytest.raises(ScenarioError) as info:
            loads_scenario(single_fault(name, path, value))
        assert info.value.field == field
        assert str(info.value) == f"{field}: {message}"

    def test_document_that_is_no_mapping(self):
        with pytest.raises(ScenarioError) as info:
            loads_scenario("- 1\n")
        assert info.value.field is None
        assert str(info.value) == "scenario document must be a mapping"

    def test_readme_example_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        scn = loads_scenario(example)
        assert scn.name == "example"
        assert [n.id for n in scn.nodes] == ["uav", "sn1"]
        assert scn.covering_surface("sn1") is scn.surfaces[0]
        assert isinstance(scn.experiment, TrajectoryExperiment)


YAML_LOADERS = [
    pytest.param(yaml.SafeLoader, id="python"),
    pytest.param(
        getattr(yaml, "CSafeLoader", None),
        id="libyaml",
        marks=pytest.mark.skipif(
            not yaml.__with_libyaml__, reason="PyYAML built without libyaml"
        ),
    ),
]


_STRATEGIES = "strategies: [user, bs, hybrid]"
_NAME = "name: fig5-hybrid-deployment"
_ALIAS = "found an alias of this anchored node"
_OUTSIDE = "found a {} tagged {}, outside the scenario grammar"
# Edits of fig5 that YAML reads oddly: (old, new, field, error text); an old
# of None replaces the whole text, and a field of None is a parse error.
YAML_EDGE_CASES = [
    (_STRATEGIES, "strategies: &s [user, *s]", None,
     f"parse error at line 39, column 15: {_ALIAS}"),
    ("radio:\n", "radio: &r\n  x: *r\n", None, f"parse error at line 24, column 8: {_ALIAS}"),
    (_STRATEGIES, "strategies: !!set {user, bs}", None,
     "parse error at line 39, column 15: " + _OUTSIDE.format("mapping", "!!set")),
    (_STRATEGIES, "strategies: !!set {user, user}", None,
     "parse error at line 39, column 15: " + _OUTSIDE.format("mapping", "!!set")),
    (_STRATEGIES, "strategies: !!omap [a: 1]", None,
     "parse error at line 39, column 15: " + _OUTSIDE.format("sequence", "!!omap")),
    (_NAME, "name: 2001-12-14", None,
     "parse error at line 7, column 7: " + _OUTSIDE.format("scalar", "!!timestamp")),
    (_NAME, "name: !foo bar", None,
     "parse error at line 7, column 7: " + _OUTSIDE.format("scalar", "!foo")),
    (_NAME, "name: !!python/name:os.system x", None,
     "parse error at line 7, column 7: " + _OUTSIDE.format("scalar", "!!python/name:os.system")),
    (_NAME, "name: !!map x", None,
     "parse error at line 7, column 7: " + _OUTSIDE.format("scalar", "!!map")),
    (_NAME, "[a]: 1\nname: fig5", None,
     "parse error at line 7, column 1: expected a string key"),
    (_NAME, "~: 1\nname: fig5", None,
     "parse error at line 7, column 1: expected a string key"),
    (_NAME, "<<: {description: x}\nname: fig5", None,
     "parse error at line 7, column 1: expected a string key"),
    (_NAME, "name: &n fig5\ndescription: *n", None, f"parse error at line 7, column 7: {_ALIAS}"),
    (None, "", None, "scenario document must be a mapping"),
    (_STRATEGIES + "\n", _STRATEGIES + "\n---\nname: x\n", None,
     "parse error at line 40, column 1: but found another document"),
]
YAML_EDGE_CASE_IDS = [
    "recursive-list", "recursive-map", "set", "set-repeat", "omap", "date", "local-tag",
    "python-tag", "map-tag-on-scalar", "list-key", "null-key", "merge-key", "scalar-alias",
    "empty", "second-document",
]

# Documents with `<<` merge keys, which PyYAML merges and the grammar rejects:
# a mapping, a list of them, a chain, a set, and aliases inside merged values.
MERGE_DOCUMENTS = [
    "base: &b {x: 1, y: 2}\nderived: {<<: *b, y: 3, z: 4}\n",
    "a: &a {x: 1}\nb: &b {x: 2, y: 2}\nc: {<<: [*a, *b], z: 0}\n",
    "a: &a {x: 1}\nb: &b {<<: *a, y: 2}\nc: {<<: *b, x: 5}\n",
    "a: &a {x: 1}\ns: !!set {<<: *a, y}\n",
    "a: &a [1, {b: 2}]\nc: {d: *a, <<: {e: *a}}\n",
]

_KEYS = st.text(max_size=8)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _KEYS


def _collections(children):
    return st.lists(children, max_size=4) | st.dictionaries(_KEYS, children, max_size=4)


_TREES = st.recursive(_SCALARS, _collections, max_leaves=12)


@st.composite
def shared_trees(draw):
    """A mapping that holds one list or mapping twice, once inside a list;
    yaml.safe_dump writes it as an anchor and an alias."""
    shared = draw(_collections(_TREES))
    values = draw(st.permutations(draw(st.lists(_TREES, max_size=3)) + [shared, [shared]]))
    return {f"k{i}": value for i, value in enumerate(values)}


def bench_instance_texts():
    """(name, text) of every benchmark instance, seeds 0-9 of every workload."""
    root = Path(__file__).resolve().parents[1]
    path = root / "bench" / "instances.py"
    spec = importlib.util.spec_from_file_location("bench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    return [
        (name, text)
        for workload in instances.WORKLOADS
        for seed in range(10)
        for name, text in instances.instance_texts(root, workload, seed)
    ]


@pytest.fixture(params=YAML_LOADERS)
def yaml_loader(request):
    """Make loads_scenario parse with one given PyYAML loader."""
    with mock.patch("uavirs.scenario._YAML_LOADER", request.param):
        yield request.param


class TestYamlLoaders:
    """libyaml's loader and the pure-Python one read scenarios alike."""

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in scenario_path("fig4").parent.glob("*.scenario"))
    )
    def test_shipped_scenarios_parse_alike(self, name, yaml_loader):
        text = scenario_path(name).read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml_loader) == yaml.load(text, Loader=yaml.SafeLoader)
        assert _document(text) == yaml.load(text, Loader=yaml.SafeLoader)
        with mock.patch("uavirs.scenario._YAML_LOADER", yaml.SafeLoader):
            reference = loads_scenario(text)
        assert loads_scenario(text) == reference

    def test_parse_error_reports_line_and_column(self, yaml_loader):
        with pytest.raises(ScenarioError, match=r"line \d+, column \d+"):
            loads_scenario("nodes: [\n  {id: }")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("a: 1\nb: [1, 2\nc: 3\n", "line 3, column 2"),
            ("a: 1\n  b: 2\n", "line 2, column 4"),
            ("a:\n\t- 1\n", "line 2, column 1"),
        ],
    )
    def test_same_error_position(self, text, where, yaml_loader):
        with pytest.raises(ScenarioError, match=where):
            loads_scenario(text)

    @pytest.mark.parametrize(
        "name, old, new, where",
        [
            ("fig4", "rate_target: 1.0\n", "rate_target: 1.0\n  rate_target: 2.0\n",
             "line 42, column 3: repeated key 'rate_target'"),
            ("fig5", "n_budget: 600\n", "n_budget: 600\n  n_budget: 6\n",
             "line 39, column 3: repeated key 'n_budget'"),
            ("fig5", "{id: bs, role: bs,", "{id: bs, role: bs, id: bs2,",
             "line 10, column 24: repeated key 'id'"),
            ("fig5", "name: fig5", "name: x\nname: fig5", "line 8, column 1: repeated key 'name'"),
        ],
        ids=["rate_target", "n_budget", "node_id", "name"],
    )
    def test_repeated_key_rejected(self, name, old, new, where, yaml_loader):
        # PyYAML keeps the last value: fig4 would load rate_target 2.0
        text = scenario_path(name).read_text(encoding="utf-8").replace(old, new, 1)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert info.value.field is None
        assert str(info.value) == f"parse error at {where}"

    def test_merge_key_is_a_parse_error(self, yaml_loader):
        # PyYAML would merge the UAV into sn1 and let sn1 override id and role
        text = MINIMAL_TRAJECTORY.replace(
            "- {id: uav, role: uav, position: [0.0, 0.0, 30.0]}",
            "- &uav {id: uav, role: uav, position: [0.0, 0.0, 30.0]}",
        ).replace("- {id: sn1,", "- {<<: *uav, id: sn1,")
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert str(info.value) == "parse error at line 5, column 6: expected a string key"

    @pytest.mark.parametrize(
        "name, old, new, field, message",
        [
            # float() of this integer raises OverflowError
            ("fig4", "v_max: 50.0\n", f"v_max: 1{'0' * 400}\n", "experiment.v_max",
             "expected a finite number, got an integer beyond the float range"),
            ("fig5", "n_budget: 600\n", f"n_budget: {2**53 + 1}\n", "experiment.n_budget",
             "must be <= 2**53, where element counts stop being exact in the rate math"),
            ("fig5", "n_budget: 600\n", f"n_budget: 1{'0' * 400}\n", "experiment.n_budget",
             "must be <= 2**53, where element counts stop being exact in the rate math"),
            ("fig4", "num_elements: 300\n", f"num_elements: {2**53 + 1}\n",
             "surfaces[0].num_elements",
             "must be <= 2**53, where element counts stop being exact in the rate math"),
            # passed validate, then made trajopt exit 4 ("int too large to convert to float")
            ("fig4", "num_elements: 300\n", f"num_elements: 1{'0' * 400}\n",
             "surfaces[0].num_elements",
             "must be <= 2**53, where element counts stop being exact in the rate math"),
        ],
        ids=["v_max-1e400", "n_budget-2**53+1", "n_budget-1e400", "num_elements-2**53+1",
             "num_elements-1e400"],
    )
    def test_integer_out_of_range(self, name, old, new, field, message, yaml_loader, tmp_path):
        text = scenario_path(name).read_text(encoding="utf-8").replace(old, new, 1)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert info.value.field == field
        assert str(info.value) == f"{field}: {message}"
        path = tmp_path / f"{name}.scenario"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path), "--quiet"]) == EXIT_USAGE

    def test_largest_budget_loads(self, yaml_loader):
        text = scenario_path("fig5").read_text(encoding="utf-8")
        text = text.replace("n_budget: 600\n", f"n_budget: {2**53}\n", 1)
        assert loads_scenario(text).experiment.n_budget == 2**53

    def test_largest_element_count_loads_and_solves(self, yaml_loader, tmp_path):
        text = scenario_path("fig4").read_text(encoding="utf-8")
        text = text.replace("num_elements: 300\n", f"num_elements: {2**53}\n", 1)
        assert loads_scenario(text).surfaces[0].num_elements == 2**53
        path = tmp_path / "fig4.scenario"
        path.write_text(text, encoding="utf-8")
        assert main(["trajopt", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 0

    def test_integer_too_long_for_int_is_a_parse_error(self, yaml_loader):
        # int() converts at most sys.get_int_max_str_digits() digits (4300 by default)
        text = scenario_path("fig5").read_text(encoding="utf-8")
        text = text.replace("n_budget: 600\n", f"n_budget: 1{'0' * 5000}\n", 1)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert info.value.field is None
        assert str(info.value) == "parse error at line 38, column 13: integer with too many digits"

    @pytest.mark.parametrize(
        "value, where, problem",
        [
            ("!!float x", "column 7", "cannot read 'x' as !!float"),
            ("!!bool maybe", "column 7", "cannot read 'maybe' as !!bool"),
            ("!!timestamp x", "column 7", _OUTSIDE.format("scalar", "!!timestamp")),
            ("2001-13-45", "column 7", _OUTSIDE.format("scalar", "!!timestamp")),
            ("!!int x", "column 7", "cannot read 'x' as !!int"),
            (f"!!omap [a: 1{'0' * 5000}]", "column 7", _OUTSIDE.format("sequence", "!!omap")),
            (f"!!pairs [a: 1{'0' * 5000}]", "column 7", _OUTSIDE.format("sequence", "!!pairs")),
            ("!!pairs [a: !!float x]", "column 7", _OUTSIDE.format("sequence", "!!pairs")),
        ],
        ids=["float", "bool", "timestamp", "bad-date", "int", "omap-long-int", "pairs-long-int",
             "pairs-float"],
    )
    def test_unreadable_scalar_is_a_parse_error(self, value, where, problem, yaml_loader):
        # !!int x read as too many digits; the others escaped loads_scenario (exit 4, not 2)
        text = scenario_path("fig5").read_text(encoding="utf-8")
        text = text.replace(_NAME, f"name: {value}", 1)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert info.value.field is None
        assert str(info.value) == f"parse error at line 7, {where}: {problem}"

    @pytest.mark.parametrize("old, new, field, error", YAML_EDGE_CASES, ids=YAML_EDGE_CASE_IDS)
    def test_edge_case_error(self, old, new, field, error, yaml_loader, tmp_path):
        text = scenario_path("fig5").read_text(encoding="utf-8")
        text = new if old is None else text.replace(old, new, 1)
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert info.value.field == field
        assert str(info.value) == error
        path = tmp_path / "edge.scenario"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path), "--quiet"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "text", MERGE_DOCUMENTS, ids=["override", "merge-list", "chained", "set", "alias"]
    )
    def test_walk_rejects_what_pyyaml_merges(self, text, yaml_loader):
        yaml.safe_load(text)  # PyYAML merges it
        with pytest.raises(ConstructorError, match="string key|tagged !!set|an alias"):
            _document(text)

    @pytest.mark.parametrize("loader", YAML_LOADERS)
    @given(value=_TREES)
    def test_walk_builds_pyyamls_document_of_dumped_values(self, loader, value):
        text = yaml.safe_dump(value)
        with mock.patch("uavirs.scenario._YAML_LOADER", loader):
            assert _document(text) == yaml.safe_load(text)

    @pytest.mark.parametrize("loader", YAML_LOADERS)
    @given(value=shared_trees())
    def test_dumped_shared_value_is_a_parse_error(self, loader, value):
        text = yaml.safe_dump(value)
        with mock.patch("uavirs.scenario._YAML_LOADER", loader):
            where = r"^parse error at line \d+, column \d+: "
            with pytest.raises(ScenarioError, match=where + _ALIAS + "$"):
                loads_scenario(text)

    def test_walk_rejects_an_alias(self, yaml_loader):
        # PyYAML shares one list between a and b; the walk stops at the second use
        with pytest.raises(ConstructorError) as info:
            _document("a: &a [1]\nb: *a\nc: &c {d: *c}\n")
        assert str(info.value).startswith(_ALIAS)
        assert (info.value.problem_mark.line, info.value.problem_mark.column) == (0, 3)

    def test_bench_instances_parse_as_pyyaml(self, yaml_loader):
        texts = bench_instance_texts()
        assert len(texts) == 93  # 10 scenes for each trajectory workload, 1 + 9 * 8 deploys
        for name, text in texts:
            assert _document(text) == yaml.safe_load(text), name
            loads_scenario(text)

    def test_scenario_load_constructs_no_pyyaml_document(self, yaml_loader):
        base = yaml.constructor.BaseConstructor
        with mock.patch.object(
            base, "construct_document", autospec=True, side_effect=base.construct_document
        ) as construct:
            for name in ("fig4", "fig4_noirs", "fig5"):
                load_scenario(scenario_path(name))
        assert construct.call_count == 0


class TestBuiltScenarioChecksItself:
    """A Scenario or experiment built in code, copies included, runs the loader's checks."""

    @pytest.fixture(scope="class")
    def fig4(self):
        return load_scenario(scenario_path("fig4"))

    @pytest.fixture(scope="class")
    def fig5(self):
        return load_scenario(scenario_path("fig5"))

    def test_zero_element_copy_of_a_surface_rejected(self, fig4):
        # it used to cover sn3-sn6 first and solve silently to 5.1 s, not 3.0 s
        (irs,) = fig4.surfaces
        with pytest.raises(ScenarioError, match="surface ids must be unique") as info:
            replace(fig4, surfaces=(irs.with_elements(0), irs))
        assert info.value.field == "surfaces"
        with pytest.raises(ScenarioError, match="covered by multiple surfaces"):
            replace(fig4, surfaces=(replace(irs, id="irs0", num_elements=0), irs))

    def test_repeated_node_rejected(self, fig4):
        with pytest.raises(ScenarioError, match="node ids must be unique") as info:
            replace(fig4, nodes=fig4.nodes + (fig4.node("sn1"),))
        assert info.value.field == "nodes"

    def test_experiment_of_the_other_kind_rejected(self, fig4, fig5):
        with pytest.raises(ScenarioError, match="exactly one UAV node"):
            fig5.with_experiment(fig4.experiment)
        with pytest.raises(ScenarioError, match="exactly one BS node"):
            fig4.with_experiment(fig5.experiment)

    @pytest.mark.parametrize("max_time", [math.inf, math.nan, 1.0])
    def test_max_time_checked_when_built(self, fig4, max_time):
        # inf used to build and then fail inside min_time_mission with an OverflowError
        with pytest.raises(ValueError, match="max_time"):
            replace(fig4.experiment, max_time=max_time)

    def test_infinite_rate_target_rejected(self, fig4):
        with pytest.raises(ValueError, match="rate_target must be > 0 and finite"):
            replace(fig4.experiment, rate_target=math.inf)

    def test_colocated_nodes_are_a_file_policy(self, fig5):
        # the solvers clamp every distance up to 1 m, so a code-built scenario
        # may put a user on the BS; a scenario file may not
        bs = fig5.bs_node()
        user1 = Node("user1", NodeRole.USER, bs.position)
        scn = replace(fig5, nodes=(bs, user1, fig5.node("user2")))
        res = evaluate_strategy(scn, DeploymentStrategy.HYBRID)
        assert all(math.isfinite(r) and r > 0 for r in res.per_user_rates)
        text = scenario_path("fig5").read_text().replace(
            "position: [80.0, 0.0, 0.0]", "position: [0.0, 0.0, 25.0]"
        )
        with pytest.raises(ScenarioError, match="share a position") as info:
            loads_scenario(text)
        assert info.value.field == "nodes"

    def test_repeated_strategy_in_a_file_names_the_field(self):
        text = scenario_path("fig5").read_text().replace(
            "strategies: [user, bs, hybrid]", "strategies: [user, bs, user]"
        )
        with pytest.raises(ScenarioError) as info:
            loads_scenario(text)
        assert str(info.value) == "experiment.strategies: must be unique"


# (shipped scenario, the part of it to copy, attribute, a value its type rejects)
FIELD_FAULTS = [
    ("fig4", lambda s: s.surfaces[0], "num_elements", -1),
    ("fig4", lambda s: s.surfaces[0], "facing_normal", (0.0, 0.0, 0.0)),
    ("fig5", lambda s: s.surfaces[1], "coverage_radius", 0.0),
    ("fig5", lambda s: next(iter(s.link_rules)), "min_altitude_for_los", -1.0),
    ("fig4", lambda s: s.experiment.constraints, "v_max", 0.0),
    ("fig4", lambda s: s.experiment.constraints, "v_max", 1e300),  # the step bound
    ("fig4", lambda s: s.experiment.constraints, "slot_duration", -1.0),
    ("fig4", lambda s: s.experiment, "rate_target", 0.0),
    ("fig4", lambda s: s.experiment, "max_time", 1.0),
    ("fig5", lambda s: s.experiment, "n_budget", 2**53 + 1),
    ("fig5", lambda s: s.experiment, "strategies", (DeploymentStrategy.HYBRID,) * 2),
    ("fig5", lambda s: DeploymentPlan(0, 0, 0.0, ()), "aerial_elements", True),
]


class TestFieldError:
    """A type's error names the attribute it rejected, so the loader can name its file key."""

    def test_is_a_value_error_that_reads_as_field_then_problem(self):
        exc = FieldError("v_max", "must be > 0")
        assert isinstance(exc, ValueError)
        assert (exc.field, exc.problem, str(exc)) == ("v_max", "must be > 0", "v_max must be > 0")

    @pytest.mark.parametrize(
        "name, part, field, value",
        FIELD_FAULTS,
        ids=[f"{i:02d}-{case[2]}" for i, case in enumerate(FIELD_FAULTS)],
    )
    def test_field_is_the_attribute_name(self, name, part, field, value):
        original = part(load_scenario(scenario_path(name)))
        with pytest.raises(FieldError) as info:
            replace(original, **{field: value})
        assert isinstance(info.value, ValueError)
        assert info.value.field == field
        assert field in {f.name for f in dataclasses.fields(original)}
        assert str(info.value) == f"{field} {info.value.problem}"


class TestScenarioHelpers:
    def test_without_irs_strips_elements(self):
        scn = load_scenario(scenario_path("fig4"))
        bare = scn.without_irs()
        assert all(s.num_elements == 0 for s in bare.surfaces)
        assert scn.surfaces[0].num_elements == 300  # original untouched

    def test_digest_is_stable_and_content_sensitive(self):
        a = scenario_digest("nodes: []\n")
        assert a == scenario_digest(b"nodes: []\n")
        assert a != scenario_digest("nodes: [1]\n")

    def test_role_queries(self):
        scn = load_scenario(scenario_path("fig5"))
        assert scn.bs_node().id == "bs"
        assert [u.id for u in scn.user_nodes()] == ["user1", "user2"]
        assert scn.node("user1").role is NodeRole.USER
