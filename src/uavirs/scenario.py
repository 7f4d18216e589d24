"""Scenario files: strict YAML schema and validation.

A scenario is a single YAML document holding the nodes, surfaces, radio
constants, per-link-class path-loss exponents, link-state rules, and exactly
one experiment block (trajectory or deployment). Its grammar is a subset of
YAML: string-keyed mappings, lists, strings, numbers, booleans and nulls.
Unknown keys and keys given twice in one mapping are rejected. The reader only
converts values: the type each fills checks it, and every error names its
field. An optional key left out of a file takes the default of that field.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import yaml
from yaml.constructor import ConstructorError

from .channel import (
    LinkRuleSet,
    LinkState,
    LinkStateRule,
    Node,
    NodeRole,
    PathLossModel,
    Position3D,
    RadioParams,
    resolve_link_state,
)
from .deployment import DeploymentStrategy
from .errors import ConfigurationError, FieldError, ScenarioError
from .irs import IrsSurface, SurfaceKind, _check_count, covers

# CPython's built-in SHA-256: hashlib's would map OpenSSL's libcrypto for one
# digest per run. hashlib only for builds without the built-in module.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

# libyaml's loader when PyYAML was built with it (about 8x faster). Either one
# composes the nodes and resolves their tags; libyaml words parse errors
# differently and marks the end of the text on the line after it.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_TAG = "tag:yaml.org,2002:"
_INT, _STR, _MAP, _SEQ = (_TAG + t for t in ("int", "str", "map", "seq"))
# The scalar tags of the grammar, each built by the loader's own constructor.
_SCALARS = frozenset(_TAG + t for t in "null bool int float str".split())


def _scalar(loader, node):
    """node's value from its tag's constructor; a value it cannot read is a ConstructorError."""
    try:
        return type(loader).yaml_constructors[node.tag](loader, node)
    except (ValueError, LookupError):  # as on `!!float x` or `!!bool maybe`
        if node.tag == _INT and loader.resolve(yaml.ScalarNode, node.value, (True, False)) == _INT:
            problem = "integer with too many digits"  # int() takes sys.get_int_max_str_digits()
        else:
            problem = f"cannot read {reprlib.repr(node.value)} as !!{node.tag[len(_TAG):]}"
        raise ConstructorError(None, None, problem, node.start_mark) from None


def _walk(loader, node, seen: set):
    """The value of node in the scenario grammar, in one walk: mappings with string
    keys, lists, and str, int, float, bool and null scalars. Any other node is a
    ConstructorError at its mark, as are a repeated key, a scalar its tag cannot
    read and an alias, which the composer hands over as the anchored node again."""
    if node in seen:  # libyaml keeps no mark for the alias itself
        raise ConstructorError(None, None, "found an alias of this anchored node", node.start_mark)
    seen.add(node)
    kind, tag = type(node), node.tag
    if kind is yaml.ScalarNode and tag in _SCALARS:
        return _scalar(loader, node)
    if kind is yaml.SequenceNode and tag == _SEQ:
        return [_walk(loader, child, seen) for child in node.value]
    if kind is not yaml.MappingNode or tag != _MAP:
        tag = "!!" + tag[len(_TAG):] if tag.startswith(_TAG) else tag
        problem = f"found a {node.id} tagged {tag}, outside the scenario grammar"
        raise ConstructorError(None, None, problem, node.start_mark)
    data = {}
    for key_node, value_node in node.value:
        if key_node.tag != _STR:  # also a `<<` merge key, tagged !!merge
            raise ConstructorError(None, None, "expected a string key", key_node.start_mark)
        key = _walk(loader, key_node, seen)
        if key in data:
            raise ConstructorError(None, None, f"repeated key {key!r}", key_node.start_mark)
        data[key] = _walk(loader, value_node, seen)
    return data


def _document(text: str):
    """The single YAML document in text, built by _walk; yaml.YAMLError if not in the grammar."""
    loader = _YAML_LOADER(text)
    try:
        node = loader.get_single_node()
        return None if node is None else _walk(loader, node, set())
    finally:
        loader.dispose()


# Largest accepted v_max * slot_duration (m). The speed projection forms
# products of four lengths (the square of s . ds in its step to the bound),
# which overflow near 1e77 m; 1e70 m leaves room for steps 1e7 times longer.
_MAX_STEP_LIMIT = 1e70
# Tolerance (m) of the speed contract: every waypoint step is at most
# v_max * slot_duration + SPEED_SLACK.
SPEED_SLACK = 1e-9


@dataclass(frozen=True)
class TrajectoryConstraints:
    """Endpoint, altitude, speed and slot-length limits for one mission.

    The largest step, max_step = v_max * slot_duration, must have a non-zero
    float square and be at most _MAX_STEP_LIMIT, or a FieldError names v_max:
    the speed projection works in squared lengths and in products of four, and
    beyond that range its slack rounds to zero or its step length overflows.
    """

    start: Position3D
    end: Position3D
    fixed_altitude: float
    v_max: float
    slot_duration: float = 0.1

    def __post_init__(self):
        if not (self.v_max > 0):
            raise FieldError("v_max", "must be > 0")
        if not (self.slot_duration > 0):
            raise FieldError("slot_duration", "must be > 0")
        if not (0.0 < self.max_step * self.max_step and self.max_step <= _MAX_STEP_LIMIT):
            raise FieldError(
                "v_max",
                f"sets the step v_max * slot_duration to {self.max_step!r} m, out of range: "
                f"it must be at most {_MAX_STEP_LIMIT:g} m and its square a float > 0",
            )
        if self.start.z != self.fixed_altitude or self.end.z != self.fixed_altitude:
            raise ValueError("start and end must lie at the fixed altitude")

    @property
    def max_step(self) -> float:
        """Largest admissible waypoint-to-waypoint displacement."""
        return self.v_max * self.slot_duration

    def slot_range(self, max_time: float) -> Tuple[int, int]:
        """Fewest and most slots a mission can take within max_time.

        The fewest is the least m whose straight start-to-end step, distance
        / m, is at most max_step + SPEED_SLACK / 2: the other half of the slack
        takes up the rounding of that line's waypoints, so the line meets the
        speed contract. The most fit whole in max_time. Raises
        FieldError("max_time", ...) when max_time is not a finite number of
        slots or cannot cover that straight flight.
        """
        slots = max_time / self.slot_duration
        if not math.isfinite(slots):
            raise FieldError("max_time", f"must be a finite number of slots, got {max_time!r} s")
        distance = self.start.distance_to(self.end)
        m_min = max(1, math.ceil(distance / (self.max_step + SPEED_SLACK / 2)))
        m_max = math.floor(slots + 1e-9)
        if m_max < m_min:
            raise FieldError(
                "max_time", f"{max_time} s cannot cover the straight {distance:.1f} m flight"
            )
        return m_min, m_max


@dataclass(frozen=True)
class TrajectoryExperiment:
    constraints: TrajectoryConstraints
    rate_target: float
    max_time: float = 60.0

    def __post_init__(self):
        if not (0 < self.rate_target < math.inf):  # also rejects NaN
            raise FieldError("rate_target", f"must be > 0 and finite, got {self.rate_target!r}")
        self.constraints.slot_range(self.max_time)


@dataclass(frozen=True)
class DeploymentExperiment:
    n_budget: int
    strategies: Tuple[DeploymentStrategy, ...] = (
        DeploymentStrategy.USER_SIDE,
        DeploymentStrategy.BS_SIDE,
        DeploymentStrategy.HYBRID,
    )

    def __post_init__(self):
        _check_count("n_budget", self.n_budget)
        strategies = self.strategies
        if not (strategies and all(isinstance(s, DeploymentStrategy) for s in strategies)):
            raise FieldError(
                "strategies", f"must be a non-empty tuple of DeploymentStrategy, got {strategies!r}"
            )
        if len(set(strategies)) != len(strategies):
            raise FieldError("strategies", "must be unique")


Experiment = Union[TrajectoryExperiment, DeploymentExperiment]


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description.

    It checks itself when built, copies included: ids, references, roles and
    link classes must suit its experiment, and each violation raises a
    ScenarioError naming the offending part. Nodes may share a position (every
    distance is clamped up to the 1 m reference); only loads_scenario rejects
    that, as a policy for files.
    """

    name: str
    nodes: Tuple[Node, ...]
    surfaces: Tuple[IrsSurface, ...]
    radio: RadioParams
    path_loss_classes: Dict[str, PathLossModel]
    link_rules: LinkRuleSet
    experiment: Experiment
    description: str = ""

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            _fail("nodes", "node ids must be unique")
        surf_ids = [s.id for s in self.surfaces]
        if len(set(surf_ids)) != len(surf_ids) or set(surf_ids) & set(ids):
            _fail("surfaces", "surface ids must be unique and distinct from node ids")
        for s in self.surfaces:
            for nid in sorted(s.covered_node_ids or ()):
                if nid not in ids:
                    _fail("surfaces", f"surface {s.id!r} covers unknown node {nid!r}")
        known = set(ids) | set(surf_ids)
        for rule in self.link_rules:
            for endpoint in rule.endpoints:
                if endpoint not in known:
                    _fail("link_state_rules", f"unknown endpoint {endpoint!r}")

        if isinstance(self.experiment, TrajectoryExperiment):
            if len(self._by_role(NodeRole.UAV)) != 1:
                _fail("nodes", "trajectory scenarios need exactly one UAV node")
            if not self.sensor_nodes():
                _fail("nodes", "trajectory scenarios need at least one sensor node")
            priced = {"uav_sn", "uav_irs", "irs_sn"}
            required = priced if self.surfaces else {"uav_sn"}
            for node in self.sensor_nodes():
                covering = [s.id for s in self.surfaces if self._surface_covers(s, node)]
                if len(covering) > 1:
                    _fail(
                        "surfaces",
                        f"node {node.id!r} is covered by multiple surfaces {covering}",
                    )
            for i, rule in enumerate(self.link_rules):  # in the order given, as in a file
                if rule.fallback_state is LinkState.NLOS:
                    _fail(
                        f"link_state_rules[{i}].fallback",
                        "trajectory rules need fallback: blocked; "
                        "the solver would price nlos, the default, as LoS",
                    )
        else:
            if len(self._by_role(NodeRole.BS)) != 1:
                _fail("nodes", "deployment scenarios need exactly one BS node")
            if not self.user_nodes():
                _fail("nodes", "deployment scenarios need at least one user node")
            kinds = [s.kind for s in self.surfaces]
            if [kinds.count(k) for k in SurfaceKind] != [1, 1]:
                _fail(
                    "surfaces",
                    "deployment scenarios need exactly one aerial and one terrestrial surface",
                )
            for s in self.surfaces:
                if s.kind is SurfaceKind.AERIAL_MOUNTED and s.covered_node_ids is not None:
                    _fail(
                        "surfaces",
                        f"aerial surface {s.id!r} cannot list covered_node_ids in a deployment "
                        "scenario: aerial service follows the LoS thresholds alone",
                    )
            required = priced = {"los", "nlos"}
        for cls in sorted(required - self.path_loss_classes.keys()):
            _fail("path_loss_classes", f"missing required link class {cls!r}")
        for cls in sorted(self.path_loss_classes.keys() - priced):
            _fail("path_loss_classes", f"link class {cls!r} is never priced by this experiment")

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise ConfigurationError(f"unknown node {node_id!r}")

    def _by_role(self, role: NodeRole) -> Tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.role is role)

    def uav_node(self) -> Node:
        (uav,) = self._by_role(NodeRole.UAV)
        return uav

    def bs_node(self) -> Node:
        (bs,) = self._by_role(NodeRole.BS)
        return bs

    def sensor_nodes(self) -> Tuple[Node, ...]:
        return self._by_role(NodeRole.SENSOR)

    def user_nodes(self) -> Tuple[Node, ...]:
        return self._by_role(NodeRole.USER)

    def path_loss(self, link_class: str) -> PathLossModel:
        try:
            return self.path_loss_classes[link_class]
        except KeyError:
            raise ConfigurationError(f"no path-loss model for link class {link_class!r}")

    def covering_surface(self, node_id: str) -> Optional[IrsSurface]:
        """The unique surface covering a node, or None (checked when built)."""
        node = self.node(node_id)
        for surface in self.surfaces:
            if self._surface_covers(surface, node):
                return surface
        return None

    def _surface_covers(self, surface: IrsSurface, node: Node) -> bool:
        state = None
        if surface.kind is SurfaceKind.AERIAL_MOUNTED:
            state = resolve_link_state(self.link_rules, surface.id, node.id, surface.position.z)
        return covers(surface, node.position, link_state=state, node_id=node.id)

    def with_experiment(self, experiment: Experiment) -> "Scenario":
        return replace(self, experiment=experiment)

    def without_irs(self) -> "Scenario":
        """Variant with every surface stripped to zero reflecting elements."""
        return replace(
            self, surfaces=tuple(s.with_elements(0) for s in self.surfaces)
        )


def scenario_digest(text: Union[str, bytes]) -> str:
    """Content hash (sha256 hex) of a scenario file's bytes; str is hashed as UTF-8.

    Computed with CPython's built-in SHA-256, the same hex digest as
    hashlib.sha256, without loading OpenSSL.
    """
    data = text.encode("utf-8") if isinstance(text, str) else text
    return _sha256(data).hexdigest()


def scenario_path(name: str) -> Path:
    """Filesystem path of a shipped scenario file, e.g. scenario_path("fig4")."""
    base = resources.files("uavirs") / "scenarios" / f"{name}.scenario"
    return Path(str(base))


# ---------------------------------------------------------------------------
# Reading files. A reader takes (value, field) and names field in its errors. A table
# maps each key to (type field, required, reader); reader None leaves the value to its type.


def _fail(field: Optional[str], message: str):
    raise ScenarioError(message, field=field)


def _build(make, field: str, args: tuple = (), kwargs: Optional[dict] = None):
    """make(*args, **kwargs), its errors reported against field (a FieldError's: field.<key>)."""
    try:
        return make(*args, **(kwargs or {}))
    except FieldError as exc:
        _fail(f"{field}.{exc.field}", exc.problem)
    except (ValueError, ConfigurationError) as exc:
        _fail(field, str(exc))


def _section(entry, where: str, what: str, table: dict) -> dict:
    """The keyword arguments that one mapping gives its type, read by table.

    what is the message when entry is no mapping. An optional key that is
    absent is left out, so the type's own default applies.
    """
    if not isinstance(entry, dict):
        _fail(where or None, what)
    prefix = f"{where}." if where else ""
    if not entry.keys() <= table.keys():
        name = sorted(entry.keys() - table.keys())[0]
        _fail(f"{prefix}{name}", "unknown key")
    fields = {}
    for key, (name, required, read) in table.items():
        if key in entry:
            fields[name] = entry[key] if read is None else read(entry[key], prefix + key)
        elif required:
            _fail(prefix + key, "missing required key")
    return fields


def _items(values: list, field: str, read) -> tuple:
    return tuple([read(v, f"{field}[{i}]") for i, v in enumerate(values)])


def _as_str(value, field: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(field, f"expected a non-empty string, got {value!r}")
    return value


def _as_text(value, field: str) -> str:
    if not isinstance(value, str):
        _fail(field, "expected a string")
    return value


def _yaml_float_hint(value) -> str:
    """The YAML 1.1 spelling of a number in exponent form that it read as text.

    YAML 1.1 floats need a dot and a signed exponent, so 1e4 is a string;
    the hint asks for 1.0e+4.
    """
    if not isinstance(value, str):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    mantissa, _, exponent = value.strip().lower().partition("e")
    if not exponent:
        return ""
    mantissa += "" if "." in mantissa else ".0"
    exponent = exponent if exponent[0] in "+-" else "+" + exponent
    return f" (YAML reads it as text; write {mantissa}e{exponent})"


def _as_float(value, field: str, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}{_yaml_float_hint(value)}")
    try:
        out = float(value)
    except OverflowError:  # an integer, too large for repr to be a useful message
        _fail(field, "expected a finite number, got an integer beyond the float range")
    if math.isnan(out) or (not allow_inf and math.isinf(out)):
        _fail(field, f"expected a finite number, got {value!r}")
    return out


def _as_radius(value, field: str) -> Optional[float]:
    return None if value is None else _as_float(value, field)


def _as_threshold(value, field: str) -> float:
    return _as_float(value, field, allow_inf=True)


def _one_of(members):
    """Reader of an enum member, written as its value."""
    choices = {m.value: m for m in members}

    def read(value, field: str):
        if not (isinstance(value, str) and value in choices):  # a list is no dict key
            _fail(field, f"expected one of {sorted(choices)}, got {value!r}")
        return choices[value]

    return read


def _as_triple(value, field: str, expected: str) -> Tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        _fail(field, f"expected {expected}, got {value!r}")
    return _items(value, field, _as_float)


def _as_position(value, field: str) -> Position3D:
    return _build(Position3D, field, _as_triple(value, field, "[x, y, z]"))


def _as_normal(value, field: str) -> Tuple[float, float, float]:
    return _as_triple(value, field, "a 3-vector")


def _as_pair(value, field: str) -> Tuple[str, str]:
    if not isinstance(value, list) or len(value) != 2:
        _fail(field, f"expected a pair of ids, got {value!r}")
    return _as_str(value[0], f"{field}[0]"), _as_str(value[1], f"{field}[1]")


def _as_ids(value, field: str) -> Optional[frozenset]:
    if value is None:
        return None
    if not isinstance(value, list):
        _fail(field, "expected a list of node ids")
    return frozenset(_items(value, field, _as_str))


_as_strategy = _one_of(DeploymentStrategy)


def _as_strategies(value, field: str) -> Tuple[DeploymentStrategy, ...]:
    if value == "all":
        return tuple(DeploymentStrategy)
    if not isinstance(value, list) or not value:
        _fail(field, f"expected a non-empty list, got {value!r}")
    return _items(value, field, _as_strategy)


def _list_of(read, non_empty: bool = False):
    """Reader of a list, each entry read by read; null is the empty list unless non_empty."""

    def read_list(value, field: str) -> tuple:
        if value is None and not non_empty:
            value = []
        if not isinstance(value, list) or (non_empty and not value):
            _fail(field, "expected a non-empty list" if non_empty else "expected a list")
        return _items(value, field, read)

    return read_list


def _record(make, what: str, table: dict):
    """Reader of one mapping, read by table and built by make."""
    return lambda value, field: _build(make, field, kwargs=_section(value, field, what, table))


_NODE = {
    "id": ("id", True, _as_str),
    "role": ("role", True, _one_of(NodeRole)),
    "position": ("position", True, _as_position),
}
_SURFACE = {
    "id": ("id", True, _as_str),
    "kind": ("kind", True, _one_of(SurfaceKind)),
    "position": ("position", True, _as_position),
    "num_elements": ("num_elements", False, None),
    "facing_normal": ("facing_normal", False, _as_normal),
    "coverage_radius": ("coverage_radius", False, _as_radius),
    "covered_node_ids": ("covered_node_ids", False, _as_ids),
}
_RULE = {
    "endpoints": ("endpoints", True, _as_pair),
    "min_altitude_for_los": ("min_altitude_for_los", False, _as_threshold),
    "fallback": ("fallback_state", False, _one_of((LinkState.NLOS, LinkState.BLOCKED))),
}
_RADIO = {
    "tx_power_w": ("tx_power", False, _as_float),
    "noise_power_w": ("noise_power", False, _as_float),
    "ref_path_gain_db": ("ref_path_gain_db", False, _as_float),
}
_TRAJECTORY = {
    "start": ("start", True, _as_position),
    "end": ("end", True, _as_position),
    "fixed_altitude": ("fixed_altitude", True, _as_float),
    "v_max": ("v_max", True, _as_float),
    "slot_duration": ("slot_duration", False, _as_float),
    "rate_target": ("rate_target", True, _as_float),
    "max_time": ("max_time", False, _as_float),
}
_DEPLOYMENT = {
    "n_budget": ("n_budget", True, None),
    "strategies": ("strategies", False, _as_strategies),
}


def _as_radio(value, field: str) -> RadioParams:
    fields = _section({} if value is None else value, field, "radio must be a mapping", _RADIO)
    return _build(RadioParams, field, kwargs=fields)


def _as_path_loss_classes(value, field: str) -> Dict[str, PathLossModel]:
    if not isinstance(value, dict) or not value:
        _fail(field, "expected a non-empty mapping")
    classes = {}
    for key, exponent in value.items():
        where = f"{field}.{_as_str(key, field)}"
        classes[key] = _build(PathLossModel, where, (_as_float(exponent, where),))
    return classes


_as_rules = _list_of(_record(LinkStateRule, "link-state rules must be mappings", _RULE))


def _as_trajectory(entry: dict, where: str) -> TrajectoryExperiment:
    fields = _section(entry, where, "", _TRAJECTORY)  # _as_experiment saw a mapping
    experiment = {key: fields.pop(key) for key in ("rate_target", "max_time") if key in fields}
    constraints = _build(TrajectoryConstraints, where, kwargs=fields)
    return _build(TrajectoryExperiment, where, (constraints,), experiment)


def _as_deployment(entry: dict, where: str) -> DeploymentExperiment:
    fields = _section(entry, where, "", _DEPLOYMENT)  # _as_experiment saw a mapping
    return _build(DeploymentExperiment, where, kwargs=fields)


_EXPERIMENTS = {"trajectory": _as_trajectory, "deployment": _as_deployment}


def _as_experiment(entry, field: str) -> Experiment:
    if not isinstance(entry, dict):
        _fail(field, "experiment must be a mapping")
    if "kind" not in entry:
        _fail(f"{field}.kind", "missing required key")
    kind = _as_str(entry["kind"], f"{field}.kind")
    if kind not in _EXPERIMENTS:
        _fail(f"{field}.kind", f"expected 'trajectory' or 'deployment', got {kind!r}")
    return _EXPERIMENTS[kind]({k: v for k, v in entry.items() if k != "kind"}, field)


_as_nodes = _list_of(_record(Node, "node entries must be mappings", _NODE), non_empty=True)
_as_surfaces = _list_of(_record(IrsSurface, "surface entries must be mappings", _SURFACE))
_SCENARIO = {
    "name": ("name", False, _as_str),
    "description": ("description", False, _as_text),
    "nodes": ("nodes", True, _as_nodes),
    "surfaces": ("surfaces", False, _as_surfaces),
    "radio": ("radio", False, _as_radio),
    "path_loss_classes": ("path_loss_classes", True, _as_path_loss_classes),
    "link_state_rules": ("link_rules", False, _as_rules),
    "experiment": ("experiment", True, _as_experiment),
}


def loads_scenario(text: str) -> Scenario:
    """Parse (by _document) and validate a scenario document from YAML text."""
    try:
        doc = _document(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ScenarioError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}"
            )
        raise ScenarioError(f"parse error: {exc}")
    fields = dict(name="unnamed", surfaces=(), radio=RadioParams(), link_rules=())
    fields.update(_section(doc, "", "scenario document must be a mapping", _SCENARIO))
    fields["link_rules"] = _build(LinkRuleSet, "link_state_rules", (fields["link_rules"],))
    scenario = Scenario(**fields)
    nodes = scenario.nodes  # a file policy: the solvers clamp colocated nodes
    if len({n.position for n in nodes}) < len(nodes):
        for i, a in enumerate(nodes):  # name the first pair
            for b in nodes[i + 1 :]:
                if a.position == b.position:
                    _fail("nodes", f"nodes {a.id!r} and {b.id!r} share a position")
    return scenario


def _read_scenario(path) -> Tuple[Scenario, bytes]:
    """Load and validate a scenario file; also returns the bytes that were parsed."""
    file_path = Path(path)
    if not file_path.exists():
        raise ScenarioError(f"scenario file not found: {file_path}")
    try:
        data = file_path.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ScenarioError(f"cannot read scenario file: {exc}")
    return loads_scenario(text), data


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    return _read_scenario(path)[0]
