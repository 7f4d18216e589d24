"""Scenario files: strict YAML schema and validation.

A scenario is a single YAML document holding the nodes, surfaces, radio
constants, per-link-class path-loss exponents, link-state rules, and exactly
one experiment block (trajectory or deployment). Unknown keys are rejected;
every validation error names the offending field. All defaults from the
design ledger are applied at load time and echoed into the loaded object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import yaml

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
from .errors import ConfigurationError, ScenarioError
from .irs import IrsSurface, SurfaceKind, covers

# CPython's built-in SHA-256: hashlib's would map OpenSSL's libcrypto for one
# digest per run. hashlib only for builds without the built-in module.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

# libyaml's loader when PyYAML was built with it (about 8x faster). Both share
# SafeConstructor and Resolver, so they build the same documents; libyaml words
# parse errors differently and marks the end of the text on the line after it.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULT_SLOT_DURATION = 0.1
DEFAULT_MAX_TIME = 60.0


# Largest accepted v_max * slot_duration (m). The speed projection forms
# products of four lengths (the square of s . ds in its step to the bound),
# which overflow near 1e77 m; 1e70 m leaves room for steps 1e7 times longer.
_MAX_STEP_LIMIT = 1e70


class _StepOutOfRange(ValueError):
    """v_max * slot_duration is a step the speed projection cannot handle."""


@dataclass(frozen=True)
class TrajectoryConstraints:
    """Endpoint, altitude, speed and slot-length limits for one mission.

    The largest step, max_step = v_max * slot_duration, must have a
    non-zero float square and be at most _MAX_STEP_LIMIT: the speed
    projection works in squared lengths and in products of four, and beyond
    that range its slack rounds to zero or its step length overflows.
    """

    start: Position3D
    end: Position3D
    fixed_altitude: float
    v_max: float
    slot_duration: float

    def __post_init__(self):
        if not (self.v_max > 0):
            raise ValueError("v_max must be > 0")
        if not (self.slot_duration > 0):
            raise ValueError("slot_duration must be > 0")
        if not (0.0 < self.max_step * self.max_step and self.max_step <= _MAX_STEP_LIMIT):
            raise _StepOutOfRange(
                f"v_max * slot_duration = {self.max_step!r} m is out of range: "
                f"it must be at most {_MAX_STEP_LIMIT:g} m and its square a float > 0"
            )
        if self.start.z != self.fixed_altitude or self.end.z != self.fixed_altitude:
            raise ValueError("start and end must lie at the fixed altitude")

    @property
    def max_step(self) -> float:
        """Largest admissible waypoint-to-waypoint displacement."""
        return self.v_max * self.slot_duration

    def slot_range(self, max_time: float) -> Tuple[int, int]:
        """Fewest and most slots a mission can take within max_time.

        The fewest fly the straight start-to-end line at v_max; the most fit
        whole in max_time. Raises ValueError when max_time is not a finite
        number of slots or cannot cover that straight flight.
        """
        slots = max_time / self.slot_duration
        if not math.isfinite(slots):
            raise ValueError(f"max_time must be a finite number of slots, got {max_time!r} s")
        distance = self.start.distance_to(self.end)
        m_min = max(1, math.ceil(distance / self.max_step - 1e-9))
        m_max = math.floor(slots + 1e-9)
        if m_max < m_min:
            raise ValueError(
                f"max_time {max_time} s cannot cover the straight {distance:.1f} m flight"
            )
        return m_min, m_max


@dataclass(frozen=True)
class TrajectoryExperiment:
    constraints: TrajectoryConstraints
    rate_target: float
    max_time: float = DEFAULT_MAX_TIME

    def __post_init__(self):
        if not (0 < self.rate_target < math.inf):  # also rejects NaN
            raise ValueError(f"rate_target must be > 0 and finite, got {self.rate_target!r}")
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
        if not (type(self.n_budget) is int and self.n_budget >= 0):  # bool is no count
            raise ValueError(f"n_budget must be an integer >= 0, got {self.n_budget!r}")
        strategies = self.strategies
        if not (strategies and all(isinstance(s, DeploymentStrategy) for s in strategies)):
            raise ValueError(
                f"strategies must be a non-empty tuple of DeploymentStrategy, got {strategies!r}"
            )
        if len(set(strategies)) != len(strategies):
            raise ValueError("strategies must be unique")


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
            required = {"uav_sn"} | ({"uav_irs", "irs_sn"} if self.surfaces else set())
            for cls in sorted(required):
                if cls not in self.path_loss_classes:
                    _fail("path_loss_classes", f"missing required link class {cls!r}")
            for node in self.sensor_nodes():
                covering = [s.id for s in self.surfaces if self._surface_covers(s, node)]
                if len(covering) > 1:
                    _fail(
                        "surfaces",
                        f"node {node.id!r} is covered by multiple surfaces {covering}",
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
            for cls in ("los", "nlos"):
                if cls not in self.path_loss_classes:
                    _fail("path_loss_classes", f"missing required link class {cls!r}")

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
# Parsing helpers: every reader names the field it is validating.


def _fail(field: str, message: str):
    raise ScenarioError(message, field=field)


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        name = sorted(unknown, key=str)[0]  # YAML keys need not all be strings
        _fail(f"{where}{name}", "unknown key")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        _fail(f"{where}{key}", "missing required key")
    return mapping[key]


def _as_str(value, field: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(field, f"expected a non-empty string, got {value!r}")
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
    out = float(value)
    if math.isnan(out) or (not allow_inf and math.isinf(out)):
        _fail(field, f"expected a finite number, got {value!r}")
    return out


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, f"expected an integer, got {value!r}")
    return value


def _as_choice(value, choices: dict, field: str):
    if not (isinstance(value, str) and value in choices):  # a list is no dict key
        _fail(field, f"expected one of {sorted(choices)}, got {value!r}")
    return choices[value]


def _as_position(value, field: str) -> Position3D:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        _fail(field, f"expected [x, y, z], got {value!r}")
    coords = [_as_float(v, f"{field}[{i}]") for i, v in enumerate(value)]
    try:
        return Position3D(*coords)
    except ValueError as exc:
        _fail(field, str(exc))


def _as_vector(value, field: str) -> Tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        _fail(field, f"expected a 3-vector, got {value!r}")
    return tuple(_as_float(v, f"{field}[{i}]") for i, v in enumerate(value))


_ROLES = {r.value: r for r in NodeRole}
_KINDS = {k.value: k for k in SurfaceKind}
_FALLBACKS = {"nlos": LinkState.NLOS, "blocked": LinkState.BLOCKED}
_STRATEGIES = {s.value: s for s in DeploymentStrategy}


def _parse_node(entry, where: str) -> Node:
    if not isinstance(entry, dict):
        _fail(where, "node entries must be mappings")
    _check_keys(entry, {"id", "role", "position"}, f"{where}.")
    node_id = _as_str(_require(entry, "id", f"{where}."), f"{where}.id")
    role = _as_choice(_require(entry, "role", f"{where}."), _ROLES, f"{where}.role")
    position = _as_position(_require(entry, "position", f"{where}."), f"{where}.position")
    return Node(node_id, role, position)


def _parse_surface(entry, where: str) -> IrsSurface:
    if not isinstance(entry, dict):
        _fail(where, "surface entries must be mappings")
    allowed = {
        "id",
        "kind",
        "position",
        "num_elements",
        "facing_normal",
        "coverage_radius",
        "covered_node_ids",
    }
    _check_keys(entry, allowed, f"{where}.")
    surf_id = _as_str(_require(entry, "id", f"{where}."), f"{where}.id")
    kind = _as_choice(_require(entry, "kind", f"{where}."), _KINDS, f"{where}.kind")
    position = _as_position(_require(entry, "position", f"{where}."), f"{where}.position")
    num_elements = _as_int(entry.get("num_elements", 0), f"{where}.num_elements")
    if num_elements < 0:
        _fail(f"{where}.num_elements", "must be >= 0")
    normal = None
    if "facing_normal" in entry:
        normal = _as_vector(entry["facing_normal"], f"{where}.facing_normal")
        if all(c == 0 for c in normal):
            _fail(f"{where}.facing_normal", "must not be the zero vector")
    elif kind is SurfaceKind.TERRESTRIAL:
        _fail(f"{where}.facing_normal", "terrestrial surfaces require a facing_normal")
    radius = None
    if "coverage_radius" in entry and entry["coverage_radius"] is not None:
        radius = _as_float(entry["coverage_radius"], f"{where}.coverage_radius")
        if radius <= 0:
            _fail(f"{where}.coverage_radius", "must be > 0")
    covered = None
    if "covered_node_ids" in entry and entry["covered_node_ids"] is not None:
        raw = entry["covered_node_ids"]
        if not isinstance(raw, list):
            _fail(f"{where}.covered_node_ids", "expected a list of node ids")
        covered = frozenset(
            _as_str(v, f"{where}.covered_node_ids[{i}]") for i, v in enumerate(raw)
        )
    return IrsSurface(
        id=surf_id,
        kind=kind,
        position=position,
        num_elements=num_elements,
        facing_normal=normal,
        coverage_radius=radius,
        covered_node_ids=covered,
    )


def _parse_rule(entry, where: str) -> LinkStateRule:
    if not isinstance(entry, dict):
        _fail(where, "link-state rules must be mappings")
    _check_keys(entry, {"endpoints", "min_altitude_for_los", "fallback"}, f"{where}.")
    raw = _require(entry, "endpoints", f"{where}.")
    if not isinstance(raw, list) or len(raw) != 2:
        _fail(f"{where}.endpoints", f"expected a pair of ids, got {raw!r}")
    endpoints = (
        _as_str(raw[0], f"{where}.endpoints[0]"),
        _as_str(raw[1], f"{where}.endpoints[1]"),
    )
    threshold = _as_float(
        entry.get("min_altitude_for_los", 0.0),
        f"{where}.min_altitude_for_los",
        allow_inf=True,
    )
    if threshold < 0:
        _fail(f"{where}.min_altitude_for_los", "must be >= 0")
    fallback = _as_choice(entry.get("fallback", "nlos"), _FALLBACKS, f"{where}.fallback")
    try:
        return LinkStateRule(endpoints, threshold, fallback)
    except ValueError as exc:
        _fail(where, str(exc))


def _parse_radio(entry, where: str) -> RadioParams:
    if entry is None:
        return RadioParams()
    if not isinstance(entry, dict):
        _fail(where, "radio must be a mapping")
    _check_keys(
        entry, {"tx_power_w", "noise_power_w", "ref_path_gain_db"}, f"{where}."
    )
    try:
        return RadioParams(
            tx_power=_as_float(entry.get("tx_power_w", 0.1), f"{where}.tx_power_w"),
            noise_power=_as_float(
                entry.get("noise_power_w", 1e-11), f"{where}.noise_power_w"
            ),
            ref_path_gain_db=_as_float(
                entry.get("ref_path_gain_db", -30.0), f"{where}.ref_path_gain_db"
            ),
        )
    except ValueError as exc:
        _fail(where, str(exc))


def _parse_experiment(entry, where: str) -> Experiment:
    if not isinstance(entry, dict):
        _fail(where, "experiment must be a mapping")
    kind = _as_str(_require(entry, "kind", f"{where}."), f"{where}.kind")
    if kind == "trajectory":
        allowed = {
            "kind",
            "start",
            "end",
            "fixed_altitude",
            "v_max",
            "slot_duration",
            "rate_target",
            "max_time",
        }
        _check_keys(entry, allowed, f"{where}.")
        start = _as_position(_require(entry, "start", f"{where}."), f"{where}.start")
        end = _as_position(_require(entry, "end", f"{where}."), f"{where}.end")
        altitude = _as_float(
            _require(entry, "fixed_altitude", f"{where}."), f"{where}.fixed_altitude"
        )
        v_max = _as_float(_require(entry, "v_max", f"{where}."), f"{where}.v_max")
        slot = _as_float(
            entry.get("slot_duration", DEFAULT_SLOT_DURATION), f"{where}.slot_duration"
        )
        target = _as_float(
            _require(entry, "rate_target", f"{where}."), f"{where}.rate_target"
        )
        max_time = _as_float(entry.get("max_time", DEFAULT_MAX_TIME), f"{where}.max_time")
        if target <= 0:
            _fail(f"{where}.rate_target", "must be > 0")
        try:
            constraints = TrajectoryConstraints(start, end, altitude, v_max, slot)
        except _StepOutOfRange as exc:  # slot_duration has a default; v_max does not
            _fail(f"{where}.v_max", str(exc))
        except ValueError as exc:
            _fail(where, str(exc))
        try:  # the fields are checked one by one above; what is left is slot_range
            return TrajectoryExperiment(constraints, target, max_time)
        except ValueError as exc:
            _fail(f"{where}.max_time", str(exc))
    if kind == "deployment":
        _check_keys(entry, {"kind", "n_budget", "strategies"}, f"{where}.")
        n_budget = _as_int(_require(entry, "n_budget", f"{where}."), f"{where}.n_budget")
        if n_budget < 0:
            _fail(f"{where}.n_budget", "must be >= 0")
        raw = entry.get("strategies", ["user", "bs", "hybrid"])
        if raw == "all":
            raw = ["user", "bs", "hybrid"]
        if not isinstance(raw, list) or not raw:
            _fail(f"{where}.strategies", f"expected a non-empty list, got {raw!r}")
        strategies = tuple(
            _as_choice(s, _STRATEGIES, f"{where}.strategies[{i}]") for i, s in enumerate(raw)
        )
        try:
            return DeploymentExperiment(n_budget, strategies)
        except ValueError as exc:
            _fail(f"{where}.strategies", str(exc))
    _fail(f"{where}.kind", f"expected 'trajectory' or 'deployment', got {kind!r}")


_TOP_KEYS = {
    "name",
    "description",
    "nodes",
    "surfaces",
    "radio",
    "path_loss_classes",
    "link_state_rules",
    "experiment",
}


def loads_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document from YAML text."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ScenarioError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}"
            )
        raise ScenarioError(f"parse error: {exc}")
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(doc, _TOP_KEYS, "")

    name = _as_str(doc.get("name", "unnamed"), "name")
    description = doc.get("description", "")
    if not isinstance(description, str):
        _fail("description", "expected a string")

    raw_nodes = _require(doc, "nodes", "")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        _fail("nodes", "expected a non-empty list")
    nodes = tuple(_parse_node(n, f"nodes[{i}]") for i, n in enumerate(raw_nodes))

    raw_surfaces = doc.get("surfaces", [])
    if raw_surfaces is None:
        raw_surfaces = []
    if not isinstance(raw_surfaces, list):
        _fail("surfaces", "expected a list")
    surfaces = tuple(
        _parse_surface(s, f"surfaces[{i}]") for i, s in enumerate(raw_surfaces)
    )

    radio = _parse_radio(doc.get("radio"), "radio")

    raw_classes = _require(doc, "path_loss_classes", "")
    if not isinstance(raw_classes, dict) or not raw_classes:
        _fail("path_loss_classes", "expected a non-empty mapping")
    classes = {}
    for key, value in raw_classes.items():
        key = _as_str(key, "path_loss_classes")
        exponent = _as_float(value, f"path_loss_classes.{key}")
        try:
            classes[key] = PathLossModel(exponent)
        except ValueError as exc:
            _fail(f"path_loss_classes.{key}", str(exc))

    raw_rules = doc.get("link_state_rules", [])
    if raw_rules is None:
        raw_rules = []
    if not isinstance(raw_rules, list):
        _fail("link_state_rules", "expected a list")
    rules = [
        _parse_rule(r, f"link_state_rules[{i}]") for i, r in enumerate(raw_rules)
    ]
    try:
        rule_set = LinkRuleSet(rules)
    except ConfigurationError as exc:
        _fail("link_state_rules", str(exc))

    experiment = _parse_experiment(_require(doc, "experiment", ""), "experiment")

    scenario = Scenario(
        name=name,
        nodes=nodes,
        surfaces=surfaces,
        radio=radio,
        path_loss_classes=classes,
        link_rules=rule_set,
        experiment=experiment,
        description=description,
    )
    for i, a in enumerate(nodes):  # a file policy: the solvers clamp colocated nodes
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
