"""Geometry, large-scale path loss, link-state resolution and the channel kernel.

All channels are deterministic LoS-amplitude models: the power gain of a link
of length d is g0 * d**(-alpha) with g0 the linear gain at the 1 m reference
distance. Link states are a binary LoS/NLoS switch (plus Blocked for links
that carry exactly zero gain), resolved from the aerial endpoint's altitude.

Both solvers price a link through one kernel: leg_amplitude gives each leg's
amplitude gain, a surface adds N * a_up * a_down coherently to the direct
amplitude, and link_rate turns the total amplitude into bps/Hz.

Everything here is a pure function of its arguments; there is no module-level
mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional, Tuple, Union

from .errors import ConfigurationError, FieldError

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# numpy loads only for array input, so the deployment path never imports it.
ArrayLike = Union[float, "np.ndarray"]

# Distance (m) of the reference path gain; shorter links are clamped up to it.
REFERENCE_DISTANCE = 1.0


@dataclass(frozen=True)
class Position3D:
    """A point in meters; z is altitude and must be non-negative."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Position3D.{name} must be finite, got {v!r}")
        if self.z < 0:
            raise ValueError(f"altitude must be >= 0, got z={self.z}")

    def as_array(self) -> "np.ndarray":
        import numpy as np

        return np.array([self.x, self.y, self.z], dtype=float)

    def distance_to(self, other: "Position3D") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class RadioParams:
    """Transmit power, noise power (both watts) and the reference path gain.

    ref_path_gain_db is the path gain at REFERENCE_DISTANCE, in dB; it must
    be <= 0 (an attenuation). Every field must be finite.
    """

    tx_power: float = 0.1
    noise_power: float = 1e-11
    ref_path_gain_db: float = -30.0

    def __post_init__(self):
        for name in ("tx_power", "noise_power"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not (math.isfinite(self.ref_path_gain_db) and self.ref_path_gain_db <= 0):
            raise ValueError(
                f"ref_path_gain_db must be finite and <= 0 (attenuation), "
                f"got {self.ref_path_gain_db!r}"
            )

    @property
    def ref_path_gain(self) -> float:
        """Linear power gain at the reference distance."""
        return 10.0 ** (self.ref_path_gain_db / 10.0)


@dataclass(frozen=True)
class PathLossModel:
    """Distance-power law: gain(d) = g0 * d**(-exponent)."""

    exponent: float

    def __post_init__(self):
        if not (self.exponent >= 1.0):
            raise ValueError(f"path-loss exponent must be >= 1, got {self.exponent}")


class LinkState(Enum):
    LOS = "los"
    NLOS = "nlos"
    BLOCKED = "blocked"


class NodeRole(Enum):
    UAV = "uav"
    BS = "bs"
    SENSOR = "sensor"
    USER = "user"


@dataclass(frozen=True)
class Node:
    """A configured network node: identity, role and fixed position."""

    id: str
    role: NodeRole
    position: Position3D


@dataclass(frozen=True)
class LinkStateRule:
    """Binary link-state rule for one endpoint pair.

    The link resolves LoS iff the aerial endpoint's altitude is at least
    min_altitude_for_los, otherwise it takes fallback_state. A threshold of 0
    means always-LoS; a threshold of inf means the fallback always applies.
    """

    endpoints: Tuple[str, str]
    min_altitude_for_los: float = 0.0
    fallback_state: LinkState = LinkState.NLOS

    def __post_init__(self):
        if not (self.min_altitude_for_los >= 0):  # also rejects NaN
            raise FieldError("min_altitude_for_los", "must be >= 0")
        if self.fallback_state is LinkState.LOS:
            raise ValueError("fallback_state must be NLoS or Blocked")
        object.__setattr__(self, "endpoints", _normalize_pair(self.endpoints))


def _normalize_pair(pair: Iterable[str]) -> Tuple[str, str]:
    a, b = pair
    if a == b:
        raise ValueError(f"link endpoints must differ, got ({a!r}, {b!r})")
    return (a, b) if a <= b else (b, a)


class LinkRuleSet:
    """Lookup table of link-state rules keyed by unordered endpoint pair.

    A pair without an explicit rule resolves through the default always-LoS
    rule. It iterates in the order the rules were given, so the i-th rule is
    a file's link_state_rules[i].
    """

    def __init__(self, rules: Iterable[LinkStateRule] = ()):
        self._rules = {}
        for rule in rules:
            if rule.endpoints in self._rules:
                raise ConfigurationError(
                    f"duplicate link-state rule for pair {rule.endpoints}"
                )
            self._rules[rule.endpoints] = rule

    def get(self, a: str, b: str) -> Optional[LinkStateRule]:
        return self._rules.get(_normalize_pair((a, b)))

    def rule_for(self, a: str, b: str) -> LinkStateRule:
        rule = self.get(a, b)
        return rule if rule is not None else LinkStateRule((a, b), min_altitude_for_los=0.0)

    def __iter__(self):
        return iter(self._rules.values())

    def __len__(self):
        return len(self._rules)

    def __eq__(self, other):
        if not isinstance(other, LinkRuleSet):
            return NotImplemented
        return self._rules == other._rules


def path_gain(d: ArrayLike, model: PathLossModel, radio: RadioParams) -> ArrayLike:
    """Linear power gain g0 * d**(-alpha) of a link of length d meters.

    Distances below REFERENCE_DISTANCE are clamped up to it. Accepts
    scalars or arrays; negative or non-finite distances raise ValueError. A
    scalar takes plain float math: numpy's scalar power rounds as Python's
    does, its array power need not.
    """
    if isinstance(d, (int, float)):
        if not math.isfinite(d):
            raise ValueError("distance must be finite")
        if d < 0:
            raise ValueError("distance must be >= 0")
        return float(radio.ref_path_gain * max(d, REFERENCE_DISTANCE) ** -model.exponent)
    import numpy as np

    arr = np.asarray(d, dtype=float)
    if arr.size:
        lo, hi = arr.min(), arr.max()  # a NaN anywhere makes both NaN
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("distance must be finite")
        if lo < 0:
            raise ValueError("distance must be >= 0")
    clamped = np.maximum(arr, REFERENCE_DISTANCE)
    gain = radio.ref_path_gain * clamped ** (-model.exponent)
    if np.isscalar(d) or arr.ndim == 0:
        return float(gain)
    return gain


def resolve_link_state(rules: LinkRuleSet, a: str, b: str, aerial_altitude: float) -> LinkState:
    """Binary link state of the pair (a, b) at the aerial endpoint's altitude.

    LoS iff altitude >= the pair's min_altitude_for_los (0 for a pair without
    a rule), else the rule's fallback.
    """
    rule = rules.rule_for(a, b)
    if aerial_altitude >= rule.min_altitude_for_los:
        return LinkState.LOS
    return rule.fallback_state


def leg_amplitude(d: ArrayLike, model: PathLossModel, radio: RadioParams) -> ArrayLike:
    """Amplitude gain sqrt(path_gain(d, model, radio)) of one link or surface leg.

    A surface of N elements adds N * leg_amplitude(up) * leg_amplitude(down)
    coherently to the direct amplitude. A scalar takes math.sqrt, an array
    np.sqrt.
    """
    gain = path_gain(d, model, radio)
    if isinstance(gain, float):
        return math.sqrt(gain)
    import numpy as np

    return np.sqrt(gain)


def link_rate(amplitude: ArrayLike, radio: RadioParams) -> ArrayLike:
    """Spectral efficiency log2(1 + tx_power * A**2 / noise_power), in bps/Hz.

    A is the total amplitude gain of the link. A scalar takes math.log2, an
    array np.log2.
    """
    snr = radio.tx_power * amplitude**2 / radio.noise_power
    if isinstance(snr, float):  # one type, not a tuple: every deployment rate passes here
        return math.log2(1.0 + snr)
    import numpy as np

    return np.log2(1.0 + snr)
