"""Reflecting surfaces and their coverage rules.

Two surface kinds exist. A terrestrial surface is wall-mounted: it serves only
nodes in its front half-space ((node - surface) . facing_normal > 0), further
limited by an optional coverage radius. A UAV-mounted surface reflects
panoramically and serves any node whose link to it resolves LoS, that is from
the node's LoS threshold in the scenario's link rules upward; the deployment
rule (uavirs.deployment) reads those thresholds as its candidate altitudes. An
explicit covered-node set on either kind overrides the geometric rule; a
deployment scenario accepts one on its terrestrial surface only, because the
deployment serves aerially by LoS threshold alone.

Reflection is ideal passive beamforming: continuous phases, unit amplitude,
perfect alignment, so the reflected path contributes N identical per-element
amplitudes that add coherently with the direct path (N**2 power scaling). The
per-element amplitude obeys the product-distance law: it is the product of the
amplitude gains of the two legs, each from channel.leg_amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Tuple

from .channel import LinkState, Position3D
from .errors import ConfigurationError, FieldError


def _check_count(field: str, value) -> None:
    """Raise FieldError unless value is an element count: an int, not a bool, in 0..2**53."""
    if not (type(value) is int and value >= 0):
        raise FieldError(field, f"must be an integer >= 0, got {value!r}")
    if value > 2**53:
        raise FieldError(
            field, "must be <= 2**53, where element counts stop being exact in the rate math"
        )


class SurfaceKind(Enum):
    TERRESTRIAL = "terrestrial"
    AERIAL_MOUNTED = "aerial"


@dataclass(frozen=True)
class IrsSurface:
    """One reflecting surface; num_elements = 0 contributes no reflected path."""

    id: str
    kind: SurfaceKind
    position: Position3D
    num_elements: int = 0
    facing_normal: Optional[Tuple[float, float, float]] = None
    coverage_radius: Optional[float] = None
    covered_node_ids: Optional[frozenset] = None

    def __post_init__(self):
        _check_count("num_elements", self.num_elements)
        if self.facing_normal is not None:
            normal = tuple(float(c) for c in self.facing_normal)
            if len(normal) != 3 or not all(map(math.isfinite, normal)) or not any(normal):
                raise FieldError(
                    "facing_normal", f"must be a finite, non-zero 3-vector, got {normal}"
                )
            object.__setattr__(self, "facing_normal", normal)
        elif self.kind is SurfaceKind.TERRESTRIAL:
            raise FieldError("facing_normal", "is required on a terrestrial surface")
        if self.coverage_radius is not None and not (self.coverage_radius > 0):
            raise FieldError("coverage_radius", f"must be > 0, got {self.coverage_radius!r}")
        if self.covered_node_ids is not None:
            object.__setattr__(self, "covered_node_ids", frozenset(self.covered_node_ids))

    def with_elements(self, n: int) -> "IrsSurface":
        return replace(self, num_elements=n)


def covers(
    surface: IrsSurface,
    node_pos: Position3D,
    link_state: Optional[LinkState] = None,
    node_id: Optional[str] = None,
) -> bool:
    """Whether `surface` can serve a node.

    An explicit covered_node_ids set decides alone (node_id required then).
    Otherwise terrestrial surfaces apply the front-half-space test plus the
    optional radius; aerial surfaces require the node's link state to be LoS.
    """
    if surface.covered_node_ids is not None:
        if node_id is None:
            raise ConfigurationError(
                f"surface {surface.id!r} has an explicit covered set; node_id is required"
            )
        return node_id in surface.covered_node_ids

    if surface.kind is SurfaceKind.TERRESTRIAL:
        at = surface.position
        offset = (node_pos.x - at.x, node_pos.y - at.y, node_pos.z - at.z)
        if sum(o * n for o, n in zip(offset, surface.facing_normal)) <= 0.0:
            return False
        if surface.coverage_radius is not None:
            return math.hypot(*offset) <= surface.coverage_radius
        return True

    # Aerial: panoramic reflection, needs line of sight only.
    return link_state is LinkState.LOS

