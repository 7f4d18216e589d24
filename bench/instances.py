"""Seeded scenario instances for the benchmark workloads (stdlib only).

Every workload starts from a shipped scenario file. Seed 0 copies that file
byte for byte. Any other seed derives new files from its text:

* trajectory workloads move the whole scene by one seeded rigid motion: a
  mirror, quarter turns about the vertical axis and a whole-metre horizontal
  shift. Distances, and so the physics and the right answer, are unchanged;
  only the coordinates the solver works in differ. Sensor jitter and
  arbitrary rotation angles are not used, because today both change the
  solver's work or answer (see README.md);
* the deployment workload draws DEPLOY_INSTANCES element budgets, one from
  each equal-width stratum of BUDGET_RANGE, so every seed spans the range
  evenly and the per-run cost mix stays the same.

The generator edits only the numbers it changes and keeps the rest of the
file, comments included, so every instance still reads as its shipped source.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Dict, List, Tuple

# workload -> (CLI subcommand, shipped scenario stem)
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "trajopt-noirs": ("trajopt", "fig4_noirs"),
    "trajopt-irs": ("trajopt", "fig4"),
    "deploy-sweep": ("deploy", "fig5"),
}

DEPLOY_INSTANCES = 8
BUDGET_RANGE = (100, 1200)
MAX_SHIFT_M = 100

_VECTOR = re.compile(r"\b(position|start|end|facing_normal): \[([^\]]*)\]")
_BUDGET = re.compile(r"\bn_budget: \d+")


def shipped_path(root: Path, stem: str) -> Path:
    return root / "src" / "uavirs" / "scenarios" / f"{stem}.scenario"


def _number(value: float) -> str:
    # Fixed-point keeps PyYAML from reading an exponent form as a string.
    return f"{value:.9f}"


def rigid_motion(text: str, rng: random.Random) -> str:
    """Move the whole scene by a seeded symmetry of the square grid.

    Points (node and surface positions, mission start and end) get a mirror
    flag, 0-3 quarter turns about the z axis and a whole-metre horizontal
    shift; surface facing normals get the mirror and the turns only. These
    maps keep the shipped whole-metre coordinates exact, so no distance gains
    a rounding error. Altitudes are kept.
    """
    mirror = rng.random() < 0.5
    turns = rng.randrange(4)
    shift_x = rng.randint(-MAX_SHIFT_M, MAX_SHIFT_M)
    shift_y = rng.randint(-MAX_SHIFT_M, MAX_SHIFT_M)

    def move(match: re.Match) -> str:
        key = match.group(1)
        x, y, z = (float(v) for v in match.group(2).split(","))
        if mirror:
            y = -y
        for _ in range(turns):
            x, y = -y, x
        if key != "facing_normal":
            x, y = x + shift_x, y + shift_y
        return f"{key}: [{_number(x)}, {_number(y)}, {_number(z)}]"

    return _VECTOR.sub(move, text)


def with_budget(text: str, budget: int) -> str:
    out, count = _BUDGET.subn(f"n_budget: {budget}", text)
    if count != 1:
        raise ValueError(f"expected one n_budget line, found {count}")
    return out


def stratified_budgets(rng: random.Random, count: int = DEPLOY_INSTANCES) -> List[int]:
    """One budget drawn uniformly from each of `count` equal strata."""
    low, high = BUDGET_RANGE
    width = (high - low) / count
    return [int(low + (i + rng.random()) * width) for i in range(count)]


def instance_texts(root: Path, workload: str, seed: int) -> List[Tuple[str, str]]:
    """(file stem, scenario text) for every instance of a workload and seed."""
    command, stem = WORKLOADS[workload]
    text = shipped_path(root, stem).read_bytes().decode("utf-8")
    if seed == 0:
        return [(stem, text)]
    rng = random.Random(seed)
    if command == "trajopt":
        return [(f"{stem}_s{seed}", rigid_motion(text, rng))]
    return [
        (f"{stem}_s{seed}_{i:02d}", with_budget(text, budget))
        for i, budget in enumerate(stratified_budgets(rng))
    ]


def generate(root: Path, workload: str, seed: int, out_dir: Path) -> List[Path]:
    """Write the workload's instance files for `seed` into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, text in instance_texts(root, workload, seed):
        path = out_dir / f"{stem}.scenario"
        path.write_bytes(text.encode("utf-8"))
        paths.append(path)
    return paths
