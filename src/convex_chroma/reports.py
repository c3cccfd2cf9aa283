"""Report dataclasses shared by the coloring/partition algorithms and the CLI.

Reports serialize to canonical JSON (sorted keys, None fields dropped) so that
identical inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass


def canonical_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _strip_none(value):
    """JSON-ready copy of value: dataclasses become dicts of their fields,
    tuples become lists, and None entries of every dict are dropped."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _strip_none(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        return [_strip_none(v) for v in value]
    return value


@dataclass(frozen=True)
class ClassSummary:
    """One (line, cell-residue) poset class with its partition counts."""

    line_key: tuple[int, ...]
    cell_residue: int
    members: tuple[int, ...]
    chain_count: int
    antichain_count: int


@dataclass(frozen=True)
class ColoringReport:
    method: str
    colors: tuple[int, ...]
    colors_used: int
    bound_value: int | None = None
    bound_basis: str | None = None
    omega_used: int | None = None
    kappa_ub: int | None = None
    back_degree_max: int | None = None
    seed: int | None = None
    params: dict | None = None
    block_labels: tuple | None = None
    classes: tuple[ClassSummary, ...] | None = None


@dataclass(frozen=True)
class PartitionReport:
    method: str
    classes_assign: tuple[int, ...]
    classes_used: int
    bound_value: int | None = None
    bound_basis: str | None = None
    nu_used: int | None = None
    kappa_ub: int | None = None
    rounds: int | None = None
    last_round_classes: int | None = None
    piercing_points: tuple | None = None
    piercing_points_used: int | None = None
    fallback_used: bool | None = None
    seed: int | None = None
    params: dict | None = None
    classes: tuple[ClassSummary, ...] | None = None


@dataclass(frozen=True)
class InequalityCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class RunReport:
    """Outcome of one CLI command; wall time is kept out of the canonical
    bytes so identical seeds yield byte-identical report files."""

    command: str
    input_digest: str
    seed: int
    outputs: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)
    checks: tuple[InequalityCheck, ...] = ()
    capped: bool = False
    wall_time_ms: float | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, include_volatile: bool = False) -> dict:
        obj = {
            "command": self.command,
            "input_digest": self.input_digest,
            "seed": self.seed,
            "outputs": _strip_none(self.outputs),
            "oracles": _strip_none(self.oracles),
            "checks": _strip_none(self.checks),
            "capped": self.capped,
            "all_passed": self.all_passed,
        }
        if include_volatile and self.wall_time_ms is not None:
            obj["wall_time_ms"] = self.wall_time_ms
        return obj
