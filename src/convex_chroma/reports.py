"""Report dataclasses shared by the coloring/partition algorithms and the CLI,
and the canonical JSON writer that reports and family files share.

Canonical JSON is, byte for byte, the stdlib's `json.dumps(obj,
sort_keys=True, indent=2)` plus a newline; the stdlib is the tests'
reference, but with `indent` set it runs a pure-Python encoder, so the text
is written here in one walk.  Reports drop their None fields first, so
identical inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from json.encoder import encode_basestring_ascii

_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def scalar_text(value) -> str:
    """The stdlib encoder's text of one JSON scalar; TypeError for any other
    value, as the stdlib raises (np.int64 and set included)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return f'"{scalar_text(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _items_text(items, indent: str) -> str:
    """A JSON array's item texts, joined by a comma and a newline plus
    `indent`.  An all-int or all-finite-float sequence (exact types, so
    never bool) is one join; any other is written once per distinct object
    in it."""
    sep = ",\n" + indent
    kinds = set(map(type, items))
    if kinds == {int}:
        return sep.join(map(int.__repr__, items))
    if kinds == {float}:
        text = sep.join(map(float.__repr__, items))
        if "n" not in text:  # float repr spells NaN and inf with an n
            return text
    return sep.join(_once(json_text, items, indent))


def _once(convert, items, *args):
    """convert(item, *args) for each item, called once per distinct object:
    items repeat one object (a member's block label) far more often than
    they hold distinct ones, and one object always converts alike."""
    done = {key: convert(v, *args) for key, v in dict(zip(map(id, items), items)).items()}
    return map(done.__getitem__, map(id, items))


def json_text(value, indent: str = "") -> str:
    """`value` as the stdlib's `sort_keys=True, indent=2` text, its nested
    lines indented by `indent` plus two spaces per level."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return f"[\n{inner}{_items_text(value, inner)}\n{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        sep = ",\n" + inner
        body = sep.join([f"{_key_text(k)}: {json_text(v, inner)}" for k, v in sorted(value.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    return scalar_text(value)


def canonical_json(obj) -> str:
    """Exactly the text of `json.dumps(obj, sort_keys=True, indent=2)` and a
    newline, TypeError where it raises one; written in one recursive walk
    instead of the stdlib's pure-Python indent encoder."""
    return json_text(obj) + "\n"


def _strip_none(value):
    """JSON-ready copy of value: dataclasses become dicts of their fields,
    tuples become lists, and None entries of every dict are dropped."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _strip_none(v) for k, v in value.items() if v is not None}
    if isinstance(value, (list, tuple)):
        if _SCALAR_TYPES.issuperset(map(type, value)):
            return list(value)
        return list(_once(_strip_none, value))
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
