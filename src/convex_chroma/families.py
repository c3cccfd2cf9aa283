"""Families of homothets: a body plus a placement list, with JSON round-trip."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import ConvexBody, GeometryError, Placement
from .reports import json_text, scalar_text


@dataclass(frozen=True)
class Family:
    """A finite family of homothets of one body.

    All placements share the body's dimension.  If every scale is equal the
    family is a translate family.
    """

    body: ConvexBody
    placements: tuple[Placement, ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        dim = self.body.dimension
        for p in self.placements:
            if len(p.center) != dim:
                raise GeometryError(
                    f"placement dimension {len(p.center)} != body dimension {dim}"
                )

    def __len__(self) -> int:
        return len(self.placements)

    @property
    def is_translate_family(self) -> bool:
        scales = {p.scale for p in self.placements}
        return len(scales) <= 1

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Centers (one row per member) and scales, built once, read-only."""
        centers = np.array([p.center for p in self.placements], float).reshape(-1, self.body.dimension)
        scales = np.array([p.scale for p in self.placements], float)
        centers.setflags(write=False)
        scales.setflags(write=False)
        return centers, scales

    def centers(self) -> np.ndarray:
        return self._arrays[0]

    def scales(self) -> np.ndarray:
        return self._arrays[1]

    def to_json(self) -> dict:
        return {
            "body": self.body.to_json(),
            "placements": [
                {"center": list(p.center), "scale": p.scale} for p in self.placements
            ],
            "meta": dict(self.meta),
        }

    @staticmethod
    def from_json(obj: dict) -> "Family":
        """Parse a family; a missing field or a value of the wrong JSON type
        raises GeometryError."""
        try:
            body = ConvexBody.from_json(obj["body"])
            placements = tuple(
                Placement(center=tuple(p["center"]), scale=float(p.get("scale", 1.0)))
                for p in obj["placements"]
            )
            meta = dict(obj.get("meta", {}))
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise GeometryError(f"malformed family JSON ({type(exc).__name__}: {exc})") from None
        return Family(body=body, placements=placements, meta=meta)


def translates(body: ConvexBody, centers: Sequence[Sequence[float]], meta: dict | None = None) -> Family:
    """Translate family of the body at the given centers (scale 1)."""
    return Family(
        body=body,
        placements=tuple(Placement(center=tuple(c)) for c in centers),
        meta=meta or {},
    )


def dumps_family(family: Family) -> str:
    """The canonical text of `family.to_json()` (see reports.canonical_json).

    "placements" sorts after "body" and "meta", so its text is spliced in
    after theirs.  Every placement has the same lines, so the whole list is
    one %-template over the flat center coordinates and scales: exact floats
    through float.__repr__ (Placement admits only finite ones), anything
    else, such as an int scale, through the writer's scalar_text.
    """
    head = json_text({"body": family.body.to_json(), "meta": dict(family.meta)})[:-2]
    if not family.placements:
        return head + ',\n  "placements": []\n}\n'
    values = [v for p in family.placements for v in (*p.center, p.scale)]
    texts = map(float.__repr__ if set(map(type, values)) == {float} else scalar_text, values)
    coords = ",\n        ".join(["%s"] * family.body.dimension)
    item = f'{{\n      "center": [\n        {coords}\n      ],\n      "scale": %s\n    }}'
    body = ",\n    ".join([item] * len(family.placements)) % tuple(texts)
    return f'{head},\n  "placements": [\n    {body}\n  ]\n}}\n'


def save_family(family: Family, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_family(family))


def read_json(path):
    """Parse a JSON input file; nesting too deep to parse is malformed input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise GeometryError(f"{path}: JSON nested too deeply to parse") from None


def load_family(path) -> Family:
    return Family.from_json(read_json(path))


def family_digest(family: Family) -> str:
    """Stable sha256 digest of the canonical family JSON."""
    return hashlib.sha256(dumps_family(family).encode()).hexdigest()
