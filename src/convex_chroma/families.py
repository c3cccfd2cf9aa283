"""Families of homothets: a body plus two read-only float arrays, centers and
scales, checked once when built, with JSON round-trip.  Every scale is read as
a float, so an int scale writes, and hashes, as the float it equals."""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from typing import Sequence

import numpy as np

from .geometry import ConvexBody, GeometryError, number_array, numbers_only
from .reports import json_text


class Family:
    """A finite family of homothets scales()[i] * body + centers()[i].

    `centers()` holds one row of body.dimension finite coordinates per member
    and `scales()` one scale in (0, inf) per member, both read-only float
    arrays, read from arrays of an int or float dtype or from sequences of
    ints and floats (`number_array`).  If every scale is equal the family is
    a translate family.  Families compare and hash by identity.
    """

    def __init__(self, body: ConvexBody, centers, scales, meta: dict | None = None):
        dim = body.dimension
        c, s = number_array(centers), number_array(scales)
        if c is None:  # not numbers, or ragged rows
            raise GeometryError(f"placement centers must each hold {dim} numbers, "
                                f"the body dimension")
        if s is None:
            raise GeometryError("placement scales must be numbers")
        c = c.reshape(0, dim) if c.shape == (0,) else c
        if c.shape[1:] != (dim,) or s.shape != c.shape[:1]:
            raise GeometryError(f"centers of shape {c.shape} and scales of shape {s.shape} "
                                f"are not one member per row at body dimension {dim}")
        if not np.isfinite(c).all():
            bad = c[~np.isfinite(c).all(axis=1)][0]
            raise GeometryError(f"placement center must be finite, got {tuple(bad.tolist())}")
        lo, hi = (s.min(), s.max()) if len(s) else (1.0, 1.0)
        if not (lo > 0 and hi < math.inf):  # a NaN fails both
            bad = s[~((s > 0) & (s < math.inf))][0]
            raise GeometryError(f"placement scale must be positive and finite, got {bad}")
        c.setflags(write=False)
        s.setflags(write=False)
        self.body, self._centers, self._scales, self._uniform = body, c, s, bool(lo == hi)
        self.meta = {} if meta is None else meta

    def __len__(self) -> int:
        return len(self._scales)

    def __repr__(self) -> str:
        return (f"Family({self.body!r}, {self._centers.tolist()}, "
                f"{self._scales.tolist()}, {self.meta!r})")

    def centers(self) -> np.ndarray:
        return self._centers

    def scales(self) -> np.ndarray:
        return self._scales

    @property
    def is_translate_family(self) -> bool:
        return self._uniform

    def to_json(self) -> dict:
        members = zip(self._centers.tolist(), self._scales.tolist())
        return {"body": self.body.to_json(),
                "placements": [{"center": c, "scale": s} for c, s in members],
                "meta": dict(self.meta)}

    @staticmethod
    def from_json(obj: dict) -> "Family":
        """Parse a family; a missing field, a value of the wrong JSON type (a
        string or a boolean for a number too) or a center of the wrong
        dimension raises GeometryError."""
        try:
            body = ConvexBody.from_json(obj["body"])
            dim = body.dimension
            centers = [p["center"] for p in obj["placements"]]
            scales = [p.get("scale", 1.0) for p in obj["placements"]]
            meta = dict(obj.get("meta", {}))
            coords = list(chain.from_iterable(centers))
            if not ({*map(type, centers)} <= {list} and {*map(len, centers)} <= {dim}
                    and numbers_only(coords)):
                raise GeometryError(f"placement centers must be lists of {dim} numbers, "
                                    f"the body dimension")
            return Family(body, np.array(coords, float).reshape(-1, dim), scales, meta)
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise GeometryError(f"malformed family JSON ({type(exc).__name__}: {exc})") from None


def translates(body: ConvexBody, centers: Sequence[Sequence[float]], meta: dict | None = None) -> Family:
    """Translate family of the body at the given centers (scale 1)."""
    return Family(body, centers, np.ones(len(centers)), meta)


def dumps_family(family: Family) -> str:
    """The canonical text of `family.to_json()` (see reports.canonical_json).

    "placements" sorts after "body" and "meta", so its text is spliced in
    after theirs.  Every member has the same lines, so the whole list is one
    %-template over the rows of [centers | scales]: all finite floats (an int
    scale was read as its float), written as float.__repr__ writes them.
    """
    head = json_text({"body": family.body.to_json(), "meta": dict(family.meta)})[:-2]
    if not len(family):
        return head + ',\n  "placements": []\n}\n'
    values = np.column_stack([family.centers(), family.scales()]).ravel().tolist()
    coords = ",\n        ".join(["%r"] * family.body.dimension)
    item = f'{{\n      "center": [\n        {coords}\n      ],\n      "scale": %r\n    }}'
    body = ",\n    ".join([item] * len(family)) % tuple(values)
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
