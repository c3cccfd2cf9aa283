"""Convex bodies, Minkowski arithmetic, intersection predicates, and
inscribed-parallelogram fitting.

Bodies come in three kinds: 2D convex polygons (CCW vertex list), the unit
disk centered at the origin, and axis-parallel boxes in any dimension
(described by side lengths, reference point at the center). A family member
is ``scale * body + center``; a `Family` holds them as two arrays. All values
are immutable; every operation is a pure function.

Every per-kind formula sits behind one private shape interface: `_shape(body)`
(cached per body) is a `_Polygon`, a `_Disk` or a `_Box`; their base `_Shape`
holds the defaults of the two centrally symmetric bodies. Outside
(de)serialization, `_shape` is the one place that reads `kind`.

One rule decides every homothet pair: lam1*C + c1 and lam2*C + c2 meet iff
u.(c2 - c1) <= lam1*h_C(u) + lam2*h_C(-u) + TOL for every facet normal u of
C and of -C (the facet normals of the Minkowski sum lam1*C + lam2*(-C)), with
h_C the support function; the disk and the box are its closed forms.  Each
shape's `adjacent` runs it on arrays of pairs; `pairwise_adjacency` feeds it
the pairs within reach of an x-sorted sweep, and proves none left out passes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

TOL = 1e-9

_PRIMES = (2, 3, 5, 7, 11, 13)
_HALTON_TABLE = 1024  # most entries of halton's per-base table of low digits
_PAIR_CHUNK = 1 << 18  # most candidate pairs pairwise_adjacency evaluates at once


class GeometryError(ValueError):
    """Input the program rejects (degenerate polygon, dimension mismatch...)."""


_NUMBER_CODES = np.typecodes["AllInteger"] + np.typecodes["Float"]  # NumPy's ints and floats
_NUMBERS = {int, float, *(np.dtype(code).type for code in _NUMBER_CODES)}


def numbers_only(values) -> bool:
    """Whether every one of `values` is a number: a Python int or float or a
    NumPy integer or float scalar, never a bool or a string."""
    return {*map(type, values)} <= _NUMBERS


def number_array(values) -> np.ndarray | None:
    """`values` as a new float array, or None unless they are numbers: an
    array of an int or float dtype, or (nested) sequences of numbers."""
    if isinstance(values, np.ndarray):
        return values.astype(float) if values.dtype.char in _NUMBER_CODES else None
    values = np.array(values, dtype=object)
    return values.astype(float) if numbers_only(values.ravel().tolist()) else None


class ConsistencyError(RuntimeError):
    """A computed result broke a condition that holds by construction: a
    program fault, never invalid input."""


@dataclass(frozen=True)
class ConvexBody:
    """A compact convex set with non-empty interior.

    kind is one of "polygon2d", "disk", "box".  Polygons carry CCW vertices;
    the disk is the unit-radius disk at the origin; boxes carry per-axis side
    lengths and are centered at the origin.
    """

    kind: str
    vertices: tuple[tuple[float, float], ...] | None = None
    sides: tuple[float, ...] | None = None

    @staticmethod
    def polygon(vertices: Sequence[Sequence[float]]) -> "ConvexBody":
        """Validated CCW strictly-convex polygon (>= 3 finite vertices)."""
        verts = tuple((float(x), float(y)) for x, y in vertices)
        _validate_polygon(verts)
        return ConvexBody(kind="polygon2d", vertices=verts)

    @staticmethod
    def disk() -> "ConvexBody":
        return ConvexBody(kind="disk")

    @staticmethod
    def box(sides: Sequence[float]) -> "ConvexBody":
        s = tuple(float(v) for v in sides)
        if len(s) < 1 or not all(0 < v < math.inf for v in s):
            raise GeometryError(f"box sides must be positive and finite, got {s}")
        return ConvexBody(kind="box", sides=s)

    @staticmethod
    def unit_square() -> "ConvexBody":
        return ConvexBody.box((1.0, 1.0))

    @property
    def dimension(self) -> int:
        return _shape(self).dimension

    def to_json(self) -> dict:
        if self.kind == "polygon2d":
            return {"kind": "polygon2d", "vertices": [[x, y] for x, y in self.vertices]}
        if self.kind == "disk":
            return {"kind": "disk"}
        return {"kind": "box", "sides": list(self.sides)}

    @staticmethod
    def from_json(obj: dict) -> "ConvexBody":
        kind = obj.get("kind")
        if kind == "polygon2d":
            return ConvexBody.polygon(obj["vertices"])
        if kind == "disk":
            return ConvexBody.disk()
        if kind == "box":
            return ConvexBody.box(obj["sides"])
        raise GeometryError(f"unknown body kind: {kind!r}")


@dataclass(frozen=True)
class Placement:
    """One homothet scale*C + center, the pair predicates' value type: a finite
    center and a scale in (0, inf), given as numbers (`number_array`) and read
    as floats (an int scale too).  A `Family` is a body plus two read-only
    float arrays, centers and scales."""

    center: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self):
        center, scale = number_array(self.center), number_array(self.scale)
        if center is None or scale is None or center.ndim != 1 or scale.ndim:
            raise GeometryError(f"placement center and scale must be numbers, not {self!r}")
        scale, center = float(scale), tuple(center.tolist())
        if not 0 < scale < math.inf:
            raise GeometryError(f"placement scale must be positive and finite, got {scale}")
        if not all(map(math.isfinite, center)):
            raise GeometryError(f"placement center must be finite, got {center}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "scale", scale)


@dataclass(frozen=True)
class ParallelogramFit:
    """Parallelogram P = {center + a*u + b*v : a,b in [-1,1]} with P subset of C
    and C contained in some translate of ratio*P."""

    center: tuple[float, float]
    u: tuple[float, float]
    v: tuple[float, float]
    ratio: float


def _validate_polygon(verts: tuple[tuple[float, float], ...]) -> None:
    if len(verts) < 3:
        raise GeometryError(f"polygon needs >= 3 vertices, got {len(verts)}")
    if not all(math.isfinite(c) for v in verts for c in v):
        raise GeometryError("polygon vertices must be finite")
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cx, cy = verts[(i + 2) % n]
        cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if cross <= 0:
            raise GeometryError(
                "polygon vertices must be strictly convex in CCW order "
                f"(cross={cross:g} at vertex {i})"
            )


def halton(count: int, dims: int, start: int = 0) -> np.ndarray:
    """First `count` points of the unscrambled Halton sequence (offset start)."""
    if dims > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    idx = np.arange(start + 1, start + count + 1, dtype=np.int64)
    out = np.empty((count, dims))
    for d in range(dims):
        base = _PRIMES[d]
        # the low k digits come from a table of the radical inverses of
        # 0..base^k - 1, summed in the digit loop's own order, so every value
        # equals the plain loop's to the bit
        width = base
        while width * base <= _HALTON_TABLE:
            width *= base
        table = np.zeros(width)
        weight = _add_digits(table, np.arange(width), base, 1.0)
        high, low = np.divmod(idx, width)
        column = table[low]
        _add_digits(column, high, base, weight)
        out[:, d] = column
    return out


def _add_digits(acc: np.ndarray, i: np.ndarray, base: int, weight: float) -> float:
    """Add the base-`base` digits of `i`, lowest first, times weight/base,
    weight/base^2, ... to `acc` in place; return the last weight used."""
    while i.any():
        weight /= base
        i, digit = np.divmod(i, base)
        acc += weight * digit
    return weight


def _edge_normals(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets of a CCW polygon: inside iff n.x <= c."""
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, verts)
    return normals, offsets


_Margins = Callable[[np.ndarray], np.ndarray]


def _fold_min(columns) -> np.ndarray:
    """The elementwise minimum of an iterable of equal-length arrays, taken in
    order into the first (a fresh array); the row minimum of their stack."""
    columns = iter(columns)
    out = next(columns)
    for column in columns:
        np.minimum(out, column, out=out)
    return out


class _Shape:
    """The math of one body; the defaults are those of the symmetric disk and
    box.  Methods that return a body return the caller's, never a cached equal."""

    dimension = 2

    def width(self, d: np.ndarray) -> float:
        return self.support(d) + self.support(-d)

    def reflect(self, body: ConvexBody) -> ConvexBody:
        return body

    def symmetrize(self, body: ConvexBody) -> ConvexBody:
        return body

    def box(self, scale: float) -> tuple[np.ndarray, np.ndarray]:
        """Corners lo, hi of the axis-parallel box of scale*C, from h_C(-+e_i)."""
        eye = np.eye(self.dimension)
        return (np.array([-scale * self.support(-e) for e in eye]),
                np.array([scale * self.support(e) for e in eye]))

    def reach_boxes(self) -> np.ndarray:
        """How far A = C, B = -C and U, the unit ball of the pair kernel's
        tolerance, reach below and above 0 on each axis (shape (3, 2, d))."""
        lo, hi = self.box(1.0)
        return np.array([[-lo, hi], [hi, -lo], np.ones((2, self.dimension))])

    @cached_property
    def reach_terms(self) -> tuple[list, float]:
        """Per axis and side, the factors of (s_max, s_min, t) in the reach of
        s_i*A + s_j*B + t*U over s_i, s_j in [s_min, s_max] (s*r peaks at
        s_max for r > 0, else at s_min); and the largest reach of A or B."""
        parts = self.reach_boxes()
        ab = parts[:2]
        terms = np.stack([np.maximum(ab, 0).sum(axis=0), np.minimum(ab, 0).sum(axis=0), parts[2]])
        return terms.transpose(2, 1, 0).tolist(), float(ab.max())

    def svg_element(self, center: np.ndarray, scale: float, style: str) -> str:
        """The SVG element drawing scale*C + center in 2D, with `style` attributes."""
        lo, hi = self.box(scale)
        x, y = center + lo
        w, h = hi - lo
        return f'<rect x="{x:.6f}" y="{y:.6f}" width="{w:.6f}" height="{h:.6f}" {style}/>'

    def known_cover(self, body: ConvexBody) -> tuple | None:
        """(target, target_scale, translations) of a cover of C - C by C that
        is proven in closed form, or None."""
        return None

    def centroid(self, scale: float) -> np.ndarray:
        return np.zeros(self.dimension)

    def seed_point(self) -> np.ndarray:
        """A point of C, pierced by the fallback of the clique partition."""
        return np.zeros(self.dimension)

    def corners(self, centers: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Piercing candidates tried before the certificate's points, c per
        member scales[r]*C + centers[r] (shape (m, c, d); none here)."""
        return np.empty((len(centers), 0, self.dimension))

    def normalizing_map(self, body: ConvexBody, scale: float) -> tuple[np.ndarray, float]:
        """The linear map taking the fitted parallelogram of scale*C to the
        unit cube, and the fit ratio."""
        fit = inscribed_parallelogram(body)
        basis = scale * np.array([fit.u, fit.v]).T
        return 0.5 * np.linalg.inv(basis), fit.ratio


class _Polygon(_Shape):
    def __init__(self, vertices):
        self.verts = np.array(vertices, dtype=float)
        self.verts.setflags(write=False)

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray]:
        """C's own unit facet normals and offsets; containment uses these."""
        out = _edge_normals(self.verts)
        for arr in out:
            arr.setflags(write=False)  # cached: shared by every caller
        return out

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The unit facet normals u of C - C (those of C and of -C, parallel
        ones merged) with h_C(u) and h_C(-u) for each."""
        normals, _ = self.facets
        merged: list[np.ndarray] = []
        for u in np.vstack([normals, -normals]):
            if not any(u @ w > 0 and abs(u[0] * w[1] - u[1] * w[0]) < TOL for w in merged):
                merged.append(u)
        table = np.array(merged)
        proj = self.verts @ table.T
        out = (table, proj.max(axis=0), -proj.min(axis=0))
        for arr in out:
            arr.setflags(write=False)
        return out

    def support(self, d: np.ndarray) -> float:
        return float((self.verts @ d).max())

    def reflect(self, body: ConvexBody) -> ConvexBody:
        # negation is a 180-degree rotation, so CCW order is preserved
        return ConvexBody(kind="polygon2d", vertices=tuple((-x, -y) for x, y in body.vertices))

    def scale(self, body: ConvexBody, factor: float) -> ConvexBody:
        return ConvexBody(
            kind="polygon2d", vertices=tuple((factor * x, factor * y) for x, y in body.vertices)
        )

    def symmetrize(self, body: ConvexBody) -> ConvexBody:
        diff = minkowski_sum(body, self.reflect(body))
        return ConvexBody.polygon([(0.5 * x, 0.5 * y) for x, y in diff.vertices])

    def point_margins(self, scale: float, pts: np.ndarray) -> _Margins:
        normals, offsets = self.facets
        scaled_offsets = scale * offsets
        columns = np.ascontiguousarray((pts @ normals.T).T)

        def margins(v: np.ndarray) -> np.ndarray:
            shifted = scaled_offsets + normals @ v
            return _fold_min(s - column for s, column in zip(shifted, columns))

        return margins

    def contains(self, centers: np.ndarray, scales: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Whether scales[i]*C + centers[i] holds each of its own points pts[i]
        (shape (m, k, d)): `point_margins(scales[i], pts[i])(centers[i]) >= -TOL`
        for every member at once, as an (m, k) bool array.

        The projections are one matrix product each, not one `normals @ v`
        per member, so a margin may differ from point_margins' in the last
        bit; a decision can differ only for a point within rounding of -TOL."""
        normals, offsets = self.facets
        m, k, d = pts.shape
        shifted = scales[:, None] * offsets + centers @ normals.T
        projected = (pts.reshape(m * k, d) @ normals.T).reshape(m, k, -1)
        return (shifted[:, None, :] - projected).min(axis=2) >= -TOL

    def homothet_margins(self, delta: np.ndarray, scales: np.ndarray, scale: float) -> np.ndarray:
        normals, h_pos, h_neg = self.table
        return (scales[:, None] * h_pos + scale * h_neg - delta @ normals.T).min(axis=1)

    def reach_boxes(self) -> np.ndarray:
        """Those of {x : u.x <= b(u), u in `table`} for b = h_C(u), h_C(-u)
        and 1; each corner meets the lines of two normals adjacent in angle."""
        normals, h_pos, h_neg = self.table
        order = np.argsort(np.arctan2(normals[:, 1], normals[:, 0]))
        u, b = normals[order], np.stack([h_pos[order], h_neg[order], np.ones(len(order))])
        v, b_next = np.roll(u, -1, axis=0), np.roll(b, -1, axis=1)
        corners = np.stack([b * v[:, 1] - b_next * u[:, 1], b_next * u[:, 0] - b * v[:, 0]],
                           axis=2) / (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])[:, None]
        return np.stack([-corners.min(axis=1), corners.max(axis=1)], axis=1)

    def adjacent(self, d: np.ndarray, si: np.ndarray, sj: np.ndarray, tol: float) -> np.ndarray:
        """Whether (i, j) or (j, i) passes u.d <= (s_i*h_C(u) + tol) + s_j*h_C(-u)
        for every u of `table`, d = c_j - c_i; (j, i) negates u.d, exactly."""
        normals, h_pos, h_neg = (a[..., None] for a in self.table)  # a row per normal
        proj = normals[:, 0] * d[0] + normals[:, 1] * d[1]
        return ((proj <= (si * h_pos + tol) + sj * h_neg).all(axis=0)
                | (-proj <= (sj * h_pos + tol) + si * h_neg).all(axis=0))

    def parallelogram_fit(self) -> ParallelogramFit:
        best: ParallelogramFit | None = None
        for d1, d2 in self._direction_pairs():
            fit = self._fit_for_pair(d1, d2)
            if fit is not None and (best is None or fit.ratio < best.ratio):
                best = fit
        if best is None or best.ratio > 2.0 + 1e-6:
            got = "none" if best is None else f"{best.ratio:.9f}"
            raise ConsistencyError(f"no inscribed parallelogram with ratio <= 2 found (best {got})")
        c, u, v = (np.asarray(p) for p in (best.center, best.u, best.v))
        corners = np.array([c + a * u + b * v for a in (-1, 1) for b in (-1, 1)])
        normals, offsets = self.facets
        if not (offsets - corners @ normals.T >= -1e-6).all():
            raise ConsistencyError("inscribed parallelogram verification failed")
        return best

    def _direction_pairs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Candidate edge-direction pairs: polygon edges plus a 360-step sweep."""
        dirs: list[np.ndarray] = []

        def push(d):
            d = d / np.linalg.norm(d)
            if d[1] < 0 or (d[1] == 0 and d[0] < 0):
                d = -d  # canonical representative mod pi
            for e in dirs:
                if abs(e[0] * d[1] - e[1] * d[0]) < 1e-9:
                    return
            dirs.append(d)

        for e in np.roll(self.verts, -1, axis=0) - self.verts:
            push(e)
        n_edge = len(dirs)
        pairs = [(dirs[i], dirs[j]) for i in range(n_edge) for j in range(i + 1, n_edge)]
        step = 2 * math.pi / 360
        for k in range(90):
            t = k * step
            pairs.append(
                (np.array([math.cos(t), math.sin(t)]), np.array([-math.sin(t), math.cos(t)]))
            )
        return pairs

    def _fit_for_pair(self, d1: np.ndarray, d2: np.ndarray) -> ParallelogramFit | None:
        """Largest inscribed parallelogram with edge directions d1, d2, by LP.

        With slab normals n1 ⟂ d2 and n2 ⟂ d1, fix half-edge vectors u1, v1 whose
        slab widths equal the body's widths; then maximize s subject to the four
        parallelogram vertices t ± s*u1 ± s*v1 staying inside the body.  The
        containment ratio of the optimum is exactly 1/s.
        """
        from scipy.optimize import linprog

        sin = abs(d1[0] * d2[1] - d1[1] * d2[0])
        if sin < 0.05:
            return None
        n1 = np.array([-d2[1], d2[0]])
        if n1 @ d1 < 0:
            n1 = -n1
        n2 = np.array([-d1[1], d1[0]])
        if n2 @ d2 < 0:
            n2 = -n2
        u1 = (self.width(n1) / 2.0) * d1 / float(d1 @ n1)
        v1 = (self.width(n2) / 2.0) * d2 / float(d2 @ n2)

        normals, offsets = self.facets
        grow = np.abs(normals @ u1) + np.abs(normals @ v1)
        res = linprog(
            c=[0.0, 0.0, -1.0],
            A_ub=np.column_stack([normals, grow]),
            b_ub=offsets,
            bounds=[(None, None), (None, None), (0.0, 1.0)],
            method="highs",
        )
        if not res.success or res.x[2] < 1e-9:
            return None
        t = res.x[:2]
        s = float(res.x[2])
        return ParallelogramFit(
            center=(float(t[0]), float(t[1])),
            u=(float(s * u1[0]), float(s * u1[1])),
            v=(float(s * v1[0]), float(s * v1[1])),
            ratio=1.0 / s,
        )

    def boundary_points(self, scale: float, count: int) -> np.ndarray:
        verts = scale * self.verts
        nxt = np.roll(verts, -1, axis=0)
        seg = np.linalg.norm(nxt - verts, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        t = cum[-1] * (np.arange(count) + 0.5) / count
        idx = np.searchsorted(cum, t, side="right") - 1
        frac = (t - cum[idx]) / seg[idx]
        return verts[idx] + frac[:, None] * (nxt[idx] - verts[idx])

    def chebyshev_ball(self, scale: float) -> tuple[np.ndarray, float]:
        """Center and radius of the largest ball inside scale*C."""
        from scipy.optimize import linprog

        normals, offsets = self.facets
        res = linprog(
            c=[0.0, 0.0, -1.0],
            A_ub=np.column_stack([normals, np.ones(len(normals))]),
            b_ub=scale * offsets,
            bounds=[(None, None), (None, None), (0, None)],
            method="highs",
        )
        if not res.success:
            raise GeometryError("inscribed-ball LP failed")
        return res.x[:2].copy(), float(res.x[2])

    def centroid(self, scale: float) -> np.ndarray:
        verts = scale * self.verts
        x, y = verts[:, 0], verts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = cross.sum() / 2.0
        return np.array([((x + xn) * cross).sum() / (6 * a), ((y + yn) * cross).sum() / (6 * a)])

    def seed_point(self) -> np.ndarray:
        return self.verts.mean(axis=0)

    def svg_element(self, center: np.ndarray, scale: float, style: str) -> str:
        pts = " ".join(f"{x:.6f},{y:.6f}" for x, y in scale * self.verts + center)
        return f'<polygon points="{pts}" {style}/>'


class _Disk(_Shape):
    def support(self, d: np.ndarray) -> float:
        return float(np.linalg.norm(d))

    def scale(self, body: ConvexBody, factor: float) -> ConvexBody:
        raise GeometryError("the disk has a fixed unit radius; scale via Placement instead")

    def point_margins(self, scale: float, pts: np.ndarray) -> _Margins:
        xs, ys = np.ascontiguousarray(pts.T)

        def margins(v: np.ndarray) -> np.ndarray:
            dx, dy = xs - v[0], ys - v[1]
            return scale - np.sqrt(dx * dx + dy * dy)

        return margins

    def contains(self, centers: np.ndarray, scales: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """`point_margins(scales[i], pts[i])(centers[i]) >= -TOL` for every
        member i at once (pts of shape (m, k, 2)), with the same arithmetic."""
        dx = pts[:, :, 0] - centers[:, 0, None]
        dy = pts[:, :, 1] - centers[:, 1, None]
        return scales[:, None] - np.sqrt(dx * dx + dy * dy) >= -TOL

    def homothet_margins(self, delta: np.ndarray, scales: np.ndarray, scale: float) -> np.ndarray:
        return scales + scale - np.linalg.norm(delta, axis=1)

    def adjacent(self, d: np.ndarray, si: np.ndarray, sj: np.ndarray, tol: float) -> np.ndarray:
        """|d| <= (s_i + s_j) + tol, d = c_j - c_i: the same for (i, j) and (j, i)."""
        return np.sqrt(d[0] * d[0] + d[1] * d[1]) <= (si + sj) + tol

    def parallelogram_fit(self) -> ParallelogramFit:
        return ParallelogramFit(center=(0.0, 0.0), u=(0.5, 0.5), v=(0.5, -0.5), ratio=math.sqrt(2.0))

    def boundary_points(self, scale: float, count: int) -> np.ndarray:
        t = 2 * math.pi * (np.arange(count) + 0.5) / count
        return scale * np.stack([np.cos(t), np.sin(t)], axis=1)

    def known_cover(self, body: ConvexBody) -> tuple | None:
        """The unit disk centred at 0 and the six at sqrt(3)*(cos k*pi/3,
        sin k*pi/3) cover C - C = 2C.  Proof, in polar coordinates (r, t) of a
        point p of 2C: the centre disk holds r <= 1.  For 1 <= r <= 2, rotate p
        by a multiple of pi/3, which permutes the six, until |t| <= pi/6.  Then
        cos t >= sqrt(3)/2, so |p - (sqrt(3), 0)|^2 = r^2 - 2*sqrt(3)*r*cos t + 3
        <= r^2 - 3r + 3, and r^2 - 3r + 3 <= 1 iff (r - 1)(r - 2) <= 0, which
        holds.  The cover is tangent: the point at r = 2, t = pi/6 lies on the
        boundary of both disks that hold it."""
        ring = [
            (math.sqrt(3.0) * math.cos(k * math.pi / 3), math.sqrt(3.0) * math.sin(k * math.pi / 3))
            for k in range(6)
        ]
        return body, 2.0, tuple([(0.0, 0.0)] + ring)

    def chebyshev_ball(self, scale: float) -> tuple[np.ndarray, float]:
        return np.zeros(2), scale

    def svg_element(self, center: np.ndarray, scale: float, style: str) -> str:
        return f'<circle cx="{center[0]:.6f}" cy="{center[1]:.6f}" r="{scale:.6f}" {style}/>'


class _Box(_Shape):
    def __init__(self, sides: tuple[float, ...]):
        self.sides = sides
        self.half = np.asarray(sides) / 2.0
        self.dimension = len(sides)

    def support(self, d: np.ndarray) -> float:
        return float(np.abs(d) @ self.half)

    def scale(self, body: ConvexBody, factor: float) -> ConvexBody:
        return ConvexBody.box(tuple(factor * s for s in body.sides))

    def point_margins(self, scale: float, pts: np.ndarray) -> _Margins:
        half = scale * np.asarray(self.sides) / 2.0
        columns = np.ascontiguousarray(pts.T)
        return lambda v: _fold_min(h - np.abs(column - x) for h, column, x in zip(half, columns, v))

    def contains(self, centers: np.ndarray, scales: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """`point_margins(scales[i], pts[i])(centers[i]) >= -TOL` for every
        member i at once (pts of shape (m, k, d)), with the same arithmetic."""
        half = scales[:, None] * np.asarray(self.sides) / 2.0
        return (half[:, None, :] - np.abs(pts - centers[:, None, :])).min(axis=2) >= -TOL

    def homothet_margins(self, delta: np.ndarray, scales: np.ndarray, scale: float) -> np.ndarray:
        half = (scales + scale)[:, None] * np.asarray(self.sides) / 2.0
        return (half - np.abs(delta)).min(axis=1)

    def adjacent(self, d: np.ndarray, si: np.ndarray, sj: np.ndarray, tol: float) -> np.ndarray:
        """|x_j - x_i| - (s_i + s_j)*h <= tol on each axis x, h the half side."""
        return (np.abs(d) - (si + sj) * self.half[:, None] <= tol).all(axis=0)

    def parallelogram_fit(self) -> ParallelogramFit:
        if self.dimension != 2:
            raise GeometryError("inscribed_parallelogram expects a 2D body")
        s1, s2 = self.sides
        return ParallelogramFit(center=(0.0, 0.0), u=(s1 / 2.0, 0.0), v=(0.0, s2 / 2.0), ratio=1.0)

    def boundary_points(self, scale: float, count: int) -> np.ndarray:
        n = self.dimension
        half = scale * np.asarray(self.sides) / 2.0
        free = halton(count, max(n - 1, 1))
        pts = np.zeros((count, n))
        for k in range(count):
            axis, side = divmod(k % (2 * n), 2)
            others = [a for a in range(n) if a != axis]
            pts[k, axis] = half[axis] if side == 0 else -half[axis]
            for slot, a in enumerate(others):
                pts[k, a] = (2 * free[k, slot % free.shape[1]] - 1) * half[a]
        return pts

    def known_cover(self, body: ConvexBody) -> tuple | None:
        """The 2^n translates of C (sides s) by (+-s_1/2, ..., +-s_n/2) tile
        C - C = 2C exactly.  Proof: on axis i, [-s_i, s_i] is the union of
        [-s_i, 0] and [0, s_i], the extents of the translates by -s_i/2 and
        +s_i/2, so the 2^n products of one half per axis are the translates
        and their union is 2C.  The cover is tangent: a corner of 2C is a
        corner of the one translate that holds it."""
        half = [s / 2.0 for s in self.sides]
        translations = tuple(
            tuple(sign * h for sign, h in zip(signs, half))
            for signs in itertools.product((-1.0, 1.0), repeat=len(half))
        )
        return ConvexBody.box(tuple(2 * s for s in self.sides)), 1.0, translations

    def chebyshev_ball(self, scale: float) -> tuple[np.ndarray, float]:
        return np.zeros(self.dimension), scale * min(self.sides) / 2.0

    def normalizing_map(self, body: ConvexBody, scale: float) -> tuple[np.ndarray, float]:
        """A box of any dimension <= 6 is its own fit (ratio 1)."""
        if self.dimension > 6:
            raise GeometryError("box translate coloring supports dimension <= 6")
        return np.diag(1.0 / (scale * np.asarray(self.sides))), 1.0

    def corners(self, centers: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """The 2^n corners of each member, axis d's sign + at bit d of the corner's index."""
        half = scales[:, None] * np.asarray(self.sides) / 2.0
        n = self.dimension
        signs = np.array([[1.0 if (mask >> d) & 1 else -1.0 for d in range(n)]
                          for mask in range(1 << n)])
        return centers[:, None, :] + signs * half[:, None, :]


@lru_cache(maxsize=4096)
def _shape(body: ConvexBody) -> _Shape:
    """The shape of a body, built once per distinct body."""
    if body.kind == "polygon2d":
        return _Polygon(body.vertices)
    if body.kind == "disk":
        return _Disk()
    return _Box(body.sides)


def reflect(body: ConvexBody) -> ConvexBody:
    """Reflection -C about the origin; boxes and disks are fixed points."""
    return _shape(body).reflect(body)


def scale_body(body: ConvexBody, factor: float) -> ConvexBody:
    if factor <= 0:
        raise GeometryError("scale factor must be positive")
    return _shape(body).scale(body, factor)


def _start_index(verts: np.ndarray) -> int:
    order = np.lexsort((verts[:, 0], verts[:, 1]))
    return int(order[0])


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Minkowski sum of two convex CCW polygons by sorted edge-vector merge."""
    if a.kind != "polygon2d" or b.kind != "polygon2d":
        raise GeometryError("minkowski_sum is defined for polygon2d bodies")
    if len(a.vertices) < 3 or len(b.vertices) < 3:
        raise GeometryError("degenerate polygon in minkowski_sum")

    va, vb = _shape(a).verts, _shape(b).verts
    ia, ib = _start_index(va), _start_index(vb)
    va = np.roll(va, -ia, axis=0)
    vb = np.roll(vb, -ib, axis=0)
    ea = np.roll(va, -1, axis=0) - va
    eb = np.roll(vb, -1, axis=0) - vb
    ang_a = np.mod(np.arctan2(ea[:, 1], ea[:, 0]), 2 * math.pi)
    ang_b = np.mod(np.arctan2(eb[:, 1], eb[:, 0]), 2 * math.pi)

    edges = []
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j >= len(eb):
            edges.append(ea[i]); i += 1
        elif i >= len(ea):
            edges.append(eb[j]); j += 1
        elif abs(ang_a[i] - ang_b[j]) < 1e-12:
            edges.append(ea[i] + eb[j]); i += 1; j += 1
        elif ang_a[i] < ang_b[j]:
            edges.append(ea[i]); i += 1
        else:
            edges.append(eb[j]); j += 1

    # fuse collinear runs and drop zero-length edges
    fused: list[np.ndarray] = []
    for e in edges:
        if np.linalg.norm(e) < TOL:
            continue
        if fused:
            prev = fused[-1]
            cross = prev[0] * e[1] - prev[1] * e[0]
            if abs(cross) < TOL * max(1.0, np.linalg.norm(prev) * np.linalg.norm(e)):
                fused[-1] = prev + e
                continue
        fused.append(e.copy())
    start = va[0] + vb[0]
    pts = start + np.cumsum(np.vstack([[0.0, 0.0]] + fused), axis=0)[:-1]
    return ConvexBody.polygon(pts)


def symmetrize(body: ConvexBody) -> ConvexBody:
    """Central symmetrization (C + (-C)) / 2; symmetric bodies are fixed points."""
    return _shape(body).symmetrize(body)


def support(body: ConvexBody, direction: np.ndarray) -> float:
    """Support function h_C(d) = max over C of <x, d> (d need not be unit)."""
    return _shape(body).support(direction)


@lru_cache(maxsize=4096)
def difference_polygon(body: ConvexBody, lam1: float, lam2: float) -> ConvexBody:
    """The polygon lam1*C + lam2*(-C); translates p,q of the scaled bodies
    intersect iff q - p lies in it (a reference; the pair tests use its normals)."""
    return minkowski_sum(scale_body(body, lam1), scale_body(reflect(body), lam2))


def homothet_margins(body: ConvexBody, centers: np.ndarray, scales: np.ndarray,
                     center: Sequence[float], scale: float) -> np.ndarray:
    """Signed tangency margin of scales[k]*C + centers[k] against scale*C +
    center for every k: > 0 strictly intersecting, < 0 strictly disjoint,
    magnitude (a lower bound on) the distance to the flip."""
    delta = np.asarray(center, dtype=float) - centers
    return _shape(body).homothet_margins(delta, scales, scale)


def homothets_intersect(
    body: ConvexBody, p1: Placement, p2: Placement, tol: float = TOL
) -> bool:
    """Closed intersection test for lam1*C + c1 and lam2*C + c2: tangency
    counts as intersecting."""
    if len(p1.center) != body.dimension or len(p2.center) != body.dimension:
        raise GeometryError("placement dimension does not match body dimension")
    return pair_margin(body, p1, p2) >= -tol


def pair_margin(body: ConvexBody, p1: Placement, p2: Placement) -> float:
    """Signed tangency margin of the pair (see `homothet_margins`)."""
    return float(homothet_margins(body, np.array([p1.center]), np.array([p1.scale]),
                                  p2.center, p2.scale)[0])


def pairwise_adjacency(
    body: ConvexBody, centers: np.ndarray, scales: np.ndarray, tol: float = TOL
) -> np.ndarray:
    """Boolean intersection matrix of a whole family, irreflexive: i ~ j iff
    the shape's pair kernel P (`adjacent`) passes (i, j) or (j, i).

    A sweep sorts the members by x, takes for each the later ones within
    reach[0] along x, keeps those within reach[a] on every other axis, and
    runs P on at most _PAIR_CHUNK of them at a time: n log n plus the
    candidates, quadratic only where members crowd within one reach.

    No pair left out passes P.  In exact arithmetic P(i, j) holds iff c_j -
    c_i lies in R(t) at t = tol, R(t) the set cut out by P's inequalities
    with tol replaced by t.  Sets cut out by one set of normals add by
    adding offsets, so R(t) = s_i*A + s_j*B + t*U (`reach_terms`) for t >= 0.
    reach[a] bounds |x_a| over R(t) at t = max(tol, 0) + eps for all s_i,
    s_j in [s_min, s_max], so for both orders; eps = 1e-6*(1 + m) with m =
    max|c| + s_max*max|box of A, B|.  So a pair left out misses R(tol +
    eps/2) in both orders: in exact arithmetic an inequality of P fails by
    over eps/2.  Its float evaluation errs by a few ulps of operands below
    3m + tol, as does the sweep's own rounding: over 1e8 times less.  The
    matrix is the one P gives on all n^2 ordered pairs.
    """
    shape, n = _shape(body), len(centers)
    adj = np.zeros((n, n), dtype=bool)
    if n < 2:
        return adj
    (terms, size), s_min, s_max = shape.reach_terms, float(scales.min()), float(scales.max())
    t = max(tol, 0.0) + 1e-6 * (1.0 + float(np.abs(centers).max()) + s_max * size)
    reach = [max(s_max * a + s_min * b + t * u, s_max * c + s_min * d + t * v)
             for (a, b, u), (c, d, v) in terms]  # of the two sides of each axis
    order = centers[:, 0].argsort()
    cols, s = centers.T.take(order, axis=1), scales.take(order)  # cols[a]: axis a, by x
    # flat.take(i + rows) gathers every axis at the members i in one take
    flat, rows = cols.ravel(), np.arange(0, cols.size, n)[:, None]
    ends = cols[0].searchsorted(cols[0] + reach[0], side="right")
    runs = ends - np.arange(1, n + 1)  # row k's candidates are k+1 .. ends[k]-1
    done = runs.cumsum()
    total, shift = int(done[-1]), ends - done
    # the chunk bounds: chunk c is pairs edges[c] .. edges[c+1]-1, which lie
    # in rows heads[c] .. heads[c+1] (heads[-1] = n); row k's pairs begin at
    # pair begun[k]
    edges = [*range(0, total, _PAIR_CHUNK), total]
    heads, begun = done.searchsorted(edges, side="right").tolist(), (done - runs).tolist()
    for start, stop, lo, hi in zip(edges, edges[1:], heads, heads[1:]):
        hi = min(hi + 1, n)
        i = np.arange(lo, hi).repeat(runs[lo:hi])[start - begun[lo]:stop - begun[lo]]
        j = np.arange(start, stop) + shift.take(i)
        for col, r in zip(cols[1:], reach[1:]):
            near = (np.abs(col.take(j) - col.take(i)) <= r).nonzero()[0]
            i, j = i.take(near), j.take(near)
        d = flat.take(j + rows) - flat.take(i + rows)  # c_j - c_i, a column per pair
        hit = shape.adjacent(d, s.take(i), s.take(j), tol).nonzero()[0]
        i, j = order.take(i.take(hit)), order.take(j.take(hit))
        adj[i, j] = adj[j, i] = True
    return adj


def containment_ratio(body: ConvexBody, fit: ParallelogramFit) -> float:
    """Smallest r with C inside some translate of r*P, via the two slab widths.

    Exact for convex bodies: a parallelogram is the intersection of two slabs,
    and slab containment up to translation is a pure width comparison.
    """
    u = np.asarray(fit.u)
    v = np.asarray(fit.v)
    if abs(u[0] * v[1] - u[1] * v[0]) < TOL:
        raise GeometryError("degenerate parallelogram fit")
    ratios = []
    for span, other in ((u, v), (v, u)):
        normal = np.array([-other[1], other[0]])
        normal /= np.linalg.norm(normal)
        w_p = 2.0 * abs(float(span @ normal))
        ratios.append(_shape(body).width(normal) / w_p)
    return max(ratios)


@lru_cache(maxsize=256)
def inscribed_parallelogram(body: ConvexBody) -> ParallelogramFit:
    """Parallelogram P inside C with C inside a translate of ratio*P, ratio <= 2.

    Boxes are their own fit (ratio 1); the disk gets the inscribed square with
    vertices (+-1,0),(0,+-1) (ratio sqrt(2)); polygons run the direction-pair
    search, which always reaches 2 + 1e-6 (else ConsistencyError: a fault).
    """
    return _shape(body).parallelogram_fit()
