"""Convex bodies, Minkowski arithmetic, intersection predicates, and
inscribed-parallelogram fitting.

Bodies come in three kinds: 2D convex polygons (CCW vertex list), the unit
disk centered at the origin, and axis-parallel boxes in any dimension
(described by side lengths, reference point at the center). A family member
is ``scale * body + center`` given by a Placement. All values are immutable;
every operation is a pure function.

One rule decides every homothet pair: lam1*C + c1 and lam2*C + c2 meet iff
u.(c2 - c1) <= lam1*h_C(u) + lam2*h_C(-u) + TOL for every facet normal u of
C and of -C (the facet normals of the Minkowski sum lam1*C + lam2*(-C)), with
h_C the support function; the disk and the box are its closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

TOL = 1e-9


class GeometryError(ValueError):
    """Invalid geometric input (degenerate polygon, dimension mismatch...)."""


class FitSearchError(RuntimeError):
    """Inscribed-parallelogram search failed to reach the required ratio."""


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
        if self.kind == "box":
            return len(self.sides)
        return 2

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
    """One homothet scale*C + center; scale > 0, center matches the body dimension."""

    center: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise GeometryError(f"placement scale must be positive and finite, got {self.scale}")
        center = tuple(float(c) for c in self.center)
        if not all(math.isfinite(c) for c in center):
            raise GeometryError(f"placement center must be finite, got {center}")
        object.__setattr__(self, "center", center)


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


@lru_cache(maxsize=4096)
def _poly_array(body: ConvexBody) -> np.ndarray:
    arr = np.array(body.vertices, dtype=float)
    arr.setflags(write=False)
    return arr


def _edge_normals(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit normals and offsets of a CCW polygon: inside iff n.x <= c."""
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, verts)
    return normals, offsets


def points_in_polygon(verts: np.ndarray, pts: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Closed containment test for an array of points against a CCW polygon."""
    normals, offsets = _edge_normals(verts)
    margins = offsets[None, :] - pts @ normals.T
    return (margins >= -tol).all(axis=1)


class PointMargins:
    """Signed containment margins of a fixed point set in translates
    scale*C + v: >= 0 inside, the smallest slab distance."""

    def __init__(self, body: ConvexBody, scale: float, pts: np.ndarray):
        self.body = body
        self.scale = scale
        self.pts = pts
        if body.kind == "polygon2d":
            normals, offsets = _edge_normals(_poly_array(body))
            self._normals = normals
            self._scaled_offsets = scale * offsets
            self._projected = pts @ normals.T
        elif body.kind == "box":
            self._half = scale * np.asarray(body.sides) / 2.0

    def margins(self, v: np.ndarray) -> np.ndarray:
        if self.body.kind == "disk":
            return self.scale - np.linalg.norm(self.pts - v, axis=1)
        if self.body.kind == "box":
            return (self._half - np.abs(self.pts - v)).min(axis=1)
        shift = self._scaled_offsets + self._normals @ v
        return (shift[None, :] - self._projected).min(axis=1)


def area(body: ConvexBody) -> float:
    """Lebesgue measure of the body (area in 2D, volume for boxes)."""
    if body.kind == "box":
        return float(np.prod(body.sides))
    if body.kind == "disk":
        return math.pi
    verts = _poly_array(body)
    x, y = verts[:, 0], verts[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def reflect(body: ConvexBody) -> ConvexBody:
    """Reflection -C about the origin; boxes and disks are fixed points."""
    if body.kind != "polygon2d":
        return body
    # negation is a 180-degree rotation, so CCW order is preserved
    return ConvexBody(kind="polygon2d", vertices=tuple((-x, -y) for x, y in body.vertices))


def scale_body(body: ConvexBody, factor: float) -> ConvexBody:
    if factor <= 0:
        raise GeometryError("scale factor must be positive")
    if body.kind == "polygon2d":
        return ConvexBody(
            kind="polygon2d", vertices=tuple((factor * x, factor * y) for x, y in body.vertices)
        )
    if body.kind == "box":
        return ConvexBody.box(tuple(factor * s for s in body.sides))
    raise GeometryError("the disk has a fixed unit radius; scale via Placement instead")


def _start_index(verts: np.ndarray) -> int:
    order = np.lexsort((verts[:, 0], verts[:, 1]))
    return int(order[0])


def minkowski_sum(a: ConvexBody, b: ConvexBody) -> ConvexBody:
    """Minkowski sum of two convex CCW polygons by sorted edge-vector merge.

    A single-vertex "polygon" is treated as a translation of the other operand.
    """
    if a.kind != "polygon2d" or b.kind != "polygon2d":
        raise GeometryError("minkowski_sum is defined for polygon2d bodies")
    if len(a.vertices) == 1:
        a, b = b, a
    if len(b.vertices) == 1:
        dx, dy = b.vertices[0]
        if len(a.vertices) == 1:
            return ConvexBody(kind="polygon2d", vertices=((a.vertices[0][0] + dx, a.vertices[0][1] + dy),))
        return ConvexBody.polygon([(x + dx, y + dy) for x, y in a.vertices])
    if len(a.vertices) < 3 or len(b.vertices) < 3:
        raise GeometryError("degenerate polygon in minkowski_sum")

    va, vb = _poly_array(a), _poly_array(b)
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
    if body.kind in ("disk", "box"):
        return body
    diff = minkowski_sum(body, reflect(body))
    return ConvexBody.polygon([(0.5 * x, 0.5 * y) for x, y in diff.vertices])


def support(body: ConvexBody, direction: np.ndarray) -> float:
    """Support function h_C(d) = max over C of <x, d> (d need not be unit)."""
    if body.kind == "polygon2d":
        return float((_poly_array(body) @ direction).max())
    if body.kind == "disk":
        return float(np.linalg.norm(direction))
    half = np.asarray(body.sides) / 2.0
    return float(np.abs(direction) @ half)


def width(body: ConvexBody, direction: np.ndarray) -> float:
    return support(body, direction) + support(body, -direction)


@lru_cache(maxsize=4096)
def difference_polygon(body: ConvexBody, lam1: float, lam2: float) -> ConvexBody:
    """The polygon lam1*C + lam2*(-C); translates p,q of the scaled bodies
    intersect iff q - p lies in it (a reference; the pair tests use its normals)."""
    return minkowski_sum(scale_body(body, lam1), scale_body(reflect(body), lam2))


@lru_cache(maxsize=256)
def _support_table(body: ConvexBody) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit facet normals u of C - C (those of C and of -C, parallel ones
    merged) with h_C(u) and h_C(-u) for each; polygons only."""
    verts = _poly_array(body)
    normals, _ = _edge_normals(verts)
    merged: list[np.ndarray] = []
    for u in np.vstack([normals, -normals]):
        if not any(u @ w > 0 and abs(u[0] * w[1] - u[1] * w[0]) < TOL for w in merged):
            merged.append(u)
    table = np.array(merged)
    proj = verts @ table.T
    out = (table, proj.max(axis=0), -proj.min(axis=0))
    for arr in out:
        arr.setflags(write=False)  # cached: shared by every caller
    return out


def homothet_margins(body: ConvexBody, centers: np.ndarray, scales: np.ndarray,
                     center: Sequence[float], scale: float) -> np.ndarray:
    """Signed tangency margin of scales[k]*C + centers[k] against scale*C +
    center for every k: > 0 strictly intersecting, < 0 strictly disjoint,
    magnitude (a lower bound on) the distance to the flip."""
    delta = np.asarray(center, dtype=float) - centers
    if body.kind == "disk":
        return scales + scale - np.linalg.norm(delta, axis=1)
    if body.kind == "box":
        half = (scales + scale)[:, None] * np.asarray(body.sides) / 2.0
        return (half - np.abs(delta)).min(axis=1)
    normals, h_pos, h_neg = _support_table(body)
    return (scales[:, None] * h_pos + scale * h_neg - delta @ normals.T).min(axis=1)


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
    """Boolean intersection matrix of a whole family, irreflexive; polygons
    AND one n x n mask per facet normal of C - C."""
    if body.kind == "disk":
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        adj = d <= scales[:, None] + scales[None, :] + tol
    elif body.kind == "box":
        half = np.asarray(body.sides) / 2.0
        gap = np.abs(centers[:, None, :] - centers[None, :, :]) - (
            scales[:, None] + scales[None, :]
        )[:, :, None] * half[None, None, :]
        adj = (gap <= tol).all(axis=2)
    else:
        normals, h_pos, h_neg = _support_table(body)
        dx = centers[None, :, 0] - centers[:, None, 0]
        dy = centers[None, :, 1] - centers[:, None, 1]
        adj = np.ones(dx.shape, dtype=bool)
        for (ux, uy), hp, hm in zip(normals, h_pos, h_neg):
            adj &= ux * dx + uy * dy <= (scales * hp + tol)[:, None] + (scales * hm)[None, :]
    np.fill_diagonal(adj, False)
    return adj | adj.T


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
        ratios.append(width(body, normal) / w_p)
    return max(ratios)


def _direction_pairs(body: ConvexBody) -> list[tuple[np.ndarray, np.ndarray]]:
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

    verts = _poly_array(body)
    edges = np.roll(verts, -1, axis=0) - verts
    for e in edges:
        push(e)
    n_edge = len(dirs)
    pairs = [
        (dirs[i], dirs[j])
        for i in range(n_edge)
        for j in range(i + 1, n_edge)
    ]
    step = 2 * math.pi / 360
    for k in range(90):
        t = k * step
        pairs.append(
            (np.array([math.cos(t), math.sin(t)]), np.array([-math.sin(t), math.cos(t)]))
        )
    return pairs


def _best_fit_for_pair(
    body: ConvexBody, d1: np.ndarray, d2: np.ndarray
) -> ParallelogramFit | None:
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
    w1 = width(body, n1)
    w2 = width(body, n2)
    u1 = (w1 / 2.0) * d1 / float(d1 @ n1)
    v1 = (w2 / 2.0) * d2 / float(d2 @ n2)

    normals, offsets = _edge_normals(_poly_array(body))
    grow = np.abs(normals @ u1) + np.abs(normals @ v1)
    a_ub = np.column_stack([normals, grow])
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
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


@lru_cache(maxsize=256)
def inscribed_parallelogram(body: ConvexBody) -> ParallelogramFit:
    """Parallelogram P inside C with C inside a translate of ratio*P, ratio <= 2.

    Boxes are their own fit (ratio 1); the disk gets the inscribed square with
    vertices (+-1,0),(0,+-1) (ratio sqrt(2)); polygons run the direction-pair
    search.  Failing to reach ratio 2 + 1e-6 raises FitSearchError.
    """
    if body.kind == "box":
        if body.dimension != 2:
            raise GeometryError("inscribed_parallelogram expects a 2D body")
        s1, s2 = body.sides
        return ParallelogramFit(center=(0.0, 0.0), u=(s1 / 2.0, 0.0), v=(0.0, s2 / 2.0), ratio=1.0)
    if body.kind == "disk":
        return ParallelogramFit(center=(0.0, 0.0), u=(0.5, 0.5), v=(0.5, -0.5), ratio=math.sqrt(2.0))

    best: ParallelogramFit | None = None
    for d1, d2 in _direction_pairs(body):
        fit = _best_fit_for_pair(body, d1, d2)
        if fit is not None and (best is None or fit.ratio < best.ratio):
            best = fit
    if best is None or best.ratio > 2.0 + 1e-6:
        got = "none" if best is None else f"{best.ratio:.9f}"
        raise FitSearchError(f"no inscribed parallelogram with ratio <= 2 found (best {got})")
    verts = _poly_array(body)
    c = np.asarray(best.center)
    u = np.asarray(best.u)
    v = np.asarray(best.v)
    corners = np.array([c + a * u + b * v for a in (-1, 1) for b in (-1, 1)])
    if not points_in_polygon(verts, corners, tol=1e-6).all():
        raise FitSearchError("inscribed parallelogram verification failed")
    return best
