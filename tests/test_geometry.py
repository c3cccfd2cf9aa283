import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_chroma import geometry
from convex_chroma.constructions import grid_family, pentagon_family, random_family
from convex_chroma.families import Family, family_digest
from convex_chroma.geometry import (
    TOL,
    ConvexBody,
    GeometryError,
    ParallelogramFit,
    Placement,
    containment_ratio,
    difference_polygon,
    halton,
    homothet_margins,
    homothets_intersect,
    inscribed_parallelogram,
    minkowski_sum,
    pair_margin,
    pairwise_adjacency,
    reflect,
    symmetrize,
    _edge_normals,
    _shape,
)
from conftest import cyclic_equal, hull_vertices, random_polygon

HEXAGON = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
TRIANGLE = ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])
REGULAR_PENTAGON = ConvexBody.polygon(
    [(math.cos(0.3 + 2 * math.pi * k / 5), math.sin(0.3 + 2 * math.pi * k / 5)) for k in range(5)]
)
IRREGULAR_PENTAGON = ConvexBody.polygon([(0, 0), (2, 0), (2.5, 1), (1, 2), (-0.5, 1)])
SQUARE_POLYGON = ConvexBody.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])


def shoelace(verts) -> float:
    total = 0.0
    for i in range(len(verts)):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % len(verts)]
        total += x1 * y2 - x2 * y1
    return total / 2.0


class TestMinkowskiSum:
    def test_square_doubling(self):
        half = ConvexBody.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        doubled = minkowski_sum(half, half)
        assert cyclic_equal(doubled.vertices, [(-1, -1), (1, -1), (1, 1), (-1, 1)])

    def test_triangle_plus_reflection_is_hexagon(self, triangle):
        result = minkowski_sum(triangle, reflect(triangle))
        assert cyclic_equal(result.vertices, HEXAGON)

    def test_against_vertex_pair_hull_oracle(self):
        for seed in range(8):
            a = random_polygon(seed, 8)
            b = random_polygon(seed + 100, 7)
            got = minkowski_sum(a, b)
            pairs = np.array([
                [ax + bx, ay + by] for ax, ay in a.vertices for bx, by in b.vertices
            ])
            expected = hull_vertices(pairs)
            assert cyclic_equal(got.vertices, expected, tol=1e-8), f"seed {seed}"

    def test_commutes(self):
        a = random_polygon(5, 6)
        b = random_polygon(6, 9)
        assert cyclic_equal(minkowski_sum(a, b).vertices, minkowski_sum(b, a).vertices, tol=1e-9)

    def test_degenerate_rejected(self, triangle):
        segment = ConvexBody(kind="polygon2d", vertices=((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(GeometryError):
            minkowski_sum(triangle, segment)
        with pytest.raises(GeometryError):
            minkowski_sum(segment, triangle)

    def test_single_point_rejected(self, triangle):
        # a directly built 1-vertex body is degenerate like a segment: no
        # translation shortcut, the < 3 vertex guard rejects it either way round
        point = ConvexBody(kind="polygon2d", vertices=((2.0, 3.0),))
        with pytest.raises(GeometryError):
            minkowski_sum(triangle, point)
        with pytest.raises(GeometryError):
            minkowski_sum(point, triangle)

    def test_area_superadditive(self):
        # Brunn-Minkowski corollary on random polygon pairs
        for seed in range(20):
            a = random_polygon(seed, 7)
            b = random_polygon(seed + 50, 7)
            area = [shoelace(body.vertices) for body in (minkowski_sum(a, b), a, b)]
            assert area[0] >= area[1] + area[2] - 1e-9


class TestReflect:
    def test_involution_exact(self):
        for seed in range(10):
            poly = random_polygon(seed)
            assert reflect(reflect(poly)).vertices == poly.vertices

    def test_centered_square_fixed(self):
        sq = ConvexBody.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
        assert cyclic_equal(reflect(sq).vertices, sq.vertices)

    def test_triangle(self, triangle):
        assert cyclic_equal(reflect(triangle).vertices, [(0, 0), (-1, 0), (0, -1)])

    def test_disk_and_box_fixed(self, disk):
        assert reflect(disk) is disk
        box = ConvexBody.box((1, 2))
        assert reflect(box) is box


class TestSymmetrize:
    def test_centered_square_fixed_point(self, unit_square):
        assert symmetrize(unit_square) is unit_square

    def test_triangle_gives_half_hexagon(self, triangle):
        expected = [(0.5, 0), (0, 0.5), (-0.5, 0.5), (-0.5, 0), (0, -0.5), (0.5, -0.5)]
        assert cyclic_equal(symmetrize(triangle).vertices, expected)

    def test_disk_fixed(self, disk):
        assert symmetrize(disk) is disk

    def test_output_centrally_symmetric(self):
        for seed in range(10):
            sym = symmetrize(random_polygon(seed))
            verts = set((round(x, 9), round(y, 9)) for x, y in sym.vertices)
            negated = set((round(-x, 9), round(-y, 9)) for x, y in sym.vertices)
            assert verts == negated

    def test_idempotent(self):
        for seed in range(5):
            sym = symmetrize(random_polygon(seed))
            again = symmetrize(sym)
            assert cyclic_equal(again.vertices, sym.vertices, tol=1e-9)


class TestIntersection:
    def test_touching_squares(self, unit_square):
        assert homothets_intersect(unit_square, Placement((0, 0)), Placement((1, 0)))

    def test_disks_beyond_radius_sum(self, disk):
        assert not homothets_intersect(disk, Placement((0, 0)), Placement((2.001, 0)))
        assert homothets_intersect(disk, Placement((0, 0)), Placement((2.0, 0)))

    def test_triangle_translates_disjoint(self, triangle):
        assert not homothets_intersect(triangle, Placement((0, 0)), Placement((0.9, 0.9)))
        assert homothets_intersect(triangle, Placement((0, 0)), Placement((0.4, 0.4)))

    def test_predicate_agrees_with_signed_margin(self, triangle):
        rng = np.random.default_rng(7)
        for _ in range(200):
            delta = rng.uniform(-2, 2, size=2)
            margin = pair_margin(triangle, Placement((0, 0)), Placement(tuple(delta)))
            if abs(margin) < 1e-6:
                continue
            assert homothets_intersect(
                triangle, Placement((0, 0)), Placement(tuple(delta))
            ) == (margin > 0)

    def test_symmetry(self, disk, unit_square, triangle):
        rng = np.random.default_rng(3)
        for body in (disk, unit_square, triangle):
            for _ in range(50):
                p1 = Placement(tuple(rng.uniform(-2, 2, 2)), float(rng.uniform(0.5, 2)))
                p2 = Placement(tuple(rng.uniform(-2, 2, 2)), float(rng.uniform(0.5, 2)))
                assert homothets_intersect(body, p1, p2) == homothets_intersect(body, p2, p1)

    def test_scaled_homothets(self, unit_square):
        # scale-2 square at origin spans [-1,1]^2; scale-1 at (2,0) touches at x=1.5? no
        assert not homothets_intersect(
            unit_square, Placement((0, 0), 2.0), Placement((2.0, 0), 1.0)
        )
        assert homothets_intersect(
            unit_square, Placement((0, 0), 2.0), Placement((1.5, 0), 1.0)
        )

    def test_dimension_mismatch(self, unit_square):
        with pytest.raises(GeometryError):
            homothets_intersect(unit_square, Placement((0, 0, 0)), Placement((0, 0)))

    def test_symmetrization_preserves_intersections(self):
        body = random_polygon(42, 9)
        sym = symmetrize(body)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 1000:
            delta = tuple(rng.uniform(-3, 3, size=2))
            p1, p2 = Placement((0.0, 0.0)), Placement(delta)
            if abs(pair_margin(body, p1, p2)) <= 1e-6:
                continue
            assert homothets_intersect(body, p1, p2) == homothets_intersect(sym, p1, p2)
            checked += 1


class TestParallelogramFit:
    def test_square_is_its_own_fit(self, unit_square):
        fit = inscribed_parallelogram(unit_square)
        assert fit.ratio == pytest.approx(1.0)
        assert containment_ratio(unit_square, fit) == pytest.approx(1.0)

    def test_disk_inscribed_diamond(self, disk):
        fit = inscribed_parallelogram(disk)
        corners = sorted(
            (round(fit.center[0] + a * fit.u[0] + b * fit.v[0], 9),
             round(fit.center[1] + a * fit.u[1] + b * fit.v[1], 9))
            for a in (-1, 1) for b in (-1, 1)
        )
        assert corners == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert fit.ratio == pytest.approx(math.sqrt(2))
        assert containment_ratio(disk, fit) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_triangle_reaches_ratio_two(self, triangle):
        fit = inscribed_parallelogram(triangle)
        assert fit.ratio == pytest.approx(2.0, abs=1e-6)
        assert containment_ratio(triangle, fit) == pytest.approx(2.0, abs=1e-6)

    def test_triangle_medial_parallelogram_oracle(self, triangle):
        medial = ParallelogramFit(center=(0.25, 0.25), u=(0.25, 0.0), v=(0.0, 0.25), ratio=2.0)
        assert containment_ratio(triangle, medial) == pytest.approx(2.0)

    def test_random_polygons_within_chakerian_stein(self):
        for seed in range(12):
            poly = random_polygon(seed, 9)
            fit = inscribed_parallelogram(poly)
            assert fit.ratio <= 2.0 + 1e-6
            assert containment_ratio(poly, fit) == pytest.approx(fit.ratio, rel=1e-6)

    def test_degenerate_fit_rejected(self, unit_square):
        bad = ParallelogramFit(center=(0, 0), u=(1, 0), v=(2, 0), ratio=1.0)
        with pytest.raises(GeometryError):
            containment_ratio(unit_square, bad)


class TestValidationAndJson:
    def test_clockwise_rejected(self):
        with pytest.raises(GeometryError):
            ConvexBody.polygon([(0, 0), (0, 1), (1, 0)])

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError):
            ConvexBody.polygon([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            ConvexBody.polygon([(0, 0), (1, 0)])

    def test_bad_box(self):
        with pytest.raises(GeometryError):
            ConvexBody.box((1.0, 0.0))

    def test_bad_scale(self):
        with pytest.raises(GeometryError):
            Placement((0, 0), scale=-1.0)

    def test_center_and_scale_are_read_as_floats(self):
        p = Placement((1, 0), 2)
        assert p == Placement((1.0, 0.0), 2.0)
        assert {type(v) for v in (*p.center, p.scale)} == {float}

    @pytest.mark.parametrize("center, scale", [
        (("1", 0), "2"), (("1", 0), 2), ((1, 0), "2"), ((True, 0), 2), ((1, 0), True),
        (np.array([True, False]), 2), ((np.bool_(True), 0), 2), ((1, 0), (2,)), (((1,), 0), 2),
    ], ids=["strings", "string-coordinate", "string-scale", "bool-coordinate", "bool-scale",
            "bool-array", "numpy-bool", "sequence-scale", "nested-center"])
    def test_placement_of_anything_but_numbers_rejected(self, center, scale):
        with pytest.raises(GeometryError, match="numbers"):
            Placement(center, scale)

    def test_placement_reads_numpy_numbers(self):
        assert Placement(tuple(np.array([1, 0])), np.int64(2)) == Placement((1.0, 0.0), 2.0)
        assert Placement(np.array([0.5, 1.5], dtype=np.float32), 2) == Placement((0.5, 1.5), 2.0)

    @pytest.mark.parametrize("make", [
        lambda: ConvexBody.polygon([(0, 0), (1, 0), (0, float("nan"))]),
        lambda: ConvexBody.box((1.0, float("inf"))),
        lambda: Placement((0, 0), scale=float("nan")),
        lambda: Placement((float("-inf"), 0)),
    ], ids=["nan-vertex", "infinite-side", "nan-scale", "infinite-center"])
    def test_non_finite_rejected(self, make):
        with pytest.raises(GeometryError):
            make()

    def test_body_json_round_trip(self, triangle, disk):
        for body in (triangle, disk, ConvexBody.box((1, 2, 3))):
            again = ConvexBody.from_json(json.loads(json.dumps(body.to_json())))
            assert again == body

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            ConvexBody.from_json({"kind": "ellipse"})


def _as_polygon(body: ConvexBody) -> ConvexBody:
    if body.kind == "box":
        hx, hy = (s / 2.0 for s in body.sides)
        return ConvexBody.polygon([(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)])
    return body


def points_in_polygon(verts: np.ndarray, pts: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Closed containment test for an array of points against a CCW polygon."""
    normals, offsets = _edge_normals(verts)
    return (offsets[None, :] - pts @ normals.T >= -tol).all(axis=1)


def reference_adjacency(family: Family) -> np.ndarray:
    """Pair by pair: c_j - c_i inside the difference polygon (the disk by its
    closed form), mirrored."""
    body = family.body
    n = len(family)
    adj = np.zeros((n, n), dtype=bool)
    pl = [Placement(tuple(c), s) for c, s in zip(family.centers().tolist(), family.scales())]
    for i, p1 in enumerate(pl):
        for j in range(i + 1, n):
            p2 = pl[j]
            delta = np.subtract(p2.center, p1.center)
            if body.kind == "disk":
                hit = np.linalg.norm(delta) <= p1.scale + p2.scale + TOL
            else:
                diff = difference_polygon(_as_polygon(body), p1.scale, p2.scale)
                hit = points_in_polygon(np.array(diff.vertices), delta[None, :])[0]
            adj[i, j] = adj[j, i] = hit
    return adj


def reference_margin(body: ConvexBody, p1: Placement, p2: Placement) -> float:
    """Smallest slab distance of c2 - c1 to the difference polygon's edges."""
    verts = np.array(difference_polygon(body, p1.scale, p2.scale).vertices)
    edges = np.roll(verts, -1, axis=0) - verts
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    delta = np.subtract(p2.center, p1.center)
    return float((np.einsum("ij,ij->i", normals, verts) - normals @ delta).min())


def tangent_mixed_squares() -> Family:
    """Squares of scales 0.5, 1 and 1.5 on a quarter lattice: many pairs touch
    exactly, in binary floating point too."""
    rng = np.random.default_rng(0)
    centers = rng.integers(0, 12, size=(60, 2)) / 4.0
    scales = rng.integers(1, 4, size=60) / 2.0
    return Family(SQUARE_POLYGON, centers, scales)


GRID_BODIES = {
    "triangle": TRIANGLE, "regular-pentagon": REGULAR_PENTAGON,
    "irregular-pentagon": IRREGULAR_PENTAGON, "square-polygon": SQUARE_POLYGON,
    "box": ConvexBody.box((1.0, 2.0)), "disk": ConvexBody.disk(),
}
MIXED_BODIES = {"triangle": TRIANGLE, "irregular-pentagon": IRREGULAR_PENTAGON}


class TestSupportKernel:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", sorted(GRID_BODIES))
    def test_tangent_grid_matches_difference_polygon(self, name, m):
        family = grid_family(GRID_BODIES[name], m)
        adj = pairwise_adjacency(family.body, family.centers(), family.scales())
        expected = reference_adjacency(family)
        assert expected.any() and not expected.all()
        assert np.array_equal(adj, expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pentagon_family_matches_difference_polygon(self, k):
        family = pentagon_family(k)
        adj = pairwise_adjacency(family.body, family.centers(), family.scales())
        assert np.array_equal(adj, reference_adjacency(family))

    def test_tangent_mixed_scales_match_difference_polygon(self):
        family = tangent_mixed_squares()
        adj = pairwise_adjacency(family.body, family.centers(), family.scales())
        assert np.array_equal(adj, reference_adjacency(family))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(MIXED_BODIES))
    def test_mixed_scales_match_difference_polygon(self, name, seed):
        body = MIXED_BODIES[name]
        family = random_family(body, 40, (0.0, 5.0), scale_range=(0.3, 2.0), seed=seed,
                               margin=0.0)
        adj = pairwise_adjacency(body, family.centers(), family.scales())
        assert np.array_equal(adj, reference_adjacency(family))
        pl = [Placement(tuple(c), s) for c, s in zip(family.centers().tolist(), family.scales())]
        for i in range(len(pl)):
            for j in range(len(pl)):
                if i != j:
                    assert pair_margin(body, pl[i], pl[j]) == pytest.approx(
                        reference_margin(body, pl[i], pl[j]), abs=1e-12)
                    assert homothets_intersect(body, pl[i], pl[j]) == adj[i, j]

    def test_empty_family(self, triangle):
        assert pairwise_adjacency(triangle, np.zeros((0, 2)), np.zeros(0)).shape == (0, 0)


class TestSquareTwoWays:
    """The unit square as polygon2d and as box((1, 1)) is one body, so the
    polygon and the box formulas of every shape method must agree on it."""

    BODIES = (SQUARE_POLYGON, ConvexBody.unit_square())

    def test_support_area_box_and_ball_agree(self):
        poly, box = (_shape(b) for b in self.BODIES)
        for d in np.random.default_rng(0).normal(size=(20, 2)):
            assert poly.support(d) == pytest.approx(box.support(d), abs=1e-12)
        for scale in (0.5, 1.0, 3.0):
            for a, b in zip(poly.box(scale), box.box(scale)):
                assert np.array_equal(a, b)
            (c1, r1), (c2, r2) = poly.chebyshev_ball(scale), box.chebyshev_ball(scale)
            assert np.allclose(c1, c2, rtol=0, atol=1e-9)
            assert r1 == pytest.approx(r2, abs=1e-9)

    def test_point_and_homothet_margins_agree(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2.0, 2.0, size=(200, 2))
        centers = rng.uniform(-2.0, 2.0, size=(50, 2))
        scales = rng.uniform(0.3, 2.0, size=50)
        poly, box = (_shape(b) for b in self.BODIES)
        for v, lam in zip(centers[:5], scales[:5]):
            assert np.allclose(poly.point_margins(lam, pts)(v), box.point_margins(lam, pts)(v),
                               rtol=0, atol=1e-12)
            a, b = (homothet_margins(body, centers, scales, v, lam) for body in self.BODIES)
            assert np.allclose(a, b, rtol=0, atol=1e-12)

    def test_adjacency_agrees_bit_for_bit(self):
        square = ConvexBody.unit_square()
        tangent = grid_family(square, 3)
        mixed = random_family(square, 60, (0.0, 6.0), scale_range=(0.3, 2.0), seed=4)
        for family in (tangent, mixed):
            a, b = (pairwise_adjacency(body, family.centers(), family.scales())
                    for body in self.BODIES)
            assert a.any() and not a.all()
            assert np.array_equal(a, b)


def _bits(a) -> np.ndarray:
    """The float64 bit patterns of an array (a signed zero is its own pattern)."""
    return np.asarray(a, dtype=np.float64).view(np.int64)


def reference_point_margins(body: ConvexBody, scale: float, pts: np.ndarray):
    """The point-margin formulas the column kernels replaced: a row minimum
    over the (points, normals) matrix, the box's (points, axes) matrix and the
    disk's row norm."""
    if body.kind == "polygon2d":
        normals, offsets = _edge_normals(np.array(body.vertices))
        scaled, projected = scale * offsets, pts @ normals.T
        return lambda v: ((scaled + normals @ v)[None, :] - projected).min(axis=1)
    if body.kind == "disk":
        return lambda v: scale - np.linalg.norm(pts - v, axis=1)
    half = scale * np.asarray(body.sides) / 2.0
    return lambda v: (half - np.abs(pts - v)).min(axis=1)


def reference_halton(count: int, dims: int, start: int = 0) -> np.ndarray:
    """Halton points by the plain digit loop over every index."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.int64)
    out = np.zeros((count, dims))
    for d in range(dims):
        base = (2, 3, 5, 7, 11, 13)[d]
        i = idx.copy()
        f = 1.0
        while i.any():
            f /= base
            out[:, d] += f * (i % base)
            i //= base
    return out


def reference_box_adjacency(body: ConvexBody, centers: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """The box adjacency by its n x n x d gap tensor."""
    half = np.asarray(body.sides) / 2.0
    gap = np.abs(centers[:, None, :] - centers[None, :, :]) - (
        scales[:, None] + scales[None, :]
    )[:, :, None] * half[None, None, :]
    return (gap <= TOL).all(axis=2)


def dense_adjacency(body: ConvexBody, centers: np.ndarray, scales: np.ndarray,
                    tol: float = TOL) -> np.ndarray:
    """The dense kernels the sweep of `pairwise_adjacency` replaced, verbatim:
    every ordered pair of n x n arrays, one mask per facet normal of C - C."""
    shape = _shape(body)
    if body.kind == "polygon2d":
        normals, h_pos, h_neg = shape.table
        dx = centers[None, :, 0] - centers[:, None, 0]
        dy = centers[None, :, 1] - centers[:, None, 1]
        adj = np.ones(dx.shape, dtype=bool)
        for (ux, uy), hp, hm in zip(normals, h_pos, h_neg):
            adj &= ux * dx + uy * dy <= (scales * hp + tol)[:, None] + (scales * hm)[None, :]
    elif body.kind == "disk":
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        adj = d <= scales[:, None] + scales[None, :] + tol
    else:
        sums = scales[:, None] + scales[None, :]
        adj = np.ones(sums.shape, dtype=bool)
        for a, h in enumerate(shape.half):
            adj &= np.abs(centers[:, None, a] - centers[None, :, a]) - sums * h <= tol
    np.fill_diagonal(adj, False)
    return adj | adj.T


THIN_QUADRILATERAL = ConvexBody.polygon([(0, 0), (3, 0.2), (3.1, 0.5), (0.2, 0.4)])
# C's box lies far from the origin, so members of unequal scales meet with
# centers much farther apart than any scale times C's width
FAR_TRIANGLE = ConvexBody.polygon([(5, 5), (6, 5), (5, 6)])
SWEEP_BODIES = {
    "triangle": TRIANGLE, "regular-pentagon": REGULAR_PENTAGON,
    "irregular-pentagon": IRREGULAR_PENTAGON, "thin-quadrilateral": THIN_QUADRILATERAL,
    "far-triangle": FAR_TRIANGLE, "disk": ConvexBody.disk(), "box": ConvexBody.box((1.0, 2.0)),
    "box-3d": ConvexBody.box((1.0, 0.5, 2.0)),
}


@st.composite
def sweep_families(draw) -> tuple[ConvexBody, np.ndarray, np.ndarray]:
    """A body with centers and scales: dyadic lattice centers and scales (exact
    tangencies are common), uniform centers with unit or mixed scales, then
    shifted and scaled, also beyond float resolution."""
    body = SWEEP_BODIES[draw(st.sampled_from(sorted(SWEEP_BODIES)))]
    n = draw(st.integers(min_value=0, max_value=400))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    side = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) * math.sqrt(max(n, 1))
    size = (n, body.dimension)
    layout = draw(st.sampled_from(["lattice", "unit", "mixed"]))
    if layout == "lattice":
        centers = rng.integers(0, int(4 * side) + 1, size=size) / 4.0
        scales = rng.integers(1, 5, size=n) / 2.0
    else:
        centers = rng.uniform(0.0, side, size=size)
        scales = rng.uniform(0.3, 2.0, size=n) if layout == "mixed" else np.ones(n)
    shift = draw(st.sampled_from([0.0, 1e6, 1e8, 1e10, -1e12]))
    factor = draw(st.sampled_from([1.0, 1e-9, 1e-8, 1e6]))
    return body, centers * factor + shift, scales * factor


class TestSweepMatchesDense:
    """The sweep of `pairwise_adjacency` gives the dense kernels' matrix to
    the bit, also where that matrix is itself wrong (beyond float resolution)."""

    @settings(max_examples=300)
    @given(sweep_families())
    def test_random_families(self, case):
        body, centers, scales = case
        assert np.array_equal(pairwise_adjacency(body, centers, scales),
                              dense_adjacency(body, centers, scales))

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(SWEEP_BODIES))
    def test_tiny_families(self, name, n):
        body = SWEEP_BODIES[name]
        centers = np.arange(n * body.dimension, dtype=float).reshape(n, body.dimension) / 2.0
        scales = np.ones(n)
        got = pairwise_adjacency(body, centers, scales)
        assert got.shape == (n, n)
        assert np.array_equal(got, dense_adjacency(body, centers, scales))

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("name", sorted(GRID_BODIES))
    def test_tangent_grids(self, name, m):
        family = grid_family(GRID_BODIES[name], m)
        centers, scales = family.centers(), family.scales()
        assert np.array_equal(pairwise_adjacency(family.body, centers, scales),
                              dense_adjacency(family.body, centers, scales))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pentagon_families(self, k):
        family = pentagon_family(k)
        centers, scales = family.centers(), family.scales()
        assert np.array_equal(pairwise_adjacency(family.body, centers, scales),
                              dense_adjacency(family.body, centers, scales))

    def test_far_apart_centers_of_unequal_scales_meet(self):
        # 2C = triangle (10,10),(12,10),(10,12); 0.5C + (9, 7.5) has its
        # corner (11.5, 10) inside it, though the centers are 9 apart along x
        centers, scales = np.array([[0.0, 0.0], [9.0, 7.5]]), np.array([2.0, 0.5])
        adj = pairwise_adjacency(FAR_TRIANGLE, centers, scales)
        assert adj[0, 1] and adj[1, 0]
        assert np.array_equal(adj, dense_adjacency(FAR_TRIANGLE, centers, scales))

    def test_either_order_of_a_pair_decides(self):
        # (0.5 + tol) + 1.5 and (1.5 + tol) + 0.5 round apart, so at this
        # distance only the test of the order (1, 0) passes, while the sweep
        # meets the pair as (0, 1)
        tol = 4e-9
        gap = (1.5 + tol) + 0.5
        assert gap > (0.5 + tol) + 1.5
        centers, scales = np.array([[0.0, 0.0], [gap, 0.0]]), np.array([1.0, 3.0])
        adj = pairwise_adjacency(SQUARE_POLYGON, centers, scales, tol)
        assert adj[0, 1]
        assert np.array_equal(adj, dense_adjacency(SQUARE_POLYGON, centers, scales, tol))

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_chunks_split_rows(self, chunk, monkeypatch):
        monkeypatch.setattr(geometry, "_PAIR_CHUNK", chunk)
        rng = np.random.default_rng(2)
        centers, scales = rng.uniform(0.0, 0.5, size=(100, 2)), rng.uniform(1.0, 2.0, size=100)
        want = dense_adjacency(TRIANGLE, centers, scales)
        assert want[~np.eye(100, dtype=bool)].all()
        assert np.array_equal(pairwise_adjacency(TRIANGLE, centers, scales), want)

    def test_overlapping_family_splits_a_row_between_chunks(self):
        n = 800
        rng = np.random.default_rng(3)
        centers, scales = rng.uniform(0.0, 0.5, size=(n, 2)), np.ones(n)
        # every later member is a candidate, so row k of the sweep holds
        # n - 1 - k pairs; the first chunk ends inside one of those rows
        done = np.cumsum(np.arange(n - 1, -1, -1))
        assert geometry._PAIR_CHUNK < done[-1] and geometry._PAIR_CHUNK not in done
        want = dense_adjacency(TRIANGLE, centers, scales)
        assert want[~np.eye(n, dtype=bool)].all()
        assert np.array_equal(pairwise_adjacency(TRIANGLE, centers, scales), want)


MARGIN_BODIES = {
    "triangle": TRIANGLE, "irregular-pentagon": IRREGULAR_PENTAGON,
    "box-2d": ConvexBody.box((1.0, 2.0)), "box-3d": ConvexBody.box((1.0, 0.5, 2.0)),
    "disk": ConvexBody.disk(),
}


class TestColumnKernels:
    """The column-wise kernels must give the old formulas' floats to the bit."""

    @pytest.mark.parametrize("name", sorted(MARGIN_BODIES))
    def test_point_margins_match_the_row_formulas(self, name):
        body = MARGIN_BODIES[name]
        dim = body.dimension
        rng = np.random.default_rng(3)
        # signed zeros, vertices and boundary points as well as random points
        pts = np.vstack([
            rng.uniform(-3.0, 3.0, size=(2000, dim)), halton(500, dim) - 0.5,
            np.zeros((1, dim)), -np.zeros((1, dim)), np.eye(dim), -np.eye(dim),
        ])
        shifts = [np.zeros(dim), -np.zeros(dim), *rng.uniform(-1.0, 1.0, size=(40, dim)),
                  *pts[-2 * dim:]]
        for scale in (1.0, 0.3, 2.0):
            got = _shape(body).point_margins(scale, pts)
            want = reference_point_margins(body, scale, pts)
            for v in shifts:
                assert np.array_equal(_bits(got(v)), _bits(want(v)))

    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
    def test_halton_matches_the_digit_loop(self, dims):
        # start and count on both sides of the largest table, 1024 entries
        for start in (0, 1023, 1024, 20_000, 100_000):
            for count in (0, 1, 1023, 1024, 1025, 20_000):
                got = halton(count, dims, start=start)
                assert got.shape == (count, dims)
                assert np.array_equal(_bits(got), _bits(reference_halton(count, dims, start)))
        assert np.array_equal(_bits(halton(100_000, dims)), _bits(reference_halton(100_000, dims)))

    def test_box_adjacency_matches_the_gap_tensor(self):
        box2 = ConvexBody.box((1.0, 2.0))
        box3 = ConvexBody.box((1.0, 0.5, 2.0))
        rng = np.random.default_rng(5)
        families = [
            grid_family(box2, 3),
            random_family(ConvexBody.unit_square(), 60, (0.0, 6.0), scale_range=(0.3, 2.0), seed=4),
            Family(box3, rng.integers(0, 8, size=(80, 3)) / 4.0, rng.integers(1, 4, size=80) / 2.0),
        ]
        for family in families:
            centers, scales = family.centers(), family.scales()
            got = pairwise_adjacency(family.body, centers, scales)
            want = reference_box_adjacency(family.body, centers, scales)
            np.fill_diagonal(want, False)  # every box meets itself; the graph has no loops
            assert want.any() and not want.all()
            assert np.array_equal(got, want)


# family_digest of random_family(body, 40, (0, 6), scale_range, seed) as
# generated by the per-pair pair_margin loop the one-call check replaced
CONTAINS_BODIES = {
    "square": ConvexBody.unit_square(), "disk": ConvexBody.disk(), "triangle": TRIANGLE,
    "thin-quadrilateral": THIN_QUADRILATERAL, "regular-pentagon": REGULAR_PENTAGON,
    "box-3d": ConvexBody.box((1.0, 0.5, 2.0)),
}


@pytest.mark.parametrize("name", sorted(CONTAINS_BODIES))
def test_contains_matches_point_margins_member_by_member(name):
    """`contains` tests each member against its own points at once and must
    give `point_margins(scale, pts)(center) >= -TOL` for each.  The box and
    the disk use the same arithmetic, so every entry must agree; a polygon's
    projections are matrix products whose last bit may differ, so entries
    whose margin lies within 1e-12 of -TOL are left out there."""
    body = CONTAINS_BODIES[name]
    shape = _shape(body)
    dim = body.dimension
    rng = np.random.default_rng(11)
    m = 300
    centers = rng.uniform(-50.0, 50.0, size=(m, dim))
    scales = rng.uniform(0.3, 2.0, size=m)
    # boundary points of each member pushed in and out, some by about TOL,
    # and points scattered around it
    boundary = shape.boundary_points(1.0, 8)
    stretch = np.array([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-10, 1.0 + 1e-9, 1.0 + 2e-9, 1.0 + 1e-3, 1.5])
    pts = np.concatenate([
        centers[:, None, :] + scales[:, None, None] * stretch[None, :, None] * boundary[None],
        centers[:, None, :] + rng.uniform(-3.0, 3.0, size=(m, 8, dim)),
    ], axis=1)
    got = shape.contains(centers, scales, pts)
    margins = np.array([shape.point_margins(s, p)(c) for c, s, p in zip(centers, scales, pts)])
    compared = np.ones(got.shape, dtype=bool)
    if body.kind == "polygon2d":
        compared = np.abs(margins + TOL) > 1e-12
    assert got.shape == (m, 16)
    assert compared.mean() > 0.95
    assert np.array_equal(got[compared], (margins >= -TOL)[compared])
    assert got.any() and not got.all()


RANDOM_FAMILY_DIGESTS = {
    ("triangle", 0): "01e7838d3917d20812c2fd548969abb8859772b9ce89ee87e815b60e73c35d65",
    ("triangle", 1): "00ef5b813cc3a168242086d379c3174dc2d7a3006266315702987465270aeb45",
    ("triangle", 2): "f62e154c0a0a8f81c4282561d171049719bf1f90e5232ce74945dbe8003ff365",
    ("disk", 0): "a412aea7f777e8e0c8087c19ac6e3540e0591655e4a6e14c0c7bcdf349d8cce8",
    ("disk", 1): "0e112b05f1b2c3b23956aad7724f1026f2f5d77cb45b547cede5c6e46471b7a4",
    ("disk", 2): "1b4b2aa4f0f5e33b688585185338e56ffcb5eb810c38684680e009dbdb2fa392",
    ("square", 0): "3e86be22c4a9ec3fbe545a675163c5bac596e4c434d91fb907a82163f3faccec",
    ("square", 1): "9b49cfeba5efd66a9cfec2178926f493eccec54487bb3aa75f9f61bdd57bdcca",
    ("square", 2): "7887e07f639d5e892d4f6b99141a381b0e5c1b4a921227ce6c6b7d9a084dc0e2",
}


@pytest.mark.parametrize("body_name,seed", sorted(RANDOM_FAMILY_DIGESTS))
def test_random_family_bytes_are_pinned(body_name, seed):
    body, scale_range = {
        "triangle": (TRIANGLE, (0.3, 2.0)),
        "disk": (ConvexBody.disk(), (0.3, 2.0)),
        "square": (ConvexBody.unit_square(), (1.0, 1.0)),
    }[body_name]
    family = random_family(body, 40, (0.0, 6.0), scale_range=scale_range, seed=seed)
    assert family_digest(family) == RANDOM_FAMILY_DIGESTS[body_name, seed]
