import json
import math

import numpy as np
import pytest

from convex_chroma.geometry import (
    ConvexBody,
    GeometryError,
    ParallelogramFit,
    Placement,
    area,
    containment_ratio,
    homothets_intersect,
    inscribed_parallelogram,
    minkowski_sum,
    pair_margin,
    reflect,
    symmetrize,
)
from conftest import cyclic_equal, hull_vertices, random_polygon

HEXAGON = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def shoelace(verts) -> float:
    total = 0.0
    for i in range(len(verts)):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % len(verts)]
        total += x1 * y2 - x2 * y1
    return total / 2.0


class TestArea:
    def test_unit_square(self, unit_square):
        assert area(unit_square) == pytest.approx(1.0)

    def test_right_triangle(self, triangle):
        assert area(triangle) == pytest.approx(0.5)

    def test_difference_hexagon_matches_shoelace_oracle(self):
        hexagon = ConvexBody.polygon(HEXAGON)
        assert area(hexagon) == pytest.approx(shoelace(HEXAGON))
        assert area(hexagon) == pytest.approx(3.0)

    def test_disk(self, disk):
        assert area(disk) == pytest.approx(math.pi)

    def test_box_volume(self):
        assert area(ConvexBody.box((2, 3, 4))) == pytest.approx(24.0)


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

    def test_single_point_is_translation(self, triangle):
        point = ConvexBody(kind="polygon2d", vertices=((2.0, 3.0),))
        shifted = minkowski_sum(triangle, point)
        assert cyclic_equal(shifted.vertices, [(2, 3), (3, 3), (2, 4)])

    def test_commutes(self):
        a = random_polygon(5, 6)
        b = random_polygon(6, 9)
        assert cyclic_equal(minkowski_sum(a, b).vertices, minkowski_sum(b, a).vertices, tol=1e-9)

    def test_degenerate_rejected(self, triangle):
        segment = ConvexBody(kind="polygon2d", vertices=((0.0, 0.0), (1.0, 0.0)))
        with pytest.raises(GeometryError):
            minkowski_sum(triangle, segment)

    def test_area_superadditive(self):
        # Brunn-Minkowski corollary on random polygon pairs
        for seed in range(20):
            a = random_polygon(seed, 7)
            b = random_polygon(seed + 50, 7)
            assert area(minkowski_sum(a, b)) >= area(a) + area(b) - 1e-9


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
