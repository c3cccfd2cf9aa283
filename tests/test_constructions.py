import json
import math

import numpy as np
import pytest

from convex_chroma.constructions import (
    explicit_pentagon_coloring,
    grid_family,
    pentagon_disjoint_family,
    pentagon_family,
    random_family,
    volume_ratio_bounds,
)
from convex_chroma.families import (
    Family,
    dumps_family,
    family_digest,
    load_family,
    save_family,
)
from convex_chroma.geometry import GeometryError, Placement, pair_margin
from convex_chroma.graph_core import (
    build_graph,
    chromatic_number,
    clique_cover_number,
    max_clique,
    max_independent_set,
    verify_coloring,
)


class TestGridFamily:
    def test_m1_single_member(self, unit_square):
        fam = grid_family(unit_square, 1)
        assert len(fam) == 1
        assert fam.centers().tolist() == [[1.0, 1.0]]

    def test_m2_square_invariants(self, unit_square):
        fam = grid_family(unit_square, 2)
        assert len(fam) == 16
        g = build_graph(fam)
        assert max_clique(g).value == 9
        assert max_independent_set(g).value == 4
        assert chromatic_number(g).value == 9
        assert clique_cover_number(g).value == 4

    def test_disk_grid_oracles(self, disk):
        fam = grid_family(disk, 2)
        assert len(fam) == 16
        g = build_graph(fam)
        omega = max_clique(g).value
        nu = max_independent_set(g).value
        assert omega >= 1 and nu >= 1
        assert omega <= chromatic_number(g).value or True  # chain checked in invariants

    def test_member_count_formula(self, unit_square):
        for m in (1, 2, 3):
            assert len(grid_family(unit_square, m)) == m ** 4

    def test_cap(self, unit_square):
        with pytest.raises(ValueError):
            grid_family(unit_square, 10, member_cap=1000)


class TestPentagonFamilies:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_blowup_invariants(self, k):
        fam = pentagon_family(k)
        assert len(fam) == 5 * k
        g = build_graph(fam)
        assert max_clique(g).value == 2 * k
        assert chromatic_number(g).value == math.ceil(5 * k / 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_disjoint_invariants(self, k):
        fam = pentagon_disjoint_family(k)
        g = build_graph(fam)
        assert max_independent_set(g).value == 2 * k
        assert clique_cover_number(g).value == 3 * k

    def test_adjacency_is_exact_blowup(self):
        fam = pentagon_family(4)
        g = build_graph(fam)
        for i in range(20):
            for j in range(i + 1, 20):
                gi, gj = i // 4, j // 4
                expected = gi == gj or (gj - gi) in (1, 4) and abs(gj - gi) in (1, 4)
                expected = gi == gj or (gj - gi) % 5 in (1, 4)
                assert g.adjacent(i, j) == expected

    def test_bad_geometry_detected(self):
        with pytest.raises(GeometryError):
            pentagon_family(2, circumradius=2.0)  # consecutive squares no longer meet

    @pytest.mark.parametrize("k,spacing", [(2, 1.0), (3, 2.5), (4, 0.0)])
    def test_disjoint_copies_too_close_detected(self, k, spacing):
        with pytest.raises(GeometryError, match="pairwise disjoint"):
            pentagon_disjoint_family(k, spacing=spacing)

    def test_jitter_keeps_members_distinct(self):
        fam = pentagon_family(3)
        assert len({*map(tuple, fam.centers().tolist())}) == 15


class TestExplicitColoring:
    @pytest.mark.parametrize("k,expected", [(1, 3), (2, 5), (4, 10)])
    def test_color_counts(self, k, expected):
        colors = explicit_pentagon_coloring(k)
        assert len(set(colors)) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 20, 50])
    def test_proper_and_exact_count(self, k):
        fam = pentagon_family(k)
        colors = explicit_pentagon_coloring(k)
        assert len(set(colors)) == math.ceil(5 * k / 2)
        assert verify_coloring(build_graph(fam), list(colors))

    def test_groups_get_distinct_colors(self):
        colors = explicit_pentagon_coloring(7)
        for group in range(5):
            block = colors[group * 7:(group + 1) * 7]
            assert len(set(block)) == 7


class TestVolumeRatioBounds:
    def test_square_m2(self, unit_square):
        rep = volume_ratio_bounds(grid_family(unit_square, 2))
        assert rep.omega == 9
        assert rep.bound == pytest.approx(16 / 9)
        assert rep.theta == 4
        assert rep.consistent

    def test_square_m1(self, unit_square):
        rep = volume_ratio_bounds(grid_family(unit_square, 1))
        assert rep.bound == pytest.approx(1.0)
        assert rep.theta == 1

    def test_disk_m2(self, disk):
        rep = volume_ratio_bounds(grid_family(disk, 2))
        assert rep.bound == pytest.approx(16 / rep.omega)
        assert rep.theta is not None and rep.consistent


class TestRandomFamily:
    def test_single_member(self, unit_square):
        fam = random_family(unit_square, 1, (0, 5), seed=123)
        assert len(fam) == 1

    def test_determinism(self, disk):
        a = random_family(disk, 20, (0, 6), scale_range=(1, 2), seed=42)
        b = random_family(disk, 20, (0, 6), scale_range=(1, 2), seed=42)
        assert np.array_equal(a.centers(), b.centers())
        assert np.array_equal(a.scales(), b.scales())

    def test_margin_scan(self, unit_square):
        fam = random_family(unit_square, 20, (0, 5), seed=42)
        members = [Placement(tuple(c), s) for c, s in zip(fam.centers(), fam.scales())]
        worst = min(
            abs(pair_margin(unit_square, members[i], members[j]))
            for i in range(20) for j in range(i + 1, 20)
        )
        assert worst >= 0.05

    def test_rejection_budget_error(self, unit_square):
        # margin 5 is unachievable inside a width-5 window, so the second
        # member must burn the whole resample budget
        with pytest.raises(GeometryError):
            random_family(unit_square, 2, (0, 5), seed=0, margin=5.0)

    @pytest.mark.parametrize("window, scale_range", [
        ((0, math.inf), (1, 1)), ((math.nan, 5), (1, 1)), ((0, 5), (-1, 1)),
        ((0, 5), (1, math.inf)), ((0, 5), (math.nan, 1)),
    ], ids=["infinite-window", "nan-window", "negative-scale", "infinite-scale", "nan-scale"])
    def test_invalid_ranges_rejected_before_any_draw(self, unit_square, window, scale_range):
        with pytest.raises(GeometryError, match="finite window"):
            random_family(unit_square, 1000, window, scale_range=scale_range)


class TestFamilyIO:
    def test_round_trip_byte_stable(self, tmp_path, triangle):
        fam = random_family(triangle, 7, (0, 4), seed=5)
        path = tmp_path / "fam.json"
        save_family(fam, path)
        again = load_family(path)
        assert dumps_family(again) == dumps_family(fam)
        assert family_digest(again) == family_digest(fam)

    def test_dimension_mismatch(self, unit_square):
        with pytest.raises(GeometryError):
            Family(unit_square, [(0, 0, 0)], [1.0])

    @pytest.mark.parametrize("centers", [[(0, 0), (0, 0, 0)], [[[0], [0]]], [0, 0], [[]],
                                         np.zeros((0, 3))],
                             ids=["ragged", "nested", "flat", "no-coordinates",
                                  "empty-of-another-dimension"])
    def test_centers_of_another_shape_name_the_dimension(self, unit_square, centers):
        with pytest.raises(GeometryError, match="dimension"):
            Family(unit_square, centers, [1.0] * len(centers))

    @pytest.mark.parametrize("centers, scales", [
        ([(0, float("nan"))], [1.0]), ([(float("inf"), 0)], [1.0]),
        ([(0, 0)], [0.0]), ([(0, 0)], [-1.0]), ([(0, 0)], [float("inf")]),
        ([(0, 0)], [float("nan")]), ([(0, 0)], [1.0, 1.0]),
        ([["1", True]], ["2"]), ([(1, True)], [2]), ([(1, 0)], [True]), ([(1, 0)], ["2"]),
        (np.array([["1", "0"]]), [2]), (np.array([[True, False]]), [2]),
        ([(1, 0)], np.array([True])), ([(np.bool_(True), 0)], [2]),
    ], ids=["nan-center", "infinite-center", "zero-scale", "negative-scale",
            "infinite-scale", "nan-scale", "extra-scale", "strings-and-bool", "bool-coordinate",
            "bool-scale", "string-scale", "string-array", "bool-array", "bool-scale-array",
            "numpy-bool"])
    def test_invalid_members_rejected(self, unit_square, centers, scales):
        with pytest.raises(GeometryError):
            Family(unit_square, centers, scales)

    def test_numpy_numbers_are_numbers(self, unit_square):
        rows = [tuple(np.array([1, 0])), np.array([0.5, 2.0], dtype=np.float32)]
        fam = Family(unit_square, rows, np.array([2, 3], dtype=np.uint8))
        assert fam.centers().tolist() == [[1.0, 0.0], [0.5, 2.0]]
        assert fam.scales().tolist() == [2.0, 3.0]

    def test_members_are_read_only_float_copies(self, unit_square):
        centers, scales = np.array([[0, 0], [1, 2]]), [1, 2]
        fam = Family(unit_square, centers, scales)
        centers[0, 0] = 5
        assert fam.centers().tolist() == [[0.0, 0.0], [1.0, 2.0]]
        assert fam.scales().tolist() == [1.0, 2.0]
        for arr in (fam.centers(), fam.scales()):
            assert arr.dtype == float and not arr.flags.writeable
        members = [Placement(tuple(c), s) for c, s in zip(fam.centers().tolist(), fam.scales())]
        assert members == [Placement((0, 0), 1), Placement((1, 2), 2)]
        assert len(fam) == 2 and not fam.is_translate_family

    def test_empty_family(self, unit_square):
        fam = Family(unit_square, [], [])
        assert len(fam) == 0 and fam.is_translate_family and fam.centers().shape == (0, 2)
        assert Family.from_json(json.loads(dumps_family(fam))).centers().shape == (0, 2)
