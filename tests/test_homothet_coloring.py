import time

import numpy as np
import pytest

from convex_chroma import homothet_coloring
from convex_chroma.constructions import random_family
from convex_chroma.covering import BOUNDARY_SAMPLES, CoveringCertificate, known_certificate
from convex_chroma.families import Family, translates
from convex_chroma.geometry import (
    ConvexBody,
    GeometryError,
    Placement,
    homothets_intersect,
    symmetrize,
)
from convex_chroma.graph_core import (
    ConsistencyError,
    build_graph,
    clique_cover_number,
    max_clique,
    max_independent_set,
    verify_clique_partition,
    verify_coloring,
)
from convex_chroma.homothet_coloring import (
    clique_partition_homothets,
    color_homothets,
    pierce_intersecting_smallest,
    size_order,
    symmetrized_certificate,
    symmetrized_family,
)


@pytest.fixture(scope="module")
def square_cert():
    return known_certificate(ConvexBody.unit_square())


@pytest.fixture(scope="module")
def disk_cert():
    return known_certificate(ConvexBody.disk())


def nested_squares(k: int) -> Family:
    return Family(
        body=ConvexBody.unit_square(),
        placements=tuple(Placement((0.0, 0.0), 1.0 + 0.5 * i) for i in range(k)),
    )


class TestSizeOrder:
    def test_sorted_with_index_ties(self, unit_square):
        fam = Family(body=unit_square, placements=(
            Placement((0, 0), 2.0), Placement((1, 0), 1.0), Placement((2, 0), 1.0),
        ))
        assert size_order(fam) == (1, 2, 0)


class TestColorHomothets:
    def test_nested_squares_use_exactly_k_colors(self, square_cert):
        fam = nested_squares(5)
        g = build_graph(fam)
        rep = color_homothets(fam, square_cert, omega=5, graph=g)
        assert rep.colors_used == 5
        assert verify_coloring(g, list(rep.colors))

    def test_disjoint_disks_single_color(self, disk, disk_cert):
        fam = translates(disk, [(0, 0), (5, 0), (10, 0)])
        rep = color_homothets(fam, disk_cert)
        assert rep.colors_used == 1

    def test_seeded_square_homothets_within_bound(self, unit_square, square_cert):
        fam = random_family(unit_square, 30, (0, 9), scale_range=(1, 3), seed=13)
        g = build_graph(fam)
        omega = max_clique(g).value
        rep = color_homothets(fam, square_cert, omega=omega, graph=g)
        assert verify_coloring(g, list(rep.colors))
        assert rep.colors_used <= 4 * (omega - 1) + 1
        assert rep.back_degree_max <= 4 * (omega - 1)

    def test_degeneracy_bound_without_omega(self, unit_square, square_cert):
        fam = random_family(unit_square, 15, (0, 6), scale_range=(1, 2), seed=21)
        rep = color_homothets(fam, square_cert)
        assert rep.bound_basis == "degeneracy+1"
        assert rep.colors_used <= rep.bound_value


class TestPiercing:
    def test_nested_squares_single_clique(self, square_cert):
        fam = nested_squares(4)
        piercing = pierce_intersecting_smallest(fam, [0, 1, 2, 3], square_cert)
        assert not piercing.fallback_used
        assert len(piercing.classes()) == 1

    def test_equal_squares_corner_piercing(self, unit_square, square_cert):
        centers = [(0, 0), (0.8, 0.3), (-0.6, -0.7), (0.2, 0.9), (-0.9, 0.4)]
        fam = translates(unit_square, centers)
        piercing = pierce_intersecting_smallest(fam, list(range(5)), square_cert)
        assert not piercing.fallback_used
        assert len(piercing.classes()) <= 4
        # every member geometrically contains its assigned point
        for member, pidx in zip(piercing.members, piercing.assignment):
            point = np.asarray(piercing.points[pidx])
            c = np.asarray(fam.placements[member].center)
            assert (np.abs(point - c) <= 0.5 + 1e-9).all()

    def test_disks_within_seven_cliques(self, disk, disk_cert):
        rng = np.random.default_rng(4)
        placements = [Placement((0.0, 0.0), 1.0)]
        while len(placements) < 20:
            center = tuple(rng.uniform(-2.5, 2.5, 2))
            scale = float(rng.uniform(1.0, 2.0))
            cand = Placement(center, scale)
            if homothets_intersect(disk, placements[0], cand):
                placements.append(cand)
        fam = Family(body=disk, placements=tuple(placements))
        piercing = pierce_intersecting_smallest(fam, list(range(20)), disk_cert)
        assert not piercing.fallback_used
        assert len(piercing.classes()) <= 7

    def test_classes_are_cliques(self, disk, disk_cert):
        fam = random_family(disk, 15, (0, 4), scale_range=(1, 2), seed=31)
        g = build_graph(fam)
        smallest = size_order(fam)[0]
        sub = [i for i in range(15) if i == smallest or g.adjacent(smallest, i)]
        piercing = pierce_intersecting_smallest(fam, sub, disk_cert)
        for cls in piercing.classes():
            for a in range(len(cls)):
                for b in range(a + 1, len(cls)):
                    assert g.adjacent(cls[a], cls[b])

    def test_theta_at_most_points_used(self, unit_square, square_cert):
        fam = random_family(unit_square, 12, (0, 3), scale_range=(1, 2), seed=8)
        g = build_graph(fam)
        smallest = size_order(fam)[0]
        sub = [i for i in range(12) if i == smallest or g.adjacent(smallest, i)]
        piercing = pierce_intersecting_smallest(fam, sub, square_cert)
        theta_sub = clique_cover_number(g.subgraph(sub)).value
        assert theta_sub <= len(set(piercing.assignment))

    def test_empty_subfamily_rejected(self, unit_square, square_cert):
        fam = translates(unit_square, [(0, 0)])
        with pytest.raises(ValueError):
            pierce_intersecting_smallest(fam, [], square_cert)


def far_certificate(body: ConvexBody) -> CoveringCertificate:
    """A certificate whose one translation pierces no member near the origin."""
    return CoveringCertificate(target=body, unit=body, translations=((1e3, 1e3),), kappa_ub=1)


class TestPiercingFallback:
    @pytest.mark.parametrize("body", [ConvexBody.disk(),
                                      ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])],
                             ids=["disk", "triangle"])
    def test_far_certificate_falls_back_on_every_member(self, body):
        fam = random_family(body, 20, (0, 5), scale_range=(0.5, 2), seed=9)
        g = build_graph(fam)
        cert = far_certificate(body)
        smallest = size_order(fam)[0]
        sub = [i for i in range(20) if i == smallest or g.adjacent(smallest, i)]
        piercing = pierce_intersecting_smallest(fam, sub, cert)
        assert piercing.fallback_used and 0 not in piercing.assignment
        rep = clique_partition_homothets(fam, cert, graph=g)
        assert rep.fallback_used
        assert verify_clique_partition(g, list(rep.classes_assign))

    def test_member_missing_its_seed_point_raises(self, triangle, monkeypatch):
        calls = 0

        def rejects_everything(body, center, scale, pts):
            nonlocal calls
            calls += 1
            assert calls < 1000, "the fallback loop makes no progress"
            return np.zeros(len(pts), dtype=bool)

        monkeypatch.setattr(homothet_coloring, "_member_contains", rejects_everything)
        fam = translates(triangle, [(0, 0), (0.2, 0.1), (0.1, 0.3)])
        t0 = time.perf_counter()
        with pytest.raises(ConsistencyError):
            pierce_intersecting_smallest(fam, [0, 1, 2], far_certificate(triangle))
        assert time.perf_counter() - t0 < 1.0


class TestCliquePartitionHomothets:
    def test_three_disjoint_squares(self, unit_square, square_cert):
        fam = translates(unit_square, [(0, 0), (5, 0), (10, 0)])
        rep = clique_partition_homothets(fam, square_cert)
        assert rep.rounds == 3 and rep.classes_used == 3

    def test_nested_disks_one_round(self, disk, disk_cert):
        fam = Family(body=disk, placements=tuple(
            Placement((0.0, 0.0), 1.0 + 0.3 * i) for i in range(6)
        ))
        rep = clique_partition_homothets(fam, disk_cert)
        assert rep.rounds == 1 and rep.classes_used == 1

    def test_seeded_squares_within_bound(self, unit_square, square_cert):
        fam = random_family(unit_square, 25, (0, 8), scale_range=(1, 3), seed=17)
        g = build_graph(fam)
        nu = max_independent_set(g).value
        rep = clique_partition_homothets(fam, square_cert, nu=nu, graph=g)
        assert verify_clique_partition(g, list(rep.classes_assign))
        assert rep.classes_used <= 4 * (nu - 1) + 1
        assert rep.rounds <= nu
        assert not rep.fallback_used

    def test_round_count_bounds_nu(self, disk, disk_cert):
        for seed in range(5):
            fam = random_family(disk, 20, (0, 7), scale_range=(1, 2), seed=40 + seed)
            g = build_graph(fam)
            rep = clique_partition_homothets(fam, disk_cert, graph=g)
            assert rep.rounds <= max_independent_set(g).value
            assert verify_clique_partition(g, list(rep.classes_assign))

    def test_eq5_theta_at_most_piercing_points(self, unit_square, square_cert):
        fam = random_family(unit_square, 20, (0, 6), scale_range=(1, 2), seed=55)
        g = build_graph(fam)
        rep = clique_partition_homothets(fam, square_cert, graph=g)
        theta = clique_cover_number(g).value
        assert theta <= rep.piercing_points_used


class TestSymmetrizedPath:
    """Corollary 1 as Theorem 2 on the K-translates of symmetrized_family."""

    def test_square_kappa_four(self, unit_square):
        fam = random_family(unit_square, 15, (0, 5), seed=3)
        g = build_graph(fam)
        omega = max_clique(g).value
        k_fam, cert = symmetrized_family(fam)
        rep = color_homothets(k_fam, cert, omega=omega, graph=g)
        assert rep.kappa_ub == 4
        assert rep.bound_value == 4 * (omega - 1) + 1
        assert rep.colors_used <= rep.bound_value
        assert verify_coloring(g, list(rep.colors))

    def test_triangle_hexagon_same_graph(self, triangle):
        fam = random_family(triangle, 20, (0, 5), seed=6)
        k_fam, cert = symmetrized_family(fam)
        assert k_fam.body == symmetrize(triangle) == cert.unit
        assert k_fam.placements == fam.placements
        g = build_graph(fam)
        assert g.rows == build_graph(k_fam).rows
        assert cert == symmetrized_certificate(triangle)
        rep = color_homothets(k_fam, cert, omega=max_clique(g).value, graph=g)
        assert verify_coloring(g, list(rep.colors))
        assert rep.colors_used <= rep.bound_value

    def test_samples_reach_the_certificate(self, triangle):
        cert = symmetrized_certificate(triangle, samples=20_000)
        assert cert.verified_samples == 20_000 + BOUNDARY_SAMPLES
        _, cert = symmetrized_family(translates(triangle, [(0, 0)]), samples=20_000)
        assert cert.verified_samples == 20_000 + BOUNDARY_SAMPLES

    def test_single_member(self, triangle):
        k_fam, cert = symmetrized_family(translates(triangle, [(0, 0)]))
        rep = color_homothets(k_fam, cert, omega=1)
        assert rep.colors_used == 1

    def test_rejects_homothets(self, unit_square):
        fam = Family(body=unit_square, placements=(
            Placement((0, 0), 1.0), Placement((1, 1), 2.0),
        ))
        with pytest.raises(GeometryError, match="symmetrized method"):
            symmetrized_family(fam)

    def test_determinism(self, disk):
        fam = random_family(disk, 12, (0, 4), seed=77)
        a = color_homothets(*symmetrized_family(fam), omega=3)
        b = color_homothets(*symmetrized_family(fam), omega=3)
        assert a == b
