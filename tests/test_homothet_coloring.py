import math
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convex_chroma.constructions import grid_family, pentagon_family, random_family
from convex_chroma.covering import (
    BOUNDARY_SAMPLES,
    CoveringCertificate,
    difference_certificate,
    known_certificate,
)
from convex_chroma.families import Family, translates
from convex_chroma.geometry import (
    TOL,
    ConvexBody,
    GeometryError,
    Placement,
    _shape,
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
    PiercingAssignment,
    clique_partition_homothets,
    color_homothets,
    pierce_intersecting_smallest,
    size_order,
    symmetrized_certificate,
    symmetrized_family,
)
from convex_chroma.reports import PartitionReport
from conftest import family_of


@pytest.fixture(scope="module")
def square_cert():
    return known_certificate(ConvexBody.unit_square())


@pytest.fixture(scope="module")
def disk_cert():
    return known_certificate(ConvexBody.disk())


def nested_squares(k: int) -> Family:
    return family_of(ConvexBody.unit_square(), (((0.0, 0.0), 1.0 + 0.5 * i) for i in range(k)))


class TestSizeOrder:
    def test_sorted_with_index_ties(self, unit_square):
        fam = family_of(unit_square, [((0, 0), 2.0), ((1, 0), 1.0), ((2, 0), 1.0)])
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
            c = fam.centers()[member]
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
        fam = family_of(disk, ((p.center, p.scale) for p in placements))
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
    return CoveringCertificate(target=body, unit=body, translations=((1e3,) * body.dimension,),
                               kappa_ub=1)


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

        def rejects_everything(self, centers, scales, pts):
            nonlocal calls
            calls += 1
            assert calls < 1000, "the fallback loop makes no progress"
            return np.zeros(pts.shape[:2], dtype=bool)

        monkeypatch.setattr(type(_shape(triangle)), "contains", rejects_everything)
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
        fam = family_of(disk, (((0.0, 0.0), 1.0 + 0.3 * i) for i in range(6)))
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
        assert np.array_equal(k_fam.centers(), fam.centers())
        assert np.array_equal(k_fam.scales(), fam.scales())
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
        fam = family_of(unit_square, [((0, 0), 1.0), ((1, 1), 2.0)])
        with pytest.raises(GeometryError, match="symmetrized method"):
            symmetrized_family(fam)

    def test_determinism(self, disk):
        fam = random_family(disk, 12, (0, 4), seed=77)
        a = color_homothets(*symmetrized_family(fam), omega=3)
        b = color_homothets(*symmetrized_family(fam), omega=3)
        assert a == b


# The per-member piercing rounds that `_pierce_rounds` replaced, verbatim:
# one `point_margins` closure per member of each round, one round at a time.

def reference_size_order(family: Family) -> tuple[int, ...]:
    scales = family.scales()
    return tuple(sorted(range(len(family)), key=lambda i: (scales[i], i)))


def reference_corners(body, center, scale) -> list[np.ndarray]:
    if body.kind != "box":
        return []
    half = scale * np.asarray(body.sides) / 2.0
    n = len(body.sides)
    return [
        center + np.array([1.0 if (mask >> d) & 1 else -1.0 for d in range(n)]) * half
        for mask in range(1 << n)
    ]


def reference_member_contains(body, center, scale, pts) -> np.ndarray:
    return _shape(body).point_margins(scale, pts)(center) >= -TOL


def reference_pierce_intersecting_smallest(family, members, cert) -> PiercingAssignment:
    if not members:
        raise ValueError("pierce_intersecting_smallest needs a non-empty subfamily")
    body = family.body
    scales = family.scales()
    centers = family.centers()
    smallest = min(members, key=lambda i: (scales[i], i))
    p1 = centers[smallest]
    lam1 = scales[smallest]

    candidates = reference_corners(body, p1, lam1)
    candidates.extend(p1 + lam1 * np.asarray(v) for v in cert.translations)

    cand = np.array(candidates)
    assignment: dict[int, int] = {}
    for i in sorted(members):
        inside = reference_member_contains(body, centers[i], scales[i], cand)
        hit = int(np.argmax(inside)) if inside.any() else -1
        if hit >= 0:
            assignment[i] = hit
    fallback_used = len(assignment) < len(members)
    points = [tuple(float(x) for x in c) for c in candidates]
    if fallback_used:
        seed_point = _shape(body).seed_point()
        unassigned = [i for i in sorted(members) if i not in assignment]
        while unassigned:
            m = min(unassigned, key=lambda i: (scales[i], i))
            q = centers[m] + scales[m] * seed_point
            points.append(tuple(float(x) for x in q))
            idx = len(points) - 1
            for i in list(unassigned):
                if reference_member_contains(body, centers[i], scales[i], q[None, :])[0]:
                    assignment[i] = idx
                    unassigned.remove(i)
            if m not in assignment:
                raise ConsistencyError(f"member {m} does not contain its own seed point")

    member_tuple = tuple(sorted(members))
    return PiercingAssignment(
        members=member_tuple,
        points=tuple(points),
        assignment=tuple(assignment[i] for i in member_tuple),
        fallback_used=fallback_used,
    )


def reference_merge_clique_classes(g, classes):
    merged = []
    for cls in sorted(classes, key=lambda c: min(c)):
        for target in merged:
            if g.matrix[np.ix_(cls, target)].all():
                target.extend(cls)
                break
        else:
            merged.append(sorted(cls))
    return merged


def reference_clique_partition_homothets(family, cert, nu=None, graph=None) -> PartitionReport:
    g = graph if graph is not None else build_graph(family)
    n = len(family)
    order = iter(reference_size_order(family))
    remaining = set(range(n))
    assign = [0] * n
    piercing_points = []
    representatives = []
    fallback_any = False
    rounds = 0
    last_round_classes = 0
    next_class = 0
    while remaining:
        rep = next(i for i in order if i in remaining)
        sub = sorted(remaining.intersection(np.flatnonzero(g.matrix[rep]).tolist()) | {rep})
        piercing = reference_pierce_intersecting_smallest(family, sub, cert)
        fallback_any = fallback_any or piercing.fallback_used
        used_points = sorted(set(piercing.assignment))
        piercing_points.extend(piercing.points[p] for p in used_points)
        classes = reference_merge_clique_classes(g, piercing.classes())
        for cls in classes:
            for member in cls:
                assign[member] = next_class
            next_class += 1
        last_round_classes = len(classes)
        representatives.append(rep)
        remaining -= set(sub)
        rounds += 1

    if g.matrix[np.ix_(representatives, representatives)].any():
        raise ConsistencyError("greedy round representatives must be pairwise disjoint")

    if nu is not None:
        bound = cert.kappa_ub * (nu - 1) + 1 if n else 0
        basis = "kappa*(nu-1)+1"
    else:
        bound = cert.kappa_ub * max(rounds - 1, 0) + last_round_classes
        basis = "kappa*(rounds-1)+last"
    return PartitionReport(
        method="theorem2",
        classes_assign=tuple(assign),
        classes_used=next_class,
        bound_value=bound,
        bound_basis=basis,
        nu_used=rounds,
        kappa_ub=cert.kappa_ub,
        rounds=rounds,
        last_round_classes=last_round_classes,
        piercing_points=tuple(piercing_points),
        piercing_points_used=len(piercing_points),
        fallback_used=fallback_any,
    )


ROUND_BODIES = {
    "square": ConvexBody.unit_square(),
    "disk": ConvexBody.disk(),
    "triangle": ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]),
    "thin-quadrilateral": ConvexBody.polygon([(0, 0), (3, 0.2), (3.1, 0.5), (0.2, 0.4)]),
    "regular-pentagon": ConvexBody.polygon(
        [(math.cos(0.3 + 2 * math.pi * k / 5), math.sin(0.3 + 2 * math.pi * k / 5))
         for k in range(5)]),
    "box-3d": ConvexBody.box((1.0, 0.5, 2.0)),
}


@lru_cache(maxsize=None)
def round_certificate(body: ConvexBody) -> CoveringCertificate:
    return difference_certificate(body, body, 20_000)


def assert_rounds_match_the_reference(family: Family, cert: CoveringCertificate) -> PartitionReport:
    g = build_graph(family)
    assert size_order(family) == reference_size_order(family)
    for nu in (None, 3):
        got = clique_partition_homothets(family, cert, nu=nu, graph=g)
        assert got == reference_clique_partition_homothets(family, cert, nu=nu, graph=g)
    if len(family):
        smallest = size_order(family)[0]
        sub = [smallest, *np.flatnonzero(g.matrix[smallest]).tolist()]
        assert (pierce_intersecting_smallest(family, sub, cert)
                == reference_pierce_intersecting_smallest(family, sub, cert))
    return got


@st.composite
def round_families(draw) -> Family:
    """Mixed-scale (0.3-2) families of 0 to 150 members: dyadic lattice
    centers and scales, where exact tangencies are common, or uniform ones."""
    body = ROUND_BODIES[draw(st.sampled_from(sorted(ROUND_BODIES)))]
    n = draw(st.integers(min_value=0, max_value=150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    side = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) * math.sqrt(max(n, 1))
    size = (n, body.dimension)
    if draw(st.booleans()):
        centers = rng.integers(0, int(4 * side) + 1, size=size) / 4.0
        scales = rng.integers(1, 5, size=n) / 2.0
    else:
        centers = rng.uniform(0.0, side, size=size)
        scales = rng.uniform(0.3, 2.0, size=n)
    return Family(body, centers, scales)


class TestRoundsMatchTheReference:
    """`clique_partition_homothets` and `pierce_intersecting_smallest` give the
    per-member reference's results exactly: same rounds, points and classes."""

    @settings(max_examples=200)
    @given(round_families(), st.booleans())
    def test_random_families(self, family, far):
        cert = far_certificate(family.body) if far else round_certificate(family.body)
        assert_rounds_match_the_reference(family, cert)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", sorted(set(ROUND_BODIES) - {"box-3d"}))
    def test_tangent_grids(self, name, m):
        body = ROUND_BODIES[name]
        assert_rounds_match_the_reference(grid_family(body, m), round_certificate(body))

    def test_tangent_3d_grid(self):
        body = ROUND_BODIES["box-3d"]
        assert_rounds_match_the_reference(grid_family(body, 2), round_certificate(body))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pentagon_constructions(self, k):
        family = pentagon_family(k)
        assert_rounds_match_the_reference(family, round_certificate(family.body))

    def test_nested_disks(self):
        disk = ROUND_BODIES["disk"]
        family = family_of(disk, (((0.1 * i, 0.0), 1.0 + 0.1 * i) for i in range(12)))
        rep = assert_rounds_match_the_reference(family, round_certificate(disk))
        assert rep.rounds == 1

    @pytest.mark.parametrize("name", ["triangle", "thin-quadrilateral", "regular-pentagon"])
    def test_symmetrized_translates(self, name):
        body = ROUND_BODIES[name]
        for family in (grid_family(body, 2), random_family(body, 60, (0, 6), seed=3)):
            k_family, cert = symmetrized_family(family, samples=20_000)
            assert_rounds_match_the_reference(k_family, cert)

    @pytest.mark.parametrize("name", sorted(ROUND_BODIES))
    def test_far_certificate(self, name):
        # a box's corners pierce every round; any other body falls back in each
        body = ROUND_BODIES[name]
        family = random_family(body, 80, (0, 8), scale_range=(0.3, 2), seed=5)
        rep = assert_rounds_match_the_reference(family, far_certificate(body))
        assert rep.fallback_used == (body.kind != "box")


@pytest.mark.parametrize("name", ["square", "disk", "box-3d"])
def test_a_partition_without_fallback_makes_one_kernel_call(name, monkeypatch):
    body = ROUND_BODIES[name]
    family = random_family(body, 120, (0, 8), scale_range=(0.3, 2), seed=2)
    kernel = type(_shape(body)).contains
    calls = []

    def counted(self, centers, scales, pts):
        calls.append(len(centers))
        return kernel(self, centers, scales, pts)

    monkeypatch.setattr(type(_shape(body)), "contains", counted)
    rep = clique_partition_homothets(family, known_certificate(body))
    assert not rep.fallback_used and rep.rounds > 10
    assert calls == [len(family)]
