import math
import sys

import numpy as np
import pytest

from convex_chroma.constructions import grid_family, pentagon_family, random_family
from convex_chroma.families import Family, translates
from convex_chroma.geometry import (
    ConsistencyError,
    ConvexBody,
    GeometryError,
    Placement,
    homothets_intersect,
    pair_margin,
    pairwise_adjacency,
)
from convex_chroma.graph_core import (
    build_graph,
    max_clique,
    max_independent_set,
    verify_clique_partition,
    verify_coloring,
)
from convex_chroma.translate_coloring import (
    BoundParams,
    NormalizedFamily,
    Offsets,
    PosetClass,
    antichain_partition,
    build_poset,
    chain_partition,
    choose_offsets,
    clique_partition_translates,
    color_translates,
    decompose,
    normalize,
)
from conftest import strip_family


def make_normalized(refs: np.ndarray, params: BoundParams, family=None) -> NormalizedFamily:
    n = params.n
    return NormalizedFamily(
        family=family if family is not None else translates(ConvexBody.box((1.0,) * n), []),
        matrix=np.eye(n),
        refs=np.asarray(refs, dtype=float).reshape(-1, n),
        params=params,
    )


class TestBoundParams:
    def test_square_regime(self):
        p = BoundParams.from_ratio(2, 1.0)
        assert (p.M, p.c, p.t_bound) == (2, 1, 2)

    def test_triangle_matches_paper_factor(self):
        p = BoundParams.from_ratio(2, 2.0)
        assert (p.M, p.c, p.t_bound) == (3, 2, 6)  # t_2 = (n+1)^(n-1) * ceil((n+1)/2)

    def test_disk_keeps_disjointness_arithmetic(self):
        # sqrt(2) ratio forces M = 3, c = 2: both M-1 >= r and 2c-1 >= r hold
        p = BoundParams.from_ratio(2, math.sqrt(2))
        assert (p.M, p.c, p.t_bound) == (3, 2, 6)
        assert p.M - 1 >= p.r
        assert 2 * p.c - 1 >= p.r

    def test_ratio_at_most_n_stays_below_tn(self):
        for r in np.linspace(1.0, 2.0, 21):
            p = BoundParams.from_ratio(2, float(r))
            assert p.t_bound <= 6

    def test_boxes_in_higher_dimension(self):
        p = BoundParams.from_ratio(3, 1.0)
        assert (p.M, p.c, p.t_bound) == (2, 1, 4)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            BoundParams.from_ratio(2, 0.5)


class TestNormalize:
    def test_unit_square_identity(self, unit_square):
        fam = translates(unit_square, [(0, 0), (2, 1)])
        nf = normalize(fam)
        assert nf.params.r == 1.0
        assert np.allclose(nf.matrix, np.eye(2))
        assert np.allclose(nf.refs, fam.centers())

    def test_disk(self, disk):
        nf = normalize(translates(disk, [(0, 0)]))
        p = nf.params
        assert p.r == pytest.approx(math.sqrt(2))
        assert (p.M, p.c, p.t_bound) == (3, 2, 6)

    def test_triangle(self, triangle):
        nf = normalize(translates(triangle, [(0, 0)]))
        p = nf.params
        assert p.r == pytest.approx(2.0, abs=1e-6)
        assert (p.M, p.c, p.t_bound) == (3, 2, 6)

    def test_scaled_translates(self, unit_square):
        fam = Family(body=unit_square, placements=(Placement((0, 0), 2.0), Placement((3, 0), 2.0)))
        nf = normalize(fam)
        assert np.allclose(nf.refs, [[0, 0], [1.5, 0]])

    def test_rejects_homothets(self, unit_square):
        fam = Family(body=unit_square, placements=(Placement((0, 0), 1.0), Placement((3, 0), 2.0)))
        with pytest.raises(GeometryError):
            normalize(fam)

    def test_box_dimension_cap(self):
        fam = translates(ConvexBody.box((1,) * 7), [(0,) * 7])
        with pytest.raises(GeometryError):
            normalize(fam)

    def test_normalized_body_lies_in_ratio_cube(self, triangle):
        # every member's image must fit in an axis cube of side r anchored once
        nf = normalize(translates(triangle, [(0, 0)]))
        verts = np.array(triangle.vertices) @ nf.matrix.T
        spans = verts.max(axis=0) - verts.min(axis=0)
        assert (spans <= nf.params.r + 1e-6).all()


class TestChooseOffsets:
    def test_single_member(self, unit_square):
        nf = normalize(translates(unit_square, [(0, 0)]))
        off = choose_offsets(nf, seed=1)
        assert off.clearance >= 1e-6
        assert off.attempts >= 1

    def test_half_spaced_grid(self, unit_square):
        centers = [(i * 0.5, j * 0.5) for i in range(6) for j in range(6)]
        nf = normalize(translates(unit_square, centers))
        off = choose_offsets(nf, seed=0)
        assert off.clearance >= 1e-6
        dec = decompose(nf, off)
        assert len(dec.cells) == 36

    def test_adversarial_net_fails(self):
        # fractional parts form a 1.5e-6 net, so no offset clears 1e-6
        refs = np.arange(0.0, 1.0, 1.5e-6).reshape(-1, 1)
        nf = make_normalized(refs, BoundParams.from_ratio(1, 1.0))
        with pytest.raises(GeometryError):
            choose_offsets(nf, seed=0)

    def test_deterministic(self, unit_square):
        nf = normalize(translates(unit_square, [(0.3, 0.7), (1.1, 2.2)]))
        assert choose_offsets(nf, seed=5) == choose_offsets(nf, seed=5)


class TestDecompose:
    def test_worked_example(self):
        params = BoundParams.from_ratio(2, 1.0)  # M=2, c=1
        nf = make_normalized(np.array([[0.3, 2.7]]), params)
        off = Offsets(b=(0.0,), cell_offset=0.0, clearance=0.2, seed=0, attempts=1)
        dec = decompose(nf, off)
        assert dec.line_keys.tolist() == [[0]]
        assert dec.cells.tolist() == [3]
        assert dec.cell_residues.tolist() == [3 % params.c]
        assert [dec.block_of(key) for key in dec.classes()] == [((0,), 3 % params.c)]

    def test_distant_members_same_residue(self):
        params = BoundParams.from_ratio(2, 1.0)
        nf = make_normalized(np.array([[0.2, 0.0], [10.2, 0.0]]), params)
        off = Offsets(b=(0.0,), cell_offset=0.25, clearance=0.2, seed=0, attempts=1)
        dec = decompose(nf, off)
        assert dec.line_keys[0, 0] == 0 and dec.line_keys[1, 0] == 10
        assert [dec.block_of(key)[0] for key in dec.classes()] == [(0,), (0,)]

    def test_empty_family(self, unit_square):
        nf = normalize(translates(unit_square, []))
        dec = decompose(nf, choose_offsets(nf, seed=0))
        assert len(dec.cells) == 0
        assert dec.classes() == {}


class TestPoset:
    def test_stacked_chain(self, unit_square):
        fam = translates(unit_square, [(0, 0), (0, 2), (0, 4)])
        nf = normalize(fam)
        poset = build_poset([0, 1, 2], nf, build_graph(fam))
        chains = chain_partition(poset)
        assert len(chains) == 1 and len(chains[0]) == 3

    def test_intersecting_antichain(self, unit_square):
        fam = translates(unit_square, [(0, 0), (0.2, 0.1), (0.1, 0.3)])
        nf = normalize(fam)
        poset = build_poset([0, 1, 2], nf, build_graph(fam))
        assert not poset.relation.any()
        assert len(chain_partition(poset)) == 3
        assert len(antichain_partition(poset)) == 1

    def test_relation_matches_pairwise_oracle(self, unit_square):
        rng = np.random.default_rng(7)
        centers = [(float(x), float(y)) for x, y in rng.uniform(0, 3, size=(4, 2))]
        fam = translates(unit_square, centers)
        nf = normalize(fam)
        poset = build_poset([0, 1, 2, 3], nf, build_graph(fam))
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                disjoint = not homothets_intersect(
                    unit_square, fam.placements[a], fam.placements[b]
                )
                expected = disjoint and nf.refs[a, 1] < nf.refs[b, 1]
                assert poset.relation[a, b] == expected

    def test_total_order_partitions(self, unit_square):
        fam = translates(unit_square, [(0, 2 * i) for i in range(4)])
        nf = normalize(fam)
        poset = build_poset([0, 1, 2, 3], nf, build_graph(fam))
        assert len(antichain_partition(poset)) == 4
        assert len(chain_partition(poset)) == 1

    def test_chain_count_equals_class_clique_number(self, unit_square):
        for seed in range(15):
            fam = random_family(unit_square, 12, (0, 4), seed=seed)
            nf = normalize(fam)
            dec = decompose(nf, choose_offsets(nf, seed=seed))
            g = build_graph(fam)
            for key, members in dec.classes().items():
                poset = build_poset(members, nf, g)
                sub = g.subgraph(members)
                assert len(chain_partition(poset)) == max_clique(sub).value
                assert len(antichain_partition(poset)) == max_independent_set(sub).value

    @pytest.mark.parametrize("body,scale", [
        (ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]), 0.5),
        (ConvexBody.disk(), math.sqrt(2) / 4),
        (ConvexBody.polygon([(0, 0), (1, 0), (0.8, 0.6), (0.3, 1.0), (0.05, 0.5)]), 1.0),
    ], ids=["triangle", "disk", "irregular-5-gon"])
    def test_relation_matches_the_per_class_adjacency_on_tangent_grids(self, body, scale):
        grid = grid_family(body, 2)
        fam = Family(body=body, placements=tuple(Placement(tuple(c), scale)
                                                 for c in grid.centers()))
        nf = normalize(fam)
        g = build_graph(fam)
        tangent = 0
        for seed in range(8):
            for members in decompose(nf, choose_offsets(nf, seed=seed)).classes().values():
                tangent += sum(abs(pair_margin(body, fam.placements[a], fam.placements[b])) < 1e-12
                               for a in members for b in members if a < b)
                # the relation as built from one adjacency call per class
                last = nf.refs[members, 1]
                disjoint = ~pairwise_adjacency(body, fam.centers()[members],
                                               fam.scales()[members])
                np.fill_diagonal(disjoint, False)
                expected = disjoint & (last[:, None] < last[None, :])
                relation = build_poset(members, nf, g).relation
                assert relation.dtype == bool
                assert np.array_equal(relation, expected)
        assert tangent > 0   # some classes hold tangent pairs

    def test_intransitive_relation_rejected(self):
        rel = np.zeros((3, 3), dtype=bool)
        rel[0, 1] = rel[1, 2] = True  # missing 0 -> 2
        with pytest.raises(ConsistencyError):
            PosetClass(members=(0, 1, 2), relation=rel, last_coords=np.array([0.0, 1.0, 2.0]))


def _reference_chains(poset: PosetClass) -> list[list[int]]:
    """chain_partition's Kuhn matching as a recursive search over successors
    read from the relation one scalar at a time: the reference for the
    successor lists and for the explicit stack."""
    m, rel = len(poset.members), poset.relation.tolist()
    succ = [[v for v in range(m) if rel[u][v]] for u in range(m)]
    match_left, match_right = [-1] * m, [-1] * m

    def augment(u, visited):
        for v in succ[u]:
            if not visited[v]:
                visited[v] = True
                if match_right[v] == -1 or augment(match_right[v], visited):
                    match_right[v], match_left[u] = u, v
                    return True
        return False

    for u in range(m):
        augment(u, [False] * m)
    chains = []
    for v in range(m):
        if match_right[v] == -1:
            chain = [v]
            while match_left[chain[-1]] != -1:
                chain.append(match_left[chain[-1]])
            chains.append([poset.members[i] for i in chain])
    return sorted(chains, key=min)


def _reference_layers(poset: PosetClass) -> list[list[int]]:
    """antichain_partition's Mirsky layering, scanning each predecessor column."""
    m = len(poset.members)
    level = [0] * m
    for i in sorted(range(m), key=lambda i: (poset.last_coords[i], i)):
        preds = [level[j] for j in range(m) if poset.relation[j, i]]
        level[i] = 1 + max(preds) if preds else 0
    layers = [[] for _ in range(max(level) + 1 if m else 0)]
    for i in range(m):
        layers[level[i]].append(poset.members[i])
    return layers


class TestPartitionsMatchTheScalarReference:
    @pytest.mark.parametrize("body,scale", [
        (ConvexBody.unit_square(), 1.0),
        (ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]), 0.5),
        (ConvexBody.disk(), math.sqrt(2) / 4),
    ], ids=["square", "triangle", "disk"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_tangent_grids(self, body, scale, m):
        grid = grid_family(body, m)
        fam = Family(body=body, placements=tuple(Placement(tuple(c), scale)
                                                 for c in grid.centers()))
        nf = normalize(fam)
        g = build_graph(fam)
        for seed in range(3):
            for members in decompose(nf, choose_offsets(nf, seed=seed)).classes().values():
                poset = build_poset(members, nf, g)
                assert chain_partition(poset) == _reference_chains(poset)
                assert antichain_partition(poset) == _reference_layers(poset)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dominance_posets(self, seed):
        # i precedes j iff j dominates i in both coordinates: a strict partial
        # order whose first coordinate is a linear extension
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 80))
        pts = rng.random((m, 2))
        rel = (pts[:, None, 0] < pts[None, :, 0]) & (pts[:, None, 1] < pts[None, :, 1])
        poset = PosetClass(members=tuple(range(100, 100 + m)), relation=rel,
                           last_coords=pts[:, 0])
        assert chain_partition(poset) == _reference_chains(poset)
        assert antichain_partition(poset) == _reference_layers(poset)

    @pytest.mark.parametrize("name", ["square", "triangle"])
    def test_random_translate_families(self, name):
        body = (ConvexBody.unit_square() if name == "square"
                else ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]))
        fam = random_family(body, 150, (0, 6), seed=3)
        nf = normalize(fam)
        g = build_graph(fam)
        for members in decompose(nf, choose_offsets(nf)).classes().values():
            poset = build_poset(members, nf, g)
            assert chain_partition(poset) == _reference_chains(poset)
            assert antichain_partition(poset) == _reference_layers(poset)

    def test_augmenting_paths_deeper_than_the_recursion_limit(self):
        fam = strip_family()
        nf = normalize(fam)
        (members,) = decompose(nf, choose_offsets(nf)).classes().values()
        poset = build_poset(members, nf, build_graph(fam))
        chains = chain_partition(poset)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 5000))   # the reference recurses 1,274 deep
        try:
            assert chains == _reference_chains(poset)
        finally:
            sys.setrecursionlimit(limit)


class TestColorTranslates:
    def test_single_member(self, unit_square):
        rep = color_translates(translates(unit_square, [(0, 0)]))
        assert rep.colors_used == 1

    def test_pentagon_within_square_bound(self):
        fam = pentagon_family(1)
        g = build_graph(fam)
        rep = color_translates(fam, seed=0)
        assert verify_coloring(g, list(rep.colors))
        omega = max_clique(g).value
        assert rep.colors_used <= 2 * omega  # = 4; chi is 3 so 3 or 4
        assert rep.colors_used >= 3

    def test_grid(self, unit_square):
        fam = grid_family(unit_square, 2)
        g = build_graph(fam)
        rep = color_translates(fam, seed=0)
        assert verify_coloring(g, list(rep.colors))
        assert 9 <= rep.colors_used <= 18
        assert rep.colors_used <= rep.bound_value

    def test_report_bound_is_self_consistent(self, triangle):
        for seed in range(10):
            fam = random_family(triangle, 15, (0, 4), seed=100 + seed)
            rep = color_translates(fam, seed=seed)
            g = build_graph(fam)
            assert verify_coloring(g, list(rep.colors))
            assert rep.colors_used <= rep.bound_value
            assert rep.omega_used <= max_clique(g).value
            assert rep.colors_used <= rep.params["t_bound"] * max_clique(g).value

    def test_determinism(self, disk):
        fam = random_family(disk, 20, (0, 6), seed=9)
        assert color_translates(fam, seed=3) == color_translates(fam, seed=3)

    def test_block_palettes_disjoint(self, unit_square):
        fam = grid_family(unit_square, 2)
        rep = color_translates(fam, seed=0)
        by_block: dict = {}
        for member, (color, label) in enumerate(zip(rep.colors, rep.block_labels)):
            by_block.setdefault(label, set()).add(color)
        blocks = list(by_block.values())
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                assert not (blocks[i] & blocks[j])


class TestCliquePartitionTranslates:
    def test_one_cell_clique(self, unit_square):
        fam = translates(unit_square, [(5.0, 5.0), (5.001, 5.001), (5.002, 5.0005)])
        nf = normalize(fam)
        dec = decompose(nf, choose_offsets(nf, seed=0))
        assert len(dec.classes()) == 1  # the cluster shares one line and cell
        rep = clique_partition_translates(fam, seed=0)
        assert rep.classes_used == 1

    def test_grid(self, unit_square):
        fam = grid_family(unit_square, 2)
        g = build_graph(fam)
        rep = clique_partition_translates(fam, seed=0)
        assert verify_clique_partition(g, list(rep.classes_assign))
        nu = max_independent_set(g).value
        assert rep.classes_used <= 2 * nu  # = 8 with exact theta 4

    def test_two_far_members(self, unit_square):
        fam = translates(unit_square, [(0, 0), (10, 10)])
        rep = clique_partition_translates(fam, seed=0)
        assert rep.classes_used == 2
        assert rep.classes_used <= 2 * 2

    def test_bound_suite(self, disk):
        for seed in range(10):
            fam = random_family(disk, 18, (0, 5), seed=200 + seed)
            g = build_graph(fam)
            rep = clique_partition_translates(fam, seed=seed)
            assert verify_clique_partition(g, list(rep.classes_assign))
            nu = max_independent_set(g).value
            assert rep.classes_used <= 6 * nu
            assert rep.classes_used <= rep.bound_value
            assert rep.nu_used <= nu


class TestHigherDimensionalBoxes:
    def test_3d_box_translates(self):
        body = ConvexBody.box((1.0, 1.0, 1.0))
        fam = random_family(body, 14, (0, 4), seed=61)
        g = build_graph(fam)
        omega = max_clique(g).value
        nu = max_independent_set(g).value
        rep = color_translates(fam, seed=0)
        par = clique_partition_translates(fam, seed=0)
        assert rep.params["t_bound"] == 4  # M=2 on two cross axes, c=1
        assert verify_coloring(g, list(rep.colors))
        assert rep.colors_used <= 4 * omega
        assert verify_clique_partition(g, list(par.classes_assign))
        assert par.classes_used <= 4 * nu

    def test_unequal_sides_normalize(self):
        body = ConvexBody.box((2.0, 0.5))
        fam = random_family(body, 10, (0, 5), seed=62)
        nf = normalize(fam)
        assert nf.params.r == 1.0
        g = build_graph(fam)
        rep = color_translates(fam, seed=1)
        assert verify_coloring(g, list(rep.colors))
        assert rep.colors_used <= 2 * max_clique(g).value
