import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    IntersectionGraph,
    build_graph,
    max_clique,
    max_independent_set,
    verify_clique_partition,
    verify_coloring,
)
from convex_chroma.reports import ClassSummary
from convex_chroma.translate_coloring import (
    BoundParams,
    Decomposition,
    NormalizedFamily,
    Offsets,
    PosetClass,
    TranslatePipeline,
    _check_orders,
    antichain_partition,
    build_poset,
    chain_partition,
    choose_offsets,
    clique_partition_translates,
    color_translates,
    decompose,
    normalize,
    translate_pipeline,
)
from conftest import family_of, strip_family


def make_normalized(refs: np.ndarray, params: BoundParams, family=None) -> NormalizedFamily:
    n = params.n
    return NormalizedFamily(
        family=family if family is not None else translates(ConvexBody.box((1.0,) * n), []),
        matrix=np.eye(n),
        refs=np.asarray(refs, dtype=float).reshape(-1, n),
        params=params,
    )


def fixed_decomposition(nf: NormalizedFamily, lines: np.ndarray) -> Decomposition:
    """Member i on line key (lines[i], 0, ...) and in cell 0."""
    count, n = len(nf.refs), nf.params.n
    line_keys = np.zeros((count, n - 1), dtype=int)
    line_keys[:, 0] = lines
    zeros = np.zeros(count, dtype=int)
    return Decomposition(line_keys=line_keys, cells=zeros, cell_residues=zeros,
                         params=nf.params,
                         offsets=Offsets(b=(0.0,) * (n - 1), cell_offset=0.0,
                                         clearance=0.5, seed=0, attempts=1))


def one_class(nf: NormalizedFamily, graph: IntersectionGraph) -> PosetClass:
    """The poset of every member of nf taken as one class."""
    dec = fixed_decomposition(nf, np.zeros(len(nf.refs), dtype=int))
    (poset,) = build_poset(dec, nf, graph).values()
    return poset


def relation_of(poset: PosetClass) -> np.ndarray:
    """The boolean relation matrix read back from the successor bit rows."""
    m = len(poset.members)
    return np.array([[bool(row >> j & 1) for j in range(m)] for row in poset.succ],
                    dtype=bool).reshape(m, m)


def chains_of(poset: PosetClass) -> list[list[int]]:
    return chain_partition({"class": poset})["class"]


def layers_of(poset: PosetClass) -> list[list[int]]:
    return antichain_partition({"class": poset})["class"]


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
        fam = family_of(unit_square, [((0, 0), 2.0), ((3, 0), 2.0)])
        nf = normalize(fam)
        assert np.allclose(nf.refs, [[0, 0], [1.5, 0]])

    def test_rejects_homothets(self, unit_square):
        fam = family_of(unit_square, [((0, 0), 1.0), ((3, 0), 2.0)])
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

    @pytest.mark.parametrize("centers", [
        [(1e19,), (-1e19,)],
        [(0.3, 1e19), (0.3, -1e19)],
    ], ids=["1d-box", "2d-box"])
    def test_cells_beyond_the_integer_range_are_rejected(self, centers):
        # the last-axis cells get the same overflow check as the line keys,
        # and the cast itself warns of nothing
        fam = translates(ConvexBody.box((1.0,) * len(centers[0])), centers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="cell range"):
                color_translates(fam)
            with pytest.raises(GeometryError, match="cell range"):
                clique_partition_translates(fam)

    @pytest.mark.parametrize("centers", [
        [(1e19, 0.3), (-1e19, 0.3)],
        [(1e300, 1e300), (1e300, -1e300)],
    ], ids=["1e19", "1e300"])
    def test_line_keys_beyond_the_integer_range_are_rejected(self, centers):
        # named as a range failure, not as a tangency, and the cast warns of nothing
        fam = translates(ConvexBody.box((1.0, 1.0)), centers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError, match="int64 range of the line keys"):
                color_translates(fam)
            with pytest.raises(GeometryError, match="int64 range of the line keys"):
                clique_partition_translates(fam)

    def test_grouping_is_the_sorted_class_order(self):
        params = BoundParams.from_ratio(3, 1.0)
        refs = np.random.default_rng(3).uniform(-3, 3, size=(200, 3))
        nf = make_normalized(refs, params)
        dec = decompose(nf, Offsets(b=(0.1, 0.2), cell_offset=0.3, clearance=0.1,
                                    seed=0, attempts=1))
        assert list(dec.classes().items()) == list(reference_classes(dec).items())


class TestPoset:
    def test_stacked_chain(self, unit_square):
        fam = translates(unit_square, [(0, 0), (0, 2), (0, 4)])
        nf = normalize(fam)
        chains = chains_of(one_class(nf, build_graph(fam)))
        assert len(chains) == 1 and len(chains[0]) == 3

    def test_intersecting_antichain(self, unit_square):
        fam = translates(unit_square, [(0, 0), (0.2, 0.1), (0.1, 0.3)])
        nf = normalize(fam)
        poset = one_class(nf, build_graph(fam))
        assert not any(poset.succ) and not any(poset.pred)
        assert len(chains_of(poset)) == 3
        assert len(layers_of(poset)) == 1

    def test_relation_matches_pairwise_oracle(self, unit_square):
        rng = np.random.default_rng(7)
        centers = [(float(x), float(y)) for x, y in rng.uniform(0, 3, size=(4, 2))]
        fam = translates(unit_square, centers)
        nf = normalize(fam)
        poset = one_class(nf, build_graph(fam))
        relation = relation_of(poset)
        members = [Placement(c) for c in centers]
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                disjoint = not homothets_intersect(unit_square, members[a], members[b])
                expected = disjoint and nf.refs[a, 1] < nf.refs[b, 1]
                assert relation[a, b] == expected
                assert bool(poset.pred[b] >> a & 1) == expected

    def test_total_order_partitions(self, unit_square):
        fam = translates(unit_square, [(0, 2 * i) for i in range(4)])
        nf = normalize(fam)
        poset = one_class(nf, build_graph(fam))
        assert len(layers_of(poset)) == 4
        assert len(chains_of(poset)) == 1

    def test_chain_count_equals_class_clique_number(self, unit_square):
        for seed in range(15):
            fam = random_family(unit_square, 12, (0, 4), seed=seed)
            nf = normalize(fam)
            dec = decompose(nf, choose_offsets(nf, seed=seed))
            g = build_graph(fam)
            posets = build_poset(dec, nf, g)
            chains, layers = chain_partition(posets), antichain_partition(posets)
            for key, members in dec.classes().items():
                assert posets[key].members == tuple(members)
                sub = g.subgraph(members)
                assert len(chains[key]) == max_clique(sub).value
                assert len(layers[key]) == max_independent_set(sub).value

    @pytest.mark.parametrize("body,scale", [
        (ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]), 0.5),
        (ConvexBody.disk(), math.sqrt(2) / 4),
        (ConvexBody.polygon([(0, 0), (1, 0), (0.8, 0.6), (0.3, 1.0), (0.05, 0.5)]), 1.0),
    ], ids=["triangle", "disk", "irregular-5-gon"])
    def test_relation_matches_the_per_class_adjacency_on_tangent_grids(self, body, scale):
        grid = grid_family(body, 2)
        fam = Family(body, grid.centers(), np.full(len(grid), scale))
        nf = normalize(fam)
        g = build_graph(fam)
        pl = [Placement(tuple(c), s) for c, s in zip(fam.centers().tolist(), fam.scales())]
        tangent = 0
        for seed in range(8):
            dec = decompose(nf, choose_offsets(nf, seed=seed))
            posets = build_poset(dec, nf, g)
            for key, members in dec.classes().items():
                tangent += sum(abs(pair_margin(body, pl[a], pl[b])) < 1e-12
                               for a in members for b in members if a < b)
                # the relation as built from one adjacency call per class
                last = nf.refs[members, 1]
                disjoint = ~pairwise_adjacency(body, fam.centers()[members],
                                               fam.scales()[members])
                np.fill_diagonal(disjoint, False)
                expected = disjoint & (last[:, None] < last[None, :])
                assert np.array_equal(relation_of(posets[key]), expected)
        assert tangent > 0   # some classes hold tangent pairs

    def test_intransitive_relation_rejected(self):
        # 0 and 2 intersect, so 0 -> 1 -> 2 lacks 0 -> 2
        nf = make_normalized([[0.0, 0.0], [0.0, 1.0], [0.0, 2.0]], BoundParams.from_ratio(2, 1.0))
        adjacent = np.zeros((3, 3), dtype=bool)
        adjacent[0, 2] = adjacent[2, 0] = True
        with pytest.raises(ConsistencyError, match="not transitive"):
            one_class(nf, IntersectionGraph.from_matrix(adjacent))


def good_group(count: int, size: int) -> np.ndarray:
    """`count` total orders of `size` members: a valid (g, s, s) batch."""
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    return np.repeat(upper[None], count, axis=0)


class TestPosetChecks:
    """Each ConsistencyError of the grouped check, raised by one bad class
    among good ones: through `build_poset` where geometry can reach it, and
    on injected relation batches."""

    @staticmethod
    def stacked_classes(sizes: list[int], tie_in: int | None = None) -> tuple:
        """One class per line x = 2k, members 2 apart along y (a chain);
        class `tie_in` gets two disjoint members at one last coordinate."""
        refs = []
        for k, m in enumerate(sizes):
            refs += [[2.0 * k + 0.25, 2.0 * i + 0.25] for i in range(m)]
            if k == tie_in:
                refs.append([2.0 * k + 0.25 + 1e-3, 2.0 * (m - 1) + 0.25])
        nf = make_normalized(refs, BoundParams.from_ratio(2, 1.0))
        adjacent = np.zeros((len(refs), len(refs)), dtype=bool)
        dec = decompose(nf, Offsets(b=(0.0,), cell_offset=0.0, clearance=0.25,
                                    seed=0, attempts=1))
        return nf, dec, adjacent

    def test_good_classes_pass(self):
        nf, dec, adjacent = self.stacked_classes([3, 4, 2, 4])
        posets = build_poset(dec, nf, IntersectionGraph.from_matrix(adjacent))
        assert [len(chains) for chains in chain_partition(posets).values()] == [1, 1, 1, 1]
        assert [len(layers) for layers in antichain_partition(posets).values()] == [3, 4, 2, 4]

    def test_tie_in_one_class_of_a_group(self):
        # classes of up to GROUP_FLOOR (16) members share one group
        nf, dec, adjacent = self.stacked_classes([3, 4, 3], tie_in=2)
        with pytest.raises(ConsistencyError, match="share a last coordinate"):
            build_poset(dec, nf, IntersectionGraph.from_matrix(adjacent))
        # the same tie is no fault once the two members intersect
        adjacent[-1, -2] = adjacent[-2, -1] = True
        posets = build_poset(dec, nf, IntersectionGraph.from_matrix(adjacent))
        assert len(posets) == 3

    def test_intransitive_class_in_a_group(self):
        nf, dec, adjacent = self.stacked_classes([3, 4, 4, 3])
        first = sum([3, 4, 4])          # the last class holds members 11, 12, 13
        adjacent[first, first + 2] = adjacent[first + 2, first] = True
        with pytest.raises(ConsistencyError, match="not transitive"):
            build_poset(dec, nf, IntersectionGraph.from_matrix(adjacent))

    def test_injected_asymmetry_fault(self):
        batch = good_group(5, 6)
        _check_orders(batch)
        batch[3, 4, 1] = True           # 1 -> 4 and 4 -> 1
        with pytest.raises(ConsistencyError, match="not asymmetric"):
            _check_orders(batch)

    def test_injected_transitivity_fault(self):
        batch = good_group(5, 6)
        batch[2, 0, 5] = False          # 0 -> 1 -> 5 without 0 -> 5
        with pytest.raises(ConsistencyError, match="not transitive"):
            _check_orders(batch)


# The per-class pipeline that the grouped pass on bit rows replaced, verbatim:
# one poset, one gather and one successor-list read per class.

@dataclass
class ReferencePosetClass:
    members: tuple[int, ...]
    relation: np.ndarray
    last_coords: np.ndarray

    def __post_init__(self):
        rel = self.relation
        if (rel & rel.T).any():
            raise ConsistencyError("precedence relation is not asymmetric")
        composed = (rel.astype(np.float32) @ rel.astype(np.float32)) > 0  # BLAS; 0/1 sums stay exact
        if (composed & ~rel).any():
            raise ConsistencyError(
                "precedence relation is not transitive; the parallelogram fit "
                "does not dominate the body"
            )


def reference_classes(dec: Decomposition) -> dict[tuple[tuple[int, ...], int], list[int]]:
    out: dict[tuple[tuple[int, ...], int], list[int]] = {}
    rows = zip(dec.line_keys.tolist(), dec.cell_residues.tolist())
    for i, (line, residue) in enumerate(rows):
        out.setdefault((tuple(line), residue), []).append(i)
    return dict(sorted(out.items()))


def reference_build_poset(members: list[int], nf: NormalizedFamily,
                          graph: IntersectionGraph) -> ReferencePosetClass:
    last = nf.refs[members, nf.params.n - 1] if members else np.zeros(0)
    disjoint = ~graph.matrix[np.ix_(members, members)]
    np.fill_diagonal(disjoint, False)
    if (disjoint & (last[:, None] == last[None, :])).any():
        raise ConsistencyError("disjoint class members share a last coordinate")
    relation = disjoint & (last[:, None] < last[None, :])
    return ReferencePosetClass(members=tuple(members), relation=relation, last_coords=last)


def reference_successors(relation: np.ndarray) -> list[list[int]]:
    cols = np.nonzero(relation)[1].tolist()
    ends = relation.sum(axis=1).cumsum().tolist()
    return [cols[a:b] for a, b in zip([0, *ends], ends)]


def reference_chain_partition(poset: ReferencePosetClass) -> list[list[int]]:
    m = len(poset.members)
    succ = reference_successors(poset.relation)
    match_left = [-1] * m   # successor chosen for each node
    match_right = [-1] * m  # predecessor that claimed each node

    for root in range(m):
        visited = [False] * m
        stack = [(root, iter(succ[root]))]
        while stack:
            for v in stack[-1][1]:
                if not visited[v]:
                    break
            else:
                stack.pop()
                continue
            visited[v] = True
            if match_right[v] != -1:
                stack.append((match_right[v], iter(succ[match_right[v]])))
                continue
            for u, _ in reversed(stack):
                match_right[v], match_left[u], v = u, v, match_left[u]
            break

    chains = []
    for v in range(m):
        if match_right[v] == -1:
            chain = [v]
            while match_left[chain[-1]] != -1:
                chain.append(match_left[chain[-1]])
            chains.append([poset.members[i] for i in chain])
    chains.sort(key=lambda ch: min(ch))
    return chains


def reference_antichain_partition(poset: ReferencePosetClass) -> list[list[int]]:
    m = len(poset.members)
    preds = reference_successors(poset.relation.T)
    order = sorted(range(m), key=lambda i: (poset.last_coords[i], i))
    level = [0] * m
    for i in order:
        level[i] = 1 + max(level[j] for j in preds[i]) if preds[i] else 0
    height = max(level) + 1 if m else 0
    layers: list[list[int]] = [[] for _ in range(height)]
    for i in range(m):
        layers[level[i]].append(poset.members[i])
    return layers


def reference_translate_pipeline(family: Family, graph: IntersectionGraph,
                                 seed: int = 0) -> TranslatePipeline:
    nf = normalize(family)
    dec = decompose(nf, choose_offsets(nf, seed))
    posets = {key: reference_build_poset(members, nf, graph)
              for key, members in reference_classes(dec).items()}
    chains = {key: reference_chain_partition(p) for key, p in posets.items()}
    layers = {key: reference_antichain_partition(p) for key, p in posets.items()}
    summaries = tuple(
        ClassSummary(line_key=key[0], cell_residue=key[1], members=posets[key].members,
                     chain_count=len(chains[key]), antichain_count=len(layers[key]))
        for key in sorted(posets)
    )
    return TranslatePipeline(nf, dec, posets, chains, layers, summaries)


def _reference_chains(poset: ReferencePosetClass) -> list[list[int]]:
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


def _reference_layers(poset: ReferencePosetClass) -> list[list[int]]:
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


def assert_classes_match_the_scalar_reference(nf: NormalizedFamily, dec: Decomposition,
                                              g: IntersectionGraph) -> None:
    posets = build_poset(dec, nf, g)
    chains, layers = chain_partition(posets), antichain_partition(posets)
    classes = reference_classes(dec)
    assert list(posets) == list(classes)
    for key, members in classes.items():
        ref = reference_build_poset(members, nf, g)
        assert chains[key] == _reference_chains(ref)
        assert layers[key] == _reference_layers(ref)


class TestPartitionsMatchTheScalarReference:
    @pytest.mark.parametrize("body,scale", [
        (ConvexBody.unit_square(), 1.0),
        (ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]), 0.5),
        (ConvexBody.disk(), math.sqrt(2) / 4),
    ], ids=["square", "triangle", "disk"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_tangent_grids(self, body, scale, m):
        grid = grid_family(body, m)
        fam = Family(body, grid.centers(), np.full(len(grid), scale))
        nf = normalize(fam)
        g = build_graph(fam)
        for seed in range(3):
            assert_classes_match_the_scalar_reference(nf, decompose(nf, choose_offsets(nf, seed=seed)), g)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_dominance_posets(self, seed):
        # i precedes j iff j dominates i in both coordinates: a strict partial
        # order whose first coordinate is a linear extension, injected as the
        # class of members 100.. through the graph (incomparable = adjacent)
        # beside a 100-member chain on another line
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 80))
        pts = rng.random((m, 2))
        rel = (pts[:, None, 0] < pts[None, :, 0]) & (pts[:, None, 1] < pts[None, :, 1])
        refs = np.r_[np.column_stack([np.ones(100), np.arange(100.0)]),
                     np.column_stack([np.zeros(m), pts[:, 0]])]
        adjacent = np.zeros((100 + m, 100 + m), dtype=bool)
        adjacent[100:, 100:] = ~(rel | rel.T)
        nf = make_normalized(refs, BoundParams.from_ratio(2, 1.0))
        lines = np.r_[np.ones(100, dtype=int), np.zeros(m, dtype=int)]
        posets = build_poset(fixed_decomposition(nf, lines), nf,
                             IntersectionGraph.from_matrix(adjacent))
        poset = posets[((0,), 0)]
        assert poset.members == tuple(range(100, 100 + m))
        assert np.array_equal(relation_of(poset), rel)
        ref = ReferencePosetClass(members=tuple(range(100, 100 + m)), relation=rel,
                                  last_coords=pts[:, 0])
        assert chains_of(poset) == _reference_chains(ref)
        assert layers_of(poset) == _reference_layers(ref)

    @pytest.mark.parametrize("name", ["square", "triangle"])
    def test_random_translate_families(self, name):
        body = (ConvexBody.unit_square() if name == "square"
                else ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]))
        fam = random_family(body, 150, (0, 6), seed=3)
        nf = normalize(fam)
        assert_classes_match_the_scalar_reference(nf, decompose(nf, choose_offsets(nf)),
                                                  build_graph(fam))

    def test_augmenting_paths_deeper_than_the_recursion_limit(self):
        fam = strip_family()
        nf = normalize(fam)
        dec = decompose(nf, choose_offsets(nf))
        (members,) = dec.classes().values()
        g = build_graph(fam)
        (chains,) = chain_partition(build_poset(dec, nf, g)).values()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 5000))   # the reference recurses 1,274 deep
        try:
            assert chains == _reference_chains(reference_build_poset(members, nf, g))
        finally:
            sys.setrecursionlimit(limit)


PIPELINE_BODIES = {
    "square": ConvexBody.unit_square(),
    "disk": ConvexBody.disk(),
    "triangle": ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]),
    "thin-quad": ConvexBody.polygon([(0, 0), (1, 0), (1.05, 0.1), (0.05, 0.1)]),
    "pentagon": ConvexBody.polygon([(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5))
                                    for k in range(5)]),
    "box-1d": ConvexBody.box((1.0,)),
    "box-3d": ConvexBody.box((1.0, 1.0, 1.0)),
}


def assert_pipeline_matches_the_reference(family: Family, seed: int = 0) -> TranslatePipeline:
    g = build_graph(family)
    got = translate_pipeline(family, g, seed)
    ref = reference_translate_pipeline(family, g, seed)
    assert list(got.posets) == list(ref.posets)
    assert got.chains == ref.chains
    assert got.layers == ref.layers
    assert got.summaries == ref.summaries
    assert got.coloring() == ref.coloring()
    assert got.partition() == ref.partition()
    return got


@st.composite
def translate_families(draw) -> tuple[Family, int]:
    """Translate families of 0 to 150 members (60 for the 3D box): dyadic
    lattice centers, where exact tangencies are common, or uniform ones, at
    densities from one class per member to a few large classes."""
    name = draw(st.sampled_from(sorted(PIPELINE_BODIES)))
    body = PIPELINE_BODIES[name]
    n = draw(st.integers(min_value=0, max_value=60 if name == "box-3d" else 150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    side = draw(st.sampled_from([0.25, 1.0, 4.0])) * max(n, 1) ** (1 / body.dimension)
    size = (n, body.dimension)
    if draw(st.booleans()):
        centers = rng.integers(0, int(4 * side) + 1, size=size) / 4.0
    else:
        centers = rng.uniform(0.0, side, size=size)
    scale = draw(st.sampled_from([0.5, 1.0]))
    family = Family(body, centers, np.full(len(centers), scale))
    return family, draw(st.integers(min_value=0, max_value=3))


class TestPipelineMatchesTheReference:
    """`translate_pipeline` gives the per-class reference's results exactly:
    the same class keys, chains, layers, summaries and reports."""

    @settings(max_examples=150)
    @given(translate_families())
    def test_random_families(self, drawn):
        family, seed = drawn
        assert_pipeline_matches_the_reference(family, seed)

    @pytest.mark.parametrize("density", [0.25, 1.0])
    @pytest.mark.parametrize("name", sorted(PIPELINE_BODIES))
    def test_every_body(self, name, density):
        body = PIPELINE_BODIES[name]
        n = 60 if name == "box-3d" else 150
        rng = np.random.default_rng(11)
        centers = rng.uniform(0.0, density * n ** (1 / body.dimension), (n, body.dimension))
        for seed in range(2):
            assert_pipeline_matches_the_reference(translates(body, centers.tolist()), seed)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", ["square", "disk", "triangle", "thin-quad", "pentagon"])
    def test_tangent_grids(self, name, m):
        for seed in range(3):
            assert_pipeline_matches_the_reference(grid_family(PIPELINE_BODIES[name], m), seed)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pentagon_constructions(self, k):
        for seed in range(3):
            assert_pipeline_matches_the_reference(pentagon_family(k), seed)

    def test_strip(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 5000))
        try:
            pipe = assert_pipeline_matches_the_reference(strip_family())
        finally:
            sys.setrecursionlimit(limit)
        assert [len(s.members) for s in pipe.summaries] == [1600]

    @pytest.mark.parametrize("name", sorted(PIPELINE_BODIES))
    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_and_one_member(self, name, count):
        body = PIPELINE_BODIES[name]
        family = translates(body, [(0.3,) * body.dimension] * count)
        pipe = assert_pipeline_matches_the_reference(family)
        assert len(pipe.summaries) == count

    @pytest.mark.parametrize("sizes", [
        [1, 2, 3, 15, 16, 17, 63, 64, 65],
        [65, 64, 63, 33, 2, 1, 1, 128, 129],
        [64, 64, 64],
    ], ids=["edges", "mixed", "full-group"])
    def test_class_sizes_at_group_edges(self, sizes):
        # one class per lattice line x = 3k: squares scattered along y, so
        # each class holds chains and antichains, sized across the group
        # floor and the power-of-two group edges (padding inside a group,
        # rows of more than 64 bits)
        rng = np.random.default_rng(len(sizes))
        centers = [(3.0 * k + 0.25, float(y)) for k, m in enumerate(sizes)
                   for y in rng.uniform(0, m / 3, m)]
        family = translates(ConvexBody.unit_square(), centers)
        for seed in range(2):
            pipe = assert_pipeline_matches_the_reference(family, seed)
            assert sorted(len(s.members) for s in pipe.summaries) == sorted(sizes)


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
