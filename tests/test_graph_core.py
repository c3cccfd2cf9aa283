import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from convex_chroma.constructions import (
    explicit_pentagon_coloring,
    grid_family,
    pentagon_disjoint_family,
    pentagon_family,
    random_family,
)
from convex_chroma.families import translates
from convex_chroma.geometry import ConvexBody
from convex_chroma.graph_core import (
    ConsistencyError,
    GraphInvariants,
    IntersectionGraph,
    build_graph,
    chromatic_number,
    clique_cover_number,
    compute_invariants,
    from_dimacs,
    greedy_coloring,
    max_clique,
    max_independent_set,
    to_dimacs,
    verify_clique_partition,
    verify_coloring,
)
from conftest import (
    brute_chromatic,
    brute_max_clique,
    brute_max_independent_set,
    graph_matrix,
    random_graph,
)


def c5_graph() -> IntersectionGraph:
    adj = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = True
    return IntersectionGraph.from_matrix(adj)


class TestBuildGraph:
    def test_pentagon_family_is_c5(self):
        g = build_graph(pentagon_family(1))
        for i in range(5):
            for j in range(i + 1, 5):
                expected = (j - i) in (1, 4)
                assert g.adjacent(i, j) == expected

    def test_two_touching_squares_single_edge(self, unit_square):
        g = build_graph(translates(unit_square, [(0, 0), (1, 0)]))
        assert g.edges() == [(0, 1)]

    def test_grid_corner_degree(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        adj = graph_matrix(g)
        # corners of the 4x4 lattice: first and last coordinates on both axes
        corner_indices = [0, 3, 12, 15]
        for idx in corner_indices:
            # oracle: direct pairwise recount
            assert adj[idx].sum() == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            IntersectionGraph(np.array([[False, True], [False, False]]))  # asymmetric

    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],              # 0 -> 1 without 1 -> 0
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]],              # 2 -> 1 without 1 -> 2
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],              # a self-loop
        [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 0]],     # a column past the member count
        [[0, 1, 0], [1, 0, 0]],                         # a member without a row
        [0, 1, 0],                                      # one row, not a matrix
    ], ids=["asymmetric-forward", "asymmetric-backward", "reflexive", "oversized",
            "undersized", "one-dimensional"])
    def test_invalid_rows_rejected(self, rows):
        with pytest.raises(ValueError):
            IntersectionGraph(np.array(rows, dtype=bool))

    def test_non_boolean_matrix_rejected(self):
        with pytest.raises(ValueError, match="boolean"):
            IntersectionGraph(np.zeros((3, 3), dtype=int))

    def test_from_matrix_clears_the_diagonal(self):
        adj = np.ones((4, 4), dtype=bool)
        g = IntersectionGraph.from_matrix(adj)
        assert not g.matrix.diagonal().any() and g.matrix.sum() == 12
        assert adj.all()

    @pytest.mark.parametrize("make", [IntersectionGraph, IntersectionGraph.from_matrix])
    def test_the_callers_array_stays_writable_and_unaliased(self, make):
        adj = random_graph(3, 12, p=0.4)
        g = make(adj)
        assert adj.flags.writeable and not np.shares_memory(adj, g.matrix)
        before = g.matrix.copy()
        adj[0, 1] = adj[1, 0] = not adj[0, 1]
        assert np.array_equal(g.matrix, before)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 131])
    def test_from_matrix_rows_match_the_bit_formula(self, n):
        adj = random_graph(n, n, p=0.3)
        adj[np.diag_indices(n)] = True   # the diagonal is ignored
        rows = tuple(sum(1 << j for j in range(n) if adj[i, j] and j != i) for i in range(n))
        assert IntersectionGraph.from_matrix(adj).rows == rows
        assert IntersectionGraph.from_matrix(adj.astype(int)).rows == rows

    def test_subgraph_is_the_induced_matrix(self):
        adj = random_graph(5, 40, p=0.3)
        members = [int(v) for v in np.random.default_rng(6).permutation(40)[:17]]
        sub = IntersectionGraph.from_matrix(adj).subgraph(members)
        assert sub.rows == IntersectionGraph.from_matrix(adj[np.ix_(members, members)]).rows

    def test_from_matrix_rejects_asymmetric_and_non_square(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 2] = True
        with pytest.raises(ValueError):
            IntersectionGraph.from_matrix(adj)
        with pytest.raises(ValueError):
            IntersectionGraph.from_matrix(np.zeros((3, 4), dtype=bool))


def _row_bits(g: IntersectionGraph) -> np.ndarray:
    n = g.member_count
    return np.array([[bool((row >> j) & 1) for j in range(n)] for row in g.rows],
                    dtype=bool).reshape(n, n)


def _bit_walk(mask: int) -> list[int]:
    return [j for j in range(mask.bit_length()) if (mask >> j) & 1]


def reference_edges(g: IntersectionGraph) -> list[tuple[int, int]]:
    """The bit-walk edge list: (i, j) for each set bit j >= i of row i."""
    return [(i, j) for i, row in enumerate(g.rows) for j in _bit_walk(row >> i << i)]


def reference_complement_rows(g: IntersectionGraph) -> tuple[int, ...]:
    full = (1 << g.member_count) - 1
    return tuple((full ^ g.rows[i]) & ~(1 << i) for i in range(g.member_count))


def reference_subgraph_rows(g: IntersectionGraph, members: list[int]) -> tuple[int, ...]:
    idx = {m: k for k, m in enumerate(members)}
    return tuple(sum(1 << idx[o] for o in _bit_walk(g.rows[m]) if o in idx) for m in members)


class TestMatrix:
    """`matrix` is a read-only boolean array and `rows` are its bits, whichever
    way the graph was made."""

    @staticmethod
    def _made(n: int) -> dict[str, IntersectionGraph]:
        adj = random_graph(n + 3, n, p=0.4)
        g = IntersectionGraph.from_matrix(adj)
        members = [int(v) for v in np.random.default_rng(n).permutation(n)[: (2 * n) // 3]]
        return {"from_matrix": g, "complement": g.complement(),
                "subgraph": g.subgraph(members), "from_dimacs": from_dimacs(to_dimacs(g))}

    @pytest.mark.parametrize("how", ["from_matrix", "complement", "subgraph", "from_dimacs"])
    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_matrix_is_the_rows_and_read_only(self, n, how):
        g = self._made(n)[how]
        assert g.matrix.dtype == bool and g.matrix.shape == (g.member_count, g.member_count)
        assert np.array_equal(g.matrix, _row_bits(g))
        assert not g.matrix.flags.writeable
        if g.member_count:
            with pytest.raises(ValueError):
                g.matrix[0, 0] = True

    def test_complement_is_built_once_and_kept(self):
        g = IntersectionGraph.from_matrix(random_graph(3, 12, p=0.4))
        assert g.complement() is g.complement()
        assert g.complement().rows is g.complement().rows

    def test_equality_is_identity(self):
        g = IntersectionGraph.from_matrix(random_graph(2, 10))
        again = IntersectionGraph(g.matrix)
        assert np.array_equal(g.matrix, again.matrix) and g != again
        assert g == g and hash(g) == hash(g)
        assert "matrix" not in repr(g)

    @pytest.mark.parametrize("n", [0, 1, 9, 40, 200])
    def test_degrees_are_the_bit_counts_of_the_rows(self, n):
        g = IntersectionGraph.from_matrix(random_graph(n, n, p=0.3))
        assert g.degrees == [bin(row).count("1") for row in g.rows]
        assert all(type(d) is int for d in g.degrees)
        assert g.rows is g.rows and g.degrees is g.degrees

    @pytest.mark.parametrize("seed", range(6))
    def test_edges_complement_and_subgraph_match_the_bit_walk(self, seed):
        rng = np.random.default_rng(seed)
        for n in (0, 1, 7, 9, 40):
            g = IntersectionGraph.from_matrix(random_graph(seed, n, p=float(rng.random())))
            assert g.edges() == reference_edges(g)
            assert all(type(v) is int for edge in g.edges() for v in edge)
            assert g.complement().rows == reference_complement_rows(g)
            members = [int(v) for v in rng.permutation(n)[: int(rng.integers(0, n + 1))]]
            assert g.subgraph(members).rows == reference_subgraph_rows(g, members)

    def test_verify_coloring_matches_the_edge_walk(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 9, 30):
            g = IntersectionGraph.from_matrix(random_graph(n, n, p=0.2))
            for _ in range(20):
                colors = rng.integers(0, 4, size=n).tolist()
                expected = all(colors[i] != colors[j] for i, j in reference_edges(g))
                assert verify_coloring(g, colors) == expected
        with pytest.raises(IndexError):
            verify_coloring(c5_graph(), [0, 1, 0, 1])

    def test_verify_clique_partition_matches_the_class_walk(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 9, 30):
            for p in (0.3, 0.9):
                g = IntersectionGraph.from_matrix(random_graph(n, n, p=p))
                for classes in (2, n // 2 + 1, n + 1):
                    assignment = rng.integers(0, classes, size=n).tolist()
                    expected = reference_clique_partition(g, assignment)
                    assert verify_clique_partition(g, assignment) == expected
        with pytest.raises(IndexError):
            verify_clique_partition(c5_graph(), [0, 1, 0, 1])


def reference_clique_partition(g: IntersectionGraph, assignment) -> bool:
    """The per-class bitmask test: each class is a subset of every member's
    closed neighbourhood."""
    classes: dict[int, list[int]] = {}
    for i, c in enumerate(assignment):
        classes.setdefault(c, []).append(i)
    for members in classes.values():
        mask = sum(1 << v for v in members)
        if any(mask & ~(g.rows[v] | 1 << v) for v in members):
            return False
    return True


def reference_dsatur(g: IntersectionGraph) -> list[int]:
    """DSATUR with the degree read as the bit count of a member's row."""
    n = g.member_count
    colors = [-1] * n
    seen: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max((i for i in range(n) if colors[i] == -1),
                key=lambda i: (len(seen[i]), bin(g.rows[i]).count("1"), -i))
        c = min(set(range(n + 1)) - seen[v])
        colors[v] = c
        for u in _bit_walk(g.rows[v]):
            seen[u].add(c)
    return colors


def reference_k_coloring(g: IntersectionGraph, k: int, seed_clique) -> list[int] | None:
    """The DSATUR-ordered backtracking of `chromatic_number`, bit-count degrees."""
    n = g.member_count
    colors = [-1] * n
    seen: list[set[int]] = [set() for _ in range(n)]
    for c, v in enumerate(seed_clique):
        colors[v] = c
        for u in _bit_walk(g.rows[v]):
            seen[u].add(c)

    def backtrack(used: int) -> bool:
        cand = [i for i in range(n) if colors[i] == -1]
        if not cand:
            return True
        v = max(cand, key=lambda i: (len(seen[i]), bin(g.rows[i]).count("1"), -i))
        for c in range(min(k, used + 1)):
            if c in seen[v]:
                continue
            colors[v] = c
            touched = [u for u in _bit_walk(g.rows[v]) if colors[u] == -1 and c not in seen[u]]
            for u in touched:
                seen[u].add(c)
            if backtrack(max(used, c + 1)):
                return True
            colors[v] = -1
            for u in touched:
                seen[u].discard(c)
        return False

    return colors if backtrack(len(seed_clique)) else None


def reference_chromatic_witness(g: IntersectionGraph, cap: int) -> tuple[int, ...]:
    greedy = reference_dsatur(g)
    if g.member_count == 0 or g.member_count > cap:
        return tuple(greedy)
    clique = max_clique(g, cap=cap)
    for k in range(clique.value, max(greedy) + 1):
        witness = reference_k_coloring(g, k, clique.witness)
        if witness is not None:
            return tuple(witness)
    return tuple(greedy)


class TestDsatur:
    """DSATUR reads each degree from the graph's one degree list; the
    colorings equal those of the bit-count reference."""

    @pytest.mark.parametrize("n", [0, 1, 9, 40, 200])
    def test_greedy_and_exact_witnesses_match_the_reference(self, n):
        for seed, p in ((n, 0.2), (n + 1, 0.5)):
            g = IntersectionGraph.from_matrix(random_graph(seed, n, p=p))
            for graph in (g, g.complement()):
                assert greedy_coloring(graph) == reference_dsatur(graph)
                witness = chromatic_number(graph, cap=45).witness
                assert witness == reference_chromatic_witness(graph, cap=45)


@st.composite
def tied_graphs(draw) -> IntersectionGraph:
    """Graphs whose members tie on (saturation, degree): disjoint copies of
    one small graph, or a circulant graph, under a shuffled labelling, so only
    the index breaks the tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        size = draw(st.integers(1, 7))
        adj = np.kron(np.eye(draw(st.integers(1, 4)), dtype=int),
                      random_graph(int(rng.integers(1 << 30)), size, p=draw(st.floats(0, 1))))
    else:
        n = draw(st.integers(1, 30))
        steps = draw(st.sets(st.integers(1, max(n // 2, 1)), max_size=4))
        adj = np.zeros((n, n), dtype=int)
        for i in range(n):
            for step in steps:
                adj[i, (i + step) % n] = adj[(i + step) % n, i] = 1
    perm = rng.permutation(len(adj))
    return IntersectionGraph.from_matrix(adj[np.ix_(perm, perm)])


class TestDsaturTies:
    """The bucketed pick breaks (saturation, degree) ties by the lowest index,
    as the key scan of the reference does."""

    @settings(max_examples=150)
    @given(tied_graphs())
    def test_tied_graphs_match_the_reference(self, g):
        for graph in (g, g.complement()):
            assert greedy_coloring(graph) == reference_dsatur(graph)
            witness = chromatic_number(graph, cap=45).witness
            assert witness == reference_chromatic_witness(graph, cap=45)


def reference_max_clique(g: IntersectionGraph) -> tuple[int, tuple[int, ...]]:
    """The recursive Bron-Kerbosch with greedy pivoting that `max_clique`
    runs on an explicit stack: same pivots, same branch order."""
    rows = g.rows
    best: list[int] = []

    def expand(r: list[int], p: int, x: int):
        nonlocal best
        if p == 0 and x == 0:
            if len(r) > len(best):
                best = r[:]
            return
        if len(r) + bin(p).count("1") <= len(best):
            return
        pivot = max(_bit_walk(p | x), key=lambda u: (bin(p & rows[u]).count("1"), -u))
        for v in list(_bit_walk(p & ~rows[pivot])):
            expand(r + [v], p & rows[v], x & rows[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand([], (1 << g.member_count) - 1, 0)
    return len(best), tuple(sorted(best))


class TestMaxClique:
    @pytest.mark.parametrize("n", [0, 1, 9, 30, 50])
    def test_value_and_witness_match_the_recursive_reference(self, n):
        for seed, p in ((n, 0.2), (n + 1, 0.5), (n + 2, 0.8)):
            g = IntersectionGraph.from_matrix(random_graph(seed, n, p=p))
            for graph in (g, g.complement()):
                res = max_clique(graph)
                assert (res.value, res.witness) == reference_max_clique(graph)

    def test_c5(self):
        assert max_clique(c5_graph()).value == 2

    def test_grid_against_brute_force(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        assert max_clique(g).value == 9
        assert brute_max_clique(graph_matrix(g)) == 9

    def test_pentagon_blowup(self):
        g = build_graph(pentagon_family(2))
        assert max_clique(g).value == 4

    def test_witness_is_clique(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        res = max_clique(g)
        for a in range(len(res.witness)):
            for b in range(a + 1, len(res.witness)):
                assert g.adjacent(res.witness[a], res.witness[b])

    def test_cap(self):
        adj = random_graph(0, 30)
        g = IntersectionGraph.from_matrix(adj)
        res = max_clique(g, cap=10)
        assert res.capped and res.value is None
        assert res.lower >= 1 and res.upper == 30


TRIANGLE = ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])


class TestColoringBound:
    """The coloring bound prunes only subtrees that cannot beat the incumbent,
    so value and witness equal the search without it."""

    @settings(max_examples=200)
    @given(st.integers(2, 40), st.floats(0, 1), st.integers(0, 2**32 - 1))
    @example(40, 0.95, 0)
    @example(40, 0.5, 1)
    @example(40, 0.05, 2)
    @example(0, 0.5, 3)
    def test_random_graphs_match_the_reference(self, n, p, seed):
        g = IntersectionGraph.from_matrix(random_graph(seed, n, p=p))
        res = max_clique(g)
        assert (res.value, res.witness) == reference_max_clique(g)

    @settings(max_examples=40)
    @given(st.sampled_from(["triangle", "disk"]), st.integers(2, 45), st.integers(0, 10_000))
    @example("triangle", 45, 1)
    @example("disk", 45, 1)
    def test_family_complements_match_the_reference(self, body, n, seed):
        # the independent sets of dense families, where the reference still
        # finishes in well under a second
        shape = TRIANGLE if body == "triangle" else ConvexBody.disk()
        comp = build_graph(random_family(shape, n, (0, 6), seed=seed)).complement()
        res = max_clique(comp)
        assert (res.value, res.witness) == reference_max_clique(comp)


def milp_independence_number(g: IntersectionGraph) -> int:
    """alpha from HiGHS: one binary per member, one x_i + x_j <= 1 per edge."""
    n = g.member_count
    edges = g.edges()
    a = np.zeros((max(len(edges), 1), n))
    for row, (i, j) in enumerate(edges):
        a[row, i] = a[row, j] = 1
    res = milp(-np.ones(n), constraints=LinearConstraint(a, -np.inf, 1),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    assert res.success
    return round(-res.fun)


def milp_chromatic_number(g: IntersectionGraph) -> int:
    """chi from HiGHS's assignment model: x[v, c] puts member v in color c,
    y[c] opens color c; each member takes one color, the ends of an edge
    differ, a used color is open, and colors open in order."""
    n = g.member_count
    h = max(g.degrees) + 1   # a greedy coloring never needs more
    nx = n * h

    def x(v, c):
        return v * h + c

    rows, lower, upper = [], [], []

    def constrain(coeffs, lo, hi):
        row = np.zeros(nx + h)
        for col, value in coeffs:
            row[col] += value
        rows.append(row)
        lower.append(lo)
        upper.append(hi)

    for v in range(n):
        constrain([(x(v, c), 1) for c in range(h)], 1, 1)
        for c in range(h):
            constrain([(x(v, c), 1), (nx + c, -1)], -np.inf, 0)
    for i, j in g.edges():
        for c in range(h):
            constrain([(x(i, c), 1), (x(j, c), 1), (nx + c, -1)], -np.inf, 0)
    for c in range(h - 1):
        constrain([(nx + c, -1), (nx + c + 1, 1)], -np.inf, 0)
    cost = np.concatenate([np.zeros(nx), np.ones(h)])
    res = milp(cost, constraints=LinearConstraint(np.array(rows), lower, upper),
               integrality=np.ones(nx + h), bounds=Bounds(0, 1))
    assert res.success
    return round(res.fun)


class TestMilpCrossCheck:
    """Values from an independent solver, HiGHS through `scipy.optimize.milp`.
    Only the values are compared: HiGHS's choice of witness is not fixed."""

    @pytest.mark.parametrize("n,alpha", [(55, 19), (70, 22)])
    def test_independence_number_of_dense_triangle_families(self, n, alpha):
        # the search without its coloring bound is far slower than this gate
        g = build_graph(random_family(TRIANGLE, n, (0, 6), seed=1))
        t0 = time.perf_counter()
        res = max_independent_set(g)
        assert time.perf_counter() - t0 < 1.0
        assert not res.capped and res.value == alpha == milp_independence_number(g)
        assert not g.matrix[np.ix_(res.witness, res.witness)].any()

    @pytest.mark.parametrize("name", ["pentagon-k2", "triangle-n40"])
    def test_chromatic_number(self, name):
        fam = (pentagon_family(2) if name == "pentagon-k2"
               else random_family(TRIANGLE, 40, (0, 6), seed=1))
        g = build_graph(fam)
        res = chromatic_number(g)
        assert not res.capped and res.value == milp_chromatic_number(g)
        if name == "pentagon-k2":
            assert res.value == 5


class TestMaxIndependentSet:
    def test_c5(self):
        assert max_independent_set(c5_graph()).value == 2

    def test_grid_against_brute_force(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        assert max_independent_set(g).value == 4
        assert brute_max_independent_set(graph_matrix(g)) == 4

    def test_pentagon_disjoint(self):
        g = build_graph(pentagon_disjoint_family(2))
        assert max_independent_set(g).value == 4

    def test_search_depth_is_not_bound_by_the_recursion_limit(self):
        # pentagon k=3 plus 1,050 isolated members: the independent set grows
        # one search level per member, 1,052 in all, past the default
        # recursion limit of 1,000
        adj = np.zeros((1065, 1065), dtype=bool)
        adj[:15, :15] = build_graph(pentagon_family(3)).matrix
        g = IntersectionGraph.from_matrix(adj)
        res = max_independent_set(g, cap=2000)
        assert res.value == 1052 and not res.capped
        assert not adj[np.ix_(res.witness, res.witness)].any()


class TestChromaticNumber:
    def test_odd_cycle(self):
        assert chromatic_number(c5_graph()).value == 3

    def test_pentagon_five_coloring(self):
        assert chromatic_number(build_graph(pentagon_family(2))).value == 5

    def test_pentagon_k3(self):
        assert chromatic_number(build_graph(pentagon_family(3))).value == 8

    def test_search_depth_is_not_bound_by_the_recursion_limit(self):
        # pentagon k=3 plus 1,050 isolated members: the successful k = 8
        # search stacks one frame per member outside the 6-member seed
        # clique, 1,059 in all, past the default recursion limit of 1,000
        adj = np.zeros((1065, 1065), dtype=bool)
        adj[:15, :15] = build_graph(pentagon_family(3)).matrix
        g = IntersectionGraph.from_matrix(adj)
        res = chromatic_number(g, cap=2000)
        assert res.value == 8 and not res.capped
        assert verify_coloring(g, list(res.witness))

    def test_witness_proper(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        res = chromatic_number(g)
        assert res.value == 9
        assert verify_coloring(g, list(res.witness))
        assert max(res.witness) + 1 == res.value

    def test_capped_reports_bounds(self):
        g = IntersectionGraph.from_matrix(random_graph(1, 25))
        res = chromatic_number(g, cap=10)
        assert res.capped and res.lower <= res.upper
        assert verify_coloring(g, list(res.witness))  # greedy witness still proper


class TestCliqueCover:
    def test_c5(self):
        assert clique_cover_number(c5_graph()).value == 3

    def test_pentagon_disjoint(self):
        assert clique_cover_number(build_graph(pentagon_disjoint_family(2))).value == 6

    def test_grid(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        res = clique_cover_number(g)
        assert res.value == 4
        assert verify_clique_partition(g, list(res.witness))

    def test_capped_above_the_cap_stays_greedy(self):
        # the complement of a sparse graph is dense: an exact clique search
        # there would not finish, so the lower bound must come from the cap
        g = IntersectionGraph.from_matrix(random_graph(2, 200, p=0.04))
        t0 = time.perf_counter()
        res = clique_cover_number(g, cap=45)
        assert time.perf_counter() - t0 < 1.0
        assert res.capped and res.value is None
        assert 1 <= res.lower <= res.upper
        assert verify_clique_partition(g, list(res.witness))


class TestVerifiers:
    def test_c5_colorings(self):
        g = c5_graph()
        assert verify_coloring(g, [0, 1, 0, 1, 2])
        assert not verify_coloring(g, [0, 1, 0, 1, 0])

    def test_explicit_pentagon_coloring(self):
        g = build_graph(pentagon_family(2))
        assert verify_coloring(g, list(explicit_pentagon_coloring(2)))

    def test_partition_checks(self):
        g = c5_graph()
        assert verify_clique_partition(g, [0, 0, 1, 1, 2])
        assert not verify_clique_partition(g, [0, 0, 0, 1, 1])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            verify_coloring(c5_graph(), [0, 1])


class TestComplementDuality:
    def test_random_graphs(self):
        for seed in range(100):
            n = 6 + seed % 15
            adj = random_graph(seed, n)
            g = IntersectionGraph.from_matrix(adj)
            comp = g.complement()
            chi = chromatic_number(g).value
            theta_comp = clique_cover_number(comp).value
            assert chi == theta_comp
            assert max_clique(g).value == max_independent_set(comp).value
            assert max_clique(g).value <= chi

    def test_brute_force_spot_checks(self):
        for seed in range(10):
            adj = random_graph(seed + 500, 9)
            g = IntersectionGraph.from_matrix(adj)
            assert max_clique(g).value == brute_max_clique(adj)
            assert chromatic_number(g).value == brute_chromatic(adj)


class TestDeterminism:
    def test_identical_witnesses(self, unit_square):
        g1 = build_graph(grid_family(unit_square, 2))
        g2 = build_graph(grid_family(unit_square, 2))
        assert max_clique(g1) == max_clique(g2)
        assert chromatic_number(g1) == chromatic_number(g2)
        assert clique_cover_number(g1) == clique_cover_number(g2)


class TestInvariantsBundle:
    def test_chains_assert(self, unit_square):
        inv = compute_invariants(build_graph(grid_family(unit_square, 2)))
        assert (inv.omega.value, inv.alpha.value, inv.chi.value, inv.theta.value) == (9, 4, 9, 4)

    def test_bad_bundle_rejected(self):
        from convex_chroma.graph_core import SolveResult

        with pytest.raises(ConsistencyError):
            GraphInvariants(
                omega=SolveResult(value=5, witness=()),
                alpha=SolveResult(value=1, witness=()),
                chi=SolveResult(value=3, witness=()),
                theta=SolveResult(value=1, witness=()),
            )


class TestDimacs:
    def test_format(self):
        text = to_dimacs(build_graph(pentagon_family(1)))
        lines = text.strip().splitlines()
        assert lines[0] == "p edge 5 5"
        assert len(lines) == 6
        assert all(line.startswith("e ") for line in lines[1:])

    def test_grid_node_count(self, unit_square):
        text = to_dimacs(build_graph(grid_family(unit_square, 2)))
        assert text.startswith("p edge 16 ")

    def test_round_trip(self, unit_square):
        g = build_graph(grid_family(unit_square, 2))
        again = from_dimacs(to_dimacs(g))
        assert again.rows == g.rows

    def test_comments_and_errors(self):
        g = from_dimacs("c comment\np edge 3 1\ne 1 2\n")
        assert g.adjacent(0, 1) and not g.adjacent(0, 2)
        with pytest.raises(ValueError):
            from_dimacs("e 1 2\n")
        with pytest.raises(ValueError):
            from_dimacs("p edge 2 1\ne 1 5\n")
