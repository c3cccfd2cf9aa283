"""Intersection graphs and exact invariants: max clique, max independent set,
chromatic number, and clique-cover number, all with verifiable witnesses.

A graph is one read-only boolean n x n adjacency matrix, checked once on
construction; `build_graph` takes it from `pairwise_adjacency`, which tests
only the member pairs within reach of an x-sorted sweep.  Every reader slices
or masks the matrix (edges, complements, subgraphs, the coloring and
clique-partition checks, the translate posets and the homothet rounds).  The
exact solvers work on `rows`, one bitmask per member, packed from the matrix
on first use.  The complement is built once and kept, so alpha/nu and theta
share its packing and degree list.

The maximum clique search (behind omega and alpha) is Bron-Kerbosch with
pivoting, pruned by a greedy coloring of each node's candidates: a node whose
candidates take no more colors than the incumbent leaves room for holds no
larger clique.  One iterative DSATUR search gives both the greedy coloring and
the exact chromatic number; it keeps its uncolored members in one bitmask per
saturation level, over the members ranked by degree, so the next member is a
lowest set bit and not a scan.

Solvers are exact and deterministic (lowest-index tie-breaking).  Instances
above the caps return explicit "capped" results carrying bounds instead of
silently degrading to heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .families import Family
from .geometry import ConsistencyError, pairwise_adjacency

DEFAULT_OMEGA_CAP = 100
DEFAULT_CHI_CAP = 45


class CapExceeded(RuntimeError):
    """Raised only when a caller insists on an exact value above the cap."""


@dataclass(frozen=True)
class SolverCaps:
    omega: int = DEFAULT_OMEGA_CAP
    chi: int = DEFAULT_CHI_CAP


@dataclass(frozen=True, eq=False)
class IntersectionGraph:
    """Undirected graph over family members, held as one read-only boolean
    adjacency matrix; equality is identity."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        matrix = np.array(self.matrix)
        if matrix.dtype != bool or matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("adjacency must be a square boolean matrix, "
                             f"got {matrix.dtype} of shape {matrix.shape}")
        if matrix.diagonal().any():
            raise ValueError("adjacency must be irreflexive")
        if not (matrix == matrix.T).all():
            raise ValueError("adjacency must be symmetric")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @staticmethod
    def from_matrix(adj: np.ndarray) -> "IntersectionGraph":
        """The graph of adj's nonzero entries; the diagonal is ignored."""
        mask = np.array(adj, dtype=bool)
        np.fill_diagonal(mask, False)
        return IntersectionGraph(mask)

    @property
    def member_count(self) -> int:
        return len(self.matrix)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """One bitmask per member, bit j of row i set where i and j are
        adjacent: the working form of the exact solvers."""
        return _pack_rows(self.matrix)

    @cached_property
    def degrees(self) -> list[int]:
        return self.matrix.sum(axis=1).tolist()

    @cached_property
    def _by_degree(self) -> tuple[list[int], tuple[int, ...]]:
        """DSATUR's relabelling: the members by degree, highest first and the
        lowest index on ties, and the bit rows of the graph in that order."""
        order = np.argsort(-np.asarray(self.degrees, dtype=np.int64), kind="stable")
        return order.tolist(), _pack_rows(self.matrix[np.ix_(order, order)])

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (i, j) with i < j, in row-major order."""
        return [(i, j) for i, j in np.argwhere(np.triu(self.matrix)).tolist()]

    @cached_property
    def _complement(self) -> "IntersectionGraph":
        return IntersectionGraph.from_matrix(~self.matrix)

    def complement(self) -> "IntersectionGraph":
        """The complement graph, built on first use and kept."""
        return self._complement

    def subgraph(self, members: list[int]) -> "IntersectionGraph":
        return IntersectionGraph.from_matrix(self.matrix[np.ix_(members, members)])


def _pack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def build_graph(family: Family) -> IntersectionGraph:
    """Intersection graph of the family; adjacency = closed geometric intersection."""
    adj = pairwise_adjacency(family.body, family.centers(), family.scales())
    return IntersectionGraph.from_matrix(adj)


@dataclass(frozen=True)
class SolveResult:
    """Exact value with witness, or a capped result carrying bounds only."""

    value: int | None
    witness: tuple = ()
    capped: bool = False
    lower: int | None = None
    upper: int | None = None

    def require(self) -> int:
        if self.capped or self.value is None:
            raise CapExceeded("instance exceeded the solver cap")
        return self.value


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _needs_more_colors(p: int, rows: tuple[int, ...], bound: int) -> bool:
    """Whether a greedy coloring of the members in p needs more than `bound`
    colors.  Each color class takes the lowest member left, drops its
    neighbours from the class's candidates, and repeats until none is left;
    the count stops as soon as it passes the bound."""
    classes = 0
    while p:
        classes += 1
        if classes > bound:
            return True
        candidates = p
        while candidates:
            low = candidates & -candidates
            p ^= low
            candidates = (candidates ^ low) & ~rows[low.bit_length() - 1]
    return classes > bound


def max_clique(g: IntersectionGraph, cap: int = DEFAULT_OMEGA_CAP) -> SolveResult:
    """Exact maximum clique by Bron-Kerbosch with greedy pivoting, run on an
    explicit stack of open nodes (one per member of the growing clique), so
    its depth is not bound by the recursion limit.

    An open node with clique r and candidates p is pushed only if a greedy
    coloring of p needs more than |best| - |r| colors (Tomita and Seki's MCQ,
    2003, on bit rows as in San Segundo et al.'s BBMC, 2011).  The members of
    one color class are pairwise non-adjacent, so every clique in p takes at
    most one member per class, and every clique below the node has at most
    |r| + (colors of p) <= |best| members.  The incumbent only grows and is
    replaced only by a strictly larger clique, so no node below a pruned one
    would ever have replaced it; and pruning a subtree changes neither the
    incumbent nor the p and x its parent goes on with.  The search therefore
    meets the same incumbents in the same order as the search without the
    bound, and returns the same witness."""
    n = g.member_count
    if n > cap:
        greedy = _greedy_clique(g)
        return SolveResult(value=None, witness=tuple(greedy), capped=True,
                           lower=len(greedy), upper=n)
    if n == 0:
        return SolveResult(value=0, witness=())
    rows = g.rows
    best: list[int] = []
    r: list[int] = []
    nodes: list[list[int]] = []   # [p, x, branches left]; node d's clique is r[:d]
    p, x = (1 << n) - 1, 0
    while True:
        if p == 0 and x == 0:
            if len(r) > len(best):
                best = r[:]
        elif (len(r) + p.bit_count() > len(best)
              and _needs_more_colors(p, rows, len(best) - len(r))):
            pivot, pivot_deg = -1, -1
            for u in _bits(p | x):
                d = (p & rows[u]).bit_count()
                if d > pivot_deg:
                    pivot, pivot_deg = u, d
            nodes.append([p, x, p & ~rows[pivot]])
        while nodes and not nodes[-1][2]:
            nodes.pop()
        if not nodes:
            return SolveResult(value=len(best), witness=tuple(sorted(best)))
        node = nodes[-1]
        p, x, branches = node
        low = branches & -branches
        node[0], node[1], node[2] = p & ~low, x | low, branches ^ low
        del r[len(nodes) - 1:]
        v = low.bit_length() - 1
        r.append(v)
        p, x = p & rows[v], x & rows[v]


def _greedy_clique(g: IntersectionGraph) -> list[int]:
    degrees = g.degrees
    order = sorted(range(g.member_count), key=lambda i: (-degrees[i], i))
    clique: list[int] = []
    mask = (1 << g.member_count) - 1
    for v in order:
        if (mask >> v) & 1:
            clique.append(v)
            mask &= g.rows[v]
    return sorted(clique)


def max_independent_set(g: IntersectionGraph, cap: int = DEFAULT_OMEGA_CAP) -> SolveResult:
    """Exact maximum independent set = max clique of the complement."""
    return max_clique(g.complement(), cap=cap)


def _shift_levels(levels: list[int], moved: int, visit: range, step: int) -> None:
    """Move each member of `moved` from its saturation level s to s + step.
    `visit` walks the levels against the move, so no member moves twice."""
    for s in visit:
        if not moved:
            return
        at = levels[s] & moved
        if at:
            levels[s] ^= at
            levels[s + step] |= at
            moved ^= at


def _dsatur(g: IntersectionGraph, k: int, seed_clique: tuple[int, ...] = ()) -> list[int] | None:
    """DSATUR search (Brelaz 1979) for a proper coloring with at most
    k >= len(seed_clique) colors, or None.  The uncolored member with the most
    distinct neighbour colors (then the highest degree, then the lowest index)
    takes the lowest free color, opening at most one new color at a time; a dead
    end pops the frame stack, whose frames keep the neighbours each choice marked.
    With k >= n no member runs out of colors, so the first descent is the greedy
    coloring.  The seed clique gets distinct colors: it prunes and breaks symmetry.

    The search runs on the members relabelled by rank, in (degree descending,
    index ascending) order, as bitmasks: `seen[c]` holds the uncolored members
    with a neighbour of color c, and `levels[s]` those with s distinct neighbour
    colors.  The member to color next is the lowest rank of the highest
    nonempty level, with no scan over the uncolored members."""
    n = g.member_count
    order, rows = g._by_degree
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    colors = [-1] * n   # by rank
    seen = [0] * n      # no more than n colors are ever open
    levels = [0] * (n + 2)
    free = (1 << n) - 1
    for c, v in enumerate(seed_clique):
        colors[rank[v]] = c
        free ^= 1 << rank[v]
    levels[0] = free
    for c, v in enumerate(seed_clique):
        seen[c] = rows[rank[v]] & free
        _shift_levels(levels, seen[c], range(c, -1, -1), 1)
    frames: list[tuple[int, int, int, int, int]] = []   # rank, color, colors used before, marked, level
    v, level, first, used = -1, 0, 0, len(seed_clique)
    while free:
        if v < 0:
            level = used
            while not levels[level]:
                level -= 1
            low = levels[level] & -levels[level]
            v, first = low.bit_length() - 1, 0
        bit = 1 << v
        for c in range(first, min(k, used + 1)):
            if not seen[c] & bit:
                break
        else:   # no color left for v: undo the last choice
            if not frames:
                return None
            v, c, used, touched, level = frames.pop()
            free |= 1 << v
            levels[level] |= 1 << v
            seen[c] ^= touched
            _shift_levels(levels, touched, range(1, used + 2), -1)
            first = c + 1
            continue
        colors[v] = c
        free ^= bit
        levels[level] ^= bit
        touched = rows[v] & free & ~seen[c]
        seen[c] |= touched
        _shift_levels(levels, touched, range(used, -1, -1), 1)
        frames.append((v, c, used, touched, level))
        v, used = -1, max(used, c + 1)
    return [colors[r] for r in rank]


def greedy_coloring(g: IntersectionGraph) -> list[int]:
    """DSATUR greedy proper coloring (upper bound for the exact search)."""
    return _dsatur(g, g.member_count)


def chromatic_number(
    g: IntersectionGraph, cap: int = DEFAULT_CHI_CAP, clique: SolveResult | None = None
) -> SolveResult:
    """Exact chromatic number via iterative deepening seeded with a clique
    lower bound and a DSATUR greedy upper bound; an exact `clique` (a known
    `max_clique(g)` result) replaces the search for one."""
    n = g.member_count
    if n == 0:
        return SolveResult(value=0, witness=())
    if clique is None or clique.capped:
        clique = max_clique(g, cap=cap)
    elif not _is_clique(g, clique.witness):
        raise ValueError("the given clique is not a clique of the graph")
    greedy = greedy_coloring(g)
    ub = max(greedy) + 1
    if n > cap:
        return SolveResult(value=None, witness=tuple(greedy), capped=True,
                           lower=clique.lower if clique.capped else clique.value, upper=ub)
    for k in range(clique.require(), ub):
        witness = _dsatur(g, k, clique.witness)
        if witness is not None:
            return SolveResult(value=k, witness=tuple(witness))
    return SolveResult(value=ub, witness=tuple(greedy))


def clique_cover_number(
    g: IntersectionGraph, cap: int = DEFAULT_CHI_CAP, independent: SolveResult | None = None
) -> SolveResult:
    """Exact clique-cover number: chromatic number of the complement graph.
    `independent` is a known `max_independent_set(g)` result, used as
    `chromatic_number`'s clique of the complement."""
    return chromatic_number(g.complement(), cap=cap, clique=independent)


def verify_coloring(g: IntersectionGraph, assignment) -> bool:
    """True iff the assignment covers all members and no edge is monochromatic."""
    if len(assignment) != g.member_count:
        raise IndexError("assignment must cover all members")
    colors = np.asarray(assignment)
    return not (g.matrix & (colors[:, None] == colors[None, :])).any()


def verify_clique_partition(g: IntersectionGraph, assignment) -> bool:
    """True iff every class of the assignment is pairwise adjacent."""
    if len(assignment) != g.member_count:
        raise IndexError("assignment must cover all members")
    classes = np.asarray(assignment)
    same = classes[:, None] == classes[None, :]
    np.fill_diagonal(same, False)
    return not (same & ~g.matrix).any()


def _is_clique(g: IntersectionGraph, members) -> bool:
    members = list(set(members))
    return bool((g.matrix[np.ix_(members, members)] | np.eye(len(members), dtype=bool)).all())


@dataclass(frozen=True)
class GraphInvariants:
    """Exact omega/alpha/chi/theta with witnesses; checks the obvious chains."""

    omega: SolveResult
    alpha: SolveResult
    chi: SolveResult
    theta: SolveResult

    def __post_init__(self):
        if not self.omega.capped and not self.chi.capped and self.omega.value > self.chi.value:
            raise ConsistencyError("omega <= chi must hold")
        if not self.alpha.capped and not self.theta.capped and self.alpha.value > self.theta.value:
            raise ConsistencyError("alpha <= theta must hold")


def compute_invariants(g: IntersectionGraph, caps: SolverCaps = SolverCaps()) -> GraphInvariants:
    omega = max_clique(g, cap=caps.omega)
    alpha = max_independent_set(g, cap=caps.omega)
    inv = GraphInvariants(
        omega=omega,
        alpha=alpha,
        chi=chromatic_number(g, cap=caps.chi, clique=omega),
        theta=clique_cover_number(g, cap=caps.chi, independent=alpha),
    )
    if not inv.omega.capped and not _is_clique(g, inv.omega.witness):
        raise ConsistencyError("clique witness failed")
    if not inv.chi.capped and not verify_coloring(g, list(inv.chi.witness)):
        raise ConsistencyError("coloring witness failed")
    if not inv.theta.capped and not verify_clique_partition(g, list(inv.theta.witness)):
        raise ConsistencyError("cover witness failed")
    return inv


def to_dimacs(g: IntersectionGraph) -> str:
    """DIMACS undirected edge format (1-based vertex ids)."""
    edges = g.edges()
    lines = [f"p edge {g.member_count} {len(edges)}"]
    lines += [f"e {i + 1} {j + 1}" for i, j in edges]
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> IntersectionGraph:
    n = None
    edges: list[tuple[int, int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4 or parts[1].lower() != "edge":
                raise ValueError(f"unsupported DIMACS problem line: {line!r}")
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        else:
            raise ValueError(f"unrecognized DIMACS line: {line!r}")
    if n is None:
        raise ValueError("DIMACS input is missing the problem line")
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i + 1},{j + 1}) out of range")
        adj[i, j] = adj[j, i] = True   # from_matrix clears the diagonal
    return IntersectionGraph.from_matrix(adj)
