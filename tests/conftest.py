"""Shared fixtures and independent brute-force oracles for the test suite.

The oracles here deliberately avoid the library's solver paths: cliques are
enumerated by plain index-increasing recursion, hulls come from scipy, and
colorings are checked by direct backtracking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from scipy.spatial import ConvexHull

from convex_chroma.families import Family, translates
from convex_chroma.geometry import ConvexBody

# property tests draw the same examples on every run and keep no database
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture
def unit_square() -> ConvexBody:
    return ConvexBody.unit_square()


@pytest.fixture
def triangle() -> ConvexBody:
    return ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])


@pytest.fixture
def disk() -> ConvexBody:
    return ConvexBody.disk()


def family_of(body: ConvexBody, members, meta: dict | None = None) -> Family:
    """The family of `body` with the given (center, scale) members."""
    members = list(members)
    return Family(body, [c for c, _ in members], [s for _, s in members], meta)


def strip_family() -> Family:
    """1,600 unit squares centered on the line x = 0.25: one lattice line and
    one class, whose Kuhn matching needs an augmenting path of 1,274 steps."""
    y = np.sort(np.random.default_rng(0).uniform(0, 100, 1600))
    return translates(ConvexBody.unit_square(), [(0.25, float(v)) for v in y])


def random_polygon(seed: int, points: int = 10) -> ConvexBody:
    """Random strictly convex polygon: hull of gaussian points (CCW)."""
    rng = np.random.default_rng(seed)
    while True:
        pts = rng.normal(size=(points, 2))
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]
        if len(verts) >= 3:
            try:
                return ConvexBody.polygon(verts)
            except Exception:
                continue


def hull_vertices(points: np.ndarray) -> np.ndarray:
    """Independent convex hull oracle (scipy), CCW vertex array."""
    hull = ConvexHull(points)
    return points[hull.vertices]


def cyclic_equal(verts_a, verts_b, tol: float = 1e-9) -> bool:
    """Vertex lists equal as cyclic sequences (same orientation)."""
    a = [tuple(v) for v in verts_a]
    b = [tuple(v) for v in verts_b]
    if len(a) != len(b):
        return False
    n = len(a)
    for shift in range(n):
        if all(
            abs(a[i][0] - b[(i + shift) % n][0]) <= tol
            and abs(a[i][1] - b[(i + shift) % n][1]) <= tol
            for i in range(n)
        ):
            return True
    return False


def brute_max_clique(adj: np.ndarray) -> int:
    """Plain recursive clique enumeration (no pivoting, no bitsets)."""
    n = len(adj)
    best = 0

    def extend(start: int, current: list[int]):
        nonlocal best
        best = max(best, len(current))
        for v in range(start, n):
            if all(adj[v][u] for u in current):
                extend(v + 1, current + [v])

    extend(0, [])
    return best


def brute_max_independent_set(adj: np.ndarray) -> int:
    comp = ~adj.copy()
    np.fill_diagonal(comp, False)
    return brute_max_clique(comp)


def brute_chromatic(adj: np.ndarray) -> int:
    """Smallest k admitting a proper coloring, by direct backtracking."""
    n = len(adj)
    if n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def place(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in range(n) if adj[v][u]):
                    colors[v] = c
                    if place(v + 1):
                        return True
                    colors[v] = -1
            return False

        return place(0)

    for k in range(1, n + 1):
        if colorable(k):
            return k
    return n


def graph_matrix(g) -> np.ndarray:
    n = g.member_count
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j:
                adj[i, j] = g.adjacent(i, j)
    return adj


def random_graph(seed: int, n: int, p: float = 0.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return adj | adj.T
