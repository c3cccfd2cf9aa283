"""Constructive coloring and clique partition of translate families.

Pipeline: an inscribed parallelogram normalizes the family so the fitted P is
the axis-parallel unit cube; a generic offset picks lattice lines parallel to
the last axis (first n-1 coordinates) and unit cells along the last axis;
within each (line, cell-residue) class, disjointness + lower-last-coordinate
is a strict partial order whose comparability graph is the class's
co-intersection graph.  Dilworth chain covers then color each class optimally
and Mirsky antichain layers partition it into cliques, with palette
accounting multiplying by M^(n-1) * c classes overall.

The moduli are parameterized by the measured containment ratio r: M = ceil(r)
+ 1 per cross axis and c = ceil(M / 2) along the last axis, which keeps the
disjointness arithmetic (M - 1 >= r and 2c - 1 >= r) valid and recovers the
classical (n+1)^(n-1) * ceil((n+1)/2) factor when r = n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import Family
from .geometry import ConsistencyError, GeometryError, _shape
from .graph_core import IntersectionGraph, build_graph
from .reports import ClassSummary, ColoringReport, PartitionReport

OFFSET_CLEARANCE = 1e-6
MAX_OFFSET_DRAWS = 100


@dataclass(frozen=True)
class BoundParams:
    """Moduli derived from the measured containment ratio r."""

    n: int
    r: float
    M: int
    c: int
    t_bound: int

    @staticmethod
    def from_ratio(n: int, r: float) -> "BoundParams":
        if r < 1.0 - 1e-9:
            raise ValueError(f"containment ratio must be >= 1, got {r}")
        r = max(r, 1.0)
        m = math.ceil(r - 1e-9) + 1
        c = math.ceil(m / 2)
        params = BoundParams(n=n, r=r, M=m, c=c, t_bound=m ** (n - 1) * c)
        if params.M - 1 < r - 1e-9 or 2 * params.c - 1 < r - 1e-9:
            raise ConsistencyError("line and cell moduli must dominate the ratio")
        return params

    def to_json(self) -> dict:
        return {"n": self.n, "r": self.r, "M": self.M, "c": self.c, "t_bound": self.t_bound}


@dataclass
class NormalizedFamily:
    """Original family plus the linear map sending the fitted P to a translate
    of the unit cube."""

    family: Family
    matrix: np.ndarray          # the linear map S
    refs: np.ndarray            # normalized reference points S(center), one row per member
    params: BoundParams


@dataclass(frozen=True)
class Offsets:
    """Generic lattice offset: b for the n-1 line axes, one cell offset, and
    the certified clearance to every tangency condition."""

    b: tuple[float, ...]
    cell_offset: float
    clearance: float
    seed: int
    attempts: int


@dataclass
class Decomposition:
    line_keys: np.ndarray       # (N, n-1) integer line indices
    cells: np.ndarray           # (N,) integer cell indices along the last axis
    cell_residues: np.ndarray   # cells mod c
    offsets: Offsets
    params: BoundParams

    def classes(self) -> dict[tuple[tuple[int, ...], int], list[int]]:
        """Members grouped by (full line key, cell residue), sorted keys."""
        out: dict[tuple[tuple[int, ...], int], list[int]] = {}
        rows = zip(self.line_keys.tolist(), self.cell_residues.tolist())
        for i, (line, residue) in enumerate(rows):
            out.setdefault((tuple(line), residue), []).append(i)
        return dict(sorted(out.items()))

    def block_of(self, class_key: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        line_key, c_res = class_key
        return (tuple(k % self.params.M for k in line_key), c_res)


@dataclass
class PosetClass:
    """One (line, cell-residue) class with its strict partial order.

    relation[i, j] is True iff member i precedes member j: they are disjoint
    and i's reference point has the strictly smaller last coordinate.
    """

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


def normalize(family: Family) -> NormalizedFamily:
    """Affine-normalize a translate family so the fitted parallelogram is the
    unit cube; boxes of any dimension <= 6 fit themselves (r = 1)."""
    if not family.is_translate_family:
        raise GeometryError("the translates method needs a uniform-scale family")
    body = family.body
    scale = float(family.scales()[0]) if len(family) else 1.0
    matrix, ratio = _shape(body).normalizing_map(body, scale)
    n = body.dimension
    params = BoundParams.from_ratio(n, ratio)
    centers = family.centers()
    refs = centers @ matrix.T if len(family) else np.zeros((0, n))
    return NormalizedFamily(family=family, matrix=matrix, refs=refs, params=params)


def choose_offsets(nf: NormalizedFamily, seed: int = 0) -> Offsets:
    """Seeded generic offsets: every reference coordinate stays at least
    OFFSET_CLEARANCE away from a line tangency or a cell boundary, else
    GeometryError (references too dense or beyond float resolution)."""
    n = nf.params.n
    rng = np.random.default_rng(seed)
    refs = nf.refs
    for attempt in range(1, MAX_OFFSET_DRAWS + 1):
        draw = rng.random(n)
        b, cell = draw[: n - 1], float(draw[n - 1])
        if len(refs) == 0:
            return Offsets(b=tuple(b), cell_offset=cell, clearance=0.5,
                           seed=seed, attempts=attempt)
        shifted = refs - np.concatenate([b, [cell]])
        dist = np.abs(np.mod(shifted, 1.0) - 0.5)
        clearance = float(dist.min())
        if clearance >= OFFSET_CLEARANCE:
            return Offsets(b=tuple(float(x) for x in b), cell_offset=cell,
                           clearance=clearance, seed=seed, attempts=attempt)
    raise GeometryError(
        f"no offset with clearance >= {OFFSET_CLEARANCE:g} in {MAX_OFFSET_DRAWS} draws"
    )


def decompose(nf: NormalizedFamily, offsets: Offsets) -> Decomposition:
    """Assign each member its unique lattice line and half-open unit cell."""
    params = nf.params
    n = params.n
    refs = nf.refs
    if len(refs) == 0:
        empty = np.zeros((0, max(n - 1, 0)), dtype=int)
        return Decomposition(line_keys=empty, cells=np.zeros(0, dtype=int),
                             cell_residues=np.zeros(0, dtype=int),
                             offsets=offsets, params=params)
    b = np.asarray(offsets.b)
    cross = refs[:, : n - 1] - b
    with np.errstate(invalid="ignore"):  # a key that overflows the cast fails the check
        line_keys = np.floor(cross + 0.5).astype(int)
    if not (np.abs(cross - line_keys) < 0.5).all():
        raise GeometryError("a reference point is tangent to a lattice line")
    cells = np.floor(refs[:, n - 1] - offsets.cell_offset + 0.5).astype(int)
    return Decomposition(
        line_keys=line_keys,
        cells=cells,
        cell_residues=np.mod(cells, params.c),
        offsets=offsets,
        params=params,
    )


def build_poset(members: list[int], nf: NormalizedFamily,
                graph: IntersectionGraph) -> PosetClass:
    """Strict partial order on one class: disjoint (in the family's graph) and
    strictly lower last coordinate.  Transitivity failures raise (they would
    falsify the fit)."""
    last = nf.refs[members, nf.params.n - 1] if members else np.zeros(0)
    disjoint = ~graph.matrix[np.ix_(members, members)]
    np.fill_diagonal(disjoint, False)
    if (disjoint & (last[:, None] == last[None, :])).any():
        raise ConsistencyError("disjoint class members share a last coordinate")
    relation = disjoint & (last[:, None] < last[None, :])
    return PosetClass(members=tuple(members), relation=relation, last_coords=last)


def _successors(relation: np.ndarray) -> list[list[int]]:
    """Each row's True columns in ascending order, read from one np.nonzero."""
    cols = np.nonzero(relation)[1].tolist()
    ends = relation.sum(axis=1).cumsum().tolist()
    return [cols[a:b] for a, b in zip([0, *ends], ends)]


def chain_partition(poset: PosetClass) -> list[list[int]]:
    """Minimum chain cover via Dilworth reduction to bipartite matching.

    The relation is transitively closed, so the path cover count m - |matching|
    equals the maximum antichain, i.e. the clique number of the class's
    intersection graph.  Chains are reported in member-index terms.
    """
    m = len(poset.members)
    succ = _successors(poset.relation)
    match_left = [-1] * m   # successor chosen for each node
    match_right = [-1] * m  # predecessor that claimed each node

    # Kuhn's augmenting-path search from each root, depth first on an explicit
    # stack (a path can outgrow the recursion limit), successors ascending
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
            # flip the path: each node takes the successor it tried, which
            # below the top is the old partner of the node above
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


def antichain_partition(poset: PosetClass) -> list[list[int]]:
    """Mirsky height layering: as many antichains as the longest chain, and
    each antichain is a clique in the intersection graph."""
    m = len(poset.members)
    preds = _successors(poset.relation.T)
    order = sorted(range(m), key=lambda i: (poset.last_coords[i], i))
    level = [0] * m
    for i in order:
        level[i] = 1 + max(level[j] for j in preds[i]) if preds[i] else 0
    height = max(level) + 1 if m else 0
    layers: list[list[int]] = [[] for _ in range(height)]
    for i in range(m):
        layers[level[i]].append(poset.members[i])
    return layers


@dataclass
class TranslatePipeline:
    """One run of the pipeline: the decomposition, each class's poset, and its
    Dilworth chains and Mirsky layers, from which both reports are built."""

    nf: NormalizedFamily
    dec: Decomposition
    posets: dict[tuple, PosetClass]
    chains: dict[tuple, list[list[int]]]
    layers: dict[tuple, list[list[int]]]
    summaries: tuple[ClassSummary, ...]

    def coloring(self) -> ColoringReport:
        """Proper coloring with at most t_bound * omega colors.

        Chain indices are reused across lines inside one residue block (the max
        accounting) and palettes are disjoint across blocks (the sum accounting).
        """
        blocks: dict[tuple, list] = {}
        for key in self.posets:
            blocks.setdefault(self.dec.block_of(key), []).append(key)

        n = len(self.nf.family)
        colors = [0] * n
        labels: list[tuple] = [()] * n
        base = 0
        for block_key in sorted(blocks):
            width_ = max(len(self.chains[k]) for k in blocks[block_key])
            for class_key in blocks[block_key]:
                for idx, chain in enumerate(self.chains[class_key]):
                    for member in chain:
                        colors[member] = base + idx
                        labels[member] = block_key
            base += width_

        omega_used = max((len(ch) for ch in self.chains.values()), default=0)
        return ColoringReport(
            method="theorem1",
            colors=tuple(colors),
            colors_used=base,
            bound_value=self.nf.params.t_bound * omega_used,
            bound_basis="t_bound*omega",
            omega_used=omega_used,
            seed=self.dec.offsets.seed,
            params=self.nf.params.to_json(),
            block_labels=tuple(labels),
            classes=self.summaries,
        )

    def partition(self) -> PartitionReport:
        """Clique partition with at most t_bound * nu classes (sum accounting
        across lines and across residue blocks)."""
        assign = [0] * len(self.nf.family)
        base = 0
        for class_key in sorted(self.posets):
            for idx, layer in enumerate(self.layers[class_key]):
                for member in layer:
                    assign[member] = base + idx
            base += len(self.layers[class_key])

        block_totals: dict[tuple, int] = {}
        for key in self.posets:
            block = self.dec.block_of(key)
            block_totals[block] = block_totals.get(block, 0) + len(self.layers[key])
        nu_used = max(block_totals.values(), default=0)
        return PartitionReport(
            method="theorem1",
            classes_assign=tuple(assign),
            classes_used=base,
            bound_value=self.nf.params.t_bound * nu_used,
            bound_basis="t_bound*nu",
            nu_used=nu_used,
            seed=self.dec.offsets.seed,
            params=self.nf.params.to_json(),
            classes=self.summaries,
        )


def translate_pipeline(family: Family, graph: IntersectionGraph,
                       seed: int = 0) -> TranslatePipeline:
    """Normalize, pick offsets, decompose, and partition every class poset
    into chains and antichains; `graph` is the family's intersection graph."""
    nf = normalize(family)
    dec = decompose(nf, choose_offsets(nf, seed))
    posets = {key: build_poset(members, nf, graph) for key, members in dec.classes().items()}
    chains = {key: chain_partition(p) for key, p in posets.items()}
    layers = {key: antichain_partition(p) for key, p in posets.items()}
    summaries = tuple(
        ClassSummary(line_key=key[0], cell_residue=key[1], members=posets[key].members,
                     chain_count=len(chains[key]), antichain_count=len(layers[key]))
        for key in sorted(posets)
    )
    return TranslatePipeline(nf, dec, posets, chains, layers, summaries)


def color_translates(family: Family, seed: int = 0) -> ColoringReport:
    """Proper coloring with at most t_bound * omega colors."""
    return translate_pipeline(family, build_graph(family), seed).coloring()


def clique_partition_translates(family: Family, seed: int = 0) -> PartitionReport:
    """Clique partition with at most t_bound * nu classes."""
    return translate_pipeline(family, build_graph(family), seed).partition()
