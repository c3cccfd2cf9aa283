"""Constructive coloring and clique partition of translate families.

Pipeline: an inscribed parallelogram normalizes the family so the fitted P is
the axis-parallel unit cube; a generic offset picks lattice lines parallel to
the last axis (first n-1 coordinates) and unit cells along the last axis;
within each (line, cell-residue) class, disjointness + lower-last-coordinate
is a strict partial order whose comparability graph is the class's
co-intersection graph.  Dilworth chain covers then color each class optimally
and Mirsky antichain layers partition it into cliques, with palette
accounting multiplying by M^(n-1) * c classes overall.

Every class goes through each stage at once.  One stable lexsort groups the
members by (line, residue); `build_poset` gathers, checks and bit-packs the
orders of all classes whose sizes share a power-of-two ceiling in one batch,
so each class's relation becomes Python-int rows (bit j is its j-th member).
Kuhn's matching and Mirsky's layering then run on those rows, one class
after another, visiting successors and layers in the same order as a scan of
the boolean matrix would.

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
GROUP_FLOOR = 16


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

    def grouping(self) -> tuple[np.ndarray, np.ndarray, list[tuple[tuple[int, ...], int]]]:
        """Members grouped by (full line key, cell residue) with one stable
        lexsort: the member order (ascending inside each class), the bounds
        of each class in it, and the class keys, sorted."""
        keys = np.column_stack([self.line_keys, self.cell_residues])
        order = np.lexsort(keys.T[::-1])
        ranked = keys[order]
        edges = np.ones(len(order) + 1, dtype=bool)
        edges[1:-1] = (ranked[1:] != ranked[:-1]).any(axis=1)
        bounds = np.flatnonzero(edges)
        class_keys = [(tuple(row[:-1]), row[-1]) for row in ranked[bounds[:-1]].tolist()]
        return order, bounds, class_keys

    def classes(self) -> dict[tuple[tuple[int, ...], int], list[int]]:
        """Members grouped by (full line key, cell residue), sorted keys."""
        order, bounds, class_keys = self.grouping()
        members = order.tolist()
        return {key: members[a:b] for key, a, b in zip(class_keys, bounds, bounds[1:])}

    def block_of(self, class_key: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        line_key, c_res = class_key
        return (tuple(k % self.params.M for k in line_key), c_res)


@dataclass
class PosetClass:
    """One (line, cell-residue) class with its strict partial order as bit rows.

    Member i precedes member j (positions in `members`, which ascend) iff they
    are disjoint and i's reference point has the strictly smaller last
    coordinate; then bit j of succ[i] and bit i of pred[j] are set.  `order`
    lists the positions by ascending last coordinate, ties by position: a
    linear extension of the order.
    """

    members: tuple[int, ...]
    succ: list[int]
    pred: list[int]
    order: list[int]


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
    refs = family.centers() @ matrix.T
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
    cross = refs[:, : n - 1] - np.asarray(offsets.b)
    along = refs[:, n - 1] - offsets.cell_offset
    with np.errstate(invalid="ignore"):  # an index that overflows the cast fails its check
        line_keys = np.floor(cross + 0.5).astype(int)
        cells = np.floor(along + 0.5).astype(int)
    if not (np.abs(cross) < 2.0**63).all():
        raise GeometryError("a reference point is beyond the int64 range of the line keys")
    if not (np.abs(cross - line_keys) < 0.5).all():
        raise GeometryError("a reference point is tangent to a lattice line")
    if not (np.abs(along - cells) < 0.5).all():
        raise GeometryError("a reference point is on a cell boundary or beyond the cell range")
    return Decomposition(
        line_keys=line_keys,
        cells=cells,
        cell_residues=np.mod(cells, params.c),
        offsets=offsets,
        params=params,
    )


def build_poset(dec: Decomposition, nf: NormalizedFamily,
                graph: IntersectionGraph) -> dict[tuple, PosetClass]:
    """Every class's strict partial order, keyed by class in sorted order:
    disjoint (in the family's graph) and strictly lower last coordinate.

    Classes whose sizes share a power-of-two ceiling form one group, padded
    only to its largest class, and each group is one gather, one batch of
    checks and one bit packing.  Classes of up to GROUP_FLOOR members share
    one group: their padding costs less than a group's fixed NumPy calls.
    Disjoint members sharing a last coordinate raise, and so does an order
    that is not asymmetric and transitive (it would falsify the fit).
    """
    order, bounds, class_keys = dec.grouping()
    sizes = np.diff(bounds)
    groups: dict[int, list[int]] = {}
    for k, m in enumerate(sizes.tolist()):
        groups.setdefault((max(m, GROUP_FLOOR) - 1).bit_length(), []).append(k)
    last = nf.refs[:, nf.params.n - 1]
    posets: list[PosetClass | None] = [None] * len(class_keys)
    for group in groups.values():
        starts, counts = bounds[group, None], sizes[group, None]
        span = int(counts.max())
        pos = np.arange(span)
        real = pos < counts
        idx = order[np.where(real, starts + pos, starts)]  # pad with each class's first member
        coords = np.where(real, last[idx], np.nan)          # NaN compares False: no padded pair
        disjoint = ~graph.matrix[idx[:, :, None], idx[:, None, :]]
        disjoint[:, pos, pos] = False
        if (disjoint & (coords[:, :, None] == coords[:, None, :])).any():
            raise ConsistencyError("disjoint class members share a last coordinate")
        relation = disjoint & (coords[:, :, None] < coords[:, None, :])
        _check_orders(relation)
        succ, pred = _bit_rows(np.stack((relation, relation.transpose(0, 2, 1)))[:, real])
        ids = idx[real].tolist()
        ranks = np.argsort(coords, axis=1, kind="stable").tolist()
        at = 0
        for k, rank, m in zip(group, ranks, counts[:, 0].tolist()):
            posets[k] = PosetClass(members=tuple(ids[at:at + m]), succ=succ[at:at + m],
                                   pred=pred[at:at + m], order=rank[:m])
            at += m
    return dict(zip(class_keys, posets))


def _check_orders(relation: np.ndarray) -> None:
    """Raise unless every (s, s) block of a (g, s, s) batch of relations is
    asymmetric and transitive."""
    if (relation & relation.transpose(0, 2, 1)).any():
        raise ConsistencyError("precedence relation is not asymmetric")
    as_float = relation.astype(np.float32)
    composed = np.matmul(as_float, as_float) > 0  # BLAS; 0/1 sums stay exact
    if (composed & ~relation).any():
        raise ConsistencyError(
            "precedence relation is not transitive; the parallelogram fit "
            "does not dominate the body"
        )


def _bit_rows(rows: np.ndarray) -> list[list[int]]:
    """Each row of a (k, r, s) boolean array as a Python int whose bit j is
    column j: rows padded to whole 64-bit words and packed in one call, then
    read as `<u8` words when s <= 64, else with one int.from_bytes each."""
    k, r, s = rows.shape
    width = 64 * -(-s // 64)
    padded = np.zeros((k, r, width), dtype=bool)
    padded[..., :s] = rows
    packed = np.packbits(padded, bitorder="little")
    if width == 64:
        return packed.view("<u8").reshape(k, r).tolist()
    raw, step = packed.tobytes(), width // 8
    ints = [int.from_bytes(raw[a:a + step], "little") for a in range(0, len(raw), step)]
    return [ints[i * r:(i + 1) * r] for i in range(k)]


def chain_partition(posets: dict[tuple, PosetClass]) -> dict[tuple, list[list[int]]]:
    """Minimum chain cover of every class via Dilworth reduction to bipartite
    matching.

    The relation is transitively closed, so a class's path cover count
    m - |matching| equals its maximum antichain, i.e. the clique number of
    the class's intersection graph.  Chains are reported in member-index
    terms.
    """
    chains_of = {}
    for key, poset in posets.items():
        succ, m = poset.succ, len(poset.members)
        match_left = [-1] * m   # successor chosen for each node
        match_right = [-1] * m  # predecessor that claimed each node

        # Kuhn's augmenting-path search from each root, depth first on an
        # explicit stack (a path can outgrow the recursion limit).  A node's
        # next candidate is its lowest unvisited successor bit: every lower
        # successor has been visited already, so this is the ascending scan.
        for root in range(m):
            visited, stack = 0, [root]
            while stack:
                free = succ[stack[-1]] & ~visited
                if not free:
                    stack.pop()
                    continue
                bit = free & -free
                visited |= bit
                v = bit.bit_length() - 1
                if match_right[v] != -1:
                    stack.append(match_right[v])
                    continue
                # flip the path: each node takes the successor it tried,
                # which below the top is the old partner of the node above
                for u in reversed(stack):
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
        chains_of[key] = chains
    return chains_of


def antichain_partition(posets: dict[tuple, PosetClass]) -> dict[tuple, list[list[int]]]:
    """Mirsky height layering of every class: as many antichains as the
    longest chain, and each antichain is a clique in the intersection graph.

    Members are placed in a linear extension, so a member's predecessors are
    placed before it; its level is one above the highest layer its
    predecessor bits meet, scanning the layers' bitsets from the top.
    """
    layers_of = {}
    for key, poset in posets.items():
        level = [0] * len(poset.members)
        layer_bits: list[int] = []
        for i in poset.order:
            below = poset.pred[i]
            h = len(layer_bits) if below else 0
            while h and not layer_bits[h - 1] & below:
                h -= 1
            if h == len(layer_bits):
                layer_bits.append(0)
            layer_bits[h] |= 1 << i
            level[i] = h
        layers: list[list[int]] = [[] for _ in layer_bits]
        for i, h in enumerate(level):
            layers[h].append(poset.members[i])
        layers_of[key] = layers
    return layers_of


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
    posets = build_poset(dec, nf, graph)
    chains = chain_partition(posets)
    layers = antichain_partition(posets)
    summaries = tuple(
        ClassSummary(line_key=key[0], cell_residue=key[1], members=poset.members,
                     chain_count=len(chains[key]), antichain_count=len(layers[key]))
        for key, poset in posets.items()
    )
    return TranslatePipeline(nf, dec, posets, chains, layers, summaries)


def color_translates(family: Family, seed: int = 0) -> ColoringReport:
    """Proper coloring with at most t_bound * omega colors."""
    return translate_pipeline(family, build_graph(family), seed).coloring()


def clique_partition_translates(family: Family, seed: int = 0) -> PartitionReport:
    """Clique partition with at most t_bound * nu classes."""
    return translate_pipeline(family, build_graph(family), seed).partition()
