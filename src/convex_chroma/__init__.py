"""convex-chroma: coloring and clique-partitioning intersection graphs of
translates and homothets of a convex body, with exact oracles and verified
covering certificates."""

from .covering import (
    CoveringCertificate,
    CoverReport,
    cover_by_translates,
    difference_certificate,
    known_certificate,
    verify_certificate,
)
from .constructions import (
    VolumeRatioReport,
    explicit_pentagon_coloring,
    grid_family,
    pentagon_disjoint_family,
    pentagon_family,
    random_family,
    volume_ratio_bounds,
)
from .families import Family, family_digest, load_family, save_family, translates
from .geometry import (
    ConsistencyError,
    ConvexBody,
    GeometryError,
    ParallelogramFit,
    Placement,
    containment_ratio,
    homothets_intersect,
    inscribed_parallelogram,
    minkowski_sum,
    reflect,
    symmetrize,
)
from .graph_core import (
    GraphInvariants,
    IntersectionGraph,
    SolveResult,
    SolverCaps,
    build_graph,
    chromatic_number,
    clique_cover_number,
    compute_invariants,
    from_dimacs,
    max_clique,
    max_independent_set,
    to_dimacs,
    verify_clique_partition,
    verify_coloring,
)
from .homothet_coloring import (
    PiercingAssignment,
    clique_partition_homothets,
    color_homothets,
    pierce_intersecting_smallest,
    size_order,
    symmetrized_certificate,
    symmetrized_family,
)
from .reports import ColoringReport, PartitionReport, RunReport
from .translate_coloring import (
    BoundParams,
    Decomposition,
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

__version__ = "0.1.0"
