"""Coloring and clique partition of homothet families via covering numbers.

A smallest-first removal order makes every member see at most
kappa(C-C, C) * (omega - 1) same-or-larger neighbors, so first-fit in the
reverse (decreasing size) order is a proper coloring within
kappa*(omega-1)+1 colors.  Clique partitions run greedy rounds: take the
smallest remaining homothet, pierce everything intersecting it with candidate
points scaled from a covering certificate, and remove the round.

The candidate points p1 + lam1*v_i are verified at runtime (every member must
contain its assigned point); a greedy point-stabbing fallback keeps the
partition valid if verification ever fails, and the report says so.

Corollary 1 (translates of C) is this route on the translates of K = (C-C)/2
at the same centers, which have the same intersection graph, with kappa(2K, K)
= kappa(C-C, K); `symmetrized_family` builds that family and its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import DEFAULT_SAMPLES, CoveringCertificate, difference_certificate
from .families import Family
from .geometry import TOL, ConsistencyError, ConvexBody, GeometryError, _shape, symmetrize
from .graph_core import IntersectionGraph, build_graph
from .reports import ColoringReport, PartitionReport


def size_order(family: Family) -> tuple[int, ...]:
    """Member indices sorted by scale ascending, ties by index."""
    scales = family.scales()
    return tuple(sorted(range(len(family)), key=lambda i: (scales[i], i)))


@dataclass(frozen=True)
class PiercingAssignment:
    """Piercing points for one subfamily; members sharing a point form a clique."""

    members: tuple[int, ...]
    points: tuple[tuple[float, ...], ...]
    assignment: tuple[int, ...]  # index into points, aligned with members
    fallback_used: bool

    def classes(self) -> list[list[int]]:
        used = sorted(set(self.assignment))
        groups = {p: [] for p in used}
        for member, p in zip(self.members, self.assignment):
            groups[p].append(member)
        return [groups[p] for p in used]


def _member_contains(body: ConvexBody, center: np.ndarray, scale: float, pts: np.ndarray) -> np.ndarray:
    return _shape(body).point_margins(scale, pts)(center) >= -TOL


def pierce_intersecting_smallest(
    family: Family, members: list[int], cert: CoveringCertificate
) -> PiercingAssignment:
    """Pierce the subfamily of everything intersecting its smallest member.

    Candidate points are p1 + lam1*v_i from the certificate translations (box
    bodies try the 2^n corners of the smallest member first, which provably
    pierce same-or-larger intersecting boxes).  Containment is verified for
    every assignment; members containing no candidate trigger the greedy
    point-stabbing fallback, which pierces the smallest unassigned member at
    its own interior point each step (a member that does not contain that
    point is a fault and raises ConsistencyError).
    """
    if not members:
        raise ValueError("pierce_intersecting_smallest needs a non-empty subfamily")
    body = family.body
    scales = family.scales()
    centers = family.centers()
    smallest = min(members, key=lambda i: (scales[i], i))
    p1 = centers[smallest]
    lam1 = scales[smallest]

    candidates = _shape(body).corners(p1, lam1)
    candidates.extend(p1 + lam1 * np.asarray(v) for v in cert.translations)

    cand = np.array(candidates)
    assignment: dict[int, int] = {}
    for i in sorted(members):
        inside = _member_contains(body, centers[i], scales[i], cand)
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
                if _member_contains(body, centers[i], scales[i], q[None, :])[0]:
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


def color_homothets(
    family: Family, cert: CoveringCertificate, omega: int | None = None,
    graph: IntersectionGraph | None = None,
) -> ColoringReport:
    """First-fit coloring in decreasing size order.

    Each member is colored after its same-or-larger neighbors only, of which
    there are at most kappa_ub * (omega - 1); the measured maximum of that
    back degree is reported alongside the colors.
    """
    g = graph if graph is not None else build_graph(family)
    order = list(reversed(size_order(family)))
    colors = [-1] * len(family)
    back_degree_max = 0
    for v in order:
        colored = [u for u in np.flatnonzero(g.matrix[v]).tolist() if colors[u] != -1]
        back_degree_max = max(back_degree_max, len(colored))
        used = {colors[u] for u in colored}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    colors_used = max(colors) + 1 if colors else 0
    if omega is not None:
        bound = cert.kappa_ub * (omega - 1) + 1 if len(family) else 0
        basis = "kappa*(omega-1)+1"
    else:
        bound = back_degree_max + 1 if len(family) else 0
        basis = "degeneracy+1"
    return ColoringReport(
        method="theorem2",
        colors=tuple(colors),
        colors_used=colors_used,
        bound_value=bound,
        bound_basis=basis,
        omega_used=omega,
        kappa_ub=cert.kappa_ub,
        back_degree_max=back_degree_max,
    )


def _merge_clique_classes(g: IntersectionGraph, classes: list[list[int]]) -> list[list[int]]:
    """Greedily merge piercing classes whenever the union stays a clique.

    Guarantees a pairwise-intersecting subfamily collapses to a single class,
    which the last greedy round needs for the kappa*(nu-1)+1 accounting.
    """
    merged: list[list[int]] = []
    for cls in sorted(classes, key=lambda c: min(c)):
        for target in merged:
            if g.matrix[np.ix_(cls, target)].all():
                target.extend(cls)
                break
        else:
            merged.append(sorted(cls))
    return merged


def clique_partition_homothets(
    family: Family, cert: CoveringCertificate, nu: int | None = None,
    graph: IntersectionGraph | None = None,
) -> PartitionReport:
    """Greedy smallest-first clique partition via piercing rounds.

    Round representatives are pairwise disjoint (checked), so the round count
    is a certified lower bound on nu.
    """
    g = graph if graph is not None else build_graph(family)
    n = len(family)
    order = iter(size_order(family))
    remaining = set(range(n))
    assign = [0] * n
    piercing_points: list[tuple[float, ...]] = []
    representatives: list[int] = []
    fallback_any = False
    rounds = 0
    last_round_classes = 0
    next_class = 0
    while remaining:
        rep = next(i for i in order if i in remaining)
        sub = sorted(remaining.intersection(np.flatnonzero(g.matrix[rep]).tolist()) | {rep})
        piercing = pierce_intersecting_smallest(family, sub, cert)
        fallback_any = fallback_any or piercing.fallback_used
        used_points = sorted(set(piercing.assignment))
        piercing_points.extend(piercing.points[p] for p in used_points)
        classes = _merge_clique_classes(g, piercing.classes())
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


def symmetrized_certificate(body: ConvexBody, samples: int = DEFAULT_SAMPLES) -> CoveringCertificate:
    """Certificate for kappa(2K, K) = kappa(C-C, K), K = (C-C)/2."""
    return difference_certificate(body, symmetrize(body), samples)


def symmetrized_family(family: Family,
                       samples: int = DEFAULT_SAMPLES) -> tuple[Family, CoveringCertificate]:
    """Corollary 1 as Theorem 2 on K = (C-C)/2: a translate family's K-translates
    (the same intersection graph) and their kappa(2K, K) certificate."""
    if not family.is_translate_family:
        raise GeometryError("the symmetrized method needs a uniform-scale family")
    cert = symmetrized_certificate(family.body, samples=samples)
    return Family(body=cert.unit, placements=family.placements, meta=dict(family.meta)), cert
