"""Coloring and clique partition of homothet families via covering numbers.

A smallest-first removal order makes every member see at most
kappa(C-C, C) * (omega - 1) same-or-larger neighbors, so first-fit in the
reverse (decreasing size) order is a proper coloring within
kappa*(omega-1)+1 colors.  Clique partitions run greedy rounds: take the
smallest remaining homothet, pierce everything intersecting it with candidate
points scaled from a covering certificate, and remove the round.

The rounds depend only on the size order and the intersection graph, so they
are planned first; then the candidate points p1 + lam1*v_i of every round are
built as one array and every member is tested against its own round's points
in one call of the shape's `contains` kernel.  Containment is verified at
runtime (every member must contain its assigned point); members holding no
candidate go through a greedy point-stabbing fallback, round by round, which
keeps the partition valid, and the report says so.

Corollary 1 (translates of C) is this route on the translates of K = (C-C)/2
at the same centers, which have the same intersection graph, with kappa(2K, K)
= kappa(C-C, K); `symmetrized_family` builds that family and its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covering import DEFAULT_SAMPLES, CoveringCertificate, difference_certificate
from .families import Family
from .geometry import ConsistencyError, ConvexBody, GeometryError, _shape, symmetrize
from .graph_core import IntersectionGraph, build_graph
from .reports import ColoringReport, PartitionReport


def size_order(family: Family) -> tuple[int, ...]:
    """Member indices sorted by scale ascending, ties by index."""
    return tuple(np.argsort(family.scales(), kind="stable").tolist())


@dataclass(frozen=True)
class PiercingAssignment:
    """Piercing points for one subfamily; members sharing a point form a clique."""

    members: tuple[int, ...]
    points: tuple[tuple[float, ...], ...]
    assignment: tuple[int, ...]  # index into points, aligned with members
    fallback_used: bool

    def classes(self) -> list[list[int]]:
        return _point_classes(self.members, self.assignment)


def _point_classes(members, assignment) -> list[list[int]]:
    """The members grouped by the point they hold, in point order."""
    groups: dict[int, list[int]] = {}
    for member, p in zip(members, assignment):
        groups.setdefault(p, []).append(member)
    return [groups[p] for p in sorted(groups)]


def _pierce_rounds(
    family: Family, cert: CoveringCertificate, reps: list[int], subs: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray], list[list[tuple[float, ...]]]]:
    """Pierce each round's subfamily subs[r] (ascending, holding its smallest
    member reps[r]) with the candidate points of reps[r].

    The candidates of lam1*C + p1 are its shape's corners, then p1 + lam1*v
    for each certificate translation v; every member of every round is tested
    against its own round's candidates in one `contains` call, and takes the
    first it holds.  A member holding none goes to the greedy point-stabbing
    fallback of its round, which pierces the smallest unassigned member at its
    own seed point each step (a member that does not hold that point is a
    fault and raises ConsistencyError).  Returns the candidates (rounds, k, d),
    each round's point index per member (fallback points numbered from k on)
    and each round's fallback points.
    """
    shape = _shape(family.body)
    centers, scales = family.centers(), family.scales()
    p1, lam1 = centers[reps], scales[reps]
    translations = np.asarray(cert.translations, dtype=float).reshape(-1, shape.dimension)
    cand = np.concatenate(
        [shape.corners(p1, lam1), p1[:, None, :] + lam1[:, None, None] * translations], axis=1)
    members = np.concatenate(subs)
    sizes = [len(sub) for sub in subs]
    inside = shape.contains(centers[members], scales[members],
                            cand[np.repeat(np.arange(len(subs)), sizes)])
    hits = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    round_hits = np.split(hits, np.cumsum(sizes)[:-1])
    extras: list[list[tuple[float, ...]]] = [[] for _ in subs]
    seed_point = shape.seed_point()
    for sub, hit, extra in zip(subs, round_hits, extras):
        open_slots = np.flatnonzero(hit < 0)
        while len(open_slots):
            unassigned = sub[open_slots]
            # ascending indices, so the first minimum is the least (scale, index)
            m = int(unassigned[np.argmin(scales[unassigned])])
            q = centers[m] + scales[m] * seed_point
            held = shape.contains(centers[unassigned], scales[unassigned],
                                  np.broadcast_to(q, (len(unassigned), 1, len(q))))[:, 0]
            hit[open_slots[held]] = cand.shape[1] + len(extra)
            extra.append(tuple(q.tolist()))
            if not held[unassigned == m][0]:
                raise ConsistencyError(f"member {m} does not contain its own seed point")
            open_slots = open_slots[~held]
    return cand, round_hits, extras


def pierce_intersecting_smallest(
    family: Family, members: list[int], cert: CoveringCertificate
) -> PiercingAssignment:
    """Pierce the subfamily of everything intersecting its smallest member.

    One round of `_pierce_rounds`: candidate points are p1 + lam1*v_i from the
    certificate translations (box bodies try the 2^n corners of the smallest
    member first, which provably pierce same-or-larger intersecting boxes).
    Containment is verified for every assignment; members containing no
    candidate trigger the greedy point-stabbing fallback.
    """
    if not members:
        raise ValueError("pierce_intersecting_smallest needs a non-empty subfamily")
    scales = family.scales()
    smallest = min(members, key=lambda i: (scales[i], i))
    member_tuple = tuple(sorted(members))
    cand, (hit,), (extra,) = _pierce_rounds(family, cert, [smallest], [np.array(member_tuple)])
    return PiercingAssignment(
        members=member_tuple,
        points=tuple(map(tuple, cand[0].tolist())) + tuple(extra),
        assignment=tuple(hit.tolist()),
        fallback_used=bool(extra),
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
    # every neighbour list, ascending, from one nonzero of the flat matrix;
    # row v's entries are those in [v*n, (v+1)*n)
    n = len(family)
    flat = np.flatnonzero(g.matrix)
    cols = (flat % n).tolist()
    ends = np.searchsorted(flat, n * np.arange(1, n + 1)).tolist()
    starts = [0, *ends]
    colors = [-1] * len(family)
    back_degree_max = 0
    for v in order:
        colored = [u for u in cols[starts[v]:ends[v]] if colors[u] != -1]
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
            if g.matrix[cls][:, target].all():
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
    # the rounds depend on the size order and the graph alone: each takes the
    # smallest remaining member and every remaining member meeting it
    remaining = np.ones(n, dtype=bool)
    representatives: list[int] = []
    subs: list[np.ndarray] = []
    for rep in size_order(family):
        if remaining[rep]:
            meets = g.matrix[rep] & remaining
            meets[rep] = True
            sub = np.flatnonzero(meets)
            remaining[sub] = False
            representatives.append(rep)
            subs.append(sub)
    rounds = len(subs)

    assign = [0] * n
    piercing_points: list[tuple[float, ...]] = []
    fallback_any = False
    last_round_classes = 0
    next_class = 0
    if rounds:
        cand, round_hits, extras = _pierce_rounds(family, cert, representatives, subs)
        fallback_any = any(extras)
        for points, hit, extra, sub in zip(cand.tolist(), round_hits, extras, subs):
            points.extend(extra)
            hit = hit.tolist()
            piercing_points.extend(tuple(points[p]) for p in sorted(set(hit)))
            classes = _merge_clique_classes(g, _point_classes(sub.tolist(), hit))
            for cls in classes:
                for member in cls:
                    assign[member] = next_class
                next_class += 1
            last_round_classes = len(classes)

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
    return Family(cert.unit, family.centers(), family.scales(), dict(family.meta)), cert
