"""Covering certificates: explicit translation sets witnessing that a target
body is covered by translates of a unit body.

These certificates carry the kappa(C-C, C) and kappa(C-C, K) upper bounds,
K = (C-C)/2, of the homothet coloring bounds: verified upper bounds, not minima.

`difference_certificate` alone chooses how C-C is covered.  Box and disk
units are proven in closed form (their shapes' `known_cover` states the
proof) and draw no samples.  Any other cover is a lattice cover checked by
deterministic low-discrepancy sampling: a build draws its target's sample set
once, prunes the lattice on it and checks the finished certificate on the
same points.  Point margins are computed column by column (one contiguous
array per facet normal or axis), and `verify_certificate` draws the same set
afresh for any certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (TOL, ConsistencyError, ConvexBody, GeometryError, _shape, halton,
                       minkowski_sum, reflect)

BOUNDARY_SAMPLES = 1000
DEFAULT_SAMPLES = 100_000
MIN_SAMPLES = 1000
# lattice points x sample points of a lattice cover's boolean coverage matrix
MAX_COVERAGE_ENTRIES = 2 ** 28


@dataclass(frozen=True)
class CoveringCertificate:
    """target_scale*target subset of union of (unit + v) over translations;
    verified_samples 0 marks a closed-form (proven) cover."""

    target: ConvexBody
    unit: ConvexBody
    translations: tuple[tuple[float, ...], ...]
    kappa_ub: int
    target_scale: float = 1.0
    verified_samples: int = 0
    worst_margin: float = float("nan")

    def __post_init__(self):
        if self.kappa_ub != len(self.translations) or self.kappa_ub < 1:
            raise ValueError("kappa_ub must equal the translation count and be >= 1")

    def to_json(self) -> dict:
        return {
            "target": self.target.to_json(),
            "target_scale": self.target_scale,
            "unit": self.unit.to_json(),
            "translations": [list(v) for v in self.translations],
            "kappa_ub": self.kappa_ub,
            "verified_samples": self.verified_samples,
            "worst_margin": self.worst_margin,
        }


@dataclass(frozen=True)
class CoverReport:
    samples: int
    uncovered: int
    worst_margin: float

    @property
    def ok(self) -> bool:
        return self.uncovered == 0


def _interior_samples(body: ConvexBody, scale: float, count: int) -> np.ndarray:
    """First `count` Halton points of the bounding box that land in the body."""
    shape = _shape(body)
    lo, hi = shape.box(scale)
    dim = shape.dimension
    accepted: list[np.ndarray] = []
    have = 0
    start = 0
    chunk = max(count, 1024)
    while have < count:
        raw = lo + halton(chunk, dim, start=start) * (hi - lo)
        mask = shape.point_margins(scale, raw)(np.zeros(dim)) >= -TOL
        take = raw[mask]
        accepted.append(take)
        have += len(take)
        start += chunk
        if start > 200 * count + 10_000:
            raise GeometryError("interior sampling failed to fill the quota")
    return np.concatenate(accepted)[:count]


def check_samples(samples: int) -> None:
    """Reject a verification sample count below MIN_SAMPLES."""
    if samples < MIN_SAMPLES:
        raise ValueError(f"verification needs at least {MIN_SAMPLES} samples, got {samples}")


def _sample_target(body: ConvexBody, scale: float, samples: int) -> np.ndarray:
    """The sample set a certificate of scale*body is checked on."""
    check_samples(samples)
    interior = _interior_samples(body, scale, samples)
    boundary = _shape(body).boundary_points(scale, BOUNDARY_SAMPLES)
    return np.vstack([interior, boundary])


def difference_cover_ceiling(n: int) -> int:
    """Classical reference ceiling for covering C-C by translates of C in
    dimension n, with the covering-density factor treated as 1: 3^(n+1)*2^n
    (108 in the plane).  Reported for visibility only; certificates are
    verified, never assumed to meet it."""
    return 3 ** (n + 1) * 2 ** n


def known_certificate(body: ConvexBody) -> CoveringCertificate | None:
    """Closed-form certificate that C-C is covered by the known translates of
    C (2^n orthants for a box, 7 disks for the disk), or None for other
    bodies.  No samples are drawn; both covers are tangent (worst margin 0)."""
    known = _shape(body).known_cover(body)
    if known is None:
        return None
    target, target_scale, translations = known
    return CoveringCertificate(
        target=target, unit=body, translations=translations, kappa_ub=len(translations),
        target_scale=target_scale, worst_margin=0.0,
    )


def difference_certificate(body: ConvexBody, unit: ConvexBody,
                           samples: int = DEFAULT_SAMPLES) -> CoveringCertificate:
    """Certificate that C-C is covered by translates of `unit`, C itself or
    K = (C-C)/2 (K-K = C-C too): closed-form for a box or disk unit, else a
    lattice cover whose verification draws `samples` interior points."""
    cert = known_certificate(unit)
    if cert is None:
        cert = cover_by_translates(minkowski_sum(body, reflect(body)), unit, samples=samples)
    return cert


def cover_by_translates(
    target: ConvexBody,
    unit: ConvexBody,
    lattice_step: float | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> CoveringCertificate:
    """Greedy lattice covering of the target by unit translates.

    Unit copies are laid out on a square lattice over the target's bounding
    box; translates covering no verification sample are dropped, and the rest
    are greedily pruned (farthest from the target centroid first, ties by
    index) whenever removal keeps every sample covered.  Lattice points x
    sample points above MAX_COVERAGE_ENTRIES raise GeometryError up front.
    """
    ball_center, inradius = _shape(unit).chebyshev_ball(1.0)
    if lattice_step is None:
        lattice_step = inradius / 2.0
    if lattice_step <= 0:
        raise ValueError("lattice_step must be positive")
    dim = target.dimension
    if dim != unit.dimension:
        raise GeometryError("target and unit dimensions differ")

    lo, hi = _shape(target).box(1.0)
    axis_counts = [max(1, math.ceil((hi[d] - lo[d]) / lattice_step - 1e-9)) for d in range(dim)]
    lattice_points, sample_points = math.prod(axis_counts), samples + BOUNDARY_SAMPLES
    if lattice_points * sample_points > MAX_COVERAGE_ENTRIES:
        raise GeometryError(
            f"lattice cover too large: {lattice_points} lattice points x {sample_points} "
            f"sample points exceed {MAX_COVERAGE_ENTRIES} coverage entries")
    pts = _sample_target(target, 1.0, samples)
    # lattice positions are where the unit's inscribed-ball center lands, so
    # box units with step = side tile the target exactly (the 2^n case)
    axes = [lo[d] + (np.arange(count) + 0.5) * lattice_step for d, count in enumerate(axis_counts)]
    grid = np.array(list(itertools.product(*axes))) - ball_center

    margins = _shape(unit).point_margins(1.0, pts)
    coverage = np.zeros((len(grid), len(pts)), dtype=bool)
    for k, v in enumerate(grid):
        coverage[k] = margins(v) >= -TOL
    useful = coverage.any(axis=1)
    grid, coverage = grid[useful], coverage[useful]
    counts = coverage.sum(axis=0)
    if (counts == 0).any():
        raise ConsistencyError(
            f"lattice covering failed: {(counts == 0).sum()} samples uncovered "
            f"(step {lattice_step:g})"
        )

    center = _shape(target).centroid(1.0)
    order = sorted(
        range(len(grid)),
        key=lambda k: (-float(np.linalg.norm(grid[k] - center)), k),
    )
    keep = np.ones(len(grid), dtype=bool)
    for k in order:
        covered = np.flatnonzero(coverage[k])
        if (counts[covered] >= 2).all():
            keep[k] = False
            counts[covered] -= 1
    translations = tuple(tuple(float(c) for c in v) for v in grid[keep])

    cert = CoveringCertificate(
        target=target, unit=unit, translations=translations, kappa_ub=len(translations),
    )
    report = _cover_report(cert, pts)
    if not report.ok:
        raise ConsistencyError(
            f"pruned covering failed verification: {report.uncovered} uncovered")
    return replace(cert, verified_samples=report.samples, worst_margin=report.worst_margin)


def verify_certificate(cert: CoveringCertificate, samples: int = DEFAULT_SAMPLES) -> CoverReport:
    """Re-check the certificate on a deterministic sample of the target
    (interior Halton points plus boundary points); reports uncovered count and
    the worst containment margin."""
    return _cover_report(cert, _sample_target(cert.target, cert.target_scale, samples))


def _cover_report(cert: CoveringCertificate, pts: np.ndarray) -> CoverReport:
    """Uncovered count and worst containment margin of the certificate on `pts`."""
    margins = _shape(cert.unit).point_margins(1.0, pts)
    best = np.full(len(pts), -np.inf)
    for v in cert.translations:
        best = np.maximum(best, margins(np.asarray(v)))
    uncovered = int((best < -TOL).sum())
    return CoverReport(samples=len(pts), uncovered=uncovered, worst_margin=float(best.min()))
