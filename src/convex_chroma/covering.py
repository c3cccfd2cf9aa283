"""Covering certificates: explicit translation sets witnessing that a target
body is covered by translates of a unit body, verified by deterministic
low-discrepancy sampling.

These certificates carry the kappa(C-C, C) upper bounds that parameterize the
homothet coloring bounds.  kappa values are verified upper bounds, not minima.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexBody, GeometryError, PointMargins, _edge_normals, _poly_array

SAMPLE_TOL = 1e-9
BOUNDARY_SAMPLES = 1000
DEFAULT_SAMPLES = 100_000

_PRIMES = (2, 3, 5, 7, 11, 13)


class VerificationError(RuntimeError):
    """A constructed covering failed its own sample verification."""


def halton(count: int, dims: int, start: int = 0) -> np.ndarray:
    """First `count` points of the unscrambled Halton sequence (offset start)."""
    if dims > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    idx = np.arange(start + 1, start + count + 1, dtype=np.int64)
    out = np.zeros((count, dims))
    for d in range(dims):
        base = _PRIMES[d]
        i = idx.copy()
        f = 1.0
        while i.any():
            f /= base
            out[:, d] += f * (i % base)
            i //= base
    return out


@dataclass(frozen=True)
class CoveringCertificate:
    """target_scale*target subset of union of (unit_scale*unit + v) over translations."""

    target: ConvexBody
    unit: ConvexBody
    translations: tuple[tuple[float, ...], ...]
    kappa_ub: int
    target_scale: float = 1.0
    unit_scale: float = 1.0
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
            "unit_scale": self.unit_scale,
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


def _bounding_box(body: ConvexBody, scale: float) -> tuple[np.ndarray, np.ndarray]:
    if body.kind == "polygon2d":
        verts = scale * _poly_array(body)
        return verts.min(axis=0), verts.max(axis=0)
    if body.kind == "disk":
        return np.array([-scale, -scale]), np.array([scale, scale])
    half = scale * np.asarray(body.sides) / 2.0
    return -half, half


def _interior_samples(body: ConvexBody, scale: float, count: int) -> np.ndarray:
    """First `count` Halton points of the bounding box that land in the body."""
    lo, hi = _bounding_box(body, scale)
    dim = body.dimension
    accepted: list[np.ndarray] = []
    have = 0
    start = 0
    chunk = max(count, 1024)
    while have < count:
        raw = lo + halton(chunk, dim, start=start) * (hi - lo)
        mask = PointMargins(body, scale, raw).margins(np.zeros(dim)) >= -SAMPLE_TOL
        take = raw[mask]
        accepted.append(take)
        have += len(take)
        start += chunk
        if start > 200 * count + 10_000:
            raise VerificationError("interior sampling failed to fill the quota")
    return np.concatenate(accepted)[:count]


def _boundary_samples(body: ConvexBody, scale: float, count: int) -> np.ndarray:
    if body.kind == "disk":
        t = 2 * math.pi * (np.arange(count) + 0.5) / count
        return scale * np.stack([np.cos(t), np.sin(t)], axis=1)
    if body.kind == "polygon2d":
        verts = scale * _poly_array(body)
        nxt = np.roll(verts, -1, axis=0)
        seg = np.linalg.norm(nxt - verts, axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        t = cum[-1] * (np.arange(count) + 0.5) / count
        idx = np.searchsorted(cum, t, side="right") - 1
        frac = (t - cum[idx]) / seg[idx]
        return verts[idx] + frac[:, None] * (nxt[idx] - verts[idx])
    n = body.dimension
    half = scale * np.asarray(body.sides) / 2.0
    free = halton(count, max(n - 1, 1))
    pts = np.zeros((count, n))
    for k in range(count):
        face = k % (2 * n)
        axis, side = divmod(face, 2)
        others = [a for a in range(n) if a != axis]
        pts[k, axis] = half[axis] if side == 0 else -half[axis]
        for slot, a in enumerate(others):
            pts[k, a] = (2 * free[k, slot % free.shape[1]] - 1) * half[a]
    return pts


def _sample_target(body: ConvexBody, scale: float, samples: int) -> np.ndarray:
    interior = _interior_samples(body, scale, samples)
    boundary = _boundary_samples(body, scale, BOUNDARY_SAMPLES)
    return np.vstack([interior, boundary])


def difference_cover_ceiling(n: int) -> int:
    """Classical reference ceiling for covering C-C by translates of C in
    dimension n, with the covering-density factor treated as 1: 3^(n+1)*2^n
    (108 in the plane).  Reported for visibility only; certificates are
    verified, never assumed to meet it."""
    return 3 ** (n + 1) * 2 ** n


def known_kappa(body: ConvexBody) -> tuple[int, tuple[tuple[float, ...], ...]] | None:
    """Known covering counts for C-C by C: boxes 2^n (orthant translates),
    disk 7 (hexagonal configuration); None for other bodies."""
    if body.kind == "box":
        half = [s / 2.0 for s in body.sides]
        translations = tuple(
            tuple(sign * h for sign, h in zip(signs, half))
            for signs in itertools.product((-1.0, 1.0), repeat=len(half))
        )
        return len(translations), translations
    if body.kind == "disk":
        ring = [
            (math.sqrt(3.0) * math.cos(k * math.pi / 3), math.sqrt(3.0) * math.sin(k * math.pi / 3))
            for k in range(6)
        ]
        return 7, tuple([(0.0, 0.0)] + ring)
    return None


def known_certificate(body: ConvexBody, samples: int = DEFAULT_SAMPLES) -> CoveringCertificate | None:
    """Verified certificate that C-C is covered by known_kappa(C) translates of C."""
    known = known_kappa(body)
    if known is None:
        return None
    count, translations = known
    if body.kind == "box":
        target = ConvexBody.box(tuple(2 * s for s in body.sides))
        target_scale = 1.0
    else:
        target = body
        target_scale = 2.0
    cert = CoveringCertificate(
        target=target, unit=body, translations=translations, kappa_ub=count,
        target_scale=target_scale,
    )
    report = verify_certificate(cert, samples=samples)
    if not report.ok:
        raise VerificationError(
            f"known covering for {body.kind} failed verification: {report.uncovered} uncovered"
        )
    return CoveringCertificate(
        target=target, unit=body, translations=translations, kappa_ub=count,
        target_scale=target_scale, verified_samples=report.samples,
        worst_margin=report.worst_margin,
    )


def _inscribed_ball(body: ConvexBody, scale: float) -> tuple[np.ndarray, float]:
    """Center and radius of the largest inscribed ball (Chebyshev center)."""
    if body.kind == "disk":
        return np.zeros(2), scale
    if body.kind == "box":
        return np.zeros(body.dimension), scale * min(body.sides) / 2.0
    from scipy.optimize import linprog

    normals, offsets = _edge_normals(_poly_array(body))
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=np.column_stack([normals, np.ones(len(normals))]),
        b_ub=scale * offsets,
        bounds=[(None, None), (None, None), (0, None)],
        method="highs",
    )
    if not res.success:
        raise GeometryError("inscribed-ball LP failed")
    return res.x[:2].copy(), float(res.x[2])


def _centroid(body: ConvexBody, scale: float) -> np.ndarray:
    if body.kind == "polygon2d":
        verts = scale * _poly_array(body)
        x, y = verts[:, 0], verts[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        a = cross.sum() / 2.0
        cx = ((x + xn) * cross).sum() / (6 * a)
        cy = ((y + yn) * cross).sum() / (6 * a)
        return np.array([cx, cy])
    return np.zeros(body.dimension)


def cover_by_translates(
    target: ConvexBody,
    unit: ConvexBody,
    lattice_step: float | None = None,
    target_scale: float = 1.0,
    unit_scale: float = 1.0,
    samples: int = DEFAULT_SAMPLES,
) -> CoveringCertificate:
    """Greedy lattice covering of the target by unit translates.

    Unit copies are laid out on a square lattice over the target's bounding
    box; translates covering no verification sample are dropped, and the rest
    are greedily pruned (farthest from the target centroid first, ties by
    index) whenever removal keeps every sample covered.
    """
    ball_center, inradius = _inscribed_ball(unit, unit_scale)
    if lattice_step is None:
        lattice_step = inradius / 2.0
    if lattice_step <= 0:
        raise ValueError("lattice_step must be positive")
    dim = target.dimension
    if dim != unit.dimension:
        raise GeometryError("target and unit dimensions differ")

    pts = _sample_target(target, target_scale, samples)
    lo, hi = _bounding_box(target, target_scale)
    # lattice positions are where the unit's inscribed-ball center lands, so
    # box units with step = side tile the target exactly (the 2^n case)
    axes = []
    for d in range(dim):
        count = max(1, math.ceil((hi[d] - lo[d]) / lattice_step - 1e-9))
        axes.append(lo[d] + (np.arange(count) + 0.5) * lattice_step)
    grid = np.array(list(itertools.product(*axes))) - ball_center

    evaluator = PointMargins(unit, unit_scale, pts)
    coverage = np.zeros((len(grid), len(pts)), dtype=bool)
    for k, v in enumerate(grid):
        coverage[k] = evaluator.margins(v) >= -SAMPLE_TOL
    useful = coverage.any(axis=1)
    grid, coverage = grid[useful], coverage[useful]
    counts = coverage.sum(axis=0)
    if (counts == 0).any():
        raise VerificationError(
            f"lattice covering failed: {(counts == 0).sum()} samples uncovered "
            f"(step {lattice_step:g})"
        )

    center = _centroid(target, target_scale)
    order = sorted(
        range(len(grid)),
        key=lambda k: (-float(np.linalg.norm(grid[k] - center)), k),
    )
    keep = np.ones(len(grid), dtype=bool)
    for k in order:
        covered = coverage[k]
        if (counts[covered] >= 2).all():
            keep[k] = False
            counts[covered] -= 1
    translations = tuple(tuple(float(c) for c in v) for v in grid[keep])

    cert = CoveringCertificate(
        target=target, unit=unit, translations=translations,
        kappa_ub=len(translations), target_scale=target_scale, unit_scale=unit_scale,
    )
    report = verify_certificate(cert, samples=samples)
    if not report.ok:
        raise VerificationError(f"pruned covering failed verification: {report.uncovered} uncovered")
    return CoveringCertificate(
        target=target, unit=unit, translations=translations,
        kappa_ub=len(translations), target_scale=target_scale, unit_scale=unit_scale,
        verified_samples=report.samples, worst_margin=report.worst_margin,
    )


def verify_certificate(cert: CoveringCertificate, samples: int = DEFAULT_SAMPLES) -> CoverReport:
    """Re-check the certificate on a deterministic sample of the target
    (interior Halton points plus boundary points); reports uncovered count and
    the worst containment margin."""
    if samples < 1000:
        raise ValueError("verification needs at least 1000 samples")
    pts = _sample_target(cert.target, cert.target_scale, samples)
    evaluator = PointMargins(cert.unit, cert.unit_scale, pts)
    best = np.full(len(pts), -np.inf)
    for v in cert.translations:
        best = np.maximum(best, evaluator.margins(np.asarray(v)))
    uncovered = int((best < -SAMPLE_TOL).sum())
    return CoverReport(samples=len(pts), uncovered=uncovered, worst_margin=float(best.min()))
