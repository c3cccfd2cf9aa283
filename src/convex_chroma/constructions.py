"""Generators for the lower-bound families and seeded random families.

The pentagon families realize the C5 blow-up intersection pattern with unit
squares on a circumradius-0.8 pentagon: consecutive centers sit within
L-infinity distance 0.95 and skip pairs beyond 1.05, so adjacency is exactly
C5[K_k]; the pattern is re-verified at build time, making the coordinate
choice self-certifying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import Family, translates
from .geometry import ConvexBody, GeometryError, homothet_margins, pairwise_adjacency
from .graph_core import SolverCaps, build_graph, clique_cover_number, max_clique

GRID_MEMBER_CAP = 4096
PENTAGON_JITTER = 1e-4
RANDOM_MARGIN = 0.05
RANDOM_RESAMPLE_BUDGET = 1000


def grid_family(body: ConvexBody, m: int, member_cap: int = GRID_MEMBER_CAP) -> Family:
    """m^(2n) translates at the lattice points (t_1/m, ..., t_n/m), t_i in 1..m^2."""
    if m < 1:
        raise ValueError("grid parameter m must be >= 1")
    n = body.dimension
    total = m ** (2 * n)
    if total > member_cap:
        raise ValueError(f"grid family would have {total} members (cap {member_cap})")
    coords = np.arange(1, m * m + 1) / m
    mesh = np.meshgrid(*([coords] * n), indexing="ij")
    centers = np.stack([g.ravel() for g in mesh], axis=1)
    return translates(body, centers, meta={"construction": "grid", "m": m})


def _pentagon_centers(circumradius: float) -> np.ndarray:
    angles = np.deg2rad(90 + 72 * np.arange(5))
    return circumradius * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def pentagon_family(k: int, circumradius: float = 0.8) -> Family:
    """5 groups of k near-duplicate unit squares (PENTAGON_JITTER apart) on a
    5-cycle; the intersection graph is verified to equal the blow-up C5[K_k]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    frac = np.arange(k) / max(k - 1, 1)
    centers = _pentagon_centers(circumradius)[:, None, :] + (PENTAGON_JITTER * frac)[None, :, None]
    family = translates(ConvexBody.unit_square(), centers.reshape(5 * k, 2),
                        meta={"construction": "pentagon", "k": k})
    # group g, members g*k to g*k + k - 1, is a clique adjacent to groups g +- 1 mod 5 only
    adj = pairwise_adjacency(family.body, family.centers(), family.scales())
    group = np.repeat(np.arange(5), k)
    expected = np.isin((group[:, None] - group) % 5, (0, 1, 4))
    np.fill_diagonal(expected, False)
    wrong = np.argwhere(adj != expected)
    if len(wrong):
        i, j = wrong[0]
        raise GeometryError(f"members {i} and {j} (groups {group[i]}, {group[j]}) must "
                            f"{'' if expected[i, j] else 'not '}intersect in C5[K_{k}]")
    return family


def pentagon_disjoint_family(k: int, circumradius: float = 0.8, spacing: float = 12.0) -> Family:
    """k far-apart copies of the five-square pentagon pattern: nu = 2k, theta = 3k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    shift = np.stack([spacing * np.arange(k), np.zeros(k)], axis=1)[:, None, :]
    centers = (_pentagon_centers(circumradius)[None] + shift).reshape(5 * k, 2)
    family = translates(ConvexBody.unit_square(), centers,
                        meta={"construction": "pentagon_disjoint", "k": k})
    adj = pairwise_adjacency(family.body, family.centers(), family.scales())
    copy = np.repeat(np.arange(k), 5)
    if (adj & (copy[:, None] != copy[None, :])).any():
        raise GeometryError("pentagon copies must be pairwise disjoint")
    return family


def explicit_pentagon_coloring(k: int) -> tuple[int, ...]:
    """The ceil(5k/2)-color scheme for pentagon_family(k).

    Three k-color classes Q1, Q2, Q3 split into halves of sizes ceil(k/2) and
    floor(k/2); groups take A: Q1, B: Q2, C: Q12+Q31, D: first k of Q11+Q21,
    E: Q22+Q31, so Q3's second half is never used.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = math.ceil(k / 2)
    q1 = list(range(0, k))
    q2 = list(range(k, 2 * k))
    q3 = list(range(2 * k, 3 * k))
    q11, q12 = q1[:h], q1[h:]
    q21, q22 = q2[:h], q2[h:]
    q31 = q3[:h]
    group_colors = [
        q1,                 # A
        q2,                 # B
        q12 + q31,          # C
        (q11 + q21)[:k],    # D
        q22 + q31,          # E
    ]
    colors = []
    for g in range(5):
        colors.extend(group_colors[g][:k])
    return tuple(colors)


@dataclass(frozen=True)
class VolumeRatioReport:
    member_count: int
    omega: int
    bound: float
    theta: int | None

    @property
    def consistent(self) -> bool:
        return self.theta is None or self.theta >= self.bound - 1e-12


def volume_ratio_bounds(family: Family, caps: SolverCaps = SolverCaps()) -> VolumeRatioReport:
    """Discrete volume bound theta >= |T_m| / |S_m|, with |S_m| = omega via the
    clique <-> Minkowski-diameter-2 correspondence; checked against exact
    theta when the instance is within caps."""
    g = build_graph(family)
    omega = max_clique(g, cap=caps.omega).require()
    bound = len(family) / omega if omega else 0.0
    theta_res = clique_cover_number(g, cap=caps.chi)
    theta = None if theta_res.capped else theta_res.value
    return VolumeRatioReport(member_count=len(family), omega=omega, bound=bound, theta=theta)


def random_family(
    body: ConvexBody,
    count: int,
    window: tuple[float, float],
    scale_range: tuple[float, float] = (1.0, 1.0),
    seed: int = 0,
    margin: float = RANDOM_MARGIN,
) -> Family:
    """Seeded family with every pair at least `margin` away from tangency.

    Centers are uniform in the window (per axis), scales uniform in the range;
    placements too close to flipping intersect/disjoint against any earlier
    member (checked against all of them in one `homothet_margins` call) are
    resampled, up to 1000 draws each.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = window
    if not (math.isfinite(hi - lo) and all(0 <= s < math.inf for s in scale_range)):
        raise GeometryError(f"random family needs a finite window and scales, "
                            f"got {window}, {scale_range}")
    rng = np.random.default_rng(seed)
    dim = body.dimension
    centers = np.zeros((count, dim))
    scales = np.zeros(count)
    for k in range(count):
        for attempt in range(RANDOM_RESAMPLE_BUDGET):
            center = rng.uniform(lo, hi, size=dim)
            scale = float(rng.uniform(scale_range[0], scale_range[1]))
            margins = homothet_margins(body, centers[:k], scales[:k], center, scale)
            if (np.abs(margins) >= margin).all():
                centers[k], scales[k] = center, scale
                break
        else:
            raise GeometryError(
                f"could not place member {k} with margin {margin} "
                f"after {RANDOM_RESAMPLE_BUDGET} draws"
            )
    return Family(body, centers, scales, meta={"construction": "random", "seed": seed})
