"""Independent correctness oracle for the benchmark.

Nothing here imports convex_chroma: families are read from their JSON form and
adjacency is rebuilt from the support function.  Two homothets
``lam1*C + c1`` and ``lam2*C + c2`` of a polygon C meet iff, for every facet
normal u of C and of -C,

    u . (c2 - c1) <= lam1 * h_C(u) + lam2 * h_C(-u),

because the facet normals of the Minkowski sum lam1*C + lam2*(-C) are the
union of its summands' normals.  The disk and the box use their closed forms.
Tangency counts as meeting, with the same absolute tolerance as the program.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
TANGENCY_MARGIN = 0.05


class Body:
    """A body read from family JSON: polygon2d, disk or box."""

    def __init__(self, obj: dict):
        self.kind = obj["kind"]
        if self.kind == "polygon2d":
            self.vertices = np.asarray(obj["vertices"], dtype=float)
            edges = np.roll(self.vertices, -1, axis=0) - self.vertices
            normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            self.normals = np.vstack([normals, -normals])
            proj = self.vertices @ self.normals.T
            self.h_pos = proj.max(axis=0)        # h_C(u)
            self.h_neg = -proj.min(axis=0)       # h_C(-u)
        elif self.kind == "box":
            self.half = np.asarray(obj["sides"], dtype=float) / 2.0
        elif self.kind != "disk":
            raise ValueError(f"unknown body kind {self.kind!r}")

    @property
    def dimension(self) -> int:
        return len(self.half) if self.kind == "box" else 2

    def margins(self, c1: np.ndarray, s1: np.ndarray, c2: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Signed tangency margin of every (row of c1, row of c2) pair:
        >= 0 where the homothets meet, < 0 where they are disjoint."""
        delta = c2[None, :, :] - c1[:, None, :]
        if self.kind == "disk":
            return s1[:, None] + s2[None, :] - np.linalg.norm(delta, axis=2)
        if self.kind == "box":
            lam = (s1[:, None] + s2[None, :])[:, :, None]
            return (lam * self.half - np.abs(delta)).min(axis=2)
        p1 = c1 @ self.normals.T
        p2 = c2 @ self.normals.T
        slack = (
            s1[:, None, None] * self.h_pos + s2[None, :, None] * self.h_neg
            - (p2[None, :, :] - p1[:, None, :])
        )
        return slack.min(axis=2)


def family_arrays(obj: dict) -> tuple[Body, np.ndarray, np.ndarray]:
    body = Body(obj["body"])
    placements = obj["placements"]
    centers = np.array([p["center"] for p in placements], dtype=float).reshape(
        len(placements), body.dimension
    )
    scales = np.array([p.get("scale", 1.0) for p in placements], dtype=float)
    return body, centers, scales


def adjacency(obj: dict) -> np.ndarray:
    """Boolean intersection matrix of a family JSON object (irreflexive)."""
    body, centers, scales = family_arrays(obj)
    adj = np.zeros((len(centers), len(centers)), dtype=bool)
    for lo in range(0, len(centers), 128):    # row blocks keep the peak memory small
        rows = slice(lo, lo + 128)
        adj[rows] = body.margins(centers[rows], scales[rows], centers, scales) >= -TOL
    adj = adj & adj.T
    np.fill_diagonal(adj, False)
    return adj


def random_family(rng: np.random.Generator, body: dict, count: int,
                  window: tuple[float, float], scales: tuple[float, float]) -> dict:
    """Seeded family whose every pair is at least TANGENCY_MARGIN from tangency.

    Each member is drawn uniformly (center per axis, then scale) and redrawn
    while its margin against any earlier member is within the margin.
    """
    b = Body(body)
    dim = b.dimension
    centers = np.zeros((count, dim))
    lams = np.zeros(count)
    for k in range(count):
        for _ in range(10_000):
            c = rng.uniform(window[0], window[1], size=dim)
            s = rng.uniform(scales[0], scales[1])
            m = b.margins(centers[:k], lams[:k], c[None, :], np.array([s]))
            if k == 0 or np.abs(m).min() >= TANGENCY_MARGIN:
                break
        else:
            raise RuntimeError(f"could not place member {k} clear of tangency")
        centers[k], lams[k] = c, s
    return {
        "body": body,
        "placements": [
            {"center": [float(x) for x in c], "scale": float(s)} for c, s in zip(centers, lams)
        ],
        "meta": {"construction": "perfbench-random"},
    }


def is_proper_coloring(adj: np.ndarray, colors) -> bool:
    c = np.asarray(colors)
    if c.shape != (len(adj),):
        return False
    return not (adj & (c[:, None] == c[None, :])).any()


def is_clique_partition(adj: np.ndarray, classes) -> bool:
    c = np.asarray(classes)
    if c.shape != (len(adj),):
        return False
    same = c[:, None] == c[None, :]
    np.fill_diagonal(same, False)
    return bool(adj[same].all())


def check_report(report: dict, adj: np.ndarray) -> list[str]:
    """Every coloring proper and every partition a clique partition, for each
    output of a color, partition or verify report.  Returns the failures."""
    failures = []
    outputs = report.get("outputs", {})
    if not outputs and adj.shape[0]:
        failures.append("report carries no outputs")
    for name, out in outputs.items():
        if "colors" in out and not is_proper_coloring(adj, out["colors"]):
            failures.append(f"{name}: coloring is not proper")
        if "classes_assign" in out and not is_clique_partition(adj, out["classes_assign"]):
            failures.append(f"{name}: a class is not a clique")
        if "colors" not in out and "classes_assign" not in out:
            failures.append(f"{name}: neither colors nor classes")
    return failures
