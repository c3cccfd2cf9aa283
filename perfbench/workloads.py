"""Workload mixes: which CLI commands one pass runs, on which inputs.

Every input family is generated here from the run's seed and written to JSON;
the program only ever sees those files and the command line.  A workload is a
fixed list of commands (one pass); the harness repeats whole passes.

Sizes are chosen so that each workload stresses different layers (see
README.md), and the command counts are shaped so that the median and the
tail percentile of a pass fall inside one class of command rather than on the
boundary between two classes.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

import oracle

DEFAULT_SEED = 1
HOMOTHET_SCALES = (0.3, 2.0)
# argument shared by every command that builds a covering certificate for
# the homothets method; the symmetrized path always uses the program default
HOMOTHET_SAMPLES = ("--samples", "20000")

BODIES = {
    "square": {"kind": "box", "sides": [1.0, 1.0]},
    "disk": {"kind": "disk"},
    "triangle": {"kind": "polygon2d", "vertices": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]},
}
# area of C - C: translates meet iff their centers differ by a point of it
_DIFFERENCE_AREA = {"square": 4.0, "disk": 4.0 * math.pi, "triangle": 3.0}
# mean of (lam1 + lam2)^2 / 4 for scales uniform on HOMOTHET_SCALES
_MIXED_AREA_FACTOR = 1.44


@dataclass(frozen=True)
class FamilySpec:
    """An input family: ("random", body, count, mixed, degree), ("pentagon", k),
    ("pentagon-disjoint", k) or ("grid", body, m)."""

    name: str
    build: tuple

    @property
    def members(self) -> int:
        kind = self.build[0]
        if kind == "random":
            return self.build[2]
        if kind in ("pentagon", "pentagon-disjoint"):
            return 5 * self.build[1]
        return self.build[2] ** 4

    @property
    def uniform_scale(self) -> bool:
        """A translate family: every construction, and the random ones that
        are not mixed-scale."""
        return self.build[0] != "random" or not self.build[3]


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `args` follow the command name; the harness adds
    --in (when `family` is set) and --out."""

    label: str
    kind: str
    args: tuple[str, ...]
    family: FamilySpec | None
    members: int

    def argv(self, in_path: str | None, out_path: str) -> list[str]:
        argv = [self.kind, *self.args]
        if in_path is not None:
            argv += ["--in", in_path]
        return argv + ["--out", out_path]


def window_side(body: str, count: int, mixed: bool, degree: float) -> float:
    """Side of the square window giving about `degree` neighbours per member."""
    area = _DIFFERENCE_AREA[body] * (_MIXED_AREA_FACTOR if mixed else 1.0)
    return math.sqrt(count * area / degree)


def _item_seed(seed: int, label: str) -> int:
    return (seed * 1_000_003 + zlib.crc32(label.encode())) % (2 ** 31)


def build_family(spec: FamilySpec, seed: int) -> dict:
    kind = spec.build[0]
    if kind == "random":
        _, body, count, mixed, degree = spec.build
        rng = np.random.default_rng(_item_seed(seed, spec.name))
        side = window_side(body, count, mixed, degree)
        scales = HOMOTHET_SCALES if mixed else (1.0, 1.0)
        return oracle.random_family(rng, BODIES[body], count, (0.0, side), scales)
    if kind == "pentagon":
        return _pentagon(spec.build[1])
    if kind == "pentagon-disjoint":
        return _pentagon_disjoint(spec.build[1])
    if kind == "grid":
        return _grid(spec.build[1], spec.build[2])
    raise ValueError(f"unknown family kind {kind!r}")


def _placements(centers) -> list[dict]:
    return [{"center": [float(x) for x in c], "scale": 1.0} for c in centers]


def _pentagon_centers() -> np.ndarray:
    angles = np.deg2rad(90 + 72 * np.arange(5))
    return 0.8 * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _pentagon(k: int) -> dict:
    """Five groups of k near-duplicate unit squares on a 5-cycle (C5 blow-up)."""
    base = _pentagon_centers()
    centers = [base[g] + 1e-4 * (j / max(k - 1, 1)) for g in range(5) for j in range(k)]
    return {"body": BODIES["square"], "placements": _placements(centers),
            "meta": {"construction": "pentagon", "k": k}}


def _pentagon_disjoint(k: int) -> dict:
    base = _pentagon_centers()
    centers = [base[g] + np.array([12.0 * c, 0.0]) for c in range(k) for g in range(5)]
    return {"body": BODIES["square"], "placements": _placements(centers),
            "meta": {"construction": "pentagon_disjoint", "k": k}}


def _grid(body: str, m: int) -> dict:
    """m^4 translates at (t1/m, t2/m), t in 1..m^2: tangencies everywhere."""
    coords = np.arange(1, m * m + 1) / m
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    centers = np.stack([xs.ravel(), ys.ravel()], axis=1)
    return {"body": BODIES[body], "placements": _placements(centers),
            "meta": {"construction": "grid", "m": m}}


def _random(body: str, count: int, mixed: bool, degree: float, tag: str) -> FamilySpec:
    kind = "H" if mixed else "T"
    name = f"{kind}-{body}-n{count}-d{degree:g}-{tag}"
    return FamilySpec(name, ("random", body, count, mixed, degree))


def _run(kind: str, family: FamilySpec, *args: str) -> Command:
    label = f"{kind}{'-' + args[1] if kind != 'verify' else ''}:{family.name}"
    return Command(label, kind, tuple(args), family, family.members)


def _color(family, method, *extra):
    return _run("color", family, "--method", method, *extra)


def _partition(family, method, *extra):
    return _run("partition", family, "--method", method, *extra)


def _verify(family, *extra):
    return _run("verify", family, *extra)


def _generate(body: str, count: int, mixed: bool, degree: float, tag: str) -> Command:
    side = window_side(body, count, mixed, degree)
    lo, hi = HOMOTHET_SCALES if mixed else (1.0, 1.0)
    label = f"generate:{'H' if mixed else 'T'}-{body}-n{count}-d{degree:g}-{tag}"
    args = ("random", "--body", body, "--count", str(count), "--window", f"0,{side:.4f}",
            "--scales", f"{lo},{hi}", "--seed", "{seed}")
    return Command(label, "generate", args, None, count)


def _constructions(build: str) -> list[FamilySpec]:
    return [FamilySpec(f"{build}-k{k}", (build, k)) for k in (1, 2, 3)]


def translates_large() -> list[Command]:
    """Large translate families through the translate pipeline (both oracles
    are above the cap, so they take their greedy path and exit 3).

    Per pass: 6 commands on n=1000 (the tail), 16 on n=200 (the median, mostly
    squares so the per-command medians sit inside one body), 6 square
    generates, 4 certificate-dominated verifies on n=20, and one homothets
    color on triangles so that certificate construction is not absent.
    """
    cmds = []
    for body, tags in (("square", "abcd"), ("disk", "ab"), ("triangle", "ab")):
        big = _random(body, 1000, False, 8.0, "a")
        cmds += [_color(big, "translates"), _partition(big, "translates")]
        for tag in tags:
            mid = _random(body, 200, False, 8.0, tag)
            cmds += [_color(mid, "translates"), _partition(mid, "translates")]
    cmds += [_generate("square", 100, False, 8.0, tag) for tag in "abcdef"]
    cmds += [_verify(_random(body, 20, False, 6.0, tag))
             for body in ("square", "disk") for tag in "ab"]
    cmds.append(_color(_random("triangle", 40, True, 6.0, "a"), "homothets", *HOMOTHET_SAMPLES))
    return cmds


def homothets_mixed() -> list[Command]:
    """Mixed-scale families above the omega cap through the homothets method.

    Per pass: color and partition of one n=110 triangle family (the slowest
    commands), 4 triangle generates (the tail: one-against-many pair_margin
    through the difference_polygon cache), and a bulk of square and disk
    families and small verifies (the median).  Of the 16 generates, the 8
    disk ones at n=200 hold the generate median, with 4 faster square ones
    below and the triangle ones above, so the median is the middle of 8
    generates of one class and not the boundary between two.
    """
    cmds = []
    tri = _random("triangle", 110, True, 8.0, "a")
    cmds += [_color(tri, "homothets", *HOMOTHET_SAMPLES),
             _partition(tri, "homothets", *HOMOTHET_SAMPLES)]
    cmds += [_generate("triangle", 40, True, 8.0, tag) for tag in "abcd"]
    for body, gen_count, gen_tags in (("square", 80, "abcd"), ("disk", 200, "abcdefgh")):
        for tag in "abcdef":
            fam = _random(body, 120, True, 8.0, tag)
            cmds += [_color(fam, "homothets", *HOMOTHET_SAMPLES),
                     _partition(fam, "homothets", *HOMOTHET_SAMPLES)]
        cmds += [_generate(body, gen_count, True, 8.0, tag) for tag in gen_tags]
        cmds += [_verify(_random(body, 24, True, 6.0, tag), *HOMOTHET_SAMPLES) for tag in "ab"]
    cmds.append(_verify(_random("disk", 20, False, 6.0, "a"), *HOMOTHET_SAMPLES))
    return cmds


def verify_exact() -> list[Command]:
    """verify with default caps on families where every oracle is exact, plus
    one n=200 translate verify whose capped theta path does not finish.

    Per pass: 6 heavy verifies (the n=200 one, the two triangle translate
    families whose symmetrized certificates dominate, three mixed triangle
    families); 19 verifies of the constructions and small random families
    (the tail); 16 symmetrized color and partition commands on the same
    constructions (the median); 8 cheap translate colorings and partitions
    of constructions, 6 pentagon-disjoint generates and one random one, which
    keep the median in the middle of the symmetrized commands.
    """
    samples = HOMOTHET_SAMPLES
    cmds = [_verify(_random("square", 200, False, 8.0, "battery"), *samples),
            _verify(FamilySpec("grid-triangle-m2", ("grid", "triangle", 2)), *samples),
            _verify(_random("triangle", 20, False, 6.0, "a"), *samples)]
    cmds += [_verify(_random("triangle", n, True, 6.0, "a"), *samples) for n in (16, 28, 40)]
    small = _constructions("pentagon") + _constructions("pentagon-disjoint") + [
        FamilySpec("grid-square-m2", ("grid", "square", 2))]
    cmds += [_verify(f, *samples) for f in small]
    for body in ("square", "disk"):
        cmds += [_verify(_random(body, n, False, 6.0, "a"), *samples) for n in (20, 25, 30)]
        cmds += [_verify(_random(body, n, True, 6.0, "a"), *samples) for n in (16, 28, 40)]
    for fam in small + [_random("disk", 20, False, 6.0, "a")]:
        cmds += [_color(fam, "symmetrized"), _partition(fam, "symmetrized")]
    for fam in small[:4]:
        cmds += [_color(fam, "translates"), _partition(fam, "translates")]
    cmds += [Command(f"generate:pentagon-disjoint-k120-{tag}", "generate",
                     ("pentagon-disjoint", "--k", "120"), None, 600) for tag in "abcdef"]
    cmds.append(_generate("disk", 40, True, 6.0, "a"))
    return cmds


# the percentile reported as op_tail_s, fixed per workload so that runs of
# different speed report the same statistic: the highest of 50/75/90/95/99
# that leaves at least ten samples beyond it in one run at this mix's speed
TAIL_PERCENTILE = {"translates_large": 90, "homothets_mixed": 90, "verify_exact": 75}

WORKLOADS = {
    "translates_large": translates_large,
    "homothets_mixed": homothets_mixed,
    "verify_exact": verify_exact,
}


def interleave(cmds: list[Command]) -> list[Command]:
    """Order a pass so that each class of command (same kind, same size) is
    spread evenly over it.  The machine's speed drifts over seconds, so a
    class run back to back would sample one moment of it, and its median
    would move with that moment."""
    groups: dict[tuple[str, int], list[Command]] = {}
    for cmd in cmds:
        groups.setdefault((cmd.kind, cmd.members), []).append(cmd)
    keyed = [((i + 0.5) / len(group), g, cmd)
             for g, group in enumerate(groups.values()) for i, cmd in enumerate(group)]
    return [cmd for *_, cmd in sorted(keyed, key=lambda k: k[:2])]


def warmups() -> list[Command]:
    """One untimed command per kind, on fixed inputs, run during set-up.

    The color warm-up uses the triangle so its lazily cached parallelogram
    fit and scipy's lazy import are paid in set-up, not in the first timed
    command.  Their report digests are pinned for every seed.
    """
    return [
        _color(_random("triangle", 12, False, 6.0, "warm"), "translates"),
        _partition(_random("square", 12, True, 6.0, "warm"), "homothets", *HOMOTHET_SAMPLES),
        _verify(FamilySpec("pentagon-k1", ("pentagon", 1)), *HOMOTHET_SAMPLES),
        _generate("disk", 12, True, 6.0, "warm"),
    ]


def resolve_args(cmd: Command, seed: int) -> Command:
    """Substitute the per-command seed into a generate command's arguments."""
    if "{seed}" not in cmd.args:
        return cmd
    item_seed = str(_item_seed(seed, cmd.label) % 100_000)
    args = tuple(item_seed if a == "{seed}" else a for a in cmd.args)
    return Command(cmd.label, cmd.kind, args, cmd.family, cmd.members)
