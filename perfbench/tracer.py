"""Outside-in span tracing of convex_chroma's public stage functions.

`Tracer.install()` rebinds each traced name in every loaded convex_chroma
module that holds it (and on the class, for IntersectionGraph members), so
calls between the program's own modules are traced too; `uninstall()` puts
the originals back.  The program's source is not changed.

Stage functions get a span (name, start, end, parent).  Per-pair predicates
get a call counter only, so tracing adds no clock reads inside pair loops.
Spans are kept in memory per command; `Tracer.end_command()` folds them into
per-name call counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "convex_chroma"

SPANS = {
    "families": ("load_family", "family_digest"),
    "geometry": ("pairwise_adjacency", "inscribed_parallelogram"),
    "graph_core": (
        "IntersectionGraph.from_matrix", "IntersectionGraph.__post_init__",
        "max_clique", "max_independent_set", "chromatic_number", "clique_cover_number",
        "verify_coloring", "verify_clique_partition",
    ),
    "covering": ("known_certificate", "cover_by_translates", "verify_certificate"),
    "translate_coloring": (
        "normalize", "choose_offsets", "decompose", "build_poset",
        "chain_partition", "antichain_partition",
    ),
    "homothet_coloring": (
        "color_homothets", "clique_partition_homothets",
        "pierce_intersecting_smallest", "symmetrized_certificate",
    ),
    "constructions": ("random_family",),
    "reports": ("canonical_json",),
}
COUNTED = {"geometry": ("pair_margin", "homothets_intersect")}
ORACLES = ("max_clique", "max_independent_set", "chromatic_number", "clique_cover_number")
COMMANDS = ("color", "partition", "verify", "generate")


def _observe(counts: Counter, name: str, args: tuple, kwargs: dict, result) -> None:
    """Counters read from a traced call's arguments or result."""
    short = name.rsplit(".", 1)[-1]
    if short == "pairwise_adjacency":
        n = len(args[1] if len(args) > 1 else kwargs["centers"])
        counts["geometry.pairwise_adjacency.pairs"] += n * (n - 1) // 2
    elif short in ORACLES:
        counts["graph_core.oracle_results"] += 1
        counts["graph_core.oracle_capped"] += bool(result.capped)
    elif short == "choose_offsets":
        counts["translate_coloring.offset_draws"] += result.attempts
    elif short == "verify_certificate":
        counts["covering.samples_verified"] += result.samples
    elif short == "known_certificate":
        counts["covering.certificates"] += result is not None
    elif short == "cover_by_translates":
        counts["covering.certificates"] += 1
    elif short == "pierce_intersecting_smallest":
        counts["homothet_coloring.piercing_fallbacks"] += bool(result.fallback_used)
    elif short == "clique_partition_homothets":
        counts["homothet_coloring.rounds"] += result.rounds
    elif short == "random_family":
        counts["constructions.random_family.members"] += len(result)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()   # per-run totals
        self.self_s: Counter = Counter()   # per-run self seconds by span name
        self.commands = 0
        self._patches: list[tuple[object, str, object, object]] = []
        self._cache_base = None
        self.last: list[tuple[str, float]] = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short, names in SPANS.items():
            home = importlib.import_module(f"{PACKAGE}.{short}")
            for name in names:
                self._patch(home, mods, f"{short}.{name}", name, self._span_wrapper)
        for short, names in COUNTED.items():
            home = importlib.import_module(f"{PACKAGE}.{short}")
            for name in names:
                self._patch(home, mods, f"{short}.{name}", name, self._count_wrapper)
        self._difference_polygon = importlib.import_module(
            f"{PACKAGE}.geometry").difference_polygon
        self._cache_base = self._difference_polygon.cache_info()

    def _patch(self, home, mods, full: str, name: str, make) -> None:
        if "." in name:                       # a member of a class
            cls_name, attr = name.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(full, raw.__func__))
            else:
                wrapped = make(full, raw)
            self._patches.append((cls, attr, raw, wrapped))
            setattr(cls, attr, wrapped)
            return
        original = getattr(home, name)
        wrapper = make(full, original)
        for mod in mods:
            if mod.__dict__.get(name) is original:
                self._patches.append((mod, name, original, wrapper))
                setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        self._fold_cache()
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _fold_cache(self) -> None:
        info = self._difference_polygon.cache_info()
        self.counts["geometry.difference_polygon.hits"] += info.hits - self._cache_base.hits
        self.counts["geometry.difference_polygon.misses"] += (
            info.misses - self._cache_base.misses)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- wrappers -----------------------------------------------------------
    def _span_wrapper(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            _observe(counts, name, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- per command --------------------------------------------------------
    def begin_command(self, kind: str) -> float:
        """Open the command's root span; returns its start time."""
        self.spans.clear()
        self._stack.clear()
        start = time.perf_counter()
        self.spans.append([f"cli.{kind}", start, None, -1])
        self._stack.append(0)
        return start

    def end_command(self, end: float) -> None:
        """Close the root span at `end` and fold the command's spans into the
        totals.  `self.last` keeps (name, self seconds) per span; they sum to
        the root span's duration because spans nest strictly on one thread.
        """
        self.spans[0][2] = end
        self._stack.clear()
        for span in self.spans:
            if span[2] is None:               # cut by the deadline before its try
                span[2] = end
        child = [0.0] * len(self.spans)
        for name, start, stop, parent in self.spans[1:]:
            child[parent] += stop - start
        self.last = []
        for idx, (name, start, stop, _) in enumerate(self.spans):
            own = (stop - start) - child[idx]
            self.last.append((name, own))
            self.self_s[name] += own
            self.counts[f"{name}.calls"] += 1
        self.commands += 1


def layer_metrics(tracer: Tracer, commands_by_kind: Counter, overhead: float) -> dict:
    """Per-layer metrics: calls and self seconds per traced command, plus the
    counters and ratios the layers expose."""
    ops = max(tracer.commands, 1)
    c = tracer.counts
    out = {}
    for short, names in SPANS.items():
        for name in names:
            full = f"{short}.{name}"
            out[f"{full}.calls"] = (c[f"{full}.calls"] / ops, "count")
            out[f"{full}.self_s"] = (tracer.self_s[full] / ops, "s")
    for short, names in COUNTED.items():
        for name in names:
            out[f"{short}.{name}.calls"] = (c[f"{short}.{name}.calls"] / ops, "count")
    out["geometry.pairwise_adjacency.pairs"] = (c["geometry.pairwise_adjacency.pairs"] / ops,
                                                "count")
    lookups = c["geometry.difference_polygon.hits"] + c["geometry.difference_polygon.misses"]
    out["geometry.difference_polygon.hit_ratio"] = (
        c["geometry.difference_polygon.hits"] / lookups if lookups else 0.0, "ratio")
    out["graph_core.oracle_capped_ratio"] = (
        c["graph_core.oracle_capped"] / max(c["graph_core.oracle_results"], 1), "ratio")
    out["covering.certificates_per_op"] = (c["covering.certificates"] / ops, "count")
    out["covering.samples_verified"] = (c["covering.samples_verified"] / ops, "count")
    draws = c["translate_coloring.choose_offsets.calls"]
    out["translate_coloring.offset_draws_per_call"] = (
        c["translate_coloring.offset_draws"] / max(draws, 1), "count")
    pierces = c["homothet_coloring.pierce_intersecting_smallest.calls"]
    out["homothet_coloring.piercing_fallback_ratio"] = (
        c["homothet_coloring.piercing_fallbacks"] / max(pierces, 1), "ratio")
    out["homothet_coloring.rounds_per_op"] = (c["homothet_coloring.rounds"] / ops, "count")
    out["constructions.random_family.members"] = (
        c["constructions.random_family.members"] / ops, "count")
    for kind in COMMANDS:
        out[f"cli.{kind}.self_s"] = (
            tracer.self_s[f"cli.{kind}"] / max(commands_by_kind[kind], 1), "s")
    out["cli.trace_overhead"] = (overhead, "ratio")
    return out


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    return [(name, unit) for name, (_, unit) in layer_metrics(Tracer(), Counter(), 1.0).items()]
