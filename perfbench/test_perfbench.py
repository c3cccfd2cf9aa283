"""Tests of the benchmark itself: its oracle, its checks, its deadline and its
tracing.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import harness
import oracle
import tracer as tracing
import workloads
from workloads import DEFAULT_SEED, FamilySpec

harness.import_program()

from convex_chroma.constructions import grid_family, pentagon_disjoint_family, pentagon_family  # noqa: E402
from convex_chroma.geometry import ConvexBody, Placement, pair_margin  # noqa: E402
from convex_chroma.graph_core import build_graph  # noqa: E402

SQUARE = ConvexBody.unit_square()
TRIANGLE = ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])


def _matrix(graph) -> np.ndarray:
    n = graph.member_count
    return np.array([[bool((graph.rows[i] >> j) & 1) for j in range(n)] for i in range(n)],
                    dtype=bool).reshape(n, n)


@pytest.mark.parametrize("family", [
    grid_family(SQUARE, 2), grid_family(SQUARE, 3),
    grid_family(TRIANGLE, 2), grid_family(TRIANGLE, 3),
    pentagon_family(1), pentagon_family(2), pentagon_family(3),
    pentagon_disjoint_family(2),
], ids=lambda f: f"{f.meta['construction']}-{f.body.kind}-{len(f)}")
def test_support_predicate_matches_build_graph_on_tangent_families(family):
    expected = _matrix(build_graph(family))
    assert expected.any() and not expected.all()
    assert (oracle.adjacency(family.to_json()) == expected).all()


@pytest.mark.parametrize("body", sorted(workloads.BODIES))
def test_generator_keeps_pairs_clear_of_tangency(body):
    spec = FamilySpec("t", ("random", body, 40, True, 8.0))
    obj = workloads.build_family(spec, seed=5)
    cvx = ConvexBody.from_json(obj["body"])
    placements = [Placement(tuple(p["center"]), p["scale"]) for p in obj["placements"]]
    margins = [pair_margin(cvx, a, b) for i, a in enumerate(placements)
               for b in placements[i + 1:]]
    assert min(abs(m) for m in margins) >= oracle.TANGENCY_MARGIN - 1e-12
    fam_margins = oracle.Body(obj["body"]).margins(*oracle.family_arrays(obj)[1:],
                                                   *oracle.family_arrays(obj)[1:])
    ours = fam_margins[np.triu_indices(len(placements), 1)]
    assert np.allclose(ours, margins, atol=1e-12)


def test_same_seed_same_inputs():
    spec = FamilySpec("t", ("random", "triangle", 30, True, 6.0))
    assert workloads.build_family(spec, 3) == workloads.build_family(spec, 3)
    assert workloads.build_family(spec, 3) != workloads.build_family(spec, 4)


def test_check_report_catches_a_wrong_coloring_and_partition():
    obj = pentagon_family(2).to_json()
    adj = oracle.adjacency(obj)
    good = {"outputs": {"coloring": {"colors": list(range(10))},
                        "partition": {"classes_assign": list(range(10))}}}
    assert oracle.check_report(good, adj) == []
    bad = {"outputs": {"coloring": {"colors": [0] * 10},
                       "partition": {"classes_assign": [0] * 10}}}
    assert len(oracle.check_report(bad, adj)) == 2


@pytest.fixture(scope="module")
def program():
    return harness.import_program()


def test_deadline_cuts_a_command_and_times_it_at_the_deadline(program, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "DEADLINE_S", 0.3)
    prepared = harness.prepare("verify_exact", DEFAULT_SEED, tmp_path)
    battery = next(c for c in prepared.commands if "battery" in c.label)
    outcome = harness.execute(program.main, battery, prepared)
    assert outcome.error == "deadline" and outcome.seconds == 0.3
    assert not outcome.ok and outcome.correct


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reproduces_the_pinned_untraced_digests(program, workload, tmp_path):
    pins = harness.load_pins(workload)
    prepared = harness.prepare(workload, DEFAULT_SEED, tmp_path)
    commands = [c for c in prepared.commands if c.label in pins]
    assert len(commands) >= len(prepared.commands) - 1
    tracer = tracing.Tracer()
    with tracer.installed():
        for cmd in commands:
            outcome = harness.execute(program.main, cmd, prepared, tracer=tracer)
            assert outcome.ok, (cmd.label, outcome.problems, outcome.error)
            assert outcome.digest == pins[cmd.label], cmd.label
            assert abs(sum(own for _, own in tracer.last) - outcome.seconds) < 1e-6
    assert tracer.commands == len(commands)
    # every traced span name is one of the declared stage functions
    declared = {f"{m}.{n}" for m, names in tracing.SPANS.items() for n in names}
    assert set(tracer.self_s) - declared <= {f"cli.{k}" for k in tracing.COMMANDS}


def test_self_times_are_non_negative_and_cover_the_stages(program, tmp_path):
    prepared = harness.prepare("verify_exact", DEFAULT_SEED, tmp_path)
    cmd = next(c for c in prepared.commands if c.label == "verify:grid-square-m2")
    tracer = tracing.Tracer()
    with tracer.installed():
        outcome = harness.execute(program.main, cmd, prepared, tracer=tracer)
    assert outcome.ok
    names = {name for name, _ in tracer.last}
    assert {"cli.verify", "graph_core.max_clique", "translate_coloring.build_poset",
            "covering.known_certificate", "homothet_coloring.color_homothets"} <= names
    assert all(own >= 0 for _, own in tracer.last)


def test_tracing_leaves_no_wrapper_installed(program):
    import convex_chroma.graph_core as gc
    before = (gc.max_clique, gc.IntersectionGraph.__dict__["from_matrix"])
    with tracing.Tracer().installed():
        assert gc.max_clique is not before[0]
    assert (gc.max_clique, gc.IntersectionGraph.__dict__["from_matrix"]) == before


def test_pins_cover_the_warmups():
    with open(harness.PINS) as fh:
        pins = json.load(fh)
    assert pins["seed"] == DEFAULT_SEED
    assert {c.label for c in workloads.warmups()} == set(pins["warmup"])


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    with open(harness.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == tracing.per_layer_names()
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
