"""Property tests: the intersection graph is invariant under a common
translation of all members, a uniform scaling of centers and scales, and a
permutation of the members (up to relabelling); graphs survive DIMACS and
families survive their JSON file format; the canonical JSON writer gives the
stdlib's `json.dumps(obj, sort_keys=True, indent=2)` text byte for byte.

Families come from `random_family`, which keeps every pair at least 0.05 away
from tangency, so no transformation here moves a pair across the absolute
tolerance of the intersection test.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from convex_chroma.constructions import random_family
from convex_chroma.families import Family, dumps_family, family_digest
from convex_chroma.geometry import ConvexBody
from convex_chroma.graph_core import IntersectionGraph, build_graph, from_dimacs, to_dimacs
from convex_chroma.reports import canonical_json
from conftest import family_of, graph_matrix, random_graph

BODIES = {
    "triangle": ConvexBody.polygon([(0, 0), (1, 0), (0, 1)]),
    "pentagon": ConvexBody.polygon([(0, 0), (2, 0), (2.5, 1), (1, 2), (-0.5, 1)]),
    "square": ConvexBody.unit_square(),
    "disk": ConvexBody.disk(),
    "box3": ConvexBody.box((1.0, 2.0, 0.5)),
}


@st.composite
def families(draw) -> Family:
    body = BODIES[draw(st.sampled_from(sorted(BODIES)))]
    count = draw(st.integers(min_value=1, max_value=25))
    mixed = draw(st.booleans())
    return random_family(body, count, (0.0, 5.0),
                         scale_range=(0.3, 2.0) if mixed else (1.0, 1.0),
                         seed=draw(st.integers(min_value=0, max_value=2**32 - 1)))


def moved(family: Family, centers: np.ndarray, scales: np.ndarray) -> Family:
    return Family(family.body, centers, scales)


coordinates = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(families(), st.lists(coordinates, min_size=3, max_size=3))
def test_common_translation_keeps_the_graph(family, shift):
    shift = np.array(shift[:family.body.dimension])
    again = moved(family, family.centers() + shift, family.scales())
    assert build_graph(again).rows == build_graph(family).rows


@given(families(), st.floats(min_value=0.1, max_value=10.0))
def test_uniform_scaling_keeps_the_graph(family, factor):
    again = moved(family, family.centers() * factor, family.scales() * factor)
    assert build_graph(again).rows == build_graph(family).rows


@given(families(), st.data())
def test_member_permutation_relabels_the_graph(family, data):
    perm = np.array(data.draw(st.permutations(range(len(family)))), dtype=int)
    again = moved(family, family.centers()[perm], family.scales()[perm])
    expected = graph_matrix(build_graph(family))[np.ix_(perm, perm)]
    assert np.array_equal(graph_matrix(build_graph(again)), expected)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=1.0))
def test_dimacs_round_trip_keeps_the_matrix(n, seed, density):
    graph = IntersectionGraph.from_matrix(random_graph(seed, n, density))
    assert np.array_equal(from_dimacs(to_dimacs(graph)).matrix, graph.matrix)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


meta_values = (st.none() | st.integers() | st.floats() | st.text(max_size=5)
               | st.lists(st.integers() | st.floats(), max_size=3))


@st.composite
def raw_families(draw, scales=positive) -> Family:
    """Any valid family of the test bodies: centers anywhere in float range,
    scales drawn from `scales`, meta of null, numbers, text and lists."""
    body = BODIES[draw(st.sampled_from(sorted(BODIES)))]
    members = draw(st.lists(st.tuples(st.tuples(*[finite] * body.dimension), scales),
                            max_size=20))
    meta = draw(st.dictionaries(st.text(max_size=5), meta_values, max_size=3))
    return family_of(body, members, meta)


@given(raw_families(positive | st.integers(min_value=1, max_value=10**6)))
@example(family_of(BODIES["square"], [((0.0, 0.0), 2)], meta={}))
def test_family_json_round_trip_keeps_the_digest(family):
    again = Family.from_json(json.loads(dumps_family(family)))
    assert family_digest(again) == family_digest(family)


def stdlib_json(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@given(raw_families(positive | st.integers(min_value=1, max_value=10**6)))
@example(Family(BODIES["box3"], [], [], meta={"n": None}))
@example(family_of(BODIES["disk"], [((0.0, -0.0), 2)], meta={}))
def test_family_text_is_the_stdlib_text(family):
    text = dumps_family(family)
    assert text == stdlib_json(family.to_json())
    assert family_digest(family) == hashlib.sha256(text.encode()).hexdigest()


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=-2**200, max_value=2**200)
                | st.floats() | st.floats().map(np.float64) | st.text())


def json_containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.lists(st.integers() | st.booleans(), max_size=6)
            | st.lists(st.floats(), max_size=6)
            | st.dictionaries(st.text(), children, max_size=4)
            | st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=4)
            | st.dictionaries(st.none(), children, max_size=1))


@given(st.recursive(json_scalars, json_containers, max_leaves=30))
@example({"b": [1, True, 2, False], "a": [0.5, float("nan"), -0.0, float("-inf")],
          "\u00e9\x01": {2: [], 10: {}, 1.5: (), True: "\x00\u2028"}, "n": {None: 0}})
def test_canonical_json_is_the_stdlib_text(value):
    assert canonical_json(value) == stdlib_json(value)


@pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), object()], ids=["set", "int64", "object"])
def test_canonical_json_rejects_what_the_stdlib_rejects(bad):
    values = [bad, [1, bad], [bad, bad], {"a": {"b": bad}}]
    if bad.__hash__:
        values.append({"a": {bad: 1}})
    for value in values:
        with pytest.raises(TypeError) as want:
            stdlib_json(value)
        with pytest.raises(TypeError) as got:
            canonical_json(value)
        assert str(got.value) == str(want.value)
