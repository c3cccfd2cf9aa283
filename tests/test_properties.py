"""Property tests: the intersection graph is invariant under a common
translation of all members, a uniform scaling of centers and scales, and a
permutation of the members (up to relabelling).

Families come from `random_family`, which keeps every pair at least 0.05 away
from tangency, so no transformation here moves a pair across the absolute
tolerance of the intersection test.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from convex_chroma.constructions import random_family
from convex_chroma.families import Family
from convex_chroma.geometry import ConvexBody, Placement
from convex_chroma.graph_core import build_graph
from conftest import graph_matrix

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
    return Family(body=family.body, placements=tuple(
        Placement(tuple(float(x) for x in c), float(s)) for c, s in zip(centers, scales)))


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
