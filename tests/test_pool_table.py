"""Distances over a pool of sets, read from one table.

``pool_distances`` numbers the union of a pool's elements once, builds one
distance table and one penalty vector, and solves each pair on ids.  Every
value must equal ``subset_distance(...).value`` bit for bit, in both
argument orders, on every space kind.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmetrics import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, HammingSpace, PointSet,
                        TablePenalty, ValidationError, subset_distance)
from setmetrics.spaces import REAL_TOL
from setmetrics.subset_distance import pool_distances

HAMMING = HammingSpace("01", 4)
BOX = EuclideanBoxSpace([(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)])
# integer weights: many equal distances and many tied costs
GRAPH = GraphSpace([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 4, 1.0),
                    (4, 5, 1.0), (5, 0, 2.0), (1, 4, 2.0), (6, 2, 1.0)])


def coordinate(low, high):
    """Reals in [low, high], often a signed zero, a bound, or a point
    within REAL_TOL outside a bound, which canonicalizes to the bound."""
    edges = (0.0, -0.0, low, high, low - REAL_TOL / 2, high + REAL_TOL / 2)
    return st.one_of(st.sampled_from(edges), st.floats(low, high))


ELEMENTS = {
    "hamming": st.text("01", min_size=4, max_size=4),
    "box": st.tuples(*(coordinate(lo, hi) for lo, hi in BOX.bounds)),
    "graph": st.integers(0, GRAPH.vertex_count - 1),
}
SPACES = {"hamming": HAMMING, "box": BOX, "graph": GRAPH}


def penalties(space):
    table = TablePenalty(space, {x: space.eccentricity(x) + 1.0
                                 for x in space.elements()}) \
        if space.element_count() else None
    return [p for p in (DiameterPenalty(space), EccentricityPenalty(space),
                        ConstantPenalty(space, 2.0 * space.diameter), table)
            if p is not None]


@st.composite
def pools(draw):
    """A space, a penalty and a pool of sets over a small universe, with
    empty, identical and overlapping sets."""
    kind = draw(st.sampled_from(sorted(SPACES)))
    space = SPACES[kind]
    penalty = draw(st.sampled_from(penalties(space)))
    universe = draw(st.lists(ELEMENTS[kind], min_size=1, max_size=10))
    sets = draw(st.lists(st.lists(st.sampled_from(universe), max_size=7),
                         min_size=1, max_size=5))
    pool = [PointSet(space, set(items)) for items in sets]
    pool += [pool[0], PointSet(space, [])]
    return space, penalty, pool


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pools())
def test_table_values_equal_subset_distance_bit_for_bit(case):
    space, penalty, pool = case
    distance = pool_distances(space, penalty, pool)
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            expected = subset_distance(space, penalty, a, b).value
            assert distance(i, j).hex() == expected.hex(), (a, b)


def test_signed_zeros_are_one_element():
    # (-0.0,) and (0.0,) are equal elements, so they share one id: the
    # two sets reduce to nothing and their distance is 0.
    line = EuclideanBoxSpace([(-1.0, 1.0)])
    pool = [PointSet(line, [(-0.0,), (0.5,)]), PointSet(line, [(0.0,), (0.5,)]),
            PointSet(line, [(0.0,), (-1.0,)])]
    assert [math.copysign(1.0, ps.elements[0][0]) for ps in pool[:2]] == [-1.0, 1.0]
    distance = pool_distances(line, EccentricityPenalty(line), pool)
    assert distance(0, 1) == distance(1, 0) == 0.0
    for i in range(3):
        for j in range(3):
            assert distance(i, j) == subset_distance(
                line, EccentricityPenalty(line), pool[i], pool[j]).value


def test_wide_and_large_pairs_match_subset_distance():
    # Every pair is gathered from the one table, a small set against a
    # large one and two large sets alike, and the pairs wider than the
    # list core are solved on the numpy core.
    rng = np.random.default_rng(5)
    words = HammingSpace("ACGT", 6)
    pool = [PointSet(words, {words.sample_element(rng) for _ in range(size)})
            for size in (1, 2, 3, 40, 45, 70)]
    penalty = ConstantPenalty(words, 6.0)
    distance = pool_distances(words, penalty, pool)
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            assert distance(i, j).hex() == \
                subset_distance(words, penalty, a, b).value.hex()


def test_missing_table_entry_raises_from_the_pair_that_meets_it():
    # The table lacks vertex 3.  As the source of a pair it is never
    # looked up; as a target it raises, as subset_distance does.
    path = GraphSpace([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    table = TablePenalty(path, {0: 3.0, 1: 2.0, 2: 2.0})
    pool = [PointSet(path, [3]), PointSet(path, [0, 1])]
    distance = pool_distances(path, table, pool)
    assert distance(0, 1) == subset_distance(path, table, *pool).value
    assert distance(0, 0) == 0.0
    with pytest.raises(ValidationError, match="no table entry for element 3"):
        subset_distance(path, table, pool[0], PointSet(path, []))
    with pytest.raises(ValidationError, match="no table entry for element 3"):
        pool_distances(path, table, pool + [PointSet(path, [])])(0, 2)
