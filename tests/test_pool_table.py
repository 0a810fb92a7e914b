"""Distances over a pool of sets, read from one table.

``pool_distances`` numbers the union of a pool's elements once, builds one
distance table and one penalty vector, and solves each pair on ids.  Every
value must equal ``subset_distance(...).value`` bit for bit, in both
argument orders, on every space kind.  ``pool_comparison_distances`` does
the same for the comparison distances and ``comparison_distance``.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setmetrics import (ComparisonKind, ConstantPenalty, DiameterPenalty,
                        DomainError, EccentricityPenalty, EuclideanBoxSpace,
                        GraphSpace, HammingSpace, PointSet, SizeLimitError,
                        TablePenalty, ValidationError, comparison_distance,
                        subset_distance)
from setmetrics.comparisons import pool_comparison_distances
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


def outcome(compute):
    """A value as its hex, or an error as its type and message."""
    try:
        return compute().hex()
    except (ValidationError, DomainError, SizeLimitError) as exc:
        return type(exc).__name__, str(exc)


def test_costs_spread_past_a_float_run_every_pair_as_subset_distance():
    # The pool's costs d - M run from -1.1e308 to 1e308, a spread no float
    # holds, yet every pair's own costs are solvable and its distance is
    # finite: the pool runs subset_distance per pair rather than raise.
    path = GraphSpace([(0, 1, 1.2e308)])
    table = TablePenalty(path, {0: 2e307, 1: 1.1e308})
    pool = [PointSet(path, [0]), PointSet(path, [1]), PointSet(path, [0, 1]),
            PointSet(path, [])]
    distance = pool_distances(path, table, pool)
    assert distance(0, 1) == distance(1, 0) == 1.2e308
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            expected = subset_distance(path, table, a, b).value
            assert distance(i, j).hex() == expected.hex(), (a, b)


def test_non_finite_costs_raise_from_the_pair_subset_distance_raises_from():
    # An uncertified table near the float limit: the pair of {0, 1} and
    # {2, 3} raises "finite" as subset_distance does, and no other pair.
    graph = GraphSpace([(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1e308)])
    table = TablePenalty(graph, {0: 0.0, 1: 0.0, 2: 1.7e308, 3: 0.0})
    pool = [PointSet(graph, [0, 1]), PointSet(graph, [2, 3]),
            PointSet(graph, [0]), PointSet(graph, [])]
    distance = pool_distances(graph, table, pool)
    raised = []
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            expected = outcome(lambda: subset_distance(graph, table, a, b).value)
            assert outcome(lambda: distance(i, j)) == expected, (a, b)
            if isinstance(expected, tuple):
                assert "finite" in expected[1]
                raised.append((i, j))
    assert (0, 1) in raised and (1, 0) in raised


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pools(), st.sampled_from(list(ComparisonKind)))
def test_comparisons_from_the_pool_equal_comparison_distance(case, kind):
    # The pool always holds an empty set, so DomainError is met, too.
    space, _, pool = case
    distance = pool_comparison_distances(kind, space, pool)
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            expected = outcome(lambda: comparison_distance(kind, space, a, b))
            assert outcome(lambda: distance(i, j)) == expected, (kind, a, b)


def test_a_pool_holding_an_empty_set_raises_from_each_pair_that_meets_it():
    line = EuclideanBoxSpace([(0.0, 1.0)])
    pool = [PointSet(line, [(0.0,), (0.5,)]), PointSet(line, []),
            PointSet(line, [(1.0,)])]
    for kind in ComparisonKind:
        distance = pool_comparison_distances(kind, line, pool)
        assert distance(0, 2) == distance(2, 0) == \
            comparison_distance(kind, line, pool[0], pool[2])
        for i, j in ((0, 1), (1, 0), (1, 1), (1, 2)):
            with pytest.raises(DomainError, match="empty sets"):
                distance(i, j)


def test_a_set_of_eight_raises_size_limit_for_the_surjections():
    words = HammingSpace("01", 3)
    pool = [PointSet(words, ["000", "111"]), PointSet(words, words.elements())]
    for kind in (ComparisonKind.SURJECTIVE, ComparisonKind.FAIR_SURJECTIVE):
        distance = pool_comparison_distances(kind, words, pool)
        assert distance(0, 0) == 0.0
        for i, j in ((0, 1), (1, 0), (1, 1)):
            with pytest.raises(SizeLimitError, match="got 8"):
                distance(i, j)


def test_comparison_pools_over_the_bound_run_comparison_distance(monkeypatch):
    module = importlib.import_module("setmetrics.subset_distance")
    comparisons = importlib.import_module("setmetrics.comparisons")
    calls = []
    original = comparisons.comparison_distance

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(comparisons, "comparison_distance", counted)
    rng = np.random.default_rng(8)
    pool = [PointSet(BOX, [BOX.sample_element(rng) for _ in range(size)])
            for size in (1, 3, 5)]
    for bound, per_pair in ((9, 0), (8, 9)):
        monkeypatch.setattr(module, "POOL_TABLE_MAX_ELEMENTS", bound)
        distance = pool_comparison_distances(ComparisonKind.LINK, BOX, pool)
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                assert distance(i, j).hex() == \
                    original(ComparisonKind.LINK, BOX, a, b).hex()
        assert len(calls) == per_pair
        calls.clear()
