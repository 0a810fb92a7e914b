"""Assignment and injection solvers against brute force and scipy."""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import setmetrics.assignment
from setmetrics import (Assignment, ConstantPenalty, DiameterPenalty,
                        EccentricityPenalty, EuclideanBoxSpace, GraphSpace,
                        HammingSpace, PenaltyFunction, PointSet, TablePenalty,
                        ValidationError, SizeLimitError,
                        brute_force_assignment, link_distance,
                        solve_assignment, subset_distance)
from setmetrics.assignment import solve_injection
from setmetrics.comparisons import ComparisonKind, pool_comparison_distances
from setmetrics.subset_distance import pool_distances


def test_single_entry():
    r = solve_assignment([[0.0]])
    assert r.permutation == (0,)
    assert r.total_cost == 0.0


def test_two_by_two_prefers_diagonal():
    r = solve_assignment([[1.0, 2.0], [2.0, 1.0]])
    assert r.permutation == (0, 1)
    assert r.total_cost == 2.0


def test_three_by_three_known_optimum():
    r = solve_assignment([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    assert r.total_cost == 5.0
    assert r.permutation == (1, 0, 2)


def test_permutation_is_valid():
    rng = np.random.default_rng(3)
    c = rng.uniform(0.0, 1.0, size=(9, 9))
    r = solve_assignment(c)
    assert sorted(r.permutation) == list(range(9))
    assert r.total_cost == pytest.approx(
        sum(c[i, j] for i, j in enumerate(r.permutation)))


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(29)
    for trial in range(400):
        n = int(rng.integers(1, 7))
        if trial % 2:
            c = rng.integers(0, 9, size=(n, n)).astype(float)
        else:
            c = rng.uniform(0.0, 5.0, size=(n, n))
        fast = solve_assignment(c)
        slow = brute_force_assignment(c)
        if trial % 2:
            assert fast.total_cost == slow.total_cost
        else:
            assert fast.total_cost == pytest.approx(slow.total_cost, abs=1e-9)


def test_matches_scipy_on_larger_matrices():
    rng = np.random.default_rng(101)
    for n in (20, 60, 150):
        c = rng.uniform(0.0, 10.0, size=(n, n))
        mine = solve_assignment(c).total_cost
        rows, cols = linear_sum_assignment(c)
        assert mine == pytest.approx(float(c[rows, cols].sum()), abs=1e-9)


def test_500_square_under_time_budget():
    rng = np.random.default_rng(7)
    c = rng.uniform(0.0, 1.0, size=(500, 500))
    start = time.perf_counter()
    r = solve_assignment(c)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    rows, cols = linear_sum_assignment(c)
    assert r.total_cost == pytest.approx(float(c[rows, cols].sum()), abs=1e-9)


@pytest.mark.parametrize("shape", [(1000, 1000), (600, 1000)])
def test_tie_heavy_integers_under_time_budget(shape):
    # Costs 0-2: most rows find their cheapest column taken by an earlier
    # row, and a free column tied with it spares them the search tree.
    rng = np.random.default_rng(sum(shape))
    c = rng.integers(0, 3, size=shape).astype(float)
    start = time.perf_counter()
    cols, total = solve_injection(c)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert_is_injection(c, cols, total)
    assert total == scipy_injection_total(c)


#: Inputs that are no matrix of reals: ragged rows, a string, complex.
MALFORMED = ([[1.0, 2.0], [3.0]], "abc", [[1 + 2j]])


def test_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        solve_assignment([[1.0, 2.0]])  # not square
    with pytest.raises(ValidationError):
        solve_assignment([])
    with pytest.raises(ValidationError):
        solve_assignment([[float("nan")]])
    with pytest.raises(ValidationError):
        solve_assignment([[float("inf")]])
    for solve in (solve_assignment, brute_force_assignment):
        for bad in MALFORMED:
            with pytest.raises(ValidationError):
                solve(bad)


def test_brute_force_size_cap():
    with pytest.raises(SizeLimitError):
        brute_force_assignment(np.zeros((10, 10)))


def test_brute_force_deterministic_tie_break():
    # all-equal costs: enumeration returns the first optimum, the identity
    r = brute_force_assignment(np.ones((4, 4)))
    assert r.permutation == (0, 1, 2, 3)


def test_assignment_record_checks_permutation():
    with pytest.raises(ValidationError):
        Assignment((0, 0, 1), 1.0)


def scipy_injection_total(c):
    rows, cols = linear_sum_assignment(c)
    return float(c[rows, cols].sum())


def assert_is_injection(c, cols, total):
    s, t = c.shape
    assert len(cols) == s and len(set(cols)) == s
    assert all(0 <= j < t for j in cols)
    assert total == float(c[np.arange(s), list(cols)].sum())


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (3, 8), (7, 7), (20, 150),
                                   (60, 61), (100, 100)])
def test_injection_matches_scipy_on_reals_and_tie_heavy_integers(shape):
    rng = np.random.default_rng(sum(shape))
    for trial in range(6):
        if trial % 2:
            c = rng.integers(0, 3, size=shape).astype(float)
        else:
            c = rng.uniform(0.0, 10.0, size=shape)
        cols, total = solve_injection(c)
        assert_is_injection(c, cols, total)
        if trial % 2:
            assert total == scipy_injection_total(c)
        else:
            assert total == pytest.approx(scipy_injection_total(c), abs=1e-9)


def test_injection_matches_enumeration_of_all_injections():
    rng = np.random.default_rng(43)
    for trial in range(300):
        t = int(rng.integers(1, 8))
        s = int(rng.integers(1, t + 1))
        if trial % 2:
            c = rng.integers(0, 4, size=(s, t)).astype(float)
        else:
            c = rng.uniform(0.0, 5.0, size=(s, t))
        best = min(sum(c[i, j] for i, j in enumerate(chi))
                   for chi in itertools.permutations(range(t), s))
        cols, total = solve_injection(c)
        assert_is_injection(c, cols, total)
        if trial % 2:
            assert total == best
        else:
            assert total == pytest.approx(best, abs=1e-9)


def test_injection_is_deterministic():
    rng = np.random.default_rng(47)
    for c in (rng.integers(0, 2, size=(12, 40)).astype(float),
              rng.uniform(0.0, 1.0, size=(12, 40)), np.ones((5, 9))):
        assert solve_injection(c) == solve_injection(c.copy())


def test_injection_rejects_bad_matrices():
    with pytest.raises(ValidationError, match="rows must not exceed"):
        solve_injection([[1.0], [2.0]])
    for empty in ([], [[]], np.zeros((0, 3))):
        with pytest.raises(ValidationError):
            solve_injection(empty)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError):
            solve_injection([[0.0, bad]])
    for bad in MALFORMED:
        with pytest.raises(ValidationError):
            solve_injection(bad)


def signed_public_matrix(rng, integers, shape):
    if integers:
        return rng.integers(-20, 21, size=shape).astype(float)
    return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 10, size=shape)


def assert_total(total, best, c, integers):
    if integers:
        assert total == best
    else:
        assert total == pytest.approx(best, rel=1e-9,
                                      abs=1e-9 * np.abs(c).max())


@pytest.mark.parametrize("integers", (True, False), ids=("integers", "normals"))
def test_entry_points_solve_costs_of_any_sign(integers):
    # The entry points refuse by the spread rule alone, so the paper's own
    # costs d - M, and any signed matrix, are solved as they are.
    rng = np.random.default_rng([19, integers])
    for t in (1, 2, 7, 32, 33, 64, 150):
        for s in sorted({1, max(1, t // 2), t}):
            c = signed_public_matrix(rng, integers, (s, t))
            best = scipy_injection_total(c)
            cols, total = solve_injection(c)
            assert_is_injection(c, cols, total)
            assert_total(total, best, c, integers)
            if s == t:
                assert_total(solve_assignment(c).total_cost, best, c, integers)


@pytest.mark.parametrize("integers", (True, False), ids=("integers", "normals"))
def test_brute_force_agrees_on_costs_of_any_sign(integers):
    rng = np.random.default_rng([9, integers])
    for n in range(1, 10):
        c = signed_public_matrix(rng, integers, (n, n))
        assert_total(brute_force_assignment(c).total_cost,
                     solve_assignment(c).total_cost, c, integers)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", (-1.7e308, float("nan"), float("inf"),
                                 -float("inf")))
def test_entry_points_refuse_only_an_infinite_spread(bad):
    # 1e308 and -1.7e308 are each finite, but their spread is not.
    c = [[1e308, bad], [0.0, 1.0]]
    for solve in (solve_injection, solve_assignment, brute_force_assignment):
        with pytest.raises(ValidationError, match="finite"):
            solve(c)


def test_package_distances_skip_the_matrix_checks(monkeypatch):
    # The subset and link distances build matrices that are valid by
    # construction; only callers outside the package get them checked.
    calls = []
    original = setmetrics.assignment._as_cost_array

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(setmetrics.assignment, "_as_cost_array", counted)
    space = HammingSpace("ACGT", 4)
    a = PointSet(space, ["ACGT", "TTAA", "CCGG"])
    b = PointSet(space, ["ACGA", "TTAA", "GGCC", "AAAA", "CCCC"])
    assert subset_distance(space, DiameterPenalty(space), a, b).value == 11.0
    assert link_distance(space, a, b) == 9.0
    assert calls == []
    solve_injection([[1.0, 0.0]])
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_costs_raise_instead_of_looping():
    # Without the matrix checks, an uncertified table near the float limit
    # or a box too wide for float distances still has to raise.
    graph = GraphSpace([(0, 2, 1.0), (1, 2, 1.0), (2, 3, 1e308)])
    table = TablePenalty(graph, {0: 0.0, 1: 0.0, 2: 1.7e308, 3: 0.0})
    with pytest.raises(ValidationError, match="finite"):
        subset_distance(graph, table, PointSet(graph, [0, 1]),
                        PointSet(graph, [2, 3]))
    line = EuclideanBoxSpace([(-1e308, 1e308)])
    a, b = PointSet(line, [(-1e308,)]), PointSet(line, [(1e308,), (0.0,)])
    with pytest.raises(ValidationError, match="finite"):
        subset_distance(line, DiameterPenalty(line), a, b)
    with pytest.raises(ValidationError, match="finite"):
        link_distance(line, a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pool_refuses_non_finite_link_costs_as_link_distance_does():
    # The line's one pair of far points is too far apart for a float
    # distance; a pool's link kernel reads it from its table and refuses
    # it by the same test.
    line = EuclideanBoxSpace([(-1e308, 1e308)])
    a, b = PointSet(line, [(-1e308,)]), PointSet(line, [(1e308,), (0.0,)])
    distance = pool_comparison_distances(ComparisonKind.LINK, line, [a, b])
    for pair in ((0, 1), (1, 0)):
        with pytest.raises(ValidationError) as exc:
            distance(*pair)
        assert str(exc.value) == "cost matrix entries must be finite"


def forced_path_matrix(rng, shape, path, integers):
    """A matrix on which every row finishes in one edge (each row's cheapest
    column is its own) or the search tree grows on every row after the
    first (column costs spaced wider than the noise and shifted per row,
    so each row's cheapest reduced cost lies in a column an earlier row
    took)."""
    s, t = shape
    if path == "tree on every row":
        spaced = 3.0 * rng.permutation(t)
        if integers:
            return (spaced + rng.integers(0, 3, size=(s, 1))
                    + rng.integers(0, 2, size=shape))
        return (spaced + rng.uniform(0.0, 1.0, size=(s, 1))
                + rng.uniform(0.0, 1.0, size=shape))
    if integers:
        c = rng.integers(2, 5, size=shape).astype(float)
        cheap = rng.integers(0, 2, size=s).astype(float)
    else:
        c = rng.uniform(1.0, 10.0, size=shape)
        cheap = rng.uniform(0.0, 1.0, size=s)
    c[np.arange(s), rng.permutation(t)[:s]] = cheap
    return c


PATHS = ("one edge", "tree on every row")


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (3, 8), (7, 7), (20, 150),
                                   (60, 61)])
def test_injection_on_forced_paths_matches_scipy(shape, path):
    rng = np.random.default_rng([sum(shape), PATHS.index(path)])
    for trial in range(6):
        c = forced_path_matrix(rng, shape, path, integers=trial % 2 == 1)
        cols, total = solve_injection(c)
        assert_is_injection(c, cols, total)
        if path == "one edge":
            assert cols == tuple(int(j) for j in c.argmin(axis=1))
        if trial % 2:
            assert total == scipy_injection_total(c)
        else:
            assert total == pytest.approx(scipy_injection_total(c), abs=1e-9)


@pytest.mark.parametrize("path", PATHS)
def test_injection_on_forced_paths_matches_enumeration(path):
    rng = np.random.default_rng([53, PATHS.index(path)])
    for trial in range(150):
        t = int(rng.integers(1, 8))
        s = int(rng.integers(1, t + 1))
        c = forced_path_matrix(rng, (s, t), path, integers=trial % 2 == 1)
        best = min(sum(c[i, j] for i, j in enumerate(chi))
                   for chi in itertools.permutations(range(t), s))
        cols, total = solve_injection(c)
        assert_is_injection(c, cols, total)
        if trial % 2:
            assert total == best
        else:
            assert total == pytest.approx(best, abs=1e-9)


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", (
    [[0.0, NAN]], [[INF, 1.0]], [[-INF, 1.0]], [[INF, INF]],
    [[-1.7e308, 1e308]],
    [[NAN, 1.0, 2.0], [0.0, 1.0, 2.0]],     # first entry
    [[0.0, 1.0, 2.0], [1.0, NAN, 2.0]],     # a middle entry
    [[0.0, 1.0, 2.0], [1.0, 2.0, NAN]],     # last entry
    [[0.0, 1.0, 2.0], [NAN, 5.0, 2.0]],     # first of a later row
    [[0.0, INF, 2.0]], [[0.0, 1.0], [1.0, -INF]]),
    ids=("nan", "inf", "-inf", "inf inf", "spread", "nan first",
         "nan middle", "nan last", "nan row start", "inf in a row",
         "-inf in a row"))
def test_solve_finite_refuses_non_finite_costs_without_a_warning(rows):
    # The one check between the package's distances and the core: every
    # entry, and their spread, must be finite, a NaN in any position too.
    with pytest.raises(ValidationError, match="finite"):
        setmetrics.assignment._solve_finite(np.array(rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_costs_spread_past_the_largest_float_raise():
    # An uncertified, inadmissible table whose costs d - M run from
    # -1.7e308 to 1e308: a spread past the largest float, which the
    # core's potentials cannot hold.
    graph = GraphSpace([(0, 1, 1.0), (1, 2, 1e308)])
    table = TablePenalty(graph, {0: 0.0, 1: 1.7e308, 2: 0.0})
    with pytest.raises(ValidationError, match="finite"):
        subset_distance(graph, table, PointSet(graph, [0]),
                        PointSet(graph, [1, 2]))


class ListedPenalty(PenaltyFunction):
    """Penalties from a dict, in a subclass the package does not know: it
    records no bound on its values."""

    variant = "listed"

    def __init__(self, space, table):
        super().__init__(space)
        self.table = table

    def values(self, ys):
        return np.array([self.table[y] for y in ys], dtype=float)

    def to_json(self):
        return {"variant": self.variant, "entries": sorted(self.table.items())}

    def _key(self):
        return (self.variant, tuple(sorted(self.table.items())))


def count_spread_tests(monkeypatch):
    """Record the shape of every matrix the per-matrix spread test sees."""
    shapes = []
    original = setmetrics.assignment._finite_spread

    def counted(c):
        shapes.append(c.shape)
        return original(c)

    monkeypatch.setattr(setmetrics.assignment, "_finite_spread", counted)
    return shapes


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_penalty_with_no_recorded_bound_is_tested_per_matrix(monkeypatch):
    # The costs of test_costs_spread_past_the_largest_float_raise, -1.7e308
    # and 1e308, from a user-defined penalty: refused by the spread test,
    # as the built-in table is, and by no other check.
    graph = GraphSpace([(0, 1, 1.0), (1, 2, 1e308)])
    listed = ListedPenalty(graph, {0: 0.0, 1: 1.7e308, 2: 0.0})
    assert not listed._bounded_spread
    shapes = count_spread_tests(monkeypatch)
    a, b = PointSet(graph, [0]), PointSet(graph, [1, 2])
    with pytest.raises(ValidationError,
                       match="^cost matrix entries must be finite$"):
        subset_distance(graph, listed, a, b)
    assert shapes == [(1, 2)]
    distance = pool_distances(graph, listed, [a, b])
    assert shapes == [(1, 2)]
    with pytest.raises(ValidationError,
                       match="^cost matrix entries must be finite$"):
        distance(0, 1)
    assert shapes == [(1, 2), (1, 2)]
    # Costs of a finite spread are solved, each matrix still tested.
    tame = ListedPenalty(graph, {0: 1.0, 1: 1.0, 2: 1.0})
    assert subset_distance(graph, tame, a, b).value == 2.0
    assert pool_distances(graph, tame, [a, b])(0, 1) == 2.0
    assert shapes[2:] == [(1, 2), (1, 2)]


def test_built_in_penalties_of_a_finite_bound_test_no_matrix(monkeypatch):
    # diameter + max M is 1.5e308, so no cost matrix spreads wider.
    graph = GraphSpace([(0, 1, 1.0), (1, 2, 5e307)])
    shapes = count_spread_tests(monkeypatch)
    a, b = PointSet(graph, [0]), PointSet(graph, [1, 2])
    for penalty in (ConstantPenalty(graph, 1e308), EccentricityPenalty(graph),
                    TablePenalty(graph, {0: 1e308, 1: 1e308, 2: 1e308})):
        assert penalty._bounded_spread
        assert subset_distance(graph, penalty, a, b).value \
            == pool_distances(graph, penalty, [a, b])(0, 1)
    assert shapes == []


class UnboundedGraph(GraphSpace):
    """A graph whose kernel reports every distance between two vertices
    as inf, past its diameter: a subclass the package does not know."""

    def pairwise(self, xs, ys):
        d = super().pairwise(xs, ys)
        return np.where(d > 0, np.inf, d)


class UnboundedTable(TablePenalty):
    """A table whose kernel charges inf, past its largest entry."""

    def values(self, ys):
        return np.full(len(super().values(ys)), np.inf)


@pytest.mark.parametrize("subclass", ("space", "penalty"))
def test_subclasses_of_built_in_kinds_are_tested_per_matrix(subclass):
    # Each breaks the bound's premises, so their costs, inf or -inf, are
    # refused by the spread test as a user-defined penalty's are.
    if subclass == "space":
        graph = UnboundedGraph([(0, 1, 1.0), (1, 2, 1.0)])
        penalty = DiameterPenalty(graph)
    else:
        graph = GraphSpace([(0, 1, 1.0), (1, 2, 1.0)])
        penalty = UnboundedTable(graph, {0: 2.0, 1: 2.0, 2: 2.0})
    assert not penalty._bounded_spread
    a, b = PointSet(graph, [0]), PointSet(graph, [1, 2])
    with pytest.raises(ValidationError,
                       match="^cost matrix entries must be finite$"):
        subset_distance(graph, penalty, a, b)
    distance = pool_distances(graph, penalty, [a, b])
    with pytest.raises(ValidationError,
                       match="^cost matrix entries must be finite$"):
        distance(0, 1)


WIDTH = setmetrics.assignment.LIST_CORE_MAX_COLS


@pytest.mark.parametrize("t", (1, 7, WIDTH, WIDTH + 1))
def test_list_and_array_costs_give_the_same_columns(t):
    # Costs of either sign, with ties, through both forms of the core.
    rng = np.random.default_rng(t)
    for s in sorted({1, max(1, t // 2), t}):
        for _ in range(5):
            cost = rng.integers(-4, 5, size=(s, t)) + rng.choice([0.0, 0.5], (s, t))
            assert setmetrics.assignment._paths_over_lists(cost) == \
                setmetrics.assignment._paths_over_arrays(cost)


def signed_matrix(rng, kind, shape):
    if kind == "nonpositive integers":
        return -rng.integers(0, 3, size=shape).astype(float)
    if kind == "nonpositive reals":
        return -rng.uniform(0.0, 10.0, size=shape)
    if kind == "mixed-sign reals":
        return rng.uniform(-10.0, 10.0, size=shape)
    return -rng.random(shape) * 10.0 ** rng.integers(-6, 10, size=shape)


@pytest.mark.parametrize("t", (7, WIDTH, WIDTH + 1, 50))
@pytest.mark.parametrize("kind", ("nonpositive integers", "nonpositive reals",
                                  "mixed-sign reals", "negated spreads"))
def test_core_is_optimal_on_costs_of_any_sign(kind, t):
    # The package's costs d - M are <= 0 and reach the core as they are.
    rng = np.random.default_rng([t, len(kind)])
    for s in sorted({1, 2, t // 2, t - 1, t}):
        for _ in range(3):
            c = signed_matrix(rng, kind, (s, t))
            best = scipy_injection_total(c)
            for core in (setmetrics.assignment._paths_over_lists,
                         setmetrics.assignment._paths_over_arrays):
                cols = core(c)
                total = float(c[np.arange(s), list(cols)].sum())
                assert len(set(cols)) == s
                if kind == "nonpositive integers":
                    assert total == best
                else:
                    assert total == pytest.approx(best, rel=1e-9, abs=1e-9)


# The level rule: a tree step whose path cost ties the column finalized
# just before it takes every open column at that cost, in index order.
# Rows 0 .. s-2 each take their first zero by one edge; the last row's
# cheapest columns are all taken, so it grows the tree.  9 is "far".
CORES = (setmetrics.assignment._paths_over_lists,
         setmetrics.assignment._paths_over_arrays)


def rule_matrix(rows):
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("core", CORES, ids=("lists", "arrays"))
def test_a_level_ends_the_tree_at_its_first_free_column(core):
    # Step 1 finalizes column 0 and reaches the free column 3 through row
    # 0 at the same cost 0.  Step 2 ties it: the level is columns 1
    # (taken) and 3 (free), so the tree ends at 3 without relaxing row 1,
    # whose zero at column 2 a step per column would reach first.
    c = rule_matrix([[0, 9, 9, 0],
                     [9, 0, 0, 9],
                     [0, 0, 5, 5]])
    assert core(c) == (3, 1, 0)


@pytest.mark.parametrize("core", CORES, ids=("lists", "arrays"))
@pytest.mark.parametrize("first, second, columns",
                         [(2, 1, (2, 1, 3, 0)), (1, 2, (0, 4, 2, 1))],
                         ids=("through its last row", "through its first row"))
def test_a_level_of_taken_columns_relaxes_every_row(core, first, second,
                                                    columns):
    # The level is columns 1 and 2, taken by rows 1 and 2.  Row 1 reaches
    # free column 4 at cost ``first``, row 2 free column 3 at ``second``;
    # the cheaper one ends the tree, so both rows must be relaxed.
    c = rule_matrix([[0, 9, 0, 9, 9],
                     [9, 0, 9, 9, first],
                     [9, 9, 0, second, 9],
                     [0, 0, 5, 5, 5]])
    assert core(c) == columns
    assert float(c[np.arange(4), list(columns)].sum()) == \
        scipy_injection_total(c) == 1.0


@pytest.mark.parametrize("core", CORES, ids=("lists", "arrays"))
def test_a_column_reached_at_the_level_cost_joins_the_next_level(core):
    # Level 1 is columns 1 and 2.  Relaxing their rows reaches column 3
    # (taken) and the free column 5 at the same cost 0, so the next step
    # is a level too: it holds 3 and 5 and ends at 5, before row 3's zero
    # at the free column 4 is reached.
    c = rule_matrix([[0, 9, 0, 9, 9, 9, 9],
                     [9, 0, 9, 0, 9, 9, 9],
                     [9, 9, 0, 9, 9, 0, 9],
                     [9, 9, 9, 0, 0, 9, 9],
                     [0, 0, 5, 5, 5, 5, 5]])
    assert core(c) == (2, 1, 5, 3, 0)


def test_integers_0_to_20_under_time_budget():
    # Costs 0-20 tie often inside the search tree; a tree step per column
    # took over five times this budget (best of 3, CPU) at this size.
    rng = np.random.default_rng(2000)
    c = rng.integers(0, 21, size=(2000, 2000)).astype(float)
    elapsed = []
    for _ in range(3):
        start = time.process_time()
        cols, total = solve_injection(c)
        elapsed.append(time.process_time() - start)
    assert min(elapsed) < 0.1
    assert_is_injection(c, cols, total)
    assert total == scipy_injection_total(c)


@pytest.mark.parametrize("solve, matrix", [
    (solve_injection, np.array([[1 + 2j, 3]])),
    (solve_injection, [[np.complex128(1 + 2j), 3.0]]),
    (solve_assignment, np.array([[1 + 2j, 3], [4, 5]])),
    (solve_assignment, np.array([[1 + 0j]])),
    (brute_force_assignment, np.array([[1 + 2j, 3], [4, 5]])),
    (brute_force_assignment, [[np.complex64(2 - 1j)]]),
])
@pytest.mark.filterwarnings("error")
def test_complex_arrays_are_refused_not_solved_on_their_real_parts(solve,
                                                                   matrix):
    # A cast to float would drop the imaginary parts with a warning and
    # solve what is left; a list of Python complex numbers is refused too.
    with pytest.raises(ValidationError, match="complex"):
        solve(matrix)


WALK_SCRIPT = """
import json
import numpy as np
from setmetrics.assignment import _paths_over_arrays
rng = np.random.default_rng(17)
mats = [rng.integers(0, k, size=(n, t)).astype(float)
        for k, n, t in ((50, 40, 40), (5, 60, 60), (1000, 30, 90))]
print(json.dumps([[m.tolist(), list(_paths_over_arrays(m))] for m in mats]))
"""


def test_numpy_core_walk_ends_at_the_start_row_with_an_optimum():
    # Run in a child with a time limit: a walk that read a parent after v
    # moved would match no row, and circle between two columns for ever
    # instead of failing.
    env = {**os.environ,
           "PYTHONPATH": str(Path(setmetrics.assignment.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", WALK_SCRIPT], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    for cost, cols in json.loads(done.stdout):
        c = np.array(cost)
        total = float(c[np.arange(len(cols)), cols].sum())
        assert_is_injection(c, cols, total)
        assert total == scipy_injection_total(c)
