"""Assignment and injection solvers against brute force and scipy."""

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import setmetrics.assignment
from setmetrics import (Assignment, DiameterPenalty, EuclideanBoxSpace,
                        GraphSpace, HammingSpace, PointSet, TablePenalty,
                        ValidationError, SizeLimitError,
                        brute_force_assignment, link_distance,
                        solve_assignment, subset_distance)
from setmetrics.assignment import solve_injection


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


def test_rejects_bad_matrices():
    with pytest.raises(ValidationError):
        solve_assignment([[1.0, 2.0]])  # not square
    with pytest.raises(ValidationError):
        solve_assignment([])
    with pytest.raises(ValidationError):
        solve_assignment([[-1.0]])
    with pytest.raises(ValidationError):
        solve_assignment([[float("nan")]])
    with pytest.raises(ValidationError):
        solve_assignment([[float("inf")]])


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
    for bad in (-1.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError):
            solve_injection([[0.0, bad]])


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", ([[0.0, np.nan]], [[np.inf, 1.0]],
                                  [[-np.inf, 1.0]], [[np.inf, np.inf]],
                                  [[-1.7e308, 1e308]]))
def test_solve_shifted_refuses_non_finite_costs_without_a_warning(rows):
    # The one check between the package's distances and the core: every
    # entry, and their spread, must be finite.
    with pytest.raises(ValidationError, match="finite"):
        setmetrics.assignment._solve_finite(np.array(rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_costs_spread_past_the_largest_float_raise():
    # An uncertified, inadmissible table whose costs d - M run from
    # -1.7e308 to 1e308: shifting them by their minimum would overflow.
    graph = GraphSpace([(0, 1, 1.0), (1, 2, 1e308)])
    table = TablePenalty(graph, {0: 0.0, 1: 1.7e308, 2: 0.0})
    with pytest.raises(ValidationError, match="finite"):
        subset_distance(graph, table, PointSet(graph, [0]),
                        PointSet(graph, [1, 2]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", (
    [[NAN, 1.0, 2.0], [0.0, 1.0, 2.0]],     # first entry
    [[0.0, 1.0, 2.0], [1.0, NAN, 2.0]],     # a middle entry
    [[0.0, 1.0, 2.0], [1.0, 2.0, NAN]],     # last entry
    [[0.0, 1.0, 2.0], [NAN, 5.0, 2.0]],     # first of a later row
    [[0.0, INF, 2.0]], [[0.0, 1.0], [1.0, -INF]], [[-1.7e308, 1e308]]),
    ids=("nan first", "nan middle", "nan last", "nan row start", "inf",
         "-inf", "spread"))
def test_list_shift_refuses_non_finite_costs_without_a_warning(rows):
    # min and max pass over a NaN after the first entry; the shift of
    # rows given as lists must refuse it all the same.
    with pytest.raises(ValidationError, match="finite"):
        setmetrics.assignment._solve_finite(rows)


WIDTH = setmetrics.assignment.LIST_CORE_MAX_COLS


@pytest.mark.parametrize("t", (1, 7, WIDTH, WIDTH + 1))
def test_list_and_array_costs_give_the_same_columns(t):
    # Costs of either sign, with ties, as rows of lists and as an array.
    rng = np.random.default_rng(t)
    for s in sorted({1, max(1, t // 2), t}):
        for _ in range(5):
            cost = rng.integers(-4, 5, size=(s, t)) + rng.choice([0.0, 0.5], (s, t))
            assert setmetrics.assignment._solve_finite(cost.tolist()) == \
                setmetrics.assignment._solve_finite(cost)


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
