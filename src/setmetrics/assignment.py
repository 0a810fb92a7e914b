"""Exact minimum-cost injections of rows into columns.

``solve_injection`` matches every row of an s x t nonnegative cost matrix
(s <= t) to a distinct column at minimum total cost; the t - s columns
left over are simply unused.  It is a shortest-augmenting-path method
with dual potentials (Jonker-Volgenant style).  A row whose cheapest column
is free takes it by that one edge, and so does a row whose cheapest column
is taken but tied with a free one, which it takes instead (the tie rule of
Crouse, IEEE TAES 52(4), 2016, that scipy follows).  Only the other rows
grow a Dijkstra-like tree: O(s^2 t) at worst.
``solve_assignment`` is its square special case, returning a
permutation.  A factorial-time enumerator is provided as an independent
oracle for small square instances.  All three are deterministic: a fixed
input always yields the same answer.

The core, ``_shortest_augmenting_paths``, takes finite entries only, as
Crouse's solver does, and does not check them: the entry points above
check the matrices callers pass in, and ``_solve_finite``, through which
the package's own distances reach the core, refuses non-finite ones.
The package's costs d - M are <= 0, and the core solves them as they
are: its dual potentials, and so its optimality conditions, hold for
entries of any sign (Kuhn, 1955).  The core returns only the columns; a
caller that needs the total sums it.

The core has two forms.  On matrices at most ``LIST_CORE_MAX_COLS`` (32)
wide it runs over Python lists: there numpy's fixed cost per call, paid
by every tree step on vectors of 3-32 entries, outweighs the arithmetic,
and lists are about 1.4-3.6x faster on square matrices.  Wider matrices
run over numpy arrays, whose column scan is vectorized; they win on wide,
short ones (8 x 64, 2 x 100 and wider) and break even near 64 x 64.  Both
forms take the first index at a minimum, follow the same rules and do the
same float operations in the same order, so they return the same columns
bit for bit; ``tests/test_solver_twins.py`` holds them to it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import SizeLimitError, ValidationError

#: Largest matrix the permutation enumerator will accept (9! = 362880).
BRUTE_FORCE_MAX_N = 9

#: Widest matrix the solver core runs over Python lists instead of numpy.
LIST_CORE_MAX_COLS = 32


@dataclass(frozen=True)
class Assignment:
    """A perfect assignment: row i is matched to column permutation[i]."""

    permutation: tuple
    total_cost: float

    def __post_init__(self):
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValidationError("assignment is not a permutation")


def _as_cost_array(cost_matrix, square: bool = True) -> np.ndarray:
    c = np.asarray(cost_matrix, dtype=float)
    shape_ok = c.ndim == 2 and c.size > 0
    if square and not (shape_ok and c.shape[0] == c.shape[1]):
        raise ValidationError(
            f"cost matrix must be square and non-empty, got shape {c.shape}")
    if not (shape_ok and c.shape[0] <= c.shape[1]):
        raise ValidationError(
            "cost matrix must be non-empty and its rows must not exceed "
            f"its columns, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValidationError("cost matrix entries must be finite")
    if (c < 0).any():
        raise ValidationError("cost matrix entries must be nonnegative")
    return c


def solve_injection(cost_matrix) -> tuple:
    """Return ``(columns, total)`` for a minimum-total-cost injection of
    the rows into the columns: row i goes to column ``columns[i]``.

    Accepts anything convertible to an s x t numpy array of finite
    nonnegative reals with 1 <= s <= t.  Any optimal injection may be
    returned when the optimum is not unique.
    """
    c = _as_cost_array(cost_matrix, square=False)
    columns = _shortest_augmenting_paths(c)
    return columns, _total(c, columns)


def solve_assignment(cost_matrix) -> Assignment:
    """Return a minimum-total-cost perfect assignment of rows to columns.

    Accepts anything convertible to a square numpy array of finite
    nonnegative reals.  Any optimal permutation may be returned when the
    optimum is not unique.
    """
    c = _as_cost_array(cost_matrix)
    columns = _shortest_augmenting_paths(c)
    return Assignment(columns, _total(c, columns))


def _solve_finite(cost) -> tuple:
    """Columns of a minimum injection for an s x t matrix, 1 <= s <= t, of
    any sign.  Raises ValidationError, with no warning, unless the spread
    of the entries, and so every entry, is finite: the core subtracts
    entries from one another through its potentials.

    ``cost`` is a numpy array or a list of s rows of floats; lists are
    checked with no numpy call."""
    if isinstance(cost, list):
        low = min(chain.from_iterable(cost))
        # min and max pass over a NaN that is not first, but a sum does
        # not; finite entries can sum to an infinity, never to a NaN
        finite = math.isfinite(max(chain.from_iterable(cost)) - low) \
            and not math.isnan(sum(chain.from_iterable(cost)))
    else:
        finite = math.isfinite(float(cost.max()) - float(cost.min()))
    if not finite:
        raise ValidationError("cost matrix entries must be finite")
    return _shortest_augmenting_paths(cost)


def _total(c: np.ndarray, columns: tuple) -> float:
    """Sum of ``c[i, columns[i]]`` over the rows, in row order."""
    return float(c[np.arange(len(columns)), columns].sum())


def _shortest_augmenting_paths(c) -> tuple:
    """Core of both solvers, on an s x t matrix of finite entries of any
    sign with s <= t, which it does not check: a numpy array or a list of
    rows.  Returns each row's column.  A row takes its cheapest column of
    ``c[row] - v`` if it is free, or else a free column tied with it
    (Crouse's rule), leaving ``v`` as it is; only the other rows reset the
    tree scratch, relax one tree row per step and update duals.  Should
    the arithmetic leave no finite path, it raises ValidationError rather
    than loop.

    Matrices at most ``LIST_CORE_MAX_COLS`` wide run over Python lists,
    wider ones over numpy arrays; both give the same columns."""
    if len(c[0]) <= LIST_CORE_MAX_COLS:
        return _paths_over_lists(c)
    return _paths_over_arrays(np.asarray(c, dtype=float))


def _paths_over_lists(c) -> tuple:
    """``_paths_over_arrays`` over Python lists, step for step: the first
    index at a minimum, the same rules, and the same float operations in
    the same order, so the same columns bit for bit.  ``c`` is a numpy
    array or a list of rows, which it does not change."""
    rows = c.tolist() if isinstance(c, np.ndarray) else c
    s, t = len(rows), len(rows[0])
    inf = math.inf

    u = [0.0] * s
    v = [0.0] * t
    moved = set()   # columns whose v has changed: elsewhere c - v is c
    col_of_row = [-1] * s
    row_of_col = [-1] * t

    for start_row in range(s):
        reduced = rows[start_row][:]
        for k in moved:
            reduced[k] -= v[k]
        # one edge, leaving v as it is: the first column at the minimum if
        # it is free, or else the first free one tied with it (Crouse's rule)
        base = min(reduced)
        j = reduced.index(base)
        try:
            while row_of_col[j] >= 0:
                j = reduced.index(base, j + 1)
        except ValueError:
            j = -1
        if j >= 0:
            u[start_row] += base
            col_of_row[start_row], row_of_col[j] = j, start_row
            continue

        dist = reduced      # the tree starts from the first relaxation
        parent_row = [start_row] * t
        open_cols = list(range(t))
        final_cols, final_costs = [], []    # in order, the last one free
        while True:
            base = min(dist)    # path cost of the cheapest open column
            if base == inf:
                raise ValidationError("cost matrix entries must be finite")
            j = dist.index(base)
            final_cols.append(j)
            final_costs.append(base)
            dist[j] = inf
            open_cols.remove(j)
            i = row_of_col[j]
            if i < 0:
                break
            # relax every open column through row i, reached at cost base
            row, lift = rows[i], base - u[i]
            for k in open_cols:
                reached = row[k] - v[k] + lift
                if reached < dist[k]:
                    dist[k] = reached
                    parent_row[k] = i

        # dual update keeps reduced costs nonnegative and tree edges tight;
        # the free column's v would move by cost - base = 0
        u[start_row] += base
        for j, cost in zip(final_cols[:-1], final_costs):
            u[row_of_col[j]] += base - cost
            if cost != base:
                moved.add(j)
            v[j] += cost - base

        # augment along the alternating path ending at the free column
        j = final_cols[-1]
        while True:
            i = parent_row[j]
            row_of_col[j] = i
            j, col_of_row[i] = col_of_row[i], j
            if i == start_row:
                break

    return tuple(col_of_row)


def _paths_over_arrays(c: np.ndarray) -> tuple:
    """The core's numpy form, its column scan vectorized over t columns."""
    s, t = c.shape

    u = [0.0] * s                               # row potentials
    v = np.zeros(t)                             # column potentials
    col_of_row = [-1] * s
    row_of_col = [-1] * t
    # inf on the columns taken by rows before ``synced``, 0 elsewhere:
    # brought up to date only for a row whose cheapest column is taken
    blocked = np.zeros(t)
    synced = 0

    # tree scratch, reused across rows
    dist = np.empty(t)          # tentative path costs; +inf once a column is final
    better = np.empty(t, dtype=bool)
    open_cols = np.empty(t, dtype=bool)
    parent_row = np.empty(t, dtype=np.intp)

    for start_row in range(s):
        reduced = c[start_row] - v  # the first relaxation: u[start_row] is 0
        j = int(reduced.argmin())
        base = float(reduced[j])
        if row_of_col[j] < 0:
            u[start_row] += base
            col_of_row[start_row], row_of_col[j] = j, start_row
            continue

        # rows since the last tree each took one edge and still hold it
        for r in range(synced, start_row):
            blocked[col_of_row[r]] = np.inf
        synced = start_row
        # a free column tied at the minimum, if any; dist is scratch until
        # the tree starts
        np.add(reduced, blocked, out=dist)
        j = int(dist.argmin())
        if dist[j] == base:
            u[start_row] += base
            col_of_row[start_row], row_of_col[j] = j, start_row
            continue

        np.copyto(dist, reduced)    # the tree starts from the first relaxation
        parent_row.fill(start_row)
        open_cols.fill(True)
        final_cols, final_costs = [], []    # in order, the last one free
        while True:
            j = int(dist.argmin())
            base = float(dist[j])   # path cost of the cheapest open column
            if base == np.inf:
                raise ValidationError("cost matrix entries must be finite")
            final_cols.append(j)
            final_costs.append(base)
            dist[j] = np.inf
            open_cols[j] = False
            i = row_of_col[j]
            if i < 0:
                break
            # relax every open column through row i, reached at cost base
            np.subtract(c[i], v, out=reduced)
            reduced += base - u[i]
            np.less(reduced, dist, out=better)
            better &= open_cols
            np.copyto(dist, reduced, where=better)
            np.copyto(parent_row, i, where=better)

        # dual update keeps reduced costs nonnegative and tree edges tight
        u[start_row] += base
        for j, cost in zip(final_cols[:-1], final_costs):
            u[row_of_col[j]] += base - cost
        v[final_cols] += np.subtract(final_costs, base)

        # augment along the alternating path ending at the free column
        j = final_cols[-1]
        while True:
            i = int(parent_row[j])
            row_of_col[j] = i
            j, col_of_row[i] = col_of_row[i], j
            if i == start_row:
                break
        blocked[final_cols[-1]] = np.inf
        synced = start_row + 1

    return tuple(col_of_row)


def brute_force_assignment(cost_matrix) -> Assignment:
    """Exact minimum by enumerating all n! permutations; oracle for the solver."""
    c = _as_cost_array(cost_matrix)
    n = c.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    totals = c[np.arange(n), perms].sum(axis=1)
    best = int(totals.argmin())
    return Assignment(tuple(int(x) for x in perms[best]), float(totals[best]))
