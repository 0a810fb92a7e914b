"""Exact minimum-cost injections of rows into columns.

``solve_injection`` matches every row of an s x t cost matrix (s <= t)
to a distinct column at minimum total cost; the t - s columns
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

A tree step finalizes the cheapest open column.  When its path cost ties
that of the column finalized just before it, the step takes every open
column at that cost at once, in index order, as the SCAN phase of Jonker
and Volgenant (Computing 38, 1987) does: the tree ends at the first free
one among them, if any, and otherwise their rows are relaxed in that
order.  On integer costs this is Dial's bucket form of Dijkstra (CACM
12(11), 1969), and one step can finalize dozens of tied columns.

The core, ``_shortest_augmenting_paths``, takes finite entries only, as
Crouse's solver does, and does not check them.  One rule guards it: no
matrix reaches it unless its spread max - min is finite.  The entry
points above, and ``_solve_finite`` for the link distance, test each
matrix.  The subset distance, of a pair or of a pool's block, tests each
with ``_solve_finite`` unless its penalty recorded a finite bound: on a
built-in space, every entry of a built-in penalty's d - M lies in
[-max M, diameter], so the spread is at most fl(diameter + max M), which
the penalty tested once, at construction (``setmetrics.penalties``).
The package's costs d - M are <= 0, and the core solves them as they
are: its dual potentials, and so its optimality conditions, hold for
entries of any sign (Kuhn, 1955).  The core returns only the columns; a
caller that needs the total sums it.

The core takes a numpy array and has two forms.  On matrices at most
``LIST_CORE_MAX_COLS`` (32) wide it reads the array into Python lists
and runs over those: there numpy's fixed cost per call, paid
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
    try:
        c = np.asarray(cost_matrix)
        # refused before the cast, which would keep only the real parts
        if np.iscomplexobj(c):
            raise TypeError("complex entries")
        c = c.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cost matrix must be an array of reals: {exc}")
    shape_ok = c.ndim == 2 and c.size > 0
    if square and not (shape_ok and c.shape[0] == c.shape[1]):
        raise ValidationError(
            f"cost matrix must be square and non-empty, got shape {c.shape}")
    if not (shape_ok and c.shape[0] <= c.shape[1]):
        raise ValidationError(
            "cost matrix must be non-empty and its rows must not exceed "
            f"its columns, got shape {c.shape}")
    if not _finite_spread(c):
        raise ValidationError("cost matrix entries must be finite")
    return c


def solve_injection(cost_matrix) -> tuple:
    """Return ``(columns, total)`` for a minimum-total-cost injection of
    the rows into the columns: row i goes to column ``columns[i]``.

    Accepts anything convertible to an s x t numpy array of reals with
    1 <= s <= t and a finite spread max - min.  Any optimal injection may
    be returned when the optimum is not unique.
    """
    c = _as_cost_array(cost_matrix, square=False)
    columns = _shortest_augmenting_paths(c)
    return columns, _total(c, columns)


def solve_assignment(cost_matrix) -> Assignment:
    """Return a minimum-total-cost perfect assignment of rows to columns.

    Accepts anything convertible to a square numpy array of reals with a
    finite spread max - min.  Any optimal permutation may be returned when
    the optimum is not unique.
    """
    c = _as_cost_array(cost_matrix)
    columns = _shortest_augmenting_paths(c)
    return Assignment(columns, _total(c, columns))


def _solve_finite(cost: np.ndarray) -> tuple:
    """Columns of a minimum injection for an s x t array, 1 <= s <= t, of
    any sign.  Raises ValidationError, with no warning, unless the spread
    of the entries, and so every entry, is finite: the core subtracts
    entries from one another through its potentials.  For matrices that
    no bound known in advance keeps finite: the link distance's, and the
    subset distance's under a penalty that recorded none."""
    if not _finite_spread(cost):
        raise ValidationError("cost matrix entries must be finite")
    return _shortest_augmenting_paths(cost)


def _finite_spread(c: np.ndarray) -> bool:
    """Whether max - min of a non-empty array is finite."""
    return math.isfinite(float(c.max()) - float(c.min()))


def _total(c: np.ndarray, columns: tuple) -> float:
    """Sum of ``c[i, columns[i]]`` over the rows, in row order."""
    return float(c[np.arange(len(columns)), columns].sum())


def _shortest_augmenting_paths(c: np.ndarray) -> tuple:
    """Core of both solvers, on an s x t float array of finite entries of
    any sign with s <= t, which it does not check.  Returns each row's
    column.  A row takes its cheapest column of ``c[row] - v`` if it is
    free, or else a free column tied with it (Crouse's rule), leaving
    ``v`` as it is; only the other rows reset the tree scratch, grow the
    tree and update duals.  A tree step whose cheapest path cost equals
    that of the column finalized last takes the whole level of open
    columns at that cost, in index order (Jonker and Volgenant's SCAN,
    Dial's buckets on integer costs): it ends the tree at the level's
    first free column, or else finalizes them all and relaxes their rows
    one at a time; any other step finalizes one column and relaxes its
    row.  Should the arithmetic leave no finite path, it raises
    ValidationError rather than loop.

    Matrices at most ``LIST_CORE_MAX_COLS`` wide run over Python lists,
    wider ones over numpy arrays; both give the same columns."""
    if c.shape[1] <= LIST_CORE_MAX_COLS:
        return _paths_over_lists(c)
    return _paths_over_arrays(c)


def _paths_over_lists(c: np.ndarray) -> tuple:
    """``_paths_over_arrays`` over Python lists, step for step: the first
    index at a minimum, the same rules, and the same float operations in
    the same order, so the same columns bit for bit.  It reads ``c``, a
    numpy array, into rows once."""
    rows = c.tolist()
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
        last = inf          # path cost of the column finalized last
        while True:
            base = min(dist)    # path cost of the cheapest open column
            if base == inf:
                raise ValidationError("cost matrix entries must be finite")
            # a tie with the last column takes the whole level at base
            level = ([k for k in open_cols if dist[k] == base] if base == last
                     else [dist.index(base)])
            for j in level:
                final_cols.append(j)
                final_costs.append(base)
                if row_of_col[j] < 0:
                    break
                dist[j] = inf
                open_cols.remove(j)
            if row_of_col[j] < 0:
                break
            # relax every open column through each row of the level in
            # turn, reached at cost base
            for j in level:
                i = row_of_col[j]
                row, lift = rows[i], base - u[i]
                for k in open_cols:
                    reached = row[k] - v[k] + lift
                    if reached < dist[k]:
                        dist[k] = reached
                        parent_row[k] = i
            last = base

        # dual update keeps reduced costs nonnegative and tree edges tight;
        # the free column's v would move by cost - base = 0
        u[start_row] += base
        for j, cost in zip(final_cols[:-1], final_costs):
            u[row_of_col[j]] += base - cost
            if cost != base:
                moved.add(j)
            v[j] += cost - base

        _augment(final_cols[-1], start_row, parent_row, row_of_col, col_of_row)

    return tuple(col_of_row)


def _augment(j, start_row, parent_row, row_of_col, col_of_row):
    """Flip the tree path from ``start_row`` to the free column ``j``, for
    either core form: ``parent_row`` may be a list or an array."""
    while True:
        i = int(parent_row[j])
        row_of_col[j] = i
        j, col_of_row[i] = col_of_row[i], j
        if i == start_row:
            return


def _paths_over_arrays(c: np.ndarray) -> tuple:
    """The core's numpy form, its column scan vectorized over t columns.

    Until the first tree, ``v`` is zero, so a row's first relaxation
    ``c[row] - v`` is ``c[row]`` bit for bit: one ``c.argmin(axis=1)``
    gives every row's cheapest column, and the rows before the first
    whose cheapest column is taken take theirs with no numpy call.  The
    loop runs from that row on, with its scratch made there."""
    s, t = c.shape

    u = [0.0] * s                               # row potentials
    col_of_row = [-1] * s
    row_of_col = [-1] * t
    first = 0       # the first row whose cheapest column at v = 0 is taken
    for j in c.argmin(axis=1).tolist():
        if row_of_col[j] >= 0:
            break
        u[first] += c.item(first, j)
        col_of_row[first], row_of_col[j] = j, first
        first += 1
    if first == s:
        return tuple(col_of_row)

    v = np.zeros(t)                             # column potentials
    # inf on the columns taken by rows before ``synced``, 0 elsewhere:
    # brought up to date only for a row whose cheapest column is taken
    blocked = np.zeros(t)
    synced = 0

    # tree scratch, reused across rows
    dist = np.empty(t)          # tentative path costs; +inf once a column is final
    better = np.empty(t, dtype=bool)
    reach_v = np.empty(t)       # v, and -inf once a column is final: c - v
                                # is then +inf there, never below dist
    parent_row = np.empty(t, dtype=np.intp)

    for start_row in range(first, s):
        reduced = c[start_row] - v  # the first relaxation: u[start_row] is 0
        j = int(reduced.argmin())
        base = float(reduced[j])
        if row_of_col[j] >= 0:
            # rows since the last tree each took one edge and still hold it
            for r in range(synced, start_row):
                blocked[col_of_row[r]] = np.inf
            synced = start_row
            # a free column tied at the minimum, if any; dist is scratch
            # until the tree starts
            np.add(reduced, blocked, out=dist)
            k = int(dist.argmin())
            if dist[k] == base:
                j = k
        # one edge, leaving v as it is
        if row_of_col[j] < 0:
            u[start_row] += base
            col_of_row[start_row], row_of_col[j] = j, start_row
            continue

        np.copyto(dist, reduced)    # the tree starts from the first relaxation
        parent_row.fill(start_row)
        np.copyto(reach_v, v)
        final_cols, final_costs = [], []    # in order, the last one free
        last = np.inf       # path cost of the column finalized last
        while True:
            j = int(dist.argmin())
            base = float(dist[j])   # path cost of the cheapest open column
            if base == np.inf:
                raise ValidationError("cost matrix entries must be finite")
            # a tie with the last column takes the whole level at base
            level = ((dist == base).nonzero()[0].tolist() if base == last
                     else [j])
            for j in level:
                final_cols.append(j)
                final_costs.append(base)
                if row_of_col[j] < 0:
                    break
                dist[j] = np.inf
                reach_v[j] = -np.inf
            if row_of_col[j] < 0:
                break
            # relax every open column through each row of the level in
            # turn, reached at cost base
            for j in level:
                i = row_of_col[j]
                np.subtract(c[i], reach_v, out=reduced)
                reduced += base - u[i]
                np.less(reduced, dist, out=better)
                np.copyto(dist, reduced, where=better)
                np.copyto(parent_row, i, where=better)
            last = base

        # dual update keeps reduced costs nonnegative and tree edges tight
        u[start_row] += base
        for j, cost in zip(final_cols[:-1], final_costs):
            u[row_of_col[j]] += base - cost
        v[final_cols] += np.subtract(final_costs, base)

        _augment(final_cols[-1], start_row, parent_row, row_of_col, col_of_row)
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
