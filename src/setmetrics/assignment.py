"""Exact minimum-cost injections of rows into columns.

``solve_injection`` matches every row of an s x t nonnegative cost matrix
(s <= t) to a distinct column at minimum total cost; the t - s columns
left over are simply unused.  It is a shortest-augmenting-path method
with dual potentials (Jonker-Volgenant style): one Dijkstra-like search
per row, with the column scan vectorized through numpy, so a search
costs O(t) per row of its tree and the whole solve O(s^2 t) at worst.
``solve_assignment`` is its square special case, returning a
permutation.  A factorial-time enumerator is provided as an independent
oracle for small square instances.  All three are deterministic: a fixed
input always yields the same answer.

These entry points check the matrices callers pass in.  The package's
own distances build valid matrices by construction and call the core,
``_shortest_augmenting_paths``, directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, ValidationError

#: Largest matrix the permutation enumerator will accept (9! = 362880).
BRUTE_FORCE_MAX_N = 9


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
    return _shortest_augmenting_paths(_as_cost_array(cost_matrix, square=False))


def solve_assignment(cost_matrix) -> Assignment:
    """Return a minimum-total-cost perfect assignment of rows to columns.

    Accepts anything convertible to a square numpy array of finite
    nonnegative reals.  Any optimal permutation may be returned when the
    optimum is not unique.
    """
    return Assignment(*_shortest_augmenting_paths(_as_cost_array(cost_matrix)))


def _shortest_augmenting_paths(c: np.ndarray) -> tuple:
    """Core of both solvers, on an s x t nonnegative matrix with s <= t
    that it does not scan: row potentials of size s, column potentials and
    scratch of size t.  Non-finite entries that leave no finite path raise
    ValidationError here instead of looping."""
    s, t = c.shape

    u = np.zeros(s)                             # row potentials
    v = np.zeros(t)                             # column potentials
    col_of_row = np.full(s, -1, dtype=np.intp)
    row_of_col = np.full(t, -1, dtype=np.intp)

    # scratch buffers reused across augmentations
    dist = np.empty(t)          # tentative path costs; +inf once a column is final
    final_dist = np.empty(t)    # frozen path cost of finalized columns
    reduced = np.empty(t)
    better = np.empty(t, dtype=bool)
    final = np.empty(t, dtype=bool)
    open_cols = np.empty(t, dtype=bool)
    parent_row = np.empty(t, dtype=np.intp)

    for start_row in range(s):
        dist.fill(np.inf)
        final_dist.fill(np.inf)
        final.fill(False)
        open_cols.fill(True)
        parent_row.fill(-1)
        tree_rows = [start_row]
        base = 0.0                  # path cost of the row being scanned
        i = start_row
        sink = -1
        while sink < 0:
            # relax every non-final column through row i
            np.subtract(c[i], v, out=reduced)
            reduced += base - u[i]
            np.less(reduced, dist, out=better)
            better &= open_cols
            np.copyto(dist, reduced, where=better)
            np.copyto(parent_row, i, where=better)
            j = int(dist.argmin())
            base = float(dist[j])
            if base == np.inf:
                raise ValidationError("cost matrix entries must be finite")
            final_dist[j] = base
            dist[j] = np.inf
            final[j] = True
            open_cols[j] = False
            r = int(row_of_col[j])
            if r < 0:
                sink = j
            else:
                i = r
                tree_rows.append(r)

        # dual update keeps reduced costs nonnegative and tree edges tight
        u[start_row] += base
        if len(tree_rows) > 1:
            rows = np.asarray(tree_rows[1:], dtype=np.intp)
            u[rows] += base - final_dist[col_of_row[rows]]
        v[final] += final_dist[final] - base

        # augment along the alternating path ending at the free column
        j = sink
        while True:
            i = int(parent_row[j])
            row_of_col[j] = i
            j, col_of_row[i] = col_of_row[i], j
            if i == start_row:
                break

    total = float(c[np.arange(s), col_of_row].sum())
    return tuple(int(x) for x in col_of_row), total


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
