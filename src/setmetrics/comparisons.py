"""Classical set distances, for comparison with the injection-based one.

Five rivals at desk scale: Hausdorff, sum of minimum distances,
surjective, fair-surjective, and link.  All reject empty sets (their
defining formulas quantify over nonempty sets) and all are symmetric,
but apart from Hausdorff none is a metric in general, so no triangle
inequality is promised here.

The surjective variants minimize over every function from the larger
set onto the smaller one, by direct enumeration; the link distance is a
minimum-weight edge cover, solved exactly via a matching reduction and
cross-checkable against a relation-enumeration oracle.

Each distance is a kernel over the distances of a pair, a row per
element of the larger set and a column per element of the smaller.  The
public functions run it on the pair's own ``space.pairwise``, and
``pool_comparison_distances`` on blocks of one table over a pool.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable, Sequence

import numpy as np

from .assignment import _shortest_augmenting_paths, _total
# Unused here; bound so that perfbench/tracing.py can wrap it by name.
from .assignment import solve_assignment  # noqa: F401
from .errors import DomainError, SizeLimitError, ValidationError
from .spaces import Space, _take_block
from .subset_distance import PointSet, _check_in_space, _prepare_pool, orient

#: Cap on max(|a|, |b|) for the surjection enumerators (7^7 functions).
SURJECTION_MAX_SET = 7
#: Cap on |a|*|b| for the relation-enumeration link oracle (2^20 masks).
LINK_ORACLE_MAX_PAIRS = 20


class ComparisonKind(str, enum.Enum):
    HAUSDORFF = "hausdorff"
    SUM_MIN = "sum_min"
    SURJECTIVE = "surjective"
    FAIR_SURJECTIVE = "fair_surjective"
    LINK = "link"


_EMPTY = "comparison distances are undefined for empty sets"


def _check_pair(space: Space, a: PointSet, b: PointSet):
    for s in (a, b):
        _check_in_space(space, s)
        if len(s) == 0:
            raise DomainError(_EMPTY)


def _larger_by_smaller(space: Space, a: PointSet, b: PointSet) -> np.ndarray:
    """The distances every kernel below takes: a row per element of the
    larger set and a column per element of the smaller, as ``orient``
    tells them apart.  Hausdorff and sum-min combine their two directed
    terms by ``max`` and ``+``, which commute, so for them either
    orientation gives the same bits."""
    _check_pair(space, a, b)
    small, big, _ = orient(a, b)
    return space.pairwise(big.elements, small.elements)


def _hausdorff(d: np.ndarray) -> float:
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _sum_min(d: np.ndarray) -> float:
    # a sum past the largest float is inf, for the caller to refuse
    with np.errstate(over="ignore"):
        rows, cols = float(d.min(axis=1).sum()), float(d.min(axis=0).sum())
    total = rows + cols
    if total == math.inf:
        # halving first is exact, and overflows only when the answer does
        return 0.5 * rows + 0.5 * cols
    return 0.5 * total


def _surjections(n: int, m: int) -> np.ndarray:
    """All functions {0..n-1} -> {0..m-1} that hit every target, as an
    (count, n) array.  Requires n >= m >= 1."""
    idx = np.arange(m ** n, dtype=np.int64)
    funcs = np.empty((m ** n, n), dtype=np.int8)
    for i in range(n):
        funcs[:, i] = idx % m
        idx //= m
    occupied = np.zeros(len(funcs), dtype=np.int32)
    for i in range(n):
        occupied |= np.int32(1) << funcs[:, i].astype(np.int32)
    return funcs[occupied == (1 << m) - 1]


def _min_over_surjections(d: np.ndarray, fair: bool) -> float:
    n, m = d.shape
    if n > SURJECTION_MAX_SET:
        raise SizeLimitError(
            f"surjection enumeration limited to sets of size {SURJECTION_MAX_SET}, "
            f"got {n}")
    funcs = _surjections(n, m)
    if fair:
        counts = np.stack([(funcs == t).sum(axis=1) for t in range(m)], axis=1)
        funcs = funcs[counts.max(axis=1) - counts.min(axis=1) <= 1]
    costs = np.zeros(len(funcs))
    for i in range(n):
        costs += d[i, funcs[:, i]]
    return float(costs.min())


def _link(d: np.ndarray) -> float:
    """The link distance of a block of distances: the row and column
    minima, then the reduced costs min(d - row_cheap - col_cheap, 0),
    built in place by the same two subtractions in the same order.  Every
    reduced cost is <= 0 or NaN, so their spread is finite exactly when
    their least entry is: the one test of the rule in
    :mod:`setmetrics.assignment`, which refuses a distance that
    overflowed to inf.  The block is no taller than wide, so it needs no
    other check of ``solve_injection``'s."""
    row_cheap = d.min(axis=1)
    col_cheap = d.min(axis=0)
    reduced = d - row_cheap[:, None]
    reduced -= col_cheap
    np.minimum(reduced, 0.0, out=reduced)
    if not math.isfinite(float(reduced.min())):
        raise ValidationError("cost matrix entries must be finite")
    cols = _shortest_augmenting_paths(reduced.T)
    # a sum past the largest float is inf, for the caller to refuse
    with np.errstate(over="ignore"):
        row_total, col_total = float(row_cheap.sum()), float(col_cheap.sum())
        correction = _total(reduced.T, cols)
    base = row_total + col_total
    if base == math.inf:
        # the answer is at least col_total, so row_total + correction >= 0:
        # added in this order, the sum overflows only when the answer does
        return row_total + correction + col_total
    return base + correction


def hausdorff_distance(space: Space, a: PointSet, b: PointSet) -> float:
    """max of the two directed distances max_x min_y d(x, y)."""
    return _hausdorff(_larger_by_smaller(space, a, b))


def sum_min_distance(space: Space, a: PointSet, b: PointSet) -> float:
    """Half the sum, over both sides, of each element's distance to the
    nearest element of the other set."""
    return _sum_min(_larger_by_smaller(space, a, b))


def surjective_distance(space: Space, a: PointSet, b: PointSet) -> float:
    """Cheapest way to map the larger set onto the smaller one, summing
    the distance of every element to its image."""
    return _min_over_surjections(_larger_by_smaller(space, a, b), fair=False)


def fair_surjective_distance(space: Space, a: PointSet, b: PointSet) -> float:
    """Like surjective_distance, but only over surjections whose preimage
    sizes differ by at most one."""
    return _min_over_surjections(_larger_by_smaller(space, a, b), fair=True)


def link_distance(space: Space, a: PointSet, b: PointSet) -> float:
    """Cheapest relation between the sets that covers every element of
    both sides, summing the distances of its pairs.

    This is a minimum-weight edge cover of the complete bipartite graph:
    each element grabs its cheapest counterpart, then a matching over the
    (truncated) reduced costs min(d - cheap_row - cheap_col, 0) undoes
    double coverage exactly where pairing is worth it.  The matching is
    solved as an injection of the smaller side into the larger: reduced
    costs are <= 0, so sending every small element to a distinct big
    element never costs more than leaving it unmatched, and the optimum
    over injections equals the optimum over all matchings.
    """
    return _link(_larger_by_smaller(space, a, b))


def brute_force_link_distance(space: Space, a: PointSet, b: PointSet) -> float:
    """Oracle: enumerate every relation on a x b as a bitmask and keep the
    cheapest one covering both sides.  Capped at |a|*|b| <= 20."""
    _check_pair(space, a, b)
    na, nb = len(a), len(b)
    if na * nb > LINK_ORACLE_MAX_PAIRS:
        raise SizeLimitError(
            f"relation enumeration limited to |a|*|b| <= {LINK_ORACLE_MAX_PAIRS}, "
            f"got {na * nb}")
    d = space.pairwise(a.elements, b.elements).ravel()
    masks = np.arange(1, 1 << (na * nb), dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(na * nb)) & 1).astype(np.int8)
    grid = bits.reshape(-1, na, nb)
    covers = grid.any(axis=2).all(axis=1) & grid.any(axis=1).all(axis=1)
    costs = bits[covers] @ d
    return float(costs.min())


_KERNELS = {
    ComparisonKind.HAUSDORFF: _hausdorff,
    ComparisonKind.SUM_MIN: _sum_min,
    ComparisonKind.SURJECTIVE: functools.partial(_min_over_surjections,
                                                 fair=False),
    ComparisonKind.FAIR_SURJECTIVE: functools.partial(_min_over_surjections,
                                                      fair=True),
    ComparisonKind.LINK: _link,
}


def comparison_distance(kind: ComparisonKind, space: Space, a: PointSet,
                        b: PointSet) -> float:
    return _KERNELS[ComparisonKind(kind)](_larger_by_smaller(space, a, b))


def pool_comparison_distances(kind: ComparisonKind, space: Space,
                              pool: Sequence[PointSet]
                              ) -> Callable[[int, int], float]:
    """``distance(i, j)``, equal bit for bit to
    ``comparison_distance(kind, space, pool[i], pool[j])``, for callers
    that want the distances of many pairs drawn from one pool.

    Before it returns, the pool is numbered, each set's ids made into an
    intp array and its one U x U table of ``space.pairwise`` taken, as
    ``pool_distances`` prepares it.  Each pair runs the kernel of
    ``kind`` on its block of the table, oriented on ids and gathered with
    those arrays.  An empty set, or a set too large for the surjections,
    raises from the first pair that meets it.  Pools whose union has more
    than ``POOL_TABLE_MAX_ELEMENTS`` elements run ``comparison_distance``
    per pair.
    """
    kernel = _KERNELS[ComparisonKind(kind)]
    _check_in_space(space, *pool)
    _, id_sets, id_arrays, table = _prepare_pool(space, pool)
    if table is None:
        def per_pair(i: int, j: int) -> float:
            return comparison_distance(kind, space, pool[i], pool[j])
        return per_pair

    def distance(i: int, j: int) -> float:
        small, big = id_sets[i], id_sets[j]
        if not (small and big):
            raise DomainError(_EMPTY)
        if (len(small), small) > (len(big), big):
            i, j = j, i
        return kernel(_take_block(table, id_arrays[j], id_arrays[i]))

    return distance
