"""Distance between finite subsets of a bounded metric space.

The distance between point sets A and B is the cheapest way to injectively
match the smaller set into the larger, paying the ground distance for each
matched pair and the penalty M(y) for each element of the larger set left
out:

    cost(chi) = sum d(x, chi(x)) + sum M(y) over unmatched y,
    distance(A, B) = min over injections chi of cost(chi).

With an admissible penalty (see :mod:`setmetrics.penalties`) this is a
metric on the finite subsets of the space.  Shared elements can always be
matched to themselves by some optimal injection, so both sets are first
reduced by their intersection.  Charging every target its penalty up
front and crediting it back when it is matched turns the remaining
minimization into a rectangular injection problem, |smaller| x |larger|,
on the costs d(x, y) - M(y).  The value reported is the witness's cost,
summed as ``chi_distance`` sums it.

A direct enumerator over all injections, with no reduction step, serves
as the oracle.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from .assignment import _shortest_augmenting_paths, _solve_finite
# Unused here; bound so that perfbench/tracing.py can wrap it by name.
from .assignment import solve_assignment  # noqa: F401
from .errors import SizeLimitError, ValidationError
from .penalties import ConstantPenalty, PenaltyFunction
from .spaces import HammingSpace, Space, _take_block, element_to_json

#: Largest set size accepted by the injection enumerator (7!/1! injections).
BRUTE_FORCE_MAX_SET = 7

#: Witness pairs per pairwise call in chi_distance.
_CHI_BLOCK = 64

#: Largest union U of a pool's elements that ``pool_distances`` and
#: ``pool_comparison_distances`` number and hold as U x U float64 tables:
#: the distances d, and for subset pairs also the costs d - M, so at most
#: 8 MB each.
POOL_TABLE_MAX_ELEMENTS = 1024


class DuplicateElementsWarning(UserWarning):
    """Input collection repeated elements; duplicates were dropped."""


def _dropped(count: int) -> str:
    """What a set reports when it drops ``count`` duplicates."""
    return f"dropped {count} duplicate element(s)"


class PointSet:
    """An immutable finite set of elements of one space, canonically ordered.

    Construction validates every element, canonicalizes it, removes
    duplicates (with a :class:`DuplicateElementsWarning`) and sorts them in
    their natural order, so iteration is deterministic.
    """

    __slots__ = ("space", "elements", "_members")

    def __init__(self, space: Space, items: Iterable = ()):
        canonical = space.validate_elements(items)
        # Hashed once; the set keeps the first of equal elements.
        members = frozenset(canonical)
        if len(members) != len(canonical):
            warnings.warn(DuplicateElementsWarning(
                _dropped(len(canonical) - len(members))), stacklevel=2)
        self.space = space
        self.elements = tuple(sorted(members))
        self._members = members

    @classmethod
    def _from_valid(cls, space: Space, items: list) -> "PointSet":
        """The set of ``items``, distinct elements of ``space`` already in
        canonical form, which are not validated again."""
        return cls._from_canonical(space, tuple(sorted(items)))

    @classmethod
    def _from_canonical(cls, space: Space, elements: tuple) -> "PointSet":
        ps = object.__new__(cls)
        ps.space = space
        ps.elements = elements
        ps._members = frozenset(elements)
        return ps

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._members

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointSet)
                and self.space == other.space
                and self.elements == other.elements)

    def __hash__(self) -> int:
        return hash((self.space, self.elements))

    def __repr__(self) -> str:
        return f"PointSet({list(self.elements)})"

    def _check_same_space(self, other: "PointSet"):
        if self.space != other.space:
            raise ValidationError("point sets belong to different spaces")

    def intersection(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        if self._members.isdisjoint(other._members):
            return PointSet._from_canonical(self.space, ())
        kept = tuple(x for x in self.elements if x in other._members)
        return PointSet._from_canonical(self.space, kept)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        if self._members.isdisjoint(other._members):
            return self  # immutable, so it can stand for its own copy
        kept = tuple(x for x in self.elements if x not in other._members)
        return PointSet._from_canonical(self.space, kept)

    def to_json(self) -> list:
        return [element_to_json(x) for x in self.elements]


@dataclass(frozen=True)
class Injection:
    """A one-to-one matching of a source set into a target set, with the
    matching cost it achieves."""

    pairs: tuple  # ((source, target), ...)
    chi_cost: float


@dataclass(frozen=True)
class SubsetDistanceResult:
    """Outcome of a subset-distance computation.

    ``witness`` is an optimal injection between the reduced sets (the two
    set differences); ``witness_from_a`` tells whether its sources come
    from the first argument's side.  ``full_witness`` extends it by the
    identity on the shared elements, giving an optimal injection between
    the original sets.
    """

    value: float
    witness: Injection
    reduced_a: PointSet
    reduced_b: PointSet
    common: PointSet
    witness_from_a: bool

    @property
    def full_witness(self) -> Injection:
        identity = tuple((x, x) for x in self.common)
        return Injection(identity + self.witness.pairs, self.value)


ChiLike = Union[Injection, Mapping, Iterable]


def _normalize_chi(chi: ChiLike):
    """The entries of ``chi`` as tuples; a string, or an entry that is not
    iterable, as it came, for the caller to refuse."""
    if isinstance(chi, Injection):
        return list(chi.pairs)
    if isinstance(chi, Mapping):
        return list(chi.items())
    return [p if isinstance(p, (str, bytes)) or not isinstance(p, Iterable)
            else tuple(p) for p in chi]


def validate_injection(a: PointSet, b: PointSet, chi: ChiLike) -> tuple:
    """Check that ``chi`` maps all of ``a`` one-to-one into ``b``; return the
    pairs canonically ordered by source."""
    pairs = []
    for entry in _normalize_chi(chi):
        if not isinstance(entry, tuple) or len(entry) != 2:
            raise ValidationError(f"injection entry {entry!r} is not a pair")
        x = a.space.validate_element(entry[0])
        y = b.space.validate_element(entry[1])
        if x not in a:
            raise ValidationError(f"injection source {x!r} is not in the source set")
        if y not in b:
            raise ValidationError(f"injection target {y!r} is not in the target set")
        pairs.append((x, y))
    sources = [x for x, _ in pairs]
    targets = [y for _, y in pairs]
    if len(set(sources)) != len(sources):
        raise ValidationError("injection maps some source twice")
    if len(set(targets)) != len(targets):
        raise ValidationError("injection reuses a target; it must be one-to-one")
    if len(pairs) != len(a):
        raise ValidationError(
            f"injection covers {len(pairs)} of {len(a)} source elements")
    return tuple(sorted(pairs))


def orient(a: PointSet, b: PointSet):
    """``(smaller, larger, smaller_is_a)``, ties broken on element order, so
    both argument orders of a symmetric computation run identically."""
    if (len(a), a.elements) <= (len(b), b.elements):
        return a, b, True
    return b, a, False


def _check_in_space(space: Space, *sets: PointSet):
    for s in sets:
        if s.space != space:
            raise ValidationError("point set belongs to a different space")


def _check_bound(space: Space, penalty: PenaltyFunction, *sets: PointSet):
    if penalty.space != space:
        raise ValidationError("penalty function is bound to a different space")
    _check_in_space(space, *sets)


def chi_distance(space: Space, penalty: PenaltyFunction, a: PointSet,
                 b: PointSet, chi: ChiLike) -> float:
    """Cost of one injection: matched ground distances plus penalties of
    the target elements left unmatched."""
    _check_bound(space, penalty, a, b)
    if len(a) > len(b):
        raise ValidationError(
            "injection cost needs |source| <= |target|; swap the arguments")
    pairs = validate_injection(a, b, chi)
    # Diagonals of pairwise over blocks of the witness: the floats the
    # solver's cost matrix held; a block bounds the entries left unused.
    distances = []
    for i in range(0, len(pairs), _CHI_BLOCK):
        block = pairs[i:i + _CHI_BLOCK]
        square = space.pairwise([x for x, _ in block], [y for _, y in block])
        distances += np.diagonal(square).tolist()
    targets = {y for _, y in pairs}
    matched = {j for j, y in enumerate(b.elements) if y in targets}
    return _injection_cost(distances, penalty.values(b.elements).tolist(),
                           matched)


def _injection_cost(distances, penalties, matched) -> float:
    """Matched distances in source order, then the penalties of target
    indices not in ``matched``, in index order: every reported subset
    distance is this sum.  Left to right, as built-in ``sum`` compensates
    from Python 3.12."""
    total = 0.0
    for d in distances:
        total += d
    keep = [True] * len(penalties)
    for j in matched:
        keep[j] = False
    for m in itertools.compress(penalties, keep):
        total += m
    return total


def symmetric_difference_reduce(a: PointSet, b: PointSet):
    """Strip the shared elements from both sets.

    The subset distance is unchanged: some optimal injection fixes every
    shared element, contributing zero for it on both sides.
    """
    return a.difference(b), b.difference(a)


def subset_distance(space: Space, penalty: PenaltyFunction, a: PointSet,
                    b: PointSet) -> SubsetDistanceResult:
    """Exact subset distance via one rectangular injection solve.

    After reducing by the intersection, the cost of an injection chi is
    sum M(y) over all targets plus sum d(x, chi(x)) - M(chi(x)) over the
    sources, so one |smaller| x |larger| matrix of d(x, y) - M(y) is
    solved.  Symmetric in (a, b); the orientation of the solve is
    canonical (smaller side first, ties broken on element order), so both
    argument orders run the identical computation.

    The matrix is tested, or not, by the one rule of
    :mod:`setmetrics.assignment`, and refused with ValidationError if its
    spread is not finite.
    """
    _check_bound(space, penalty, a, b)
    if a._members.isdisjoint(b._members):
        # immutable, so each set stands for its own reduced copy
        reduced_a, reduced_b = a, b
        common = PointSet._from_canonical(a.space, ())
    else:
        common = a.intersection(b)
        reduced_a, reduced_b = symmetric_difference_reduce(a, b)
    source, target, from_a = orient(reduced_a, reduced_b)
    src, tgt = source.elements, target.elements
    dist, penalties = space.pairwise(src, tgt), penalty.values(tgt)
    # No taller than wide, so valid without solve_injection's checks; a
    # penalty that bounds its costs' spread needs no spread test either.
    solve = (_shortest_augmenting_paths if penalty._bounded_spread
             else _solve_finite)
    cols = solve(dist - penalties) if src else ()
    value = _injection_cost([dist.item(i, j) for i, j in enumerate(cols)],
                            penalties.tolist(), cols)
    pairs = tuple((x, tgt[j]) for x, j in zip(src, cols))
    return SubsetDistanceResult(value, Injection(pairs, value),
                                reduced_a, reduced_b, common, from_a)


def _prepare_pool(space: Space, pool: Sequence[PointSet]):
    """``(union, id_sets, id_arrays, table)``: the union U of the pool's
    elements in sorted order; each set as the ids, indices into U, of its
    elements, so that lists of ids compare as the sets' elements do; the
    same ids as an intp array per set, to gather blocks with; and the
    U x U table of ``space.pairwise``.  All but U are None when U has more
    than ``POOL_TABLE_MAX_ELEMENTS`` elements."""
    union = sorted(set().union(*pool))
    if len(union) > POOL_TABLE_MAX_ELEMENTS:
        return union, None, None, None
    ids = {x: k for k, x in enumerate(union)}
    id_sets = [[ids[x] for x in ps] for ps in pool]
    return (union, id_sets, [np.array(a, dtype=np.intp) for a in id_sets],
            space.pairwise(union, union))


def pool_distances(space: Space, penalty: PenaltyFunction,
                   pool: Sequence[PointSet]) -> Callable[[int, int], float]:
    """``distance(i, j)``, equal bit for bit to
    ``subset_distance(space, penalty, pool[i], pool[j]).value``, for
    callers that want the distances of many pairs drawn from one pool.

    Before it returns, it prepares the pool once: it numbers the union U
    of the pool's elements, takes the U x U table d of ``space.pairwise``,
    reads the penalties M of U and forms the costs C = d - M of every
    pair.  Pairs are reduced and oriented on lists of ids.  A pair of sets
    that share nothing gathers its block with the sets' intp id arrays; a
    pair that shares elements gathers with the lists of its reduced sets.
    Each pair's block of C, the floats of its own d - M, is solved as
    ``subset_distance`` solves that matrix (see :mod:`setmetrics.assignment`
    for the one rule that refuses a matrix), then re-summed from d and M
    as ``subset_distance`` does.  It runs ``subset_distance`` per pair
    instead when U has more than ``POOL_TABLE_MAX_ELEMENTS`` elements, or
    when the penalty has no value for some element of U (a table penalty,
    whose error then comes from the pair that meets it).
    """
    _check_bound(space, penalty, *pool)

    def per_pair(i: int, j: int) -> float:
        return subset_distance(space, penalty, pool[i], pool[j]).value

    union, id_sets, id_arrays, table = _prepare_pool(space, pool)
    if table is None:
        return per_pair
    try:
        penalties = penalty.values(union)
    except ValidationError:
        return per_pair
    costs = table - penalties
    solve = (_shortest_augmenting_paths if penalty._bounded_spread
             else _solve_finite)
    listed = penalties.tolist()
    members = [frozenset(ids) for ids in id_sets]

    def distance(i: int, j: int) -> float:
        a, b = id_sets[i], id_sets[j]
        block_a, block_b = id_arrays[i], id_arrays[j]   # indices to gather
        if not members[i].isdisjoint(members[j]):
            block_a = a = [k for k in a if k not in members[j]]
            block_b = b = [k for k in b if k not in members[i]]
        if (len(a), a) > (len(b), b):
            a, b, block_a, block_b = b, a, block_b, block_a
        cols = solve(_take_block(costs, block_a, block_b)) if a else ()
        return _injection_cost([table.item(x, b[c]) for x, c in zip(a, cols)],
                               [listed[k] for k in b], cols)

    return distance


def brute_force_subset_distance(space: Space, penalty: PenaltyFunction,
                                a: PointSet, b: PointSet) -> SubsetDistanceResult:
    """Oracle: minimize over every injection explicitly.

    Evaluates the bare definition with no intersection reduction, which
    keeps it independent of the main path and makes the reduction itself
    testable.  Capped at set size BRUTE_FORCE_MAX_SET.
    """
    _check_bound(space, penalty, a, b)
    if max(len(a), len(b)) > BRUTE_FORCE_MAX_SET:
        raise SizeLimitError(
            f"brute force limited to sets of size {BRUTE_FORCE_MAX_SET}, "
            f"got {len(a)} and {len(b)}")
    source, target, from_a = orient(a, b)
    ns, nt = len(source), len(target)
    empty = PointSet._from_canonical(space, ())
    if nt == 0:
        return SubsetDistanceResult(0.0, Injection((), 0.0), a, b, empty, from_a)

    src, tgt = source.elements, target.elements
    dist = space.pairwise(src, tgt)
    penalties = penalty.values(tgt)
    injections = np.array(list(itertools.permutations(range(nt), ns)),
                          dtype=np.intp)
    totals = penalties.sum() - penalties[injections].sum(axis=1)
    if ns:
        totals += dist[np.arange(ns), injections].sum(axis=1)
    best = int(totals.argmin())
    chosen = injections[best]
    pairs = tuple((src[i], tgt[chosen[i]]) for i in range(ns))
    value = float(totals[best])
    return SubsetDistanceResult(value, Injection(pairs, value), a, b, empty, from_a)


def sequence_subset_distance(alphabet: str, length: int, a, b) -> float:
    """Distance between sets of equal-length words with the constant
    word-length penalty: each surplus word of the larger set costs the full
    length.  This is the sequence-set distance used for DNA storage codes."""
    space = HammingSpace(alphabet, length)
    penalty = ConstantPenalty(space, float(length))
    set_a = a if isinstance(a, PointSet) else PointSet(space, a)
    set_b = b if isinstance(b, PointSet) else PointSet(space, b)
    return subset_distance(space, penalty, set_a, set_b).value
