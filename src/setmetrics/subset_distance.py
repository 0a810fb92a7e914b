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
on the costs d(x, y) - M(y).

A direct enumerator over all injections, with no reduction step, serves
as the oracle.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from .assignment import solve_injection
# Unused here; bound so that perfbench/tracing.py can wrap it by name.
from .assignment import solve_assignment  # noqa: F401
from .errors import SizeLimitError, ValidationError
from .penalties import ConstantPenalty, PenaltyFunction
from .spaces import Element, HammingSpace, Space

#: Largest set size accepted by the injection enumerator (7!/1! injections).
BRUTE_FORCE_MAX_SET = 7

#: Witness pairs per pairwise call in chi_distance.
_CHI_BLOCK = 64


class DuplicateElementsWarning(UserWarning):
    """Input collection repeated elements; duplicates were dropped."""


class PointSet:
    """An immutable finite set of elements of one space, canonically ordered.

    Construction validates every element, canonicalizes it, removes
    duplicates (with a :class:`DuplicateElementsWarning`) and sorts them in
    their natural order, so iteration is deterministic.
    """

    __slots__ = ("space", "elements", "_members")

    def __init__(self, space: Space, items: Iterable = ()):
        canonical = [space.validate_element(x) for x in items]
        unique = sorted(set(canonical))
        if len(unique) != len(canonical):
            warnings.warn(DuplicateElementsWarning(
                f"dropped {len(canonical) - len(unique)} duplicate element(s)"),
                stacklevel=2)
        self.space = space
        self.elements = tuple(unique)
        self._members = frozenset(unique)

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
        kept = tuple(x for x in self.elements if x in other._members)
        return PointSet._from_canonical(self.space, kept)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        kept = tuple(x for x in self.elements if x not in other._members)
        return PointSet._from_canonical(self.space, kept)

    def to_json(self) -> list:
        return [list(x) if isinstance(x, tuple) else x for x in self.elements]


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
    if isinstance(chi, Injection):
        return list(chi.pairs)
    if isinstance(chi, Mapping):
        return list(chi.items())
    return [tuple(p) for p in chi]


def validate_injection(a: PointSet, b: PointSet, chi: ChiLike) -> tuple:
    """Check that ``chi`` maps all of ``a`` one-to-one into ``b``; return the
    pairs canonically ordered by source."""
    pairs = []
    for entry in _normalize_chi(chi):
        if len(entry) != 2:
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


def _check_bound(space: Space, penalty: PenaltyFunction, *sets: PointSet):
    if penalty.space != space:
        raise ValidationError("penalty function is bound to a different space")
    for s in sets:
        if s.space != space:
            raise ValidationError("point set belongs to a different space")


def chi_distance(space: Space, penalty: PenaltyFunction, a: PointSet,
                 b: PointSet, chi: ChiLike) -> float:
    """Cost of one injection: matched ground distances plus penalties of
    the target elements left unmatched."""
    _check_bound(space, penalty, a, b)
    if len(a) > len(b):
        raise ValidationError(
            "injection cost needs |source| <= |target|; swap the arguments")
    pairs = validate_injection(a, b, chi)
    matched = {y for _, y in pairs}
    total = 0.0
    # The matched distances are the diagonals of pairwise over blocks of
    # the witness.  Each entry depends only on its own pair, so they are
    # the floats the solver's cost matrix held; a block bounds the entries
    # computed and not used.
    for i in range(0, len(pairs), _CHI_BLOCK):
        block = pairs[i:i + _CHI_BLOCK]
        square = space.pairwise([x for x, _ in block], [y for _, y in block])
        for d in np.diagonal(square).tolist():
            total += d
    for y, m in zip(b.elements, penalty.values(b.elements).tolist()):
        if y not in matched:
            total += m
    return float(total)


def symmetric_difference_reduce(a: PointSet, b: PointSet):
    """Strip the shared elements from both sets.

    The subset distance is unchanged: some optimal injection fixes every
    shared element, contributing zero for it on both sides.
    """
    a._check_same_space(b)
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
    """
    _check_bound(space, penalty, a, b)
    common = a.intersection(b)
    reduced_a = a.difference(b)
    reduced_b = b.difference(a)
    source, target, from_a = orient(reduced_a, reduced_b)
    value, pairs = _solve_reduced(space, penalty, source, target)
    return SubsetDistanceResult(value, Injection(pairs, value),
                                reduced_a, reduced_b, common, from_a)


def _solve_reduced(space, penalty, source: PointSet, target: PointSet):
    ns = len(source)
    src, tgt = source.elements, target.elements
    penalties = penalty.values(tgt)
    dist = space.pairwise(src, tgt)
    cols = ()
    if ns:
        # Admissibility gives d(x, y) <= M(y), so the costs are <= 0; one
        # constant shift makes them nonnegative without moving the optimum,
        # as every injection has exactly ns terms.
        cost = dist - penalties
        cols, _ = solve_injection(cost - cost.min())

    # Re-sum in canonical order (matched pairs by source, penalties by
    # target) so the reported value matches a chi_distance evaluation of
    # the witness term for term.
    pairs = tuple((src[i], tgt[cols[i]]) for i in range(ns))
    matched_cols = set(cols)
    value = 0.0
    for i in range(ns):
        value += dist[i, cols[i]]
    for j, m in enumerate(penalties.tolist()):
        if j not in matched_cols:
            value += m
    return float(value), pairs


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
    if injections.ndim == 1:  # ns == 0 collapses to shape (1,)
        injections = injections.reshape(1, ns)
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
