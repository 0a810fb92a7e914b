"""Penalty functions charging elements left unmatched by a subset distance.

A penalty function M assigns each element of the ground space the cost of
leaving it unmatched.  For the subset distance to be a metric, M must be
admissible: for all x, y, z,

    d(x, y) <= M(x)    and    M(x) <= d(x, z) + M(z),

i.e. M(x) dominates every distance out of x, and M varies by at most the
distance between evaluation points.  The built-in variants are admissible
by construction:

* ``constant`` with any positive value >= the space diameter,
* ``diameter``, the constant equal to the diameter,
* ``eccentricity``, M(x) = largest distance from x (the pointwise-least
  admissible choice),

plus an experimentation-only ``table`` variant that carries explicit
per-element values and must be vetted with :func:`validate_penalty`
before use.

Each variant has one kernel, ``values``, over canonical elements (as held
by a PointSet, not validated again); ``value`` validates one element and
gives the same float.

Each built-in variant on a built-in space also records at construction
whether fl(diameter + max M) is finite, max M being its largest value.
Every built-in space's kernel keeps each d in [0, diameter] bit for bit,
and every M lies in [0, max M], so every cost d(x, y) - M(y) lies in
[-max M, diameter]; as rounding is monotone, no matrix of costs spreads
wider than that sum.  When it is finite, no cost matrix of the penalty
needs the solver's spread test.  The values that give max M, a constant
or a table, are read-only.  A subclass of a penalty or of a space, whose
kernel may compute otherwise, records nothing: its matrices are tested.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ParseError, ValidationError
from .spaces import (Element, EuclideanBoxSpace, GraphSpace, HammingSpace,
                     REAL_TOL, Space, _json_repr, _require_keys,
                     element_to_json, finite_real)


class PenaltyFunction:
    """Base class binding a penalty variant to a ground space."""

    variant: str = ""
    #: Whether the spread of every matrix of costs d(x, y) - M(y) is known
    #: finite (module docstring).  When False, the solver tests each one.
    _bounded_spread = False

    def __init__(self, space: Space):
        if space.diameter <= 0:
            raise ValidationError(
                "penalty functions need a space with at least two elements")
        self.space = space

    def _record_largest(self, largest: float):
        """Record whether fl(diameter + ``largest``), no value of the
        penalty exceeding ``largest``, bounds every cost matrix's spread:
        only for a built-in variant on a built-in space."""
        self._bounded_spread = (
            type(self) in _BOUNDED_PENALTIES
            and type(self.space) in _BOUNDED_SPACES
            and math.isfinite(self.space.diameter + largest))

    def value(self, x) -> float:
        """Penalty charged when ``x`` is left unmatched."""
        raise NotImplementedError

    def values(self, ys: Sequence[Element]) -> np.ndarray:
        """float64 vector of M(y), shape ``(len(ys),)``, each entry the
        float ``value`` returns.  ``ys`` must already be canonical and are
        not validated."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, PenaltyFunction)
                                 and self._key() == other._key()
                                 and self.space == other.space)

    def __hash__(self) -> int:
        return hash((self._key(), self.space))

    def __repr__(self) -> str:
        return _json_repr(self)


class ConstantPenalty(PenaltyFunction):
    """A constant penalty; admissible iff it is positive and covers the
    diameter, so also on a one-point space."""

    variant = "constant"

    def __init__(self, space: Space, value: float):
        c = float(value)
        if not math.isfinite(c):
            raise ValidationError("constant penalty must be finite")
        if c < space.diameter - REAL_TOL:
            raise ValidationError(
                f"constant penalty {c} is below the space diameter "
                f"{space.diameter}; admissibility cannot be certified")
        if c <= 0:
            raise ValidationError(
                f"constant penalty must be positive, got {c}")
        self.space = space
        self._constant = c
        self._record_largest(c)

    @property
    def constant(self) -> float:
        """The value, read-only."""
        return self._constant

    def value(self, x) -> float:
        self.space.validate_element(x)
        return self._constant

    def values(self, ys: Sequence[Element]) -> np.ndarray:
        return np.full(len(ys), self._constant)

    def to_json(self) -> dict:
        return {"variant": self.variant, "value": self._constant}

    def _key(self) -> tuple:
        return (self.variant, self._constant)


class DiameterPenalty(PenaltyFunction):
    """The constant penalty equal to the space diameter."""

    variant = "diameter"

    def __init__(self, space: Space):
        super().__init__(space)
        self._record_largest(space.diameter)

    def value(self, x) -> float:
        self.space.validate_element(x)
        return self.space.diameter

    def values(self, ys: Sequence[Element]) -> np.ndarray:
        return np.full(len(ys), self.space.diameter)

    def to_json(self) -> dict:
        return {"variant": self.variant}

    def _key(self) -> tuple:
        return (self.variant,)


class EccentricityPenalty(PenaltyFunction):
    """M(x) = largest distance from x; the least admissible penalty."""

    variant = "eccentricity"

    def __init__(self, space: Space):
        super().__init__(space)
        self._record_largest(space.diameter)   # no distance exceeds it

    def value(self, x) -> float:
        return self.space.eccentricity(x)

    def values(self, ys: Sequence[Element]) -> np.ndarray:
        return self.space.eccentricities(ys)

    def to_json(self) -> dict:
        return {"variant": self.variant}

    def _key(self) -> tuple:
        return (self.variant,)


class TablePenalty(PenaltyFunction):
    """Explicit per-element penalty values, for experimentation.

    Construction checks only structure (valid elements, finite nonnegative
    values).  Admissibility is NOT certified here; run
    :func:`validate_penalty` over the table's domain and reject on
    violations before trusting distances computed with it.
    """

    variant = "table"

    def __init__(self, space: Space, entries: Mapping[Element, float]
                 | Iterable[Sequence]):
        super().__init__(space)
        items = entries.items() if isinstance(entries, Mapping) else entries
        table = {}
        for element, value in items:
            key = space.validate_element(element)
            v = finite_real(value, f"table penalty for {key!r}")
            if v < 0:
                raise ValidationError(
                    f"table penalty for {key!r} must be finite and >= 0, got {v}")
            if key in table and table[key] != v:
                raise ValidationError(f"conflicting table entries for {key!r}")
            table[key] = v
        if not table:
            raise ValidationError("table penalty needs at least one entry")
        self._table = table
        self._record_largest(max(table.values()))

    @property
    def table(self) -> Mapping:
        """The entries, canonical element to value, read-only."""
        return MappingProxyType(self._table)

    def value(self, x) -> float:
        return float(self.values([self.space.validate_element(x)])[0])

    def values(self, ys: Sequence[Element]) -> np.ndarray:
        try:
            return np.array([self._table[y] for y in ys], dtype=float)
        except KeyError as missing:
            raise ValidationError(
                f"no table entry for element {missing.args[0]!r}") from None

    def domain(self) -> tuple:
        """Elements the table defines a value for, in canonical order."""
        return tuple(sorted(self._table))

    def to_json(self) -> dict:
        entries = [[element_to_json(k), v] for k, v in sorted(self._table.items())]
        return {"variant": self.variant, "entries": entries}

    def _key(self) -> tuple:
        return (self.variant, tuple(sorted(self._table.items())))


#: The variants and spaces whose kernels the bound of the module docstring
#: holds for; ``_record_largest`` records no bound for a subclass of either.
_BOUNDED_PENALTIES = (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                      TablePenalty)
_BOUNDED_SPACES = (HammingSpace, EuclideanBoxSpace, GraphSpace)


@dataclass(frozen=True)
class PenaltyViolation:
    """One failed admissibility inequality over a sampled pair."""

    check: str  # "distance_bound": d(x,y) > M(x); "growth_bound": M(x) > d(x,z)+M(z)
    x: Element
    other: Element
    distance: float
    penalty_x: float
    penalty_other: float

    def describe(self) -> str:
        if self.check == "distance_bound":
            return (f"d({self.x!r}, {self.other!r}) = {self.distance} "
                    f"exceeds M({self.x!r}) = {self.penalty_x}")
        return (f"M({self.x!r}) = {self.penalty_x} exceeds "
                f"d({self.x!r}, {self.other!r}) + M({self.other!r}) "
                f"= {self.distance + self.penalty_other}")

    def to_json(self) -> dict:
        return {"check": self.check,
                "x": element_to_json(self.x), "other": element_to_json(self.other),
                "distance": self.distance, "penalty_x": self.penalty_x,
                "penalty_other": self.penalty_other}


@dataclass(frozen=True)
class PenaltyValidityReport:
    """Outcome of an admissibility check over a sample of elements."""

    violations: tuple
    min_penalty: float
    sample_size: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok,
                "sample_size": self.sample_size,
                "min_penalty": self.min_penalty,
                "violations": [v.to_json() for v in self.violations]}


def validate_penalty(space: Space, penalty: PenaltyFunction,
                     sample: Iterable) -> PenaltyValidityReport:
    """Check the two admissibility inequalities over a sample of elements.

    Every ordered pair drawn from the sample is checked both as (x, y) in
    d(x, y) <= M(x) and as (x, z) in M(x) <= d(x, z) + M(z); this covers
    exactly the constraints any ordered triple from the sample would,
    since each inequality involves two of the three points.  Returns the
    violations found (none means the sample certifies nothing was broken)
    together with the smallest sampled penalty value.
    """
    if penalty.space != space:
        raise ValidationError("penalty function is bound to a different space")
    # Each distinct element once, in order of first appearance.
    elements = list(dict.fromkeys(space.validate_elements(sample)))
    if not elements:
        raise ValidationError("admissibility check needs a non-empty sample")
    return _admissibility_report(space, penalty, elements)


def _admissibility_report(space: Space, penalty: PenaltyFunction,
                          elements: Sequence) -> PenaltyValidityReport:
    """``validate_penalty`` over distinct canonical elements of ``space``,
    at least one, which it takes as they are: it validates none of them."""
    m = penalty.values(elements)
    d = space.pairwise(elements, elements)
    mx, mo = m[:, None], m[None, :]
    # the float operations of d(x,o) > M(x) + tol and
    # M(x) > (d(x,o) + M(o)) + tol, in this order; a sum past the largest
    # float is inf, as in Python
    with np.errstate(over="ignore"):
        above = d > mx + REAL_TOL
        grows = mx > (d + mo) + REAL_TOL
    rows, cols = np.nonzero(above | grows)  # row-major
    values = m.tolist()
    violations = []
    for i, j, dxo, up, grow in zip(rows.tolist(), cols.tolist(),
                                   d[rows, cols].tolist(),
                                   above[rows, cols].tolist(),
                                   grows[rows, cols].tolist()):
        if up:
            violations.append(PenaltyViolation(
                "distance_bound", elements[i], elements[j], dxo,
                values[i], values[j]))
        if grow:
            violations.append(PenaltyViolation(
                "growth_bound", elements[i], elements[j], dxo,
                values[i], values[j]))
    return PenaltyValidityReport(tuple(violations), min(values), len(elements))


def penalty_from_json(space: Space, obj: dict) -> PenaltyFunction:
    """Build a penalty function from its JSON descriptor.

    Structural defects raise ParseError; an admissibility failure (a
    constant below the diameter) stays a ValidationError, since the
    document is well-formed but the function breaks the metric contract.
    """
    if not isinstance(obj, dict):
        raise ParseError("penalty descriptor must be a JSON object")
    variant = obj.get("variant")
    what = f"{variant} penalty descriptor"
    if variant == "constant":
        _require_keys(obj, what, ("variant", "value"))
        try:
            value = finite_real(obj["value"], "constant penalty value")
        except ValidationError as exc:
            raise ParseError(str(exc)) from None
        return ConstantPenalty(space, value)
    if variant == "diameter":
        _require_keys(obj, what, ("variant",))
        return DiameterPenalty(space)
    if variant == "eccentricity":
        _require_keys(obj, what, ("variant",))
        return EccentricityPenalty(space)
    if variant == "table":
        _require_keys(obj, what, ("variant", "entries"))
        entries = obj["entries"]
        if not isinstance(entries, list) \
                or any(not isinstance(e, list) or len(e) != 2 for e in entries):
            raise ParseError("table penalty 'entries' must be a list of "
                             "[element, value] pairs")
        try:
            return TablePenalty(space, entries)
        except ValidationError as exc:
            raise ParseError(f"bad table penalty: {exc}") from exc
    raise ParseError(f"unknown penalty variant {variant!r}")


def parse_penalty_spec(space: Space, text: str) -> PenaltyFunction:
    """Parse a command-line penalty spec, constant:<v> | diameter |
    eccentricity, into a descriptor for :func:`penalty_from_json`."""
    if text in ("diameter", "eccentricity"):
        descriptor = {"variant": text}
    elif text.startswith("constant:"):
        raw = text.split(":", 1)[1]
        try:
            descriptor = {"variant": "constant", "value": float(raw)}
        except ValueError:
            raise ParseError(f"bad constant penalty value {raw!r}") from None
    else:
        raise ParseError(f"unknown penalty spec {text!r}; use constant:<v>, "
                         "diameter or eccentricity")
    return penalty_from_json(space, descriptor)
