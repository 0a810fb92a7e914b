"""Workspace documents: one space, one penalty function, named point sets.

A single JSON object describes everything a CLI run needs:

    {
      "space": {"kind": "hamming", "alphabet": "01", "length": 3},
      "m_function": {"variant": "constant", "value": 3},
      "sets": {"A": ["000"], "B": ["011", "111"]}
    }

"m_function" is optional and defaults to the diameter variant, which is
admissible on every space.  Elements follow the space kind: words as
strings, vectors as number arrays, graph vertices as integers.

A plain-text format covers the common sequence case: blank-line-separated
blocks of equal-length words, block k loaded as "set_k", with alphabet
inferred from the text and the penalty fixed to the constant word length.

Each element is checked once, on entry: set elements of a JSON document
by the space's ``validate_elements``, words of the text format by the
loader itself (their length is checked and the alphabet is derived from
them), and table entries by ``TablePenalty``; certification reads the
table's domain as it is.  So a bad set is a parse error at load, in
either format.  Both loaders then hand their named lists of canonical
elements to one store: it counts each list's duplicates into a notice at
load and builds a set's ``PointSet`` when the set is first read, so
``dist`` builds only the two sets it names and prints what an eager load
would.  The ``sets`` of a workspace are a read-only mapping.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List

from .errors import ParseError, ValidationError
from .penalties import (ConstantPenalty, DiameterPenalty, PenaltyFunction,
                        TablePenalty, penalty_from_json)
# Certification checks a table's own domain, which is canonical, so it
# takes the admissibility check that validates no element again.  It is
# bound to this name because the tests and the benchmark tracer hook it
# here to count certifications.
from .penalties import _admissibility_report as validate_penalty
from .spaces import HammingSpace, Space, _require_keys, space_from_json
from .subset_distance import PointSet, _dropped

@dataclass
class Workspace:
    space: Space
    penalty: PenaltyFunction
    sets: Mapping[str, PointSet]
    notices: List[str] = field(default_factory=list)

    def get_set(self, name: str) -> PointSet:
        if name not in self.sets:
            known = ", ".join(self.sets) or "none"
            raise ParseError(f"unknown set name {name!r} (file has: {known})")
        return self.sets[name]

    def set_names(self) -> List[str]:
        return list(self.sets)

    def to_json(self) -> dict:
        return {"space": self.space.to_json(),
                "m_function": self.penalty.to_json(),
                "sets": {name: ps.to_json() for name, ps in self.sets.items()}}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _reject_duplicate_keys(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r} in JSON object")
        seen[key] = value
    return seen


def loads_workspace(text: str) -> Workspace:
    """Parse a workspace from JSON text.

    Malformed documents raise ParseError; a well-formed document whose
    penalty fails admissibility raises ValidationError instead.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ParseError:
        raise  # a duplicate key
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting deeper
        # than the recursion limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("workspace document must be a JSON object")
    _require_keys(doc, "workspace document", ("space", "sets"),
                  optional=("m_function",))

    space = space_from_json(doc["space"])
    if "m_function" in doc:
        penalty = penalty_from_json(space, doc["m_function"])
    else:
        penalty = DiameterPenalty(space)

    raw_sets = doc["sets"]
    if not isinstance(raw_sets, dict):
        raise ParseError("'sets' must map names to element lists")
    sets = {}
    for name, elements in raw_sets.items():
        if not name:
            raise ParseError("set names must be non-empty")
        if not isinstance(elements, list):
            raise ParseError(f"set {name!r} must be a list of elements")
        try:
            sets[name] = space.validate_elements(elements)
        except ValidationError as exc:
            raise ParseError(f"set {name!r}: {exc}") from exc
    return _workspace(space, penalty, sets)


def _workspace(space: Space, penalty: PenaltyFunction,
               sets: Dict[str, list]) -> Workspace:
    """Workspace of named lists of canonical elements; each list's
    duplicates are counted into a notice now, its set built on first read."""
    notices = []
    for name, elements in sets.items():
        dropped = len(elements) - len(set(elements))
        if dropped:
            notices.append(f"set {name!r}: {_dropped(dropped)}")
    return Workspace(space, penalty, _Sets(space, sets), notices)


class _Sets(Mapping):
    """Lists of canonical elements by name, each made a ``PointSet`` when it
    is first read; read-only."""

    def __init__(self, space: Space, lists: Dict[str, list]):
        self._space = space
        self._lists = lists
        self._built: Dict[str, PointSet] = {}

    def __getitem__(self, name: str) -> PointSet:
        ps = self._built.get(name)
        if ps is None:
            # KeyError for an unknown name; the loader has given the
            # notice of the duplicates dropped here
            ps = self._built[name] = PointSet._from_valid(
                self._space, list(dict.fromkeys(self._lists[name])))
        return ps

    def __iter__(self):
        return iter(self._lists)

    def __len__(self) -> int:
        return len(self._lists)

    def __contains__(self, name) -> bool:
        # Mapping's own test would build the set
        return name in self._lists


def _read(path: str) -> str:
    # A leading byte-order mark is dropped after decoding, as "utf-8-sig"
    # drops it, but the offset of a bad byte still counts the mark.
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text "
                         f"(byte {exc.object[exc.start]:#04x} at offset "
                         f"{exc.start})") from exc


def load_workspace(path: str) -> Workspace:
    return loads_workspace(_read(path))


def loads_sequence_sets(text: str) -> Workspace:
    """Parse the plain-text sequence format.

    Blocks of words separated by blank lines; lines starting with '#' are
    comments.  All words must share one length; the alphabet is the sorted
    set of characters seen; the penalty is the constant word length.
    """
    blocks: List[List[str]] = []
    current: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            continue
        if not line:
            if current:
                blocks.append(current)
                current = []
            continue
        current.append(line)
    if current:
        blocks.append(current)
    if not blocks:
        raise ParseError("no sequences found in text input")

    words = [w for block in blocks for w in block]
    length = len(words[0])
    offender = next((w for w in words if len(w) != length), None)
    if offender is not None:
        raise ParseError(
            f"all words must have length {length}, got {offender!r}")
    # the first word's symbols, and any that deleting them leaves
    symbols = set(words[0])
    symbols.update("".join(words).translate(dict.fromkeys(map(ord, symbols))))
    space = HammingSpace("".join(sorted(symbols)), length)
    penalty = ConstantPenalty(space, float(length))
    # every word is valid by construction: checked length, derived alphabet
    return _workspace(space, penalty, {
        f"set_{k}": block for k, block in enumerate(blocks, start=1)})


def load_sequence_sets(path: str) -> Workspace:
    return loads_sequence_sets(_read(path))


def uncovered_elements(workspace: Workspace) -> list:
    """``(set name, element)`` of each set element the table penalty lacks."""
    table = workspace.penalty.table
    return [(name, x) for name, ps in workspace.sets.items()
            for x in ps if x not in table]


def certify_penalty(workspace: Workspace):
    """Refuse to compute with a table penalty that is unusable or breaks
    admissibility; built-in variants are admissible by construction.

    Raises ValidationError listing the defects.  Distance commands call
    this before touching a table; the dedicated validate command produces
    the full report instead.
    """
    penalty = workspace.penalty
    if not isinstance(penalty, TablePenalty):
        return
    missing = uncovered_elements(workspace)
    if missing:
        name, x = missing[0]
        raise ValidationError(
            f"table penalty has no entry for element {x!r} of set {name!r}"
            + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""))
    report = validate_penalty(workspace.space, penalty, penalty.domain())
    if not report.ok:
        shown = "; ".join(v.describe() for v in report.violations[:3])
        more = len(report.violations) - 3
        raise ValidationError(
            "table penalty fails admissibility: " + shown
            + (f" (and {more} more)" if more > 0 else ""))
