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
by ``PointSet``, words of the text format by the loader itself (their
length is checked and the alphabet is derived from them), and table
entries by ``TablePenalty``; certification reads the table's domain as it
is.  A JSON document builds every set at load, so that a bad set is a
parse error then.  A text document builds a block's set when the block is
first read: a word that passed the loader's checks cannot fail later, and
each block's duplicate notice is counted at load, so ``dist --text``
builds only the two blocks it names and prints what an eager load would.
The ``sets`` of a text workspace are a read-only mapping.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List

from .errors import ParseError, ValidationError
from .penalties import (ConstantPenalty, DiameterPenalty, PenaltyFunction,
                        TablePenalty, penalty_from_json)
# Certification checks a table's own domain, which is canonical, so it
# takes the admissibility check that validates no element again.  It is
# bound to the name this module has always called it by, which the tests
# and the benchmark tracer hook to count certifications.
from .penalties import _admissibility_report as validate_penalty
from .spaces import HammingSpace, Space, space_from_json
from .subset_distance import PointSet, _dropped

_TOP_KEYS = {"space", "m_function", "sets"}


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
    if not isinstance(doc, dict):
        raise ParseError("workspace document must be a JSON object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ParseError(f"unexpected top-level keys: {sorted(extra)}")
    for key in ("space", "sets"):
        if key not in doc:
            raise ParseError(f"workspace document is missing {key!r}")

    space = space_from_json(doc["space"])
    if "m_function" in doc:
        penalty = penalty_from_json(space, doc["m_function"])
    else:
        penalty = DiameterPenalty(space)

    raw_sets = doc["sets"]
    if not isinstance(raw_sets, dict):
        raise ParseError("'sets' must map names to element lists")
    return _workspace(space, penalty, raw_sets)


def _workspace(space: Space, penalty: PenaltyFunction,
               raw_sets: Dict[str, list]) -> Workspace:
    """Workspace of named raw element lists, each validated by ``PointSet``;
    a set's warnings become its notices."""
    sets: Dict[str, PointSet] = {}
    notices: List[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, elements in raw_sets.items():
            if not name:
                raise ParseError("set names must be non-empty")
            if not isinstance(elements, list):
                raise ParseError(f"set {name!r} must be a list of elements")
            before = len(caught)
            try:
                sets[name] = PointSet(space, elements)
            except ValidationError as exc:
                raise ParseError(f"set {name!r}: {exc}") from exc
            notices.extend(f"set {name!r}: {w.message}" for w in caught[before:])
    return Workspace(space, penalty, sets, notices)


class _TextSets(Mapping):
    """Blocks of valid words by name, each made a ``PointSet`` when it is
    first read; read-only."""

    def __init__(self, space: Space, blocks: Dict[str, List[str]]):
        self._space = space
        self._blocks = blocks
        self._built: Dict[str, PointSet] = {}

    def __getitem__(self, name: str) -> PointSet:
        ps = self._built.get(name)
        if ps is None:
            # KeyError for an unknown name; duplicates dropped, without a
            # warning, since the loader has given their notice
            ps = self._built[name] = PointSet._from_valid(
                self._space, list(dict.fromkeys(self._blocks[name])))
        return ps

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, name) -> bool:
        # Mapping's own test would build the set
        return name in self._blocks


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


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
    sets = {f"set_{k}": block for k, block in enumerate(blocks, start=1)}
    notices = []
    for name, block in sets.items():
        dropped = len(block) - len(set(block))
        if dropped:
            notices.append(f"set {name!r}: {_dropped(dropped)}")
    # every word is valid by construction: checked length, derived alphabet
    return Workspace(space, penalty, _TextSets(space, sets), notices)


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
