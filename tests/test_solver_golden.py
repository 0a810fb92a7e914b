"""Golden answers of the injection solver.

``solver_golden.json`` maps each case name to ``[columns, total.hex()]``:
the columns the solver core, ``_shortest_augmenting_paths``, returns on a
seeded matrix and their total, summed in row order.  ``solve_injection``
must return the same pair on every case, and the core the same columns.
Totals are compared through ``float.hex``, so any change to the chosen
columns or to the summation shows up here, ties included.

The matrices are rebuilt from their case names.  Every entry comes from
``Generator.integers``/``Generator.random`` and exact IEEE operations,
and powers of ten are parsed from decimal strings, so the matrices do
not depend on the platform's ``pow``.

The golden file was generated before the core's row loop was rewritten,
so it pins the answers that rewrite had to keep.  To regenerate after an
intended change of answers, from the repository root:

    PYTHONPATH=src python3 tests/test_solver_golden.py

and review the diff of ``tests/solver_golden.json``.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from setmetrics.assignment import _shortest_augmenting_paths, solve_injection

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "solver_golden.json"

#: (rows, columns, seeds per kind)
SHAPES = ((1, 1, 6), (1, 9, 8), (3, 8, 7), (8, 148, 10), (40, 150, 4),
          (2, 2, 4), (5, 5, 5), (13, 13, 6), (25, 25, 5), (45, 45, 3),
          (60, 60, 3), (12, 40, 5), (30, 31, 3), (7, 60, 6))
KINDS = ("int3", "equal", "uniform", "spread")
TENS = np.array([float(f"1e{k}") for k in range(-6, 10)])


def matrix(kind: str, s: int, t: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([KINDS.index(kind), s, t, seed])
    if kind == "int3":
        return rng.integers(0, 3, size=(s, t)).astype(float)
    if kind == "equal":
        return np.full((s, t), (0.0, 1.0, 0.1, 7.5)[seed % 4])
    if kind == "uniform":
        return rng.random((s, t)) * 10.0
    return rng.random((s, t)) * TENS[rng.integers(0, len(TENS), size=(s, t))]


def cases() -> dict:
    """Every golden case, by name."""
    return {f"{kind} {s}x{t} #{seed}": (kind, s, t, seed)
            for s, t, seeds in SHAPES for kind in KINDS
            for seed in range(seeds)}


def answer(result) -> list:
    columns, total = result
    return [list(columns), float(total).hex()]


def core_answer(c: np.ndarray) -> list:
    columns = _shortest_augmenting_paths(c)
    return answer((columns, c[np.arange(len(columns)), list(columns)].sum()))


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(cases()))
def test_core_and_injection_match_golden(name):
    c = matrix(*cases()[name])
    assert core_answer(c) == _golden()[name]
    assert answer(solve_injection(c)) == _golden()[name]


def test_golden_file_has_exactly_the_cases():
    assert sorted(_golden()) == sorted(cases())


def _regenerate():
    golden = {name: core_answer(matrix(*key))
              for name, key in cases().items()}
    lines = (f" {json.dumps(name)}: {json.dumps(golden[name])}"
             for name in sorted(golden))
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
