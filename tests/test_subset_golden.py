"""Golden answers of the subset distance.

``subset_golden.json`` maps each case name to what ``subset_distance``
returns on a seeded pair of point sets: the value as ``float.hex``,
``witness_from_a``, the full witness (identity on the shared elements,
then the solved pairs) and the shared elements.  Values are compared
through ``float.hex``, so any change to the matching, to the summation
order or to an element's canonical form shows up here, ties included.

The cases cover three spaces (Hamming words of length 12 over ACGT, a
100-vertex weighted graph and a box in R^3) and five shapes: disjoint,
overlapping, identical, one side empty, and 1-8 elements against
100-150.  Every element and weight comes from ``Generator.integers``
or ``Generator.random`` and exact IEEE operations, so the inputs do not
depend on the platform.

The golden file was generated before point-set construction and the
intersection reduction were rewritten, so it pins the answers that
rewrite had to keep.  To regenerate after an intended change of
answers, from the repository root:

    PYTHONPATH=src python3 tests/test_subset_golden.py

and review the diff of ``tests/subset_golden.json``.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from setmetrics import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, HammingSpace, PointSet,
                        subset_distance)
from setmetrics.spaces import element_to_json

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "subset_golden.json"

SPACES = ("hamming", "graph", "box")
#: shape -> seeds per space
SHAPES = {"disjoint": 14, "overlapping": 14, "identical": 8, "empty": 8,
          "lopsided": 22}
PENALTIES = ("constant", "diameter", "eccentricity")


@functools.lru_cache(maxsize=None)
def space(kind: str):
    if kind == "hamming":
        return HammingSpace("ACGT", 12)
    if kind == "box":
        return EuclideanBoxSpace([(0.0, 1.0), (-2.0, 3.0), (0.0, 10.0)])
    # A random spanning tree plus extra edges on 100 vertices.
    rng = np.random.default_rng([SPACES.index(kind), 100])
    edges = [(int(rng.integers(0, v)), v, 0.25 + float(rng.random()) * 4.0)
             for v in range(1, 100)]
    for u, v in rng.integers(0, 100, size=(150, 2)).tolist():
        if u != v:
            edges.append((u, v, float(rng.integers(1, 9))))
    return GraphSpace(edges, 100)


def distinct_elements(kind: str, rng, n: int) -> list:
    """``n`` distinct elements of the space, in draw order."""
    if kind == "graph":
        return rng.permutation(100)[:n].tolist()
    seen = {}
    while len(seen) < n:
        if kind == "hamming":
            x = "".join("ACGT"[i] for i in rng.integers(0, 4, size=12).tolist())
        else:
            u = rng.random(3).tolist()
            x = (u[0], -2.0 + 5.0 * u[1], 10.0 * u[2])
        seen.setdefault(x, None)
    return list(seen)


def instance(kind: str, shape: str, seed: int):
    """``(penalty, a, b)`` of one case."""
    sp = space(kind)
    rng = np.random.default_rng([SPACES.index(kind), list(SHAPES).index(shape),
                                 seed])
    if shape == "lopsided":
        small = int(rng.integers(1, 9))
        cap = 100 - small if kind == "graph" else 150
        large = min(int(rng.integers(100, 151)), cap)
        pool = distinct_elements(kind, rng, small + large)
        a, b = pool[:small], pool[small:]
    elif shape == "empty":
        a, b = [], distinct_elements(kind, rng, int(rng.integers(0, 21)))
    else:
        na, nb = (int(n) for n in rng.integers(1, 21, size=2))
        shared = {"disjoint": 0, "identical": na,
                  "overlapping": int(rng.integers(1, min(na, nb) + 1))}[shape]
        nb = na if shape == "identical" else nb
        pool = distinct_elements(kind, rng, na + nb - shared)
        a, b = pool[:na], pool[na - shared:]
    if seed % 2:
        a, b = b, a
    pick = PENALTIES[seed % len(PENALTIES)]
    if pick == "constant":
        penalty = ConstantPenalty(sp, sp.diameter * 1.5)
    elif pick == "diameter":
        penalty = DiameterPenalty(sp)
    else:
        penalty = EccentricityPenalty(sp)
    return penalty, PointSet(sp, a), PointSet(sp, b)


def cases() -> dict:
    """Every golden case, by name."""
    return {f"{kind} {shape} #{seed}": (kind, shape, seed)
            for kind in SPACES for shape, seeds in SHAPES.items()
            for seed in range(seeds)}


def answer(kind: str, shape: str, seed: int) -> dict:
    penalty, a, b = instance(kind, shape, seed)
    result = subset_distance(space(kind), penalty, a, b)
    return {"value": result.value.hex(),
            "witness_from_a": result.witness_from_a,
            "witness": [[element_to_json(x), element_to_json(y)]
                        for x, y in result.full_witness.pairs],
            "common": result.common.to_json()}


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(cases()))
def test_subset_distance_matches_golden(name):
    assert answer(*cases()[name]) == _golden()[name]


def test_golden_file_has_exactly_the_cases():
    assert sorted(_golden()) == sorted(cases())


def _regenerate():
    golden = {name: answer(*key) for name, key in cases().items()}
    lines = (f" {json.dumps(name)}: {json.dumps(golden[name])}"
             for name in sorted(golden))
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
