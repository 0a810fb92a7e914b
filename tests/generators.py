"""Shared builders for randomized tests.

Everything takes an explicit numpy Generator so each test pins its own
seed and stays reproducible.
"""

import numpy as np

from setmetrics import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, HammingSpace, PointSet)


def unit_interval():
    return EuclideanBoxSpace([(0.0, 1.0)])


def unit_square():
    return EuclideanBoxSpace([(0.0, 1.0), (0.0, 1.0)])


def random_connected_graph(rng, max_vertices=8, integer_weights=False):
    """A connected weighted graph: a random spanning tree plus extra edges."""
    n = int(rng.integers(2, max_vertices + 1))
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, _weight(rng, integer_weights)))
    for _ in range(int(rng.integers(0, n))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.append((u, v, _weight(rng, integer_weights)))
    return GraphSpace(edges, n)


def _weight(rng, integer):
    if integer:
        return float(rng.integers(1, 5))
    return float(rng.uniform(0.1, 3.0))


def random_point_set(space, rng, max_size=6, min_size=0):
    size = int(rng.integers(min_size, max_size + 1))
    return PointSet(space, {space.sample_element(rng) for _ in range(size)})


def random_penalty(space, rng):
    pick = int(rng.integers(3))
    if pick == 0:
        return DiameterPenalty(space)
    if pick == 1:
        return EccentricityPenalty(space)
    return ConstantPenalty(space, space.diameter * float(rng.uniform(1.0, 2.0)))


def space_family(rng):
    """One sample from each ground-space kind the suite exercises."""
    return [
        HammingSpace("01", int(rng.integers(2, 6))),
        HammingSpace("ACGT", int(rng.integers(2, 6))),
        unit_square(),
        random_connected_graph(rng),
    ]


def literal_sequence_distance(words_a, words_b, length):
    """Reference value for sets of equal-length words, written straight
    from the definition: try every injection from the smaller list into
    the larger, add the per-word substitution counts, and charge the full
    word length for every unmatched word.  Pure Python, no package calls."""
    import itertools

    a, b = list(words_a), list(words_b)
    if len(a) > len(b):
        a, b = b, a
    best = None
    for choice in itertools.permutations(range(len(b)), len(a)):
        cost = length * (len(b) - len(a))
        for x, j in zip(a, choice):
            cost += sum(1 for u, v in zip(x, b[j]) if u != v)
        if best is None or cost < best:
            best = cost
    return float(best)


def count_validations(monkeypatch, space):
    """Wrap ``validate_element`` and ``validate_elements`` of the space's
    class with a counter; return the list the wrappers append every
    validated value to.  Each element is appended once, whichever entry
    point checks it: calls made inside ``validate_elements`` are not
    counted again."""
    calls = []
    nested = []
    cls = type(space)
    one, many = cls.validate_element, cls.validate_elements

    def counted(self, x):
        if not nested:
            calls.append(x)
        return one(self, x)

    def counted_many(self, items):
        items = list(items)
        if not nested:
            calls.extend(items)
        nested.append(True)
        try:
            return many(self, items)
        finally:
            nested.pop()

    monkeypatch.setattr(cls, "validate_element", counted)
    monkeypatch.setattr(cls, "validate_elements", counted_many)
    return calls
