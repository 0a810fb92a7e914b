"""Ground spaces: element validation, distances, diameters, eccentricity."""

import itertools
import math

import numpy as np
import pytest

from setmetrics import (EuclideanBoxSpace, GraphSpace, HammingSpace,
                        ParseError, ValidationError, space_from_json)

from generators import random_connected_graph, space_family


def test_hamming_distance_counts_differing_positions():
    hs = HammingSpace("01", 3)
    assert hs.distance("000", "011") == 2.0
    assert hs.distance("000", "000") == 0.0
    assert hs.distance("111", "000") == 3.0


def test_hamming_diameter_is_word_length():
    assert HammingSpace("01", 5).diameter == 5.0
    assert HammingSpace("ACGT", 2).diameter == 2.0


def test_hamming_single_symbol_alphabet_has_zero_diameter():
    hs = HammingSpace("a", 3)
    assert hs.diameter == 0.0
    assert hs.distance("aaa", "aaa") == 0.0


def test_hamming_eccentricity_is_length():
    hs = HammingSpace("01", 4)
    assert hs.eccentricity("0101") == 4.0


def test_hamming_rejects_bad_words():
    hs = HammingSpace("01", 3)
    with pytest.raises(ValidationError):
        hs.validate_element("0102")
    with pytest.raises(ValidationError):
        hs.validate_element("02")
    with pytest.raises(ValidationError):
        hs.validate_element("012")
    with pytest.raises(ValidationError):
        hs.validate_element(7)


def test_hamming_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        HammingSpace("", 3)
    with pytest.raises(ValidationError):
        HammingSpace("aa", 3)
    with pytest.raises(ValidationError):
        HammingSpace("01", 0)


def test_hamming_metric_axioms_exhaustive():
    hs = HammingSpace("012", 2)
    words = list(hs.elements())
    assert len(words) == 9
    for a, b in itertools.product(words, repeat=2):
        dab = hs.distance(a, b)
        assert dab == hs.distance(b, a)
        assert (dab == 0.0) == (a == b)
        assert dab <= hs.diameter
    for a, b, c in itertools.product(words, repeat=3):
        assert hs.distance(a, c) <= hs.distance(a, b) + hs.distance(b, c)


def test_euclidean_distance_and_diameter():
    sq = EuclideanBoxSpace([(0.0, 1.0), (0.0, 1.0)])
    assert sq.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(math.sqrt(2))
    assert sq.diameter == pytest.approx(math.sqrt(2))
    box = EuclideanBoxSpace([(0.0, 3.0), (-2.0, 2.0)])
    assert box.diameter == pytest.approx(5.0)


def test_euclidean_eccentricity_on_unit_square():
    sq = EuclideanBoxSpace([(0.0, 1.0), (0.0, 1.0)])
    # farthest point from the center is any corner
    assert sq.eccentricity((0.5, 0.5)) == pytest.approx(math.sqrt(2) / 2)
    assert sq.eccentricity((0.0, 0.0)) == pytest.approx(math.sqrt(2))


def test_euclidean_eccentricity_matches_corner_maximum():
    rng = np.random.default_rng(5)
    box = EuclideanBoxSpace([(0.0, 2.0), (-1.0, 1.0), (0.5, 0.75)])
    corners = list(itertools.product(*[(lo, hi) for lo, hi in box.bounds]))
    for _ in range(200):
        p = box.sample_element(rng)
        expected = max(box.distance(p, c) for c in corners)
        assert box.eccentricity(p) == pytest.approx(expected, abs=1e-12)


def test_euclidean_rejects_out_of_bounds_and_bad_shape():
    box = EuclideanBoxSpace([(0.0, 1.0)])
    with pytest.raises(ValidationError):
        box.validate_element((1.5,))
    with pytest.raises(ValidationError):
        box.validate_element((0.5, 0.5))
    with pytest.raises(ValidationError):
        box.validate_element("0.5")
    with pytest.raises(ValidationError):
        EuclideanBoxSpace([(1.0, 0.0)])
    with pytest.raises(ValidationError):
        EuclideanBoxSpace([])


def test_euclidean_metric_axioms_sampled():
    rng = np.random.default_rng(17)
    sq = EuclideanBoxSpace([(0.0, 1.0), (0.0, 1.0)])
    pts = [sq.sample_element(rng) for _ in range(22)]
    # 22^3 > 10^4 ordered triples, all checked
    for a, b in itertools.product(pts, repeat=2):
        assert sq.distance(a, b) == sq.distance(b, a)
        assert sq.distance(a, b) <= sq.diameter + 1e-9
    for a, b, c in itertools.product(pts, repeat=3):
        assert sq.distance(a, c) <= sq.distance(a, b) + sq.distance(b, c) + 1e-9


def test_graph_shortest_path_distances():
    path = GraphSpace([(0, 1, 1.0), (1, 2, 1.0)])
    assert path.distance(0, 2) == 2.0
    assert path.diameter == 2.0
    # cheaper two-hop route beats the direct heavy edge
    tri = GraphSpace([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
    assert tri.distance(0, 2) == 2.0


def test_graph_parallel_edges_keep_cheapest():
    g = GraphSpace([(0, 1, 3.0), (0, 1, 1.0)])
    assert g.distance(0, 1) == 1.0


def test_graph_eccentricity_is_row_maximum():
    g = GraphSpace([(0, 1, 1.0), (1, 2, 2.0)])
    assert g.eccentricity(1) == 2.0
    assert g.eccentricity(0) == 3.0


def test_graph_diameter_is_the_largest_eccentricity():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_connected_graph(rng)
        ecc = g.eccentricities(list(g.elements()))
        assert type(g.diameter) is float
        assert g.diameter == ecc.max() == max(
            g.distance(u, v) for u, v in itertools.product(g.elements(), repeat=2))


def test_graph_rejects_disconnected_and_bad_edges():
    with pytest.raises(ValidationError):
        GraphSpace([(0, 1, 1.0)], 3)
    with pytest.raises(ValidationError):
        GraphSpace([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ValidationError):
        GraphSpace([(0, 0, 1.0)])
    with pytest.raises(ValidationError):
        GraphSpace([(0, 1, -1.0)])
    with pytest.raises(ValidationError):
        GraphSpace([(0, 1, 0.0)])
    with pytest.raises(ValidationError):
        GraphSpace([])


def test_graph_metric_axioms_exhaustive_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=8)
        vs = range(g.vertex_count)
        for a, b in itertools.product(vs, repeat=2):
            dab = g.distance(a, b)
            assert dab == g.distance(b, a)
            assert (dab == 0.0) == (a == b)
            assert dab <= g.diameter
        for a, b, c in itertools.product(vs, repeat=3):
            assert g.distance(a, c) <= g.distance(a, b) + g.distance(b, c) + 1e-12


def test_space_json_round_trip():
    spaces = [
        HammingSpace("ACGT", 4),
        EuclideanBoxSpace([(0.0, 1.0), (-2.0, 3.0)]),
        GraphSpace([(0, 1, 1.5), (1, 2, 2.0)], 3),
    ]
    for sp in spaces:
        again = space_from_json(sp.to_json())
        assert again == sp


def test_space_from_json_rejects_malformed_descriptors():
    with pytest.raises(ParseError):
        space_from_json({"kind": "moebius"})
    with pytest.raises(ParseError):
        space_from_json({"kind": "hamming", "alphabet": "01"})
    with pytest.raises(ParseError):
        space_from_json({"kind": "hamming", "alphabet": "01", "length": 3,
                         "junk": 1})
    with pytest.raises(ParseError):
        space_from_json(["not", "an", "object"])
    with pytest.raises(ParseError):
        space_from_json({"kind": "graph", "edges": [(0, 1, -2.0)]})


def test_finite_enumeration_and_counts():
    hs = HammingSpace("01", 2)
    assert hs.element_count() == 4
    assert sorted(hs.elements()) == ["00", "01", "10", "11"]
    g = GraphSpace([(0, 1, 1.0)])
    assert g.element_count() == 2
    assert list(g.elements()) == [0, 1]
    box = EuclideanBoxSpace([(0.0, 1.0)])
    assert box.element_count() is None
    with pytest.raises(ValidationError):
        list(box.elements())


def test_pairwise_equals_distance_exactly_on_every_kind():
    rng = np.random.default_rng(29)
    spaces = space_family(rng) + [
        HammingSpace("αβγ𝔸", 6),  # multi-byte and non-BMP symbols
        EuclideanBoxSpace([(0.0, 1.0)] * 9),
        EuclideanBoxSpace([(-3.0, 2.0)] * 20),
    ]
    for space in spaces:
        xs = [space.sample_element(rng) for _ in range(5)]
        ys = [space.sample_element(rng) for _ in range(4)]
        m = space.pairwise(xs, ys)
        assert m.dtype == np.float64 and m.shape == (5, 4)
        assert m.tolist() == [[space.distance(x, y) for y in ys] for x in xs]
        # each entry is independent of the matrix it is computed in
        assert m.tolist() == [[space.pairwise([x], [y])[0, 0] for y in ys]
                              for x in xs]
        assert space.pairwise([], ys).shape == (0, 4)
        assert space.pairwise(xs, []).shape == (5, 0)
        assert space.pairwise([], []).shape == (0, 0)


def test_hamming_pairwise_equals_a_literal_count_on_any_alphabet():
    rng = np.random.default_rng(37)
    for alphabet in ("01", "ACGT", "αβ𝔸"):
        hs = HammingSpace(alphabet, 5)
        xs = [hs.sample_element(rng) for _ in range(12)]
        assert hs.pairwise(xs, xs).tolist() == [
            [float(sum(u != v for u, v in zip(x, y))) for y in xs] for x in xs]


def test_euclidean_pairwise_stays_within_a_few_ulp_of_math_dist():
    rng = np.random.default_rng(31)
    for dimension in (1, 3, 9, 20):
        box = EuclideanBoxSpace([(-1.0, 2.0)] * dimension)
        xs = [box.sample_element(rng) for _ in range(20)]
        m = box.pairwise(xs, xs)
        assert (m == m.T).all() and (np.diag(m) == 0.0).all()
        for x, row in zip(xs, m):
            for y, d in zip(xs, row):
                assert abs(d - math.dist(x, y)) <= 4 * math.ulp(math.dist(x, y))


def test_real_inputs_accept_numpy_scalars_and_reject_non_numbers():
    box = EuclideanBoxSpace([(np.int64(0), np.float32(1.0)), (0, 1)])
    assert box.validate_element((np.float32(0.5), np.int64(1))) == (0.5, 1.0)
    assert GraphSpace([(0, 1, np.float64(2.0))]).distance(0, 1) == 2.0
    for bad in (True, np.bool_(True), "0.5", None, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            box.validate_element((bad, 0.5))
        with pytest.raises(ValidationError):
            EuclideanBoxSpace([(0.0, bad)])
        with pytest.raises(ValidationError):
            GraphSpace([(0, 1, bad)])
    for bad_bounds in ([(0.0,)], [(0.0, 1.0, 2.0)], ["01"], [0.0], 5):
        with pytest.raises(ValidationError):
            EuclideanBoxSpace(bad_bounds)
    for bad_edges in ([5], [(0, 1)], ["011"], 5):
        with pytest.raises(ValidationError):
            GraphSpace(bad_edges)


def test_eccentricity_reads_the_eccentricities_kernel_exactly():
    rng = np.random.default_rng(47)
    spaces = space_family(rng) + [
        HammingSpace("αβγ𝔸", 6),
        HammingSpace("a", 3),  # one word: eccentricity 0
        EuclideanBoxSpace([(0.0, 1.0)] * 9),
        EuclideanBoxSpace([(-3.0, 2.0)] * 20),
        random_connected_graph(rng, integer_weights=True),
    ]
    for space in spaces:
        xs = [space.sample_element(rng) for _ in range(7)]
        ecc = space.eccentricities(xs)
        assert ecc.dtype == np.float64 and ecc.shape == (7,)
        assert ecc.tolist() == [space.eccentricity(x) for x in xs]
        # each entry is independent of the vector it is computed in
        assert ecc.tolist() == [space.eccentricities([x])[0] for x in xs]
        assert space.eccentricities([]).shape == (0,)
        # eccentricity is the largest distance, so it bounds every distance
        assert (space.pairwise(xs, xs) <= ecc[:, None]).all()


def test_euclidean_eccentricities_stay_within_one_ulp_of_a_loop_reference():
    rng = np.random.default_rng(53)
    for dimension in (1, 3, 9, 20):
        box = EuclideanBoxSpace([(-1.0, 2.0)] * dimension)
        xs = [box.sample_element(rng) for _ in range(300)]
        for x, e in zip(xs, box.eccentricities(xs)):
            reference = math.sqrt(sum(max(v - lo, hi - v) ** 2
                                      for v, (lo, hi) in zip(x, box.bounds)))
            assert abs(e - reference) <= math.ulp(reference)
