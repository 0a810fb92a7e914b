"""Ground spaces: element validation, distances, diameters, eccentricity."""

import itertools
import math
import string
import tracemalloc

import numpy as np
import pytest

from setmetrics import (EuclideanBoxSpace, GraphSpace, HammingSpace,
                        ParseError, Space, ValidationError, space_from_json)

from generators import random_connected_graph, space_family


def test_hamming_distance_counts_differing_positions():
    hs = HammingSpace("01", 3)
    assert hs.distance("000", "011") == 2.0
    assert hs.distance("000", "000") == 0.0
    assert hs.distance("111", "000") == 3.0


class BareSpace(Space):
    """A user-defined space that defines no JSON form."""


def test_repr_shows_the_json_form_or_else_the_class_name():
    hs = HammingSpace("01", 3)
    assert repr(hs) == f"HammingSpace({hs.to_json()})"
    assert repr(BareSpace()) == "BareSpace()"


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


@pytest.mark.parametrize("edges, n, message", [
    ([(0, 1.5, 1.0)], None, "must be integers"),
    ([(-1, 1, 1.0)], None, "negative vertex id"),
    ([(0, 2, 1.0)], 2, "exceeds declared vertex count"),
], ids=("non-integer endpoint", "negative id", "endpoint past the count"))
def test_graph_rejects_bad_endpoints(edges, n, message):
    with pytest.raises(ValidationError, match=message):
        GraphSpace(edges, n)


# Edge lists in the shape a JSON document gives, each with one defect, and
# the error the per-edge checks raise for it: the first bad edge's.
MALFORMED_EDGE_LISTS = {
    "bool endpoint": ([[0, 1, 1.0], [True, 2, 1.0]],
                      "edge [True, 2, 1.0] endpoints must be integers"),
    "numpy int endpoint": ([[0, np.int64(1), 1.0]],
                           f"edge {[0, np.int64(1), 1.0]!r} endpoints must "
                           "be integers"),
    "float endpoint": ([[0, 1.0, 1.0]],
                       "edge [0, 1.0, 1.0] endpoints must be integers"),
    "negative id": ([[0, 1, 1.0], [1, -2, 1.0]],
                    "edge [1, -2, 1.0] has a negative vertex id"),
    "self-loop": ([[0, 1, 1.0], [2, 2, 1.0], [-1, 3, 1.0]],
                  "edge [2, 2, 1.0] is a self-loop"),
    "zero weight": ([[0, 1, 0]],
                    "edge (0, 1) weight must be positive and finite, got 0.0"),
    "negative weight": ([[0, 1, 1.0], [1, 2, -0.5]],
                        "edge (1, 2) weight must be positive and finite, "
                        "got -0.5"),
    "nan weight": ([[0, 1, float("nan")]],
                   "edge (0, 1) weight must be a finite number, got nan"),
    "inf weight": ([[0, 1, float("inf")]],
                   "edge (0, 1) weight must be a finite number, got inf"),
    "huge int weight": ([[0, 1, 1.0], [1, 2, 10 ** 400]],
                        f"edge (1, 2) weight must be a finite number, "
                        f"got {10 ** 400}"),
    "bool weight": ([[0, 1, True]],
                    "edge (0, 1) weight must be a finite number, got True"),
    "string weight": ([[0, 1, "1"]],
                      "edge (0, 1) weight must be a finite number, got '1'"),
    "short edge": ([[0, 1, 1.0], [1, 2]], "edge [1, 2] must be [u, v, weight]"),
    "long edge": ([[0, 1, 1.0, 2]], "edge [0, 1, 1.0, 2] must be [u, v, weight]"),
    "edge is a number": ([[0, 1, 1.0], 5], "edge 5 must be [u, v, weight]"),
    "edge is a string": (["011"], "edge '011' must be [u, v, weight]"),
    "edges are a number": (5, "graph edges must be a list of [u, v, weight]"),
}


@pytest.mark.parametrize("edges, message", MALFORMED_EDGE_LISTS.values(),
                         ids=MALFORMED_EDGE_LISTS)
def test_malformed_edges_raise_the_per_edge_error(edges, message):
    with pytest.raises(ValidationError) as exc:
        GraphSpace(edges)
    assert str(exc.value) == message


def test_edge_lists_build_what_edge_tuples_do():
    # Lists (as JSON gives them) and tuples: duplicates and parallel edges,
    # ids in either order, int weights and ints past 2**53 come out the
    # same either way.
    edges = [[0, 1, 2.5], [1, 0, 2.5], [2, 1, 4], [1, 2, 1.5], [3, 2, 1.0],
             [0, 3, 2 ** 60 + 1], [1, 2, 1.5]]
    lists = GraphSpace(edges)
    tuples = GraphSpace(tuple(map(tuple, edges)))
    assert lists.edges == tuples.edges
    assert [type(w) for _, _, w in lists.edges] == [float] * len(lists.edges)
    assert lists.edges == ((0, 1, 2.5), (0, 3, float(2 ** 60 + 1)),
                           (1, 2, 1.5), (1, 2, 4.0), (2, 3, 1.0))
    assert np.array_equal(lists.pairwise(range(4), range(4)),
                          tuples.pairwise(range(4), range(4)))


def test_graph_with_overflowing_paths_is_too_wide_not_disconnected():
    with pytest.raises(ValidationError, match="too wide"):
        GraphSpace([(0, 1, 1e308), (1, 2, 1e308)])
    for edges, n in (([(0, 1, 1e308), (1, 2, 1e308)], 4), ([(0, 1, 1.0)], 3)):
        with pytest.raises(ValidationError, match="not connected"):
            GraphSpace(edges, n)
    assert GraphSpace([(0, 1, 1e308)]).diameter == 1e308


@pytest.mark.parametrize("edges, n", [
    ([(0, 10 ** 400, 1.0)], None),
    ([(0, 2 ** 40, 1.0), (2 ** 40, 0, 2.0)], None),
    ([(0, 1, 1.0)], 2 ** 40),
], ids=("id past numpy's dimensions", "parallel edges to a huge id",
        "huge declared vertex count"))
def test_graph_with_fewer_edges_than_its_vertices_need_is_not_connected(
        edges, n):
    # n vertices need n - 1 distinct edges to be connected; these graphs
    # are refused before an n x n matrix is asked for.
    with pytest.raises(ValidationError) as exc:
        GraphSpace(edges, n)
    assert str(exc.value) == \
        "graph is not connected; shortest-path distances are unbounded"


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


# 256 symbols, the most that one-byte codes hold, the last of them a lone
# surrogate; and 300, past that, from a lone surrogate and non-BMP symbols
SYMBOLS256 = "".join(map(chr, range(0x370, 0x370 + 255))) + "\udfff"
SYMBOLS300 = "\ud800" + "".join(map(chr, range(0x10000, 0x10000 + 299)))


def test_hamming_pairwise_equals_a_literal_count_on_any_alphabet():
    rng = np.random.default_rng(37)
    symbols64 = string.ascii_letters + string.digits + "+/"
    # (alphabet, length, |xs|, |ys|); xs and ys are prefixes of one draw
    for alphabet, length, s, t in (
            ("01", 5, 12, 12), ("ACGT", 5, 12, 12), ("αβ𝔸", 5, 12, 12),
            (symbols64, 20, 30, 40), ("ACGT", 12, 1, 148), ("ACGT", 12, 8, 148),
            ("ACGT", 12, 0, 148), ("ACGT", 12, 8, 0),
            ("A", 7, 4, 5), (SYMBOLS256, 6, 30, 40), (SYMBOLS300, 6, 30, 40),
            ("ACGT", 255, 6, 7), ("01", 256, 6, 7), (SYMBOLS300, 300, 5, 6)):
        hs = HammingSpace(alphabet, length)
        words = [hs.sample_element(rng) for _ in range(max(s, t))]
        xs, ys = words[:s], words[:t]
        m = hs.pairwise(xs, ys)
        assert m.dtype == np.float64 and m.shape == (s, t)
        assert m.tolist() == [
            [float(sum(u != v for u, v in zip(x, y))) for y in ys] for x in xs]


def test_hamming_pairwise_holds_one_mismatch_array_at_a_time():
    # s*t*L bytes of mismatches and the s*t float64 result: a float cast
    # of the mismatches, 8*s*t*L bytes, would not fit.
    s = t = 600
    hs = HammingSpace("ACGT", 20)
    rng = np.random.default_rng(41)
    xs = [hs.sample_element(rng) for _ in range(s)]
    ys = [hs.sample_element(rng) for _ in range(t)]
    tracemalloc.start()
    try:
        hs.pairwise(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= s * t * hs.length + 8 * s * t + 2 ** 20


@pytest.mark.parametrize("length", [255, 256, 300])
@pytest.mark.parametrize("alphabet", ["AB", SYMBOLS256, SYMBOLS300],
                         ids=["2 symbols", "256 symbols", "300 symbols"])
def test_hamming_pairwise_counts_a_mismatch_at_every_position(alphabet, length):
    # Random draws never differ everywhere; these pairs reach the largest
    # count, the length, in the narrowest counter that holds it.
    hs = HammingSpace(alphabet, length)
    a, b = hs.alphabet[0], hs.alphabet[-1]
    xs = [a * length, b * length, (a + b) * (length // 2) + a * (length % 2)]
    ys = [b * length, a * length]
    m = hs.pairwise(xs, ys)
    assert m[0, 0] == float(length)
    assert m.tolist() == [
        [float(sum(u != v for u, v in zip(x, y))) for y in ys] for x in xs]


def test_hamming_pairwise_frees_the_mismatches_before_the_float_result():
    # s*t*L one-byte mismatches and s*t one-byte counts, then the counts
    # and the s*t float64 result: never the mismatches beside the floats.
    s = t = 600
    hs = HammingSpace("ACGT", 20)
    rng = np.random.default_rng(43)
    xs = [hs.sample_element(rng) for _ in range(s)]
    ys = [hs.sample_element(rng) for _ in range(t)]
    tracemalloc.start()
    try:
        hs.pairwise(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= s * t * hs.length + s * t + 2 ** 20


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


def test_box_diameter_is_inf_only_where_floats_overflow():
    rng = np.random.default_rng(61)
    for _ in range(200):
        bounds = [sorted(rng.uniform(-1e150, 1e150, size=2) * rng.random())
                  for _ in range(int(rng.integers(1, 5)))]
        box = EuclideanBoxSpace(bounds)
        expected = box.distance(tuple(lo for lo, _ in box.bounds),
                                tuple(hi for _, hi in box.bounds))
        assert box.diameter.hex() == expected.hex()
    for bounds in ([(0.0, 1e200), (0.0, 1e200)], [(-1e308, 1e308)]):
        assert EuclideanBoxSpace(bounds).diameter == math.inf
        with pytest.raises(ParseError, match="too wide"):
            space_from_json({"kind": "euclidean_box", "bounds": bounds})


@pytest.mark.parametrize("bounds", (
    [(0, 804.064), (0, 477.287), (0, 93.118)],
    [(0.0, 960.647), (0.0, 972.224)],
))
def test_box_diameter_is_the_distance_between_far_corners(bounds):
    # Summing squares from ``**`` with built-in ``sum`` rounds these
    # diameters one ulp away from the corner distance.
    box = EuclideanBoxSpace(bounds)
    low = tuple(lo for lo, _ in box.bounds)
    high = tuple(hi for _, hi in box.bounds)
    assert box.diameter.hex() == box.eccentricity(low).hex()
    assert box.diameter.hex() == box.distance(low, high).hex()


class Word(str):
    pass


def outcome(validate, items):
    """What ``validate`` returns, with each element's type and repr (so
    -0.0 and str subclasses show), or the error it raises."""
    try:
        return [(type(x), repr(x)) for x in validate(items)]
    except ValidationError as exc:
        return type(exc), str(exc)


BULK_CASES = {
    "hamming": (HammingSpace("ACGT", 4), [
        [], ["ACGT", "TTTT", "ACGT"], {"ACGT", "GGGG"}, [Word("ACGT"), "TTTT"],
        ["ACGT", "ACG"], ["ACGT", "ACGX"], ["ACGT", 5, "TTTT"],
        ["ACGT", "ACG", "ACGX"], ["ACGX", "ACG"], [b"ACGT"], ["ACGT", None],
        [bytearray(b"ACGT")], ["ACGT", list("ACGT")], [Word("ACG")],
        [Word("ACGX"), "ACGT"]]),
    # symbols outside the Basic Multilingual Plane, one bad symbol last
    "hamming non-BMP": (HammingSpace("\U0001F600\U0001F601\u00e9", 3), [
        ["\U0001F600\u00e9\U0001F601", "\u00e9\u00e9\u00e9"],
        ["\U0001F601\U0001F601\U0001F601", "\U0001F600\U0001F600\U0001F602"],
        ["\u00e9\u00e9\u00e9", "\U0001F600\U0001F600e"],
        ["\U0001F600\U0001F600"]]),
    "graph": (GraphSpace([(v, v + 1, 1.0) for v in range(4)]), [
        [], [0, 4, 2, 2], {1, 3}, range(5), [True], [0, False],
        [np.int64(1)], [0, np.int64(1)], [-1], [5], [0, 5, -1], [0, "1"],
        [1.0], [0, None], [0, 10**400], [2, 2.0], [3, 1, -1]]),
    "box": (EuclideanBoxSpace([(0.0, 1.0), (-1.0, 1.0)]), [
        [], [(0.5, -0.0), [0, 0], (0.5, -0.0)], {(1.0, 1.0)},
        [(1.0 + 1e-10, -1.0 - 1e-10)], [(0.5,)], ["ab"], [(0.5, 0.5), (2.0, 0.0)],
        [(np.float64(0.25), np.int64(1))], [(True, 0.0)]]),
}


@pytest.mark.parametrize("kind", BULK_CASES)
def test_validate_elements_equals_the_element_loop(kind):
    space, inputs = BULK_CASES[kind]
    for items in inputs:
        expected = outcome(
            lambda xs: [space.validate_element(x) for x in xs], items)
        assert outcome(space.validate_elements, items) == expected, items
        assert outcome(space.validate_elements, (x for x in items)) == expected


def test_graph_pairwise_on_empty_index_lists_keeps_its_shape():
    graph = GraphSpace([(v, v + 1, 1.0) for v in range(4)])
    for xs, ys, shape in (([], [0, 1, 2], (0, 3)), ([3, 4], [], (2, 0)),
                          ([], [], (0, 0))):
        d = graph.pairwise(xs, ys)
        assert d.shape == shape and d.dtype == np.float64
    assert graph.pairwise([4, 0], [1, 1, 3]).tolist() == [[3.0, 3.0, 1.0],
                                                          [1.0, 1.0, 3.0]]
