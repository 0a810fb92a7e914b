"""The injection-based subset distance and its brute-force oracle."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from setmetrics import (ConstantPenalty, DiameterPenalty,
                        DuplicateElementsWarning, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, HammingSpace,
                        Injection, PointSet, SizeLimitError, TablePenalty,
                        ValidationError,
                        brute_force_subset_distance,
                        chi_distance, sequence_subset_distance,
                        subset_distance, symmetric_difference_reduce,
                        validate_injection)
from setmetrics.subset_distance import _injection_cost

from generators import (count_validations, literal_sequence_distance,
                        random_penalty, random_point_set, space_family,
                        unit_interval, unit_square)


def hamming3():
    return HammingSpace("01", 3)


def test_point_set_sorts_and_deduplicates():
    hs = hamming3()
    with pytest.warns(DuplicateElementsWarning):
        ps = PointSet(hs, ["111", "000", "111"])
    assert ps.elements == ("000", "111")
    assert "000" in ps and "010" not in ps
    assert len(ps) == 2


def test_point_set_keeps_the_first_of_equal_elements():
    # 0.0 == -0.0, so the two points are one element; the first given
    # stands for it everywhere the set shows it.
    box = unit_interval()
    for points, dropped in (([(0.0,), (-0.0,)], 1), ([(-0.0,), (0.0,)], 1),
                            ([(-0.0,), (0.0,), (0.0,), (-0.0,)], 3)):
        with pytest.warns(DuplicateElementsWarning,
                          match=f"dropped {dropped} duplicate"):
            ps = PointSet(box, points)
        sign = math.copysign(1.0, points[0][0])
        (x,), (member,) = ps.elements, ps._members
        (listed,), = ps.to_json()
        assert [math.copysign(1.0, v) for v in (x[0], member[0], listed)] \
            == [sign] * 3


def test_point_set_set_algebra():
    hs = hamming3()
    a = PointSet(hs, ["000", "011"])
    b = PointSet(hs, ["011", "111"])
    assert a.intersection(b).elements == ("011",)
    assert a.difference(b).elements == ("000",)
    assert symmetric_difference_reduce(a, b) == (
        PointSet(hs, ["000"]), PointSet(hs, ["111"]))
    assert symmetric_difference_reduce(a, a) == (
        PointSet(hs, []), PointSet(hs, []))


def test_disjoint_set_algebra_returns_the_empty_set_and_self():
    for space, xs, ys in ((hamming3(), ["000", "011"], ["111"]),
                          (GraphSpace([(0, 1, 1.0), (1, 2, 1.0)]), [0], [1, 2]),
                          (unit_square(), [(0.0, 0.5)], [(1.0, 0.5)]),
                          (hamming3(), [], ["111"])):
        a, b = PointSet(space, xs), PointSet(space, ys)
        assert a.difference(b) is a and b.difference(a) is b
        for common in (a.intersection(b), b.intersection(a)):
            assert common == PointSet(space, []) and not common
        assert symmetric_difference_reduce(a, b) == (a, b)


def test_point_set_rejects_cross_space_operations():
    a = PointSet(hamming3(), ["000"])
    b = PointSet(HammingSpace("01", 4), ["0000"])
    with pytest.raises(ValidationError):
        a.intersection(b)
    with pytest.raises(ValidationError):
        a.difference(b)


def test_chi_cost_identity_is_zero():
    hs = hamming3()
    ps = PointSet(hs, ["010"])
    pen = ConstantPenalty(hs, 3.0)
    assert chi_distance(hs, pen, ps, ps, {"010": "010"}) == 0.0


def test_chi_cost_charges_matches_and_leftovers():
    hs = HammingSpace("01", 2)
    pen = ConstantPenalty(hs, 2.0)
    a = PointSet(hs, ["00"])
    b = PointSet(hs, ["01", "11"])
    # one substitution plus one unmatched word
    assert chi_distance(hs, pen, a, b, {"00": "01"}) == 3.0
    assert chi_distance(hs, pen, a, b, {"00": "11"}) == 4.0


def test_chi_cost_of_empty_source_sums_penalties():
    hs = HammingSpace("01", 2)
    pen = ConstantPenalty(hs, 2.0)
    a = PointSet(hs, [])
    b = PointSet(hs, ["01", "11"])
    assert chi_distance(hs, pen, a, b, {}) == 4.0


def test_chi_cost_rejects_bad_injections():
    hs = hamming3()
    pen = ConstantPenalty(hs, 3.0)
    a = PointSet(hs, ["000", "001"])
    b = PointSet(hs, ["011", "111"])
    with pytest.raises(ValidationError):  # collapses two sources
        chi_distance(hs, pen, a, b, {"000": "011", "001": "011"})
    with pytest.raises(ValidationError):  # misses a source
        chi_distance(hs, pen, a, b, {"000": "011"})
    with pytest.raises(ValidationError):  # target outside b
        chi_distance(hs, pen, a, b, {"000": "010", "001": "011"})
    with pytest.raises(ValidationError):  # source outside a
        chi_distance(hs, pen, a, b, {"010": "011", "001": "111"})
    with pytest.raises(ValidationError):  # wrong orientation
        chi_distance(hs, pen, b, PointSet(hs, ["000"]), {"011": "000"})


def _literal_injection_cost(distances, penalties, matched) -> float:
    total = 0.0
    for d in distances:
        total += d
    for j in range(len(penalties)):
        if j not in set(matched):
            total += penalties[j]
    return total


# Signed reals from 1e-8 to 1e8, so that adding them in another order
# almost always rounds differently.
_SPREAD_REALS = st.builds(lambda sign, exponent: sign * 10.0 ** exponent,
                          st.sampled_from((1.0, -1.0)), st.floats(-8.0, 8.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_SPREAD_REALS, max_size=12), st.data())
def test_injection_cost_adds_in_its_documented_order(penalties, data):
    # value == chi_distance(witness) calls _injection_cost on both sides,
    # so only a literal loop can catch a change in the order of the adds.
    cols = data.draw(st.permutations(range(len(penalties))))
    cols = cols[:data.draw(st.integers(0, len(penalties)))]
    distances = data.draw(st.lists(_SPREAD_REALS, min_size=len(cols),
                                   max_size=len(cols)))
    expected = _literal_injection_cost(distances, penalties, cols).hex()
    for matched in (cols, tuple(cols), set(cols), sorted(cols)):
        assert _injection_cost(distances, penalties, matched).hex() == expected


def test_validate_injection_rejects_non_pairs_and_repeated_sources():
    hs = hamming3()
    a = PointSet(hs, ["000", "001"])
    b = PointSet(hs, ["011", "111"])
    with pytest.raises(ValidationError, match="is not a pair"):
        validate_injection(a, b, [("000", "011", "111"), ("001", "111")])
    with pytest.raises(ValidationError, match="maps some source twice"):
        validate_injection(a, b, [("000", "011"), ("000", "111")])
    # entries that are not pairs: values that are not iterable, and a
    # string, which is not read as the pair of its characters
    for entry in (5, None):
        with pytest.raises(ValidationError, match=f"entry {entry} is not a pair"):
            validate_injection(a, b, [entry])
    bits = HammingSpace("01", 1)
    zero, one = PointSet(bits, ["0"]), PointSet(bits, ["1"])
    with pytest.raises(ValidationError, match="entry '01' is not a pair"):
        validate_injection(zero, one, ["01"])
    with pytest.raises(ValidationError, match="is not a pair"):
        chi_distance(bits, ConstantPenalty(bits, 1.0), zero, one, [5])


def test_validate_injection_accepts_pair_lists_and_injection_records():
    hs = hamming3()
    a = PointSet(hs, ["000"])
    b = PointSet(hs, ["011", "111"])
    pairs = validate_injection(a, b, [("000", "011")])
    assert pairs == (("000", "011"),)
    again = validate_injection(a, b, Injection(pairs, 5.0))
    assert again == pairs


def test_distance_to_self_is_zero():
    hs = hamming3()
    pen = ConstantPenalty(hs, 3.0)
    ps = PointSet(hs, ["000", "101", "111"])
    assert subset_distance(hs, pen, ps, ps).value == 0.0


def test_singletons_reduce_to_ground_distance():
    hs = hamming3()
    pen = ConstantPenalty(hs, 3.0)
    a = PointSet(hs, ["000"])
    b = PointSet(hs, ["011"])
    assert subset_distance(hs, pen, a, b).value == 2.0


def test_worked_hamming_example():
    hs = hamming3()
    pen = ConstantPenalty(hs, 3.0)
    a = PointSet(hs, ["000"])
    b = PointSet(hs, ["011", "111"])
    result = subset_distance(hs, pen, a, b)
    # two injections exist: match 011 (2+3) or match 111 (3+3)
    assert result.value == 5.0
    assert result.witness.pairs == (("000", "011"),)
    oracle = brute_force_subset_distance(hs, pen, a, b)
    assert oracle.value == 5.0


def test_unit_interval_worked_values():
    ui = unit_interval()
    ecc = EccentricityPenalty(ui)
    near = PointSet(ui, [(0.0,), (0.25,)])
    mid = PointSet(ui, [(0.0,), (0.5,)])
    origin = PointSet(ui, [(0.0,)])
    assert subset_distance(ui, ecc, near, mid).value == pytest.approx(
        0.25, abs=1e-12)
    assert subset_distance(ui, ecc, near, origin).value == pytest.approx(
        0.75, abs=1e-12)


def test_empty_set_distances():
    hs = HammingSpace("01", 2)
    pen = ConstantPenalty(hs, 2.0)
    empty = PointSet(hs, [])
    b = PointSet(hs, ["01", "11"])
    assert subset_distance(hs, pen, empty, b).value == 4.0
    assert subset_distance(hs, pen, b, empty).value == 4.0
    assert subset_distance(hs, pen, empty, empty).value == 0.0
    assert brute_force_subset_distance(hs, pen, empty, b).value == 4.0
    assert brute_force_subset_distance(hs, pen, empty, empty).value == 0.0


def test_agrees_with_oracle_across_spaces():
    rng = np.random.default_rng(59)
    for space in space_family(rng):
        integral = space.diameter == int(space.diameter) and \
            space.kind == "hamming"
        for _ in range(120):
            pen = random_penalty(space, rng)
            a = random_point_set(space, rng, max_size=5)
            b = random_point_set(space, rng, max_size=5)
            got = subset_distance(space, pen, a, b).value
            want = brute_force_subset_distance(space, pen, a, b).value
            if integral and isinstance(pen, DiameterPenalty):
                assert got == want
            else:
                assert got == pytest.approx(want, abs=1e-9)


def test_exact_symmetry():
    rng = np.random.default_rng(61)
    for space in space_family(rng):
        for _ in range(60):
            pen = random_penalty(space, rng)
            a = random_point_set(space, rng)
            b = random_point_set(space, rng)
            assert subset_distance(space, pen, a, b).value == \
                subset_distance(space, pen, b, a).value


def test_reduction_by_shared_elements_preserves_value():
    # check on the oracle, which never strips shared elements itself
    rng = np.random.default_rng(67)
    for space in space_family(rng):
        for _ in range(60):
            pen = random_penalty(space, rng)
            common = random_point_set(space, rng, max_size=3, min_size=1)
            a_only = random_point_set(space, rng, max_size=2)
            b_only = random_point_set(space, rng, max_size=2)
            a = PointSet(space, set(common) | set(a_only))
            b = PointSet(space, set(common) | set(b_only))
            whole = brute_force_subset_distance(space, pen, a, b).value
            stripped = brute_force_subset_distance(
                space, pen, *symmetric_difference_reduce(a, b)).value
            assert whole == pytest.approx(stripped, abs=1e-9)
            assert subset_distance(space, pen, a, b).value == pytest.approx(
                whole, abs=1e-9)


def test_disjoint_sets_are_their_own_reduced_sets():
    rng = np.random.default_rng(73)
    for space in space_family(rng):
        for _ in range(40):
            pen = random_penalty(space, rng)
            a = random_point_set(space, rng, max_size=5)
            b = random_point_set(space, rng, max_size=5).difference(a)
            result = subset_distance(space, pen, a, b)
            assert result.reduced_a is a and result.reduced_b is b
            assert len(result.common) == 0 and result.common.space == space
            assert result.value == pytest.approx(
                brute_force_subset_distance(space, pen, a, b).value, abs=1e-9)


def test_sets_that_share_elements_reduce_to_their_differences():
    rng = np.random.default_rng(79)
    for space in space_family(rng):
        for _ in range(40):
            pen = random_penalty(space, rng)
            a = random_point_set(space, rng, max_size=5, min_size=1)
            b = PointSet(space, {*random_point_set(space, rng, max_size=4),
                                 a.elements[0]})
            result = subset_distance(space, pen, a, b)
            assert (result.reduced_a, result.reduced_b) \
                == symmetric_difference_reduce(a, b)
            assert result.common == a.intersection(b) and len(result.common)


def test_growing_the_far_side_never_shrinks_the_distance():
    # monotone only while the kept subset still dominates a in size
    rng = np.random.default_rng(71)
    for space in space_family(rng):
        for _ in range(80):
            pen = random_penalty(space, rng)
            a = random_point_set(space, rng, max_size=3)
            b = random_point_set(space, rng, max_size=6, min_size=4)
            if len(b) < len(a):
                continue
            keep = int(rng.integers(len(a), len(b) + 1))
            idx = rng.permutation(len(b))[:keep]
            sub = PointSet(space, [b.elements[i] for i in idx])
            d_sub = subset_distance(space, pen, a, sub).value
            d_full = subset_distance(space, pen, a, b).value
            assert d_sub <= d_full + 1e-9
            extra = space.sample_element(rng)
            grown = PointSet(space, set(b) | {extra})
            assert d_full <= subset_distance(space, pen, a, grown).value + 1e-9


def test_witness_reevaluates_to_the_reported_value():
    rng = np.random.default_rng(73)
    for space in space_family(rng):
        for _ in range(40):
            pen = random_penalty(space, rng)
            a = random_point_set(space, rng)
            b = random_point_set(space, rng)
            result = subset_distance(space, pen, a, b)
            src, tgt = (a, b) if result.witness_from_a else (b, a)
            full = result.full_witness
            assert chi_distance(space, pen, src, tgt, full) == result.value
            # shared elements are fixed pointwise
            fixed = {x: y for x, y in full.pairs}
            for x in result.common:
                assert fixed[x] == x


def test_witnesses_longer_than_a_block_reevaluate_term_for_term():
    rng = np.random.default_rng(89)
    graph = GraphSpace([(v, (v * 7 + 3) % 300, 1.0 + v % 4) for v in range(300)]
                       + [(v, v + 1, 2.5) for v in range(299)])
    box = EuclideanBoxSpace([(0.0, 1.0)] * 3)
    for space in (HammingSpace("ACGT", 10), box, graph):
        pen = EccentricityPenalty(space)
        a = distinct_words(space, rng, 130)
        b = distinct_words(space, rng, 150)
        result = subset_distance(space, pen, a, b)
        src, tgt = (a, b) if result.witness_from_a else (b, a)
        pairs = result.full_witness.pairs
        assert len(pairs) > 128
        # the scalar calls, one term at a time, in the canonical order
        matched = {y for _, y in pairs}
        expected = 0.0
        for x, y in sorted(pairs):
            expected += space.distance(x, y)
        for y in tgt:
            if y not in matched:
                expected += pen.value(y)
        assert chi_distance(space, pen, src, tgt, pairs) == expected
        assert expected == result.value


def test_different_size_distance_stays_above_smallest_penalty():
    # with |a| != |b| someone is always unmatched, so one penalty is paid
    rng = np.random.default_rng(79)
    for space in space_family(rng):
        pen = random_penalty(space, rng)
        for _ in range(60):
            a = random_point_set(space, rng, max_size=2)
            b = random_point_set(space, rng, max_size=5, min_size=3)
            if len(a) == len(b):
                continue
            big, small = (a, b) if len(a) > len(b) else (b, a)
            floor = min(pen.value(y) for y in big.difference(small))
            assert subset_distance(space, pen, a, b).value >= floor - 1e-9


def test_brute_force_size_cap():
    hs = HammingSpace("01", 4)
    pen = ConstantPenalty(hs, 4.0)
    big = PointSet(hs, [format(i, "04b") for i in range(8)])
    small = PointSet(hs, ["0000"])
    with pytest.raises(SizeLimitError):
        brute_force_subset_distance(hs, pen, small, big)


def test_space_mismatch_is_rejected():
    hs = hamming3()
    other = HammingSpace("01", 4)
    pen = ConstantPenalty(hs, 3.0)
    with pytest.raises(ValidationError):
        subset_distance(hs, pen, PointSet(hs, ["000"]), PointSet(other, ["0000"]))
    with pytest.raises(ValidationError):
        subset_distance(other, pen, PointSet(other, ["0000"]),
                        PointSet(other, ["1111"]))


def test_sequence_distance_worked_examples():
    assert sequence_subset_distance("01", 3, ["000"], ["000", "111"]) == 3.0
    assert sequence_subset_distance("01", 2, ["00", "11"], ["01", "10"]) == 2.0
    assert sequence_subset_distance("01", 3, ["000", "101"], ["000", "101"]) == 0.0
    assert sequence_subset_distance("01", 3, ["000"], ["011", "111"]) == 5.0


def test_sequence_distance_matches_literal_reference():
    rng = np.random.default_rng(83)
    alphabet = "ACGT"
    for _ in range(150):
        length = int(rng.integers(2, 5))
        hs = HammingSpace(alphabet, length)
        a = {hs.sample_element(rng) for _ in range(rng.integers(0, 5))}
        b = {hs.sample_element(rng) for _ in range(rng.integers(0, 5))}
        if not a and not b:
            continue
        got = sequence_subset_distance(alphabet, length, a, b)
        assert got == literal_sequence_distance(a, b, length)


def test_prebuilt_point_sets_are_not_validated_again(monkeypatch):
    rng = np.random.default_rng(61)
    path = GraphSpace([(v, v + 1, 1.0) for v in range(11)])
    dna = HammingSpace("ACGT", 8)
    box = unit_square()
    cases = [(path, PointSet(path, range(5)), PointSet(path, range(6, 12)))]
    cases += [(space, random_point_set(space, rng, 5, 5),
               random_point_set(space, rng, 6, 6)) for space in (dna, box)]
    for space, a, b in cases:
        penalty = EccentricityPenalty(space)
        calls = count_validations(monkeypatch, space)
        subset_distance(space, penalty, a, b)
        assert len(calls) <= len(a) + len(b)
        del calls[:]
        brute_force_subset_distance(space, penalty, a, b)
        assert len(calls) <= len(a) + len(b)


def test_prebuilt_point_sets_make_no_validation_calls(monkeypatch):
    rng = np.random.default_rng(67)
    path = GraphSpace([(v, v + 1, 1.0) for v in range(11)])
    dna = HammingSpace("ACGT", 8)
    for space in (path, dna, unit_square()):
        a = random_point_set(space, rng, 5, 2)
        b = random_point_set(space, rng, 6, 6)
        table = TablePenalty(space, [(y, 2 * space.diameter)
                                     for y in a.elements + b.elements])
        for penalty in (EccentricityPenalty(space), DiameterPenalty(space),
                        ConstantPenalty(space, space.diameter), table):
            calls = count_validations(monkeypatch, space)
            subset_distance(space, penalty, a, b)
            subset_distance(space, penalty, b, a)
            brute_force_subset_distance(space, penalty, a, b)
            assert calls == []


def distinct_words(space, rng, n):
    words = set()
    while len(words) < n:
        words.add(space.sample_element(rng))
    return PointSet(space, words)


def test_lopsided_hamming_matches_rectangular_reference_within_budget():
    rng = np.random.default_rng(71)
    dna = HammingSpace("ACGT", 12)
    pen = ConstantPenalty(dna, 12.0)
    small = distinct_words(dna, rng, 5)
    big = distinct_words(dna, rng, 1000)
    start = time.perf_counter()
    result = subset_distance(dna, pen, small, big)
    elapsed = time.perf_counter() - start
    # reference: scipy on the unreduced 5 x 1000 matrix of d(x, y) - M(y),
    # with the Hamming distances counted independently of the package
    codes_a = np.array([list(w) for w in small])
    codes_b = np.array([list(w) for w in big])
    d = (codes_a[:, None, :] != codes_b[None, :, :]).sum(axis=2) - 12.0
    rows, cols = linear_sum_assignment(d)
    assert result.value == 12.0 * len(big) + float(d[rows, cols].sum())
    assert elapsed < 1.0


def test_lopsided_symmetry_is_bit_exact():
    rng = np.random.default_rng(73)
    for space in (unit_square(), HammingSpace("ACGT", 6)):
        pen = EccentricityPenalty(space)
        small = random_point_set(space, rng, 3, 3)
        big = random_point_set(space, rng, 200, 200)
        forward = subset_distance(space, pen, small, big)
        backward = subset_distance(space, pen, big, small)
        assert forward.value == backward.value
        assert forward.witness == backward.witness


def test_empty_smaller_side_pays_every_penalty():
    rng = np.random.default_rng(79)
    for space in (unit_square(), HammingSpace("ACGT", 6)):
        pen = EccentricityPenalty(space)
        empty = PointSet(space, [])
        big = random_point_set(space, rng, 300, 300)
        expected = 0.0
        for y in big:
            expected += pen.value(y)
        for a, b in ((empty, big), (big, empty)):
            result = subset_distance(space, pen, a, b)
            assert result.value == expected
            assert result.witness.pairs == ()
