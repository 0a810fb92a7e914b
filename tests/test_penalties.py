"""Penalty functions and their admissibility checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setmetrics import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, HammingSpace,
                        ParseError, PenaltyViolation, REAL_TOL, TablePenalty,
                        ValidationError, parse_penalty_spec, penalty_from_json,
                        sequence_subset_distance, validate_penalty)
from setmetrics.assignment import _finite_spread
from setmetrics.penalties import _admissibility_report

from generators import count_validations, space_family, unit_interval


def test_constant_penalty_at_or_above_diameter():
    hs = HammingSpace("01", 3)
    assert ConstantPenalty(hs, 3.0).value("000") == 3.0
    assert ConstantPenalty(hs, 10.0).value("111") == 10.0
    with pytest.raises(ValidationError):
        ConstantPenalty(hs, 2.5)
    with pytest.raises(ValidationError):
        ConstantPenalty(hs, float("inf"))


def test_diameter_penalty_value():
    sq = EuclideanBoxSpace([(0.0, 1.0), (0.0, 1.0)])
    assert DiameterPenalty(sq).value((0.3, 0.3)) == pytest.approx(math.sqrt(2))


def test_eccentricity_on_unit_interval():
    ui = unit_interval()
    ecc = EccentricityPenalty(ui)
    assert ecc.value((0.25,)) == pytest.approx(0.75)
    assert ecc.value((0.5,)) == pytest.approx(0.5)
    assert ecc.value((1.0,)) == pytest.approx(1.0)


def test_penalties_reject_single_element_spaces():
    lonely = GraphSpace([(0, 1, 1.0)])  # fine: two vertices
    DiameterPenalty(lonely)
    unary = HammingSpace("a", 2)  # diameter 0: admits only constants > 0
    with pytest.raises(ValidationError):
        DiameterPenalty(unary)
    with pytest.raises(ValidationError):
        EccentricityPenalty(unary)


def test_positive_constant_on_a_one_point_space():
    unary = HammingSpace("A", 4)
    assert ConstantPenalty(unary, 4.0).value("AAAA") == 4.0
    assert sequence_subset_distance("A", 4, ["AAAA"], []) == 4.0
    for penalty in (DiameterPenalty, EccentricityPenalty):
        with pytest.raises(ValidationError, match="at least two elements"):
            penalty(unary)
    with pytest.raises(ValidationError, match="at least two elements"):
        TablePenalty(unary, {"AAAA": 4.0})


def test_constant_zero_is_refused_on_every_space():
    # With M = 0 a nonempty set lies at distance 0 from the empty set.
    narrow = EuclideanBoxSpace([(0.0, 1e-12)])
    for space in (narrow, HammingSpace("A", 4)):
        with pytest.raises(ValidationError, match="positive"):
            ConstantPenalty(space, 0.0)
    with pytest.raises(ValidationError, match="positive"):
        ConstantPenalty(narrow, -1e-10)
    assert ConstantPenalty(narrow, 1e-12).constant == 1e-12


def test_builtin_penalties_are_admissible_on_samples():
    rng = np.random.default_rng(31)
    for space in space_family(rng):
        sample = [space.sample_element(rng) for _ in range(12)]
        for penalty in (DiameterPenalty(space), EccentricityPenalty(space),
                        ConstantPenalty(space, space.diameter + 1.0)):
            report = validate_penalty(space, penalty, sample)
            assert report.ok, report.violations


def test_validate_penalty_catches_undersized_table():
    ui = unit_interval()
    # M(y) = y/2 cannot dominate the distance reaching across the interval
    table = TablePenalty(ui, [((0.0,), 0.0), ((1.0,), 0.5)])
    report = validate_penalty(ui, table, [(0.0,), (1.0,)])
    assert not report.ok
    checks = {v.check for v in report.violations}
    assert "distance_bound" in checks
    assert report.min_penalty == 0.0


def test_validate_penalty_catches_growth_violation():
    ui = unit_interval()
    # bounds every distance but jumps too fast between neighbours
    table = TablePenalty(ui, [((0.0,), 1.0), ((0.1,), 3.0)])
    report = validate_penalty(ui, table, [(0.0,), (0.1,)])
    assert any(v.check == "growth_bound" for v in report.violations)


def test_growth_violation_describes_both_sides():
    ui = unit_interval()
    table = TablePenalty(ui, [((0.0,), 1.0), ((0.5,), 3.0)])
    report = validate_penalty(ui, table, [(0.0,), (0.5,)])
    (violation,) = [v for v in report.violations if v.check == "growth_bound"]
    assert violation.describe() == (
        "M((0.5,)) = 3.0 exceeds d((0.5,), (0.0,)) + M((0.0,)) = 1.5")


def literal_admissibility(space, table, elements):
    """Both inequalities over every ordered pair, one pair at a time."""
    violations = []
    for x in elements:
        for other in elements:
            d, mx, mo = space.distance(x, other), table[x], table[other]
            if d > mx + REAL_TOL:
                violations.append(PenaltyViolation(
                    "distance_bound", x, other, d, mx, mo))
            if mx > d + mo + REAL_TOL:
                violations.append(PenaltyViolation(
                    "growth_bound", x, other, d, mx, mo))
    return tuple(violations)


#: Penalty values around every threshold of a small graph, and near the
#: largest float, where d(x, z) + M(z) overflows to inf.
_TABLE_VALUES = st.one_of(
    st.floats(0.0, 12.0),
    st.sampled_from([0.0, 1.0, 3.0, 3.0 + REAL_TOL, 3.0 + 2 * REAL_TOL,
                      8e307, 1e308, math.ulp(0.0), 1.7976931348623157e308]))


@st.composite
def tables_on_graphs(draw):
    """A path graph, its weights at times near the largest float, and a
    table over its vertices in a random order."""
    n = draw(st.integers(2, 6))
    weights = draw(st.lists(st.sampled_from([1.0, 2.5, 4e307]),
                            min_size=n - 1, max_size=n - 1))
    if sum(weights) > 1.7e308:  # keep every path length finite
        weights = [1.0] * (n - 1)
    space = GraphSpace([(k, k + 1, w) for k, w in enumerate(weights)])
    values = draw(st.lists(_TABLE_VALUES, min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return space, dict(zip(range(n), values)), list(order)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tables_on_graphs())
def test_admissibility_report_equals_a_literal_double_loop(case):
    space, table, elements = case
    penalty = TablePenalty(space, table)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _admissibility_report(space, penalty, elements)
    assert report.violations == literal_admissibility(space, table, elements)
    assert report.min_penalty == min(table.values())
    assert report.sample_size == len(elements)


#: Box bounds on the unit scale, or up to the largest float, where a
#: box's diameter, or a cost's spread, overflows to inf.
_BOUNDS = (st.floats(-10.0, 10.0),
           st.one_of(st.floats(-1e308, 1e308),
                     st.sampled_from([-1.7976931348623157e308, -1e308, 0.0,
                                      1e-300, 1e308, 1.7976931348623157e308])))


@st.composite
def spaces_with_elements(draw):
    """A space of any kind and up to 8 distinct canonical elements of it:
    box points drawn up to REAL_TOL past the bounds, which validation
    clamps to them."""
    kind = draw(st.sampled_from(["hamming", "box", "graph"]))
    if kind == "hamming":
        alphabet = draw(st.sampled_from(["A", "01", "ACGT"]))
        space = HammingSpace(alphabet, draw(st.integers(1, 6)))
        word = st.lists(st.sampled_from(alphabet), min_size=space.length,
                        max_size=space.length).map("".join)
        items = draw(st.lists(word, min_size=1, max_size=8))
    elif kind == "box":
        scale = draw(st.sampled_from(_BOUNDS))
        bounds = [sorted(draw(st.lists(scale, min_size=2, max_size=2)))
                  for _ in range(draw(st.integers(1, 3)))]
        space = EuclideanBoxSpace(bounds)
        items = draw(st.lists(
            st.tuples(*(st.floats(lo - REAL_TOL, hi + REAL_TOL)
                        for lo, hi in bounds)), min_size=1, max_size=8))
    else:
        n = draw(st.integers(2, 6))
        weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, 4e307]),
                                min_size=2 * n, max_size=2 * n))
        if sum(weights) > 1.7e308:  # keep every path length finite
            weights = [1.0] * (2 * n)
        # a path through every vertex, and n chords
        ends = draw(st.lists(st.integers(0, n - 1), min_size=2 * n,
                             max_size=2 * n))
        edges = [(k, k + 1, weights[k]) for k in range(n - 1)]
        edges += [(ends[k], ends[n + k], weights[n + k]) for k in range(n)
                  if ends[k] != ends[n + k]]
        space = GraphSpace(edges, n)
        items = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    return space, sorted(set(space.validate_elements(items)))


@st.composite
def builtin_penalties(draw, space, elements):
    """A built-in penalty on ``space``; a table covers ``elements``."""
    variants = ["table", "constant"] if space.diameter > 0 else ["constant"]
    if space.diameter > 0:
        variants += ["diameter", "eccentricity"]
    variant = draw(st.sampled_from(variants))
    if variant == "constant":
        assume(space.diameter < math.inf)
        return ConstantPenalty(space, draw(st.floats(
            max(space.diameter, math.ulp(0.0)), 1.7976931348623157e308)))
    if variant == "table":
        return TablePenalty(space, [(x, draw(_TABLE_VALUES)) for x in elements])
    return {"diameter": DiameterPenalty,
            "eccentricity": EccentricityPenalty}[variant](space)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_cost_lies_within_the_bound_its_penalty_records(data):
    # The premises of the bound that spares subset distances their spread
    # test: 0 <= d <= diameter and 0 <= M <= the recorded max M, bit for
    # bit, so every d - M lies in [-max M, diameter] and a finite
    # diameter + max M bounds the spread of every cost matrix.
    space, elements = data.draw(spaces_with_elements())
    penalty = data.draw(builtin_penalties(space, elements))
    largest = {"constant": lambda: penalty.constant,
               "table": lambda: max(penalty.table.values())}.get(
                   penalty.variant, lambda: space.diameter)()
    with np.errstate(over="ignore", invalid="ignore"):
        d = space.pairwise(elements, elements)
        m = penalty.values(elements)
        costs = d - m
    assert 0.0 <= d.min() and d.max() <= space.diameter
    assert 0.0 <= m.min() and m.max() <= largest
    assert penalty._bounded_spread == math.isfinite(space.diameter + largest)
    if penalty._bounded_spread:
        assert -largest <= costs.min()
        assert costs.max() <= space.diameter
        assert _finite_spread(costs)


def test_validate_penalty_rejects_a_penalty_of_another_space():
    with pytest.raises(ValidationError, match="different space"):
        validate_penalty(unit_interval(), DiameterPenalty(HammingSpace("01", 2)),
                         [(0.0,)])


def test_validate_penalty_needs_a_sample():
    ui = unit_interval()
    with pytest.raises(ValidationError):
        validate_penalty(ui, DiameterPenalty(ui), [])


def test_validate_penalty_validates_each_sample_element_at_most_twice(
        monkeypatch):
    rng = np.random.default_rng(43)
    for space in space_family(rng):
        sample = list({space.sample_element(rng) for _ in range(8)})
        for penalty in (EccentricityPenalty(space), DiameterPenalty(space)):
            calls = count_validations(monkeypatch, space)
            assert validate_penalty(space, penalty, sample).ok
            assert len(calls) <= 2 * len(sample)


def test_table_penalty_lookup_and_domain():
    hs = HammingSpace("01", 2)
    table = TablePenalty(hs, [("00", 2.0), ("11", 2.5)])
    assert table.value("00") == 2.0
    assert set(table.domain()) == {"00", "11"}
    with pytest.raises(ValidationError):
        table.value("01")


def test_the_values_a_bound_is_recorded_from_are_read_only():
    # The recorded bound on the costs' spread stays true of the penalty.
    hs = HammingSpace("01", 2)
    table = TablePenalty(hs, [("00", 2.0), ("11", 2.5)])
    with pytest.raises(TypeError):
        table.table["00"] = math.inf
    with pytest.raises(AttributeError):
        table.table = {"00": math.inf}
    constant = ConstantPenalty(hs, 2.0)
    with pytest.raises(AttributeError):
        constant.constant = math.inf
    assert table.table == {"00": 2.0, "11": 2.5}
    assert constant.constant == 2.0
    assert table.values(["00"]).tolist() == constant.values(["00"]).tolist()


def penalty_variants(space, rng, elements):
    """One penalty of each variant; the table covers ``elements``."""
    return [ConstantPenalty(space, space.diameter * float(rng.uniform(1.0, 2.0))),
            DiameterPenalty(space), EccentricityPenalty(space),
            TablePenalty(space, [(x, float(rng.uniform(0.0, 5.0)))
                                 for x in elements])]


def test_values_equal_value_bit_for_bit_on_every_variant():
    rng = np.random.default_rng(59)
    spaces = space_family(rng) + [
        HammingSpace("αβγ𝔸", 6),
        *(EuclideanBoxSpace([(-1.0, 2.0)] * d) for d in (1, 3, 9, 20)),
        GraphSpace([(v, v + 1, 0.5 + v) for v in range(9)]),
    ]
    for space in spaces:
        ys = sorted({space.sample_element(rng) for _ in range(9)})
        for penalty in penalty_variants(space, rng, ys):
            m = penalty.values(ys)
            assert m.dtype == np.float64 and m.shape == (len(ys),)
            assert [v.hex() for v in m.tolist()] == [
                penalty.value(y).hex() for y in ys]
            assert [type(penalty.value(y)) for y in ys] == [float] * len(ys)
            assert penalty.values([]).shape == (0,)


def test_table_values_name_the_element_with_no_entry():
    hs = HammingSpace("01", 2)
    table = TablePenalty(hs, [("00", 2.0), ("11", 2.5)])
    assert table.values(["11", "00"]).tolist() == [2.5, 2.0]
    with pytest.raises(ValidationError, match="no table entry for element '01'"):
        table.values(["00", "01"])
    with pytest.raises(ValidationError, match="no table entry for element '10'"):
        table.value("10")


def test_table_penalty_structural_errors():
    hs = HammingSpace("01", 2)
    with pytest.raises(ValidationError):
        TablePenalty(hs, [("00", 2.0), ("00", 3.0)])  # conflicting entries
    with pytest.raises(ValidationError):
        TablePenalty(hs, [("banana", 2.0)])
    with pytest.raises(ValidationError):
        TablePenalty(hs, [("00", -1.0)])
    with pytest.raises(ValidationError):
        TablePenalty(hs, [])


def test_half_bound_for_admissible_penalties():
    # an admissible penalty can dip below any single value only so far:
    # M(y) >= M(x)/2 for some pair would fail otherwise
    rng = np.random.default_rng(43)
    for space in space_family(rng):
        sample = [space.sample_element(rng) for _ in range(15)]
        for penalty in (DiameterPenalty(space), EccentricityPenalty(space)):
            values = [penalty.value(x) for x in sample]
            low = min(values)
            assert all(low >= v / 2 - 1e-9 for v in values)


def test_penalty_json_round_trip():
    hs = HammingSpace("01", 2)
    for penalty in (ConstantPenalty(hs, 2.0), DiameterPenalty(hs),
                    EccentricityPenalty(hs),
                    TablePenalty(hs, [("00", 2.0), ("01", 2.0)])):
        again = penalty_from_json(hs, penalty.to_json())
        assert again == penalty


def test_penalty_from_json_structural_errors_are_parse_errors():
    hs = HammingSpace("01", 2)
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"variant": "quadratic"})
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"no_variant": True})
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"variant": "constant"})
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"variant": "constant", "value": "big"})
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"variant": "table", "entries": "nope"})
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"variant": "table",
                               "entries": [["banana", 1.0]]})
    with pytest.raises(ParseError):
        penalty_from_json(hs, {"variant": "diameter", "value": 3})


def test_table_descriptor_needs_entries():
    with pytest.raises(ParseError, match="needs 'entries'"):
        penalty_from_json(HammingSpace("01", 2), {"variant": "table"})


def test_penalty_from_json_keeps_admissibility_as_validation_error():
    hs = HammingSpace("01", 3)
    with pytest.raises(ValidationError) as exc:
        penalty_from_json(hs, {"variant": "constant", "value": 1.0})
    assert not isinstance(exc.value, ParseError)


def test_parse_penalty_spec():
    hs = HammingSpace("01", 3)
    assert parse_penalty_spec(hs, "diameter") == DiameterPenalty(hs)
    assert parse_penalty_spec(hs, "eccentricity") == EccentricityPenalty(hs)
    assert parse_penalty_spec(hs, "constant:4.5") == ConstantPenalty(hs, 4.5)
    with pytest.raises(ParseError):
        parse_penalty_spec(hs, "constant:abc")
    with pytest.raises(ParseError):
        parse_penalty_spec(hs, "linear")
    with pytest.raises(ValidationError):
        parse_penalty_spec(hs, "constant:0.5")


def test_parse_penalty_spec_agrees_with_penalty_from_json():
    hs = HammingSpace("01", 3)
    for spec, descriptor in (
            ("diameter", {"variant": "diameter"}),
            ("eccentricity", {"variant": "eccentricity"}),
            ("constant:4.5", {"variant": "constant", "value": 4.5})):
        assert parse_penalty_spec(hs, spec) == penalty_from_json(hs, descriptor)
    for value in ("nan", "inf", "-inf", "1e400"):
        with pytest.raises(ParseError, match="finite"):
            parse_penalty_spec(hs, f"constant:{value}")
