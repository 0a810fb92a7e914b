"""Penalty functions and their admissibility checks."""

import math

import numpy as np
import pytest

from setmetrics import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, HammingSpace,
                        ParseError, TablePenalty, ValidationError,
                        parse_penalty_spec, penalty_from_json,
                        validate_penalty)

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
    unary = HammingSpace("a", 2)  # diameter 0: no admissible penalty exists
    with pytest.raises(ValidationError):
        DiameterPenalty(unary)
    with pytest.raises(ValidationError):
        EccentricityPenalty(unary)


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
