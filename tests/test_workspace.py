"""Workspace documents: JSON and text loading, round trips, certification."""

import json
import warnings

import pytest

from setmetrics import (ConstantPenalty, DiameterPenalty, EccentricityPenalty,
                        EuclideanBoxSpace, GraphSpace, ParseError, PointSet,
                        TablePenalty, ValidationError, certify_penalty,
                        loads_sequence_sets, loads_workspace, subset_distance)
from setmetrics.workspace import uncovered_elements

from generators import count_validations

HAMMING_DOC = """
{
  "space": {"kind": "hamming", "alphabet": "01", "length": 3},
  "m_function": {"variant": "constant", "value": 3},
  "sets": {"A": ["000"], "B": ["011", "111"]}
}
"""


def test_loads_full_document():
    ws = loads_workspace(HAMMING_DOC)
    assert ws.space.kind == "hamming"
    assert ws.penalty == ConstantPenalty(ws.space, 3.0)
    assert ws.set_names() == ["A", "B"]
    assert ws.sets["B"].elements == ("011", "111")
    assert ws.notices == []


def test_missing_m_function_defaults_to_diameter():
    ws = loads_workspace(
        '{"space": {"kind": "hamming", "alphabet": "01", "length": 2},'
        ' "sets": {"A": ["00"]}}')
    assert ws.penalty == DiameterPenalty(ws.space)


def test_euclidean_and_graph_elements_decode():
    ws = loads_workspace("""
    {"space": {"kind": "euclidean_box", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
     "m_function": {"variant": "eccentricity"},
     "sets": {"P": [[0.25, 0.5]]}}
    """)
    assert ws.sets["P"].elements == ((0.25, 0.5),)
    ws2 = loads_workspace("""
    {"space": {"kind": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
     "sets": {"V": [0, 2]}}
    """)
    assert ws2.sets["V"].elements == (0, 2)


def test_duplicate_elements_become_notices():
    ws = loads_workspace(
        '{"space": {"kind": "hamming", "alphabet": "01", "length": 2},'
        ' "sets": {"A": ["00", "00", "11"]}}')
    assert ws.sets["A"].elements == ("00", "11")
    assert len(ws.notices) == 1
    assert "A" in ws.notices[0]


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as exc:
        loads_workspace('{"space": \n!}')
    message = str(exc.value)
    assert "line 2" in message and "column" in message


def test_duplicate_json_keys_rejected():
    with pytest.raises(ParseError) as exc:
        loads_workspace(
            '{"space": {"kind": "hamming", "alphabet": "01", "length": 2},'
            ' "sets": {"A": ["00"], "A": ["11"]}}')
    assert "duplicate key" in str(exc.value)


def test_structural_defects_are_parse_errors():
    good_space = '"space": {"kind": "hamming", "alphabet": "01", "length": 2}'
    bad_docs = [
        '[1, 2]',
        '{"sets": {}}',
        '{%s}' % good_space,
        '{%s, "sets": []}' % good_space,
        '{%s, "sets": {"A": "00"}}' % good_space,
        '{%s, "sets": {"A": ["0"]}}' % good_space,
        '{%s, "sets": {"": ["00"]}}' % good_space,
        '{%s, "sets": {}, "extra": 1}' % good_space,
        '{"space": {"kind": "tropical"}, "sets": {}}',
    ]
    for doc in bad_docs:
        with pytest.raises(ParseError):
            loads_workspace(doc)


def test_inadmissible_constant_is_a_validation_error():
    with pytest.raises(ValidationError) as exc:
        loads_workspace(
            '{"space": {"kind": "hamming", "alphabet": "01", "length": 3},'
            ' "m_function": {"variant": "constant", "value": 1},'
            ' "sets": {"A": ["000"]}}')
    assert not isinstance(exc.value, ParseError)


def test_round_trip_preserves_distances_exactly():
    ws = loads_workspace(HAMMING_DOC)
    again = loads_workspace(ws.dumps())
    assert again.space == ws.space
    assert again.penalty == ws.penalty
    assert again.sets == ws.sets
    d1 = subset_distance(ws.space, ws.penalty, ws.sets["A"], ws.sets["B"]).value
    d2 = subset_distance(again.space, again.penalty, again.sets["A"],
                         again.sets["B"]).value
    assert d1 == d2


def test_sequence_text_blocks():
    ws = loads_sequence_sets("""
# a comment
ACGT
TTAA

ACGA
TTAA
""")
    assert ws.space.kind == "hamming"
    assert ws.space.alphabet == "ACGT"
    assert ws.space.length == 4
    assert ws.penalty == ConstantPenalty(ws.space, 4.0)
    assert ws.set_names() == ["set_1", "set_2"]
    assert ws.sets["set_1"].elements == ("ACGT", "TTAA")


def test_sequence_text_rejects_ragged_and_empty_input():
    with pytest.raises(ParseError):
        loads_sequence_sets("ACGT\nTTA\n")
    with pytest.raises(ParseError):
        loads_sequence_sets("\n\n# only comments\n")


def test_sequence_text_alphabet_takes_symbols_first_seen_in_a_late_block():
    # The first word holds two of the symbols; "γ" first shows in the second
    # block and "𝔸", outside the Basic Multilingual Plane, in the third.
    ws = loads_sequence_sets("αβα\nββα\n\nαγβ\nαγβ\n\nβα𝔸\nααα\n")
    assert ws.space.alphabet == "".join(sorted("αβγ𝔸"))
    assert ws.space.length == 3
    assert ws.set_names() == ["set_1", "set_2", "set_3"]
    assert ws.sets["set_2"].elements == ("αγβ",)
    assert ws.sets["set_3"].elements == tuple(sorted(["βα𝔸", "ααα"]))
    assert ws.notices == ["set 'set_2': dropped 1 duplicate element(s)"]


TEXT_WITH_DUPLICATES = "ACGT\nACGT\nTTAA\n\nGGCC\n\n# note\nCCAA\nCCAA\nCCAA\nAAAA\n"


def test_sequence_text_sets_equal_an_eager_build():
    ws = loads_sequence_sets(TEXT_WITH_DUPLICATES)
    blocks = [["ACGT", "ACGT", "TTAA"], ["GGCC"], ["CCAA", "CCAA", "CCAA", "AAAA"]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eager = {f"set_{k}": PointSet(ws.space, block)
                 for k, block in enumerate(blocks, start=1)}
    assert list(ws.sets) == list(eager) == ws.set_names()
    assert len(ws.sets) == 3 and "set_2" in ws.sets and "set_4" not in ws.sets
    assert [ws.sets[name].elements for name in ws.sets] == [
        ps.elements for ps in eager.values()]
    assert ws.sets == eager and dict(ws.sets) == eager
    assert ws.notices == ["set 'set_1': dropped 1 duplicate element(s)",
                          "set 'set_3': dropped 2 duplicate element(s)"]
    with pytest.raises(TypeError):
        ws.sets["set_4"] = eager["set_1"]


def test_sequence_text_builds_a_block_on_first_read(monkeypatch):
    built = []
    real = PointSet._from_valid.__func__

    def counting(cls, space, items):
        built.append(list(items))
        return real(cls, space, items)

    monkeypatch.setattr(PointSet, "_from_valid", classmethod(counting))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # duplicates make no warning either
        ws = loads_sequence_sets(TEXT_WITH_DUPLICATES)
        assert built == []
        first = ws.get_set("set_3")
        assert ws.get_set("set_3") is first
    assert built == [["CCAA", "AAAA"]]


def test_certify_rejects_uncovered_table_and_accepts_covering_one():
    doc = """
    {"space": {"kind": "hamming", "alphabet": "01", "length": 2},
     "m_function": {"variant": "table", "entries": [["00", 2.0], ["01", 2.0]]},
     "sets": {"A": ["00", "11"]}}
    """
    ws = loads_workspace(doc)
    with pytest.raises(ValidationError) as exc:
        certify_penalty(ws)
    assert "no entry" in str(exc.value)

    ok_doc = """
    {"space": {"kind": "hamming", "alphabet": "01", "length": 2},
     "m_function": {"variant": "table",
                    "entries": [["00", 2.0], ["11", 2.0]]},
     "sets": {"A": ["00", "11"]}}
    """
    certify_penalty(loads_workspace(ok_doc))


def test_certify_rejects_inadmissible_table():
    doc = """
    {"space": {"kind": "euclidean_box", "bounds": [[0.0, 1.0]]},
     "m_function": {"variant": "table", "entries": [[[0.0], 0.0], [[1.0], 0.5]]},
     "sets": {"P": [[0.0]], "Q": [[1.0]]}}
    """
    ws = loads_workspace(doc)
    with pytest.raises(ValidationError) as exc:
        certify_penalty(ws)
    assert "admissibility" in str(exc.value)


def test_certify_passes_builtin_variants():
    ws = loads_workspace(HAMMING_DOC)
    certify_penalty(ws)
    ws.penalty = EccentricityPenalty(ws.space)
    certify_penalty(ws)


def test_certify_validates_no_element(monkeypatch):
    # The table's domain is canonical: certifying it validates nothing.
    ws = loads_workspace("""
    {"space": {"kind": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
     "m_function": {"variant": "table", "entries": [[0, 2], [1, 1], [2, 2]]},
     "sets": {"A": [0, 2], "B": [1]}}
    """)
    calls = count_validations(monkeypatch, ws.space)
    certify_penalty(ws)
    assert calls == []


def test_get_set_unknown_name():
    ws = loads_workspace(HAMMING_DOC)
    with pytest.raises(ParseError) as exc:
        ws.get_set("Z")
    assert "unknown set name" in str(exc.value)


def test_loading_validates_each_element_and_table_entry_once(monkeypatch):
    graph = {"space": {"kind": "graph",
                       "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]},
             "m_function": {"variant": "table",
                            "entries": [[0, 3], [1, 2], [2, 2], [3, 3]]},
             "sets": {"A": [0, 1, 1], "B": [2, 3], "C": []}}
    box = {"space": {"kind": "euclidean_box", "bounds": [[0, 1], [0, 1]]},
           "m_function": {"variant": "table",
                          "entries": [[[0, 0], 2], [[1, 1], 2]]},
           "sets": {"P": [[0, 0], [0.5, 0.25]], "Q": [[1, 1]]}}
    for space, doc in ((GraphSpace([(0, 1, 1.0)]), graph),
                       (EuclideanBoxSpace([(0.0, 1.0)]), box)):
        calls = count_validations(monkeypatch, space)
        loads_workspace(json.dumps(doc))
        elements = sum(len(v) for v in doc["sets"].values())
        assert len(calls) == elements + len(doc["m_function"]["entries"])


@pytest.mark.parametrize("doc", [
    '{"space": {"kind": "hamming", "alphabet": "01", "length": 2},'
    ' "sets": {"A": [["0", "1"]]}}',
    '{"space": {"kind": "graph", "edges": [[0, 1, 1.0]]},'
    ' "sets": {"A": [[0]]}}',
    '{"space": {"kind": "graph", "edges": [[0, 1, 1.0]]},'
    ' "m_function": {"variant": "table", "entries": [[[0], 2.0]]},'
    ' "sets": {"A": [0]}}',
], ids=["hamming word", "graph vertex", "table entry"])
def test_json_list_for_a_scalar_element_names_the_list(doc):
    with pytest.raises(ParseError, match="got list$"):
        loads_workspace(doc)


def test_uncovered_elements_in_set_order():
    ws = loads_workspace("""
    {"space": {"kind": "hamming", "alphabet": "01", "length": 2},
     "m_function": {"variant": "table", "entries": [["00", 2.0], ["01", 2.0]]},
     "sets": {"A": ["11", "00", "10"], "B": ["01"], "C": ["11"]}}
    """)
    assert uncovered_elements(ws) == [("A", "10"), ("A", "11"), ("C", "11")]
