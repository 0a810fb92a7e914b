"""End-to-end command-line behavior via main(argv)."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import setmetrics.cli
import setmetrics.workspace
from setmetrics import EuclideanBoxSpace, GraphSpace
from setmetrics.cli import main

from generators import count_validations

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_subset_with_oracle(capsys):
    code, out, _ = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                       "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 5.0
    assert report["oracle_value"] == 5.0
    assert report["agree"] is True
    assert report["witness"]["pairs"] == [["000", "011"]]
    assert report["witness"]["from"] == "A"


def test_dist_self_is_zero(capsys):
    code, out, _ = run(capsys, "dist", fx("hamming_small.json"), "A", "A")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_dist_interval_worked_values(capsys):
    code, out, _ = run(capsys, "dist", fx("unit_interval.json"), "An", "A")
    assert code == 0
    assert json.loads(out)["value"] == 0.25
    code, out, _ = run(capsys, "dist", fx("unit_interval.json"), "An", "O")
    assert json.loads(out)["value"] == 0.75


def test_dist_comparison_metrics(capsys):
    code, out, _ = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                       "--metric", "hausdorff")
    assert code == 0
    assert json.loads(out)["value"] == 3.0
    code, out, _ = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                       "--metric", "link", "--oracle")
    report = json.loads(out)
    assert report["agree"] is True


def test_dist_oracle_unsupported_metric_is_usage_error(capsys):
    code, _, err = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                       "--metric", "md", "--oracle")
    assert code == 2
    assert "oracle" in err


def test_dist_unknown_set_name(capsys):
    code, _, err = run(capsys, "dist", fx("hamming_small.json"), "A", "Z")
    assert code == 2
    assert "unknown set name" in err


def test_dist_missing_file(capsys):
    code, _, err = run(capsys, "dist", "no_such_file.json", "A", "B")
    assert code == 2
    assert "cannot read" in err


NOT_UTF8 = [
    ("latin1.json", b'{"space": "\xff"}', ("matrix",)),
    ("latin1.txt", b"ACGT\nAC\xffT\n", ("dist", "--text", "set_1", "set_1")),
]


@pytest.mark.parametrize("name, content, argv", NOT_UTF8, ids=["json", "text"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, name,
                                                  content, argv):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")
    assert err.count("\n") == 1


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("name, content, argv", [
    ("blocks.txt", b"ACGT\nAGGT\n\nACGA\n",
     ("dist", "--text", "set_1", "set_2")),
    ("word.txt", b"AC\n", ("dist", "--text", "set_1", "set_1")),
    ("doc.json", b'{"space": {"kind": "hamming", "alphabet": "AC", '
                 b'"length": 2}, "sets": {"A": ["AC"], "B": ["CA", "AA"]}}',
     ("dist", "A", "B")),
], ids=["text blocks", "text word", "json"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, name, content,
                                              argv):
    results = []
    for folder, prefix in (("plain", b""), ("marked", BOM)):
        path = tmp_path / folder / name
        path.parent.mkdir()
        path.write_bytes(prefix + content)
        results.append(run(capsys, argv[0], str(path), *argv[1:]))
    assert results[0][0] == 0
    assert results[1] == results[0]
    assert "\ufeff" not in results[1][1]


@pytest.mark.parametrize("name, content, argv", NOT_UTF8, ids=["json", "text"])
@pytest.mark.parametrize("prefix", [b"", BOM], ids=["plain", "marked"])
def test_a_bad_byte_is_reported_at_its_offset_in_the_file(
        tmp_path, capsys, name, content, argv, prefix):
    path = tmp_path / name
    path.write_bytes(prefix + content)
    code, _, err = run(capsys, argv[0], str(path), *argv[1:])
    offset = (prefix + content).index(b"\xff")
    assert (code, err) == (2, f"error: cannot read {path}: not UTF-8 text "
                              f"(byte 0xff at offset {offset})\n")


def test_dist_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": }')
    code, _, err = run(capsys, "dist", str(bad), "A", "B")
    assert code == 2
    assert "line 1" in err


BOX = '{"kind": "euclidean_box", "bounds": [[0, 1], [0, 1]]}'
MALFORMED_NUMBERS = {
    "box bound is a string": '{"space": {"kind": "euclidean_box", '
                             '"bounds": [[0, "x"]]}, "sets": {}}',
    "box bound pair is short": '{"space": {"kind": "euclidean_box", '
                               '"bounds": [[0]]}, "sets": {}}',
    "box coordinate is null": '{"space": %s, "sets": {"A": [[null, 0.5]]}}' % BOX,
    "box coordinates are a string and a bool":
        '{"space": %s, "sets": {"A": [["0.5", true]]}}' % BOX,
    "graph weight is a string": '{"space": {"kind": "graph", '
                                '"edges": [[0, 1, "x"]]}, "sets": {}}',
    "graph edge is a number": '{"space": {"kind": "graph", "edges": [5]}, '
                              '"sets": {}}',
    "table value is a string": '{"space": %s, "m_function": {"variant": "table", '
                               '"entries": [[[0, 0], "abc"]]}, "sets": {}}' % BOX,
    "table value is null": '{"space": %s, "m_function": {"variant": "table", '
                           '"entries": [[[0, 0], null]]}, "sets": {}}' % BOX,
}


@pytest.mark.parametrize("doc", MALFORMED_NUMBERS.values(), ids=MALFORMED_NUMBERS)
def test_matrix_malformed_numbers_are_parse_errors(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code, out, err = run(capsys, "matrix", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


HUGE = 10 ** 400  # a JSON integer beyond the float range
HUGE_INTEGERS = {
    "graph edge weight": {"space": {"kind": "graph",
                                    "edges": [[0, 1, 1.0], [1, 2, HUGE]]},
                          "sets": {}},
    "constant penalty value": {"space": {"kind": "graph", "edges": [[0, 1, 1.0]]},
                               "m_function": {"variant": "constant",
                                              "value": HUGE},
                               "sets": {}},
    "box bound": {"space": {"kind": "euclidean_box", "bounds": [[0, HUGE]]},
                  "sets": {}},
    "box point coordinate": {"space": json.loads(BOX),
                             "sets": {"A": [[0.5, HUGE]]}},
}


@pytest.mark.parametrize("doc", HUGE_INTEGERS.values(), ids=HUGE_INTEGERS)
def test_integers_beyond_the_float_range_are_parse_errors(tmp_path, capsys,
                                                          doc):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"must be a finite number, got {HUGE}" in err


def test_dist_bad_table_penalty_fails_validation(capsys):
    code, _, err = run(capsys, "dist", fx("bad_mtable.json"), "P", "Q")
    assert code == 1
    assert "admissibility" in err


def test_dist_penalty_override_changes_value(capsys):
    _, out, _ = run(capsys, "dist", fx("hamming_small.json"), "A", "B")
    base = json.loads(out)["value"]
    _, out, _ = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                    "--m", "constant:10")
    assert json.loads(out)["value"] == base + 7.0  # one unmatched word
    code, _, err = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                       "--m", "constant:1")
    assert code == 1  # below the diameter
    code, _, err = run(capsys, "dist", fx("hamming_small.json"), "A", "B",
                       "--m", "gaussian")
    assert code == 2


def test_dist_text_mode(capsys):
    code, out, _ = run(capsys, "dist", fx("dna_sequences.txt"),
                       "set_1", "set_3", "--text", "--oracle")
    assert code == 0
    report = json.loads(out)
    assert report["value"] == 4.0  # one dropped word at length 4
    assert report["agree"] is True


def test_dist_text_mode_on_single_symbol_words(tmp_path, capsys):
    # Words in one symbol: a space of diameter 0, where a positive
    # constant penalty is still admissible.
    path = tmp_path / "unary.txt"
    path.write_text("AAAA\n\nAAAA\n")
    code, out, _ = run(capsys, "dist", str(path), "set_1", "set_2", "--text",
                       "--oracle")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_a_lone_surrogate_symbol_is_an_ordinary_symbol(tmp_path, capsys):
    # JSON's "\ud800" escape reads as a one-symbol str that no UTF codec
    # encodes strictly.
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({
        "space": {"kind": "hamming", "alphabet": "\ud800A", "length": 1},
        "sets": {"A": ["\ud800"], "B": ["A"]}}))
    code, out, err = run(capsys, "matrix", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines() == [",A,B", "A,0,1", "B,1,0"]
    code, out, err = run(capsys, "dist", str(path), "A", "B")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 1.0


def test_dist_text_reports_every_block_whichever_it_names(tmp_path, capsys):
    # Blocks 1 and 3 repeat words; dist reads blocks 2 and 4 only.
    path = tmp_path / "dup.txt"
    path.write_text("ACGT\nACGT\n\nGGCC\n\nTTAA\nTTAA\nTTAA\nCCAA\n\nGGCA\n")
    code, out, err = run(capsys, "dist", str(path), "set_2", "set_4", "--text")
    assert code == 0
    assert json.loads(out)["value"] == 1.0
    assert err == ("note: set 'set_1': dropped 1 duplicate element(s)\n"
                   "note: set 'set_3': dropped 2 duplicate element(s)\n")


def test_dist_text_refuses_a_wrong_length_word_in_a_block_it_does_not_name(
        tmp_path, capsys):
    path = tmp_path / "ragged.txt"
    path.write_text("ACGT\n\nGGCC\n\nTTA\n")
    code, out, err = run(capsys, "dist", str(path), "set_1", "set_2", "--text")
    assert (code, out) == (2, "")
    assert err == "error: all words must have length 4, got 'TTA'\n"


def test_constant_zero_penalty_is_refused_on_a_narrow_box(tmp_path, capsys):
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps({
        "space": {"kind": "euclidean_box", "bounds": [[0, 1e-12]]},
        "m_function": {"variant": "constant", "value": 0},
        "sets": {"A": [[0]], "B": []}}))
    for argv in (("dist", str(path), "A", "B"), ("validate", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "positive" in err


def test_duplicate_elements_notice_goes_to_stderr(tmp_path, capsys):
    doc = tmp_path / "dup.json"
    doc.write_text('{"space": {"kind": "hamming", "alphabet": "01",'
                   ' "length": 2}, "sets": {"A": ["00", "00"], "B": ["11"]}}')
    code, out, err = run(capsys, "dist", str(doc), "A", "B")
    assert code == 0
    assert "duplicate" in err
    assert json.loads(out)["value"] == 2.0


def test_matrix_csv_matches_individual_dist_calls(capsys):
    code, out, _ = run(capsys, "matrix", fx("dna.json"))
    assert code == 0
    lines = out.strip().splitlines()
    names = lines[0].split(",")[1:]
    values = {}
    for line in lines[1:]:
        cells = line.split(",")
        for name, cell in zip(names, cells[1:]):
            values[cells[0], name] = float(cell)
    for i, a in enumerate(names):
        assert values[a, a] == 0.0
        for b in names[i + 1:]:
            assert values[a, b] == values[b, a]
            _, dist_out, _ = run(capsys, "dist", fx("dna.json"), a, b)
            assert values[a, b] == json.loads(dist_out)["value"]


def test_matrix_json_symmetric_zero_diagonal(capsys):
    for metric in ("subset", "hausdorff", "md", "surjective", "fair", "link"):
        code, out, _ = run(capsys, "matrix", fx("hamming_small.json"),
                           "--metric", metric, "--format", "json")
        assert code == 0
        report = json.loads(out)
        m = report["values"]
        n = len(report["names"])
        for i in range(n):
            assert m[i][i] == 0.0
            for j in range(n):
                assert m[i][j] == m[j][i]


def test_matrix_reals_print_nine_significant_digits(capsys):
    code, out, _ = run(capsys, "matrix", fx("unit_square.json"))
    assert code == 0
    body = out.strip().splitlines()[1:]
    for line in body:
        for cell in line.split(",")[1:]:
            assert "," not in cell  # '.' decimal separator only
            mantissa = cell.replace("-", "").replace(".", "").lstrip("0")
            assert len(mantissa) <= 9


def test_matrix_certifies_a_table_penalty_once(tmp_path, monkeypatch, capsys):
    calls = []
    original = setmetrics.workspace.validate_penalty

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(setmetrics.workspace, "validate_penalty", counted)
    doc = {"space": {"kind": "graph",
                     "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]},
           "m_function": {"variant": "table",
                          "entries": [[0, 3], [1, 2], [2, 2], [3, 3]]},
           "sets": {"A": [0], "B": [1, 2], "C": [3], "D": []}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "matrix", str(path))
    assert code == 0
    assert out.splitlines()[0] == ",A,B,C,D"
    assert len(calls) == 1

    # With no sets there is nothing to compute, so nothing is certified.
    doc["sets"] = {}
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "matrix", str(path))
    assert (code, out) == (0, '""\n')
    assert list(csv.reader(io.StringIO(out))) == [[""]]
    assert len(calls) == 1


def test_matrix_csv_round_trips_set_names(tmp_path, capsys):
    names = ["a,b", 'say "hi"', "C", "two\nlines"]
    path = tmp_path / "names.json"
    path.write_text(json.dumps({
        "space": {"kind": "hamming", "alphabet": "01", "length": 2},
        "sets": {name: [f"{i % 4:02b}"] for i, name in enumerate(names)}}))
    code, out, _ = run(capsys, "matrix", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["", *names]
    assert [row[0] for row in rows[1:]] == names
    assert all(len(row) == len(names) + 1 for row in rows)


def test_matrix_is_the_same_from_the_table_and_per_pair(tmp_path, monkeypatch,
                                                       capsys):
    # The sets' union is exactly the table bound; one more set takes it
    # one element over, where each pair runs subset_distance instead.
    module = importlib.import_module("setmetrics.subset_distance")
    bound = module.POOL_TABLE_MAX_ELEMENTS
    words = [format(k, "011b") for k in range(bound + 1)]
    sets = {"A": words[:5], "B": words[3:9], "C": words[7:8] + words[-6:-1],
            "all": words[:-1]}
    calls = []
    original = module.subset_distance

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "subset_distance", counted)
    outputs = []
    for extra, pairs_run in (({}, 0), ({"D": words[-1:]}, 15)):
        doc = {"space": {"kind": "hamming", "alphabet": "01", "length": 11},
               "sets": {**sets, **extra}}
        path = tmp_path / f"words{len(extra)}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
        assert code == 0 and len(calls) == pairs_run
        outputs.append(json.loads(out)["values"])
    at_bound, over_bound = outputs
    assert [row[:4] for row in over_bound[:4]] == at_bound

    # The pool over the bound prints the same from a table, too, where
    # every pair is gathered, D against "all" (1 x 1024 costs) included.
    code, per_pair, _ = run(capsys, "matrix", str(path))
    monkeypatch.setattr(module, "POOL_TABLE_MAX_ELEMENTS", bound + 1)
    assert run(capsys, "matrix", str(path)) == (code, per_pair, "")
    assert len(calls) == 30


def test_matrix_makes_one_table_for_a_pool_of_large_sets(tmp_path, monkeypatch,
                                                        capsys):
    # Two sets of 13 box points are a 13 x 13 pair, gathered from the
    # pool's one table like the 2 x 13 pairs: one pairwise call in all.
    module = importlib.import_module("setmetrics.subset_distance")
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, size=(28, 2)).round(6).tolist()
    doc = {"space": {"kind": "euclidean_box", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
           "m_function": {"variant": "eccentricity"},
           "sets": {"A": points[:2], "B": points[2:15], "C": points[15:]}}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    calls = {"pairwise": 0, "subset_distance": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(EuclideanBoxSpace, "pairwise")
    counted(module, "subset_distance")
    code, _, _ = run(capsys, "matrix", str(path))
    assert code == 0
    assert calls == {"pairwise": 1, "subset_distance": 0}


def test_matrix_makes_one_table_for_the_comparison_metrics(tmp_path,
                                                           monkeypatch, capsys):
    # Every comparison pair is gathered from the pool's one table, as the
    # subset pairs are: one pairwise call, and no comparison_distance.
    module = importlib.import_module("setmetrics.comparisons")
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, size=(28, 2)).round(6).tolist()
    doc = {"space": {"kind": "euclidean_box", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
           "sets": {"A": points[:2], "B": points[2:15], "C": points[15:]}}
    path = tmp_path / "box.json"
    path.write_text(json.dumps(doc))
    calls = {"pairwise": 0, "comparison_distance": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(EuclideanBoxSpace, "pairwise")
    counted(module, "comparison_distance")
    for metric in ("link", "hausdorff", "md"):
        calls.update(pairwise=0)
        code, _, _ = run(capsys, "matrix", str(path), "--metric", metric)
        assert code == 0
        assert calls == {"pairwise": 1, "comparison_distance": 0}


@pytest.mark.parametrize("metric", ["subset", "link", "hausdorff"])
def test_matrix_over_no_sets_and_over_only_empty_sets(tmp_path, capsys,
                                                     metric):
    # A pool whose union is empty: no sets print an empty matrix, and
    # empty sets are 0 apart by the subset metric and undefined for the
    # comparison distances.
    space = {"kind": "hamming", "alphabet": "01", "length": 2}
    for name, sets in (("none", {}), ("empty", {"P": [], "Q": []})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"space": space, "sets": sets}))
        runs = [run(capsys, "matrix", str(path), "--metric", metric,
                    "--format", fmt) for fmt in ("csv", "json")]
        if sets and metric != "subset":
            for code, out, err in runs:
                assert (code, out) == (1, "")
                assert "undefined for empty sets" in err
            continue
        (csv_code, csv_out, _), (json_code, json_out, _) = runs
        assert csv_code == json_code == 0
        names = sorted(sets)
        assert csv_out == (",P,Q\nP,0,0\nQ,0,0\n" if sets else '""\n')
        assert json.loads(json_out) == {
            "metric": metric, "names": names,
            "values": [[0.0] * len(names) for _ in names]}


def test_validate_good_fixtures_exit_zero(capsys):
    for name in ("hamming_small.json", "dna.json", "unit_interval.json",
                 "unit_square.json", "graph_path.json"):
        code, out, _ = run(capsys, "validate", fx(name), "--samples", "40",
                           "--seed", "1")
        assert code == 0, name
        report = json.loads(out)
        assert report["ok"] is True
        assert report["penalty"]["ok"] is True
        assert all(axiom["ok"] for axiom in report["axioms"].values())


def test_validate_bad_table_exits_one_with_violations(capsys):
    code, out, _ = run(capsys, "validate", fx("bad_mtable.json"))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["penalty"]["ok"] is False
    assert report["penalty"]["violations"]
    first = report["penalty"]["violations"][0]
    assert first["check"] == "distance_bound"
    assert first["distance"] > first["penalty_x"]


def test_validate_table_missing_set_elements_skips_axioms(tmp_path, capsys):
    doc = {"space": {"kind": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
           "m_function": {"variant": "table",
                          "entries": [[0, 2.0], [1, 2.0]]},
           "sets": {"A": [0, 2], "B": [1]}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path), "--samples", "3")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["coverage"]["ok"] is False
    assert report["coverage"]["violations"] == [
        "set 'A' element 2 has no table entry"]
    assert report["axioms"] is None


def test_validate_samples_a_box_table_from_its_domain(capsys):
    # A table on a box covers two points of a continuum: sets drawn from
    # the space would meet a point with no entry.
    code, out, _ = run(capsys, "validate", fx("box_table.json"),
                       "--samples", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["pairs_checked"]


def test_validate_samples_a_partial_graph_table_from_its_domain(tmp_path,
                                                                capsys):
    # Vertex 2 has no entry; twelve sampled sets all but surely meet it
    # when they are drawn from the whole graph.
    doc = {"space": {"kind": "graph", "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
           "m_function": {"variant": "table",
                          "entries": [[0, 1.0], [1, 1.0]]},
           "sets": {"A": [0], "B": [1]}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path), "--samples", "3")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["pairs_checked"]


@pytest.mark.parametrize("kind", ("graph table", "box eccentricity"))
def test_validate_checks_only_the_elements_its_file_holds(tmp_path, capsys,
                                                          monkeypatch, kind):
    # Loading validates the file's elements; the table's domain, the
    # sampled elements and the sampled sets are canonical already.
    if kind == "graph table":
        space = GraphSpace([(0, 1, 1.0)])
        path = tmp_path / "table.json"
        path.write_text(json.dumps(
            {"space": {"kind": "graph",
                       "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0]]},
             "m_function": {"variant": "table",
                            "entries": [[0, 3], [1, 2], [2, 2], [3, 3]]},
             "sets": {"A": [0, 1], "B": [2, 3]}}))
    else:
        space, path = EuclideanBoxSpace([(0.0, 1.0)]), fx("unit_square.json")
    calls = count_validations(monkeypatch, space)
    setmetrics.workspace.load_workspace(str(path))
    loaded = len(calls)
    assert loaded
    code, _, _ = run(capsys, "validate", str(path), "--samples", "3")
    assert code == 0
    assert len(calls) == 2 * loaded


def test_validate_finds_an_injected_triangle_violation_at_every_seed(
        capsys, monkeypatch):
    # d(#0, #1) raised past every path through a third set of the pool:
    # the triples (0, j, 1) and (1, j, 0) break the triangle inequality,
    # 26 of the pool's 15**3 triples.  A check of 100 random triples
    # misses all of them at seeds 1, 3, 4, 6 and 7.
    real = setmetrics.cli.pool_distances

    def raised(space, penalty, pool):
        distance = real(space, penalty, pool)
        return lambda i, j: distance(i, j) + (100.0 if {i, j} == {0, 1} else 0.0)

    monkeypatch.setattr(setmetrics.cli, "pool_distances", raised)
    for seed in range(8):
        code, out, _ = run(capsys, "validate", fx("unit_square.json"),
                           "--samples", "3", "--seed", str(seed))
        report = json.loads(out)
        assert code == 1 and report["ok"] is False
        assert report["triples_checked"] == 15 ** 3
        triangle = report["axioms"].pop("triangle")
        assert all(axiom["ok"] for axiom in report["axioms"].values())
        assert triangle["ok"] is False
        assert [v.split(" = ")[0] for v in triangle["violations"]] == [
            "d(#0,#1)"] * 5
        assert [v.split(" = ")[-1] for v in triangle["violations"]] == [
            f"d(#0,#{j}) + d(#{j},#1)" for j in range(2, 7)]


def test_validate_reports_the_first_triangle_violations_a_loop_finds(
        capsys, monkeypatch):
    # Distances scaled by 1, 2 or 3 break the triangle inequality at many
    # middle indices; the report lists the first five in (i, j, k) order.
    real = setmetrics.cli.pool_distances
    seen = []

    def skewed(space, penalty, pool):
        distance = real(space, penalty, pool)
        seen.append((len(pool), distance))
        return lambda i, j: distance(i, j) * (1 + (i + j) % 3)

    monkeypatch.setattr(setmetrics.cli, "pool_distances", skewed)
    code, out, _ = run(capsys, "validate", fx("unit_square.json"),
                       "--samples", "3", "--seed", "5")
    assert code == 1
    report = json.loads(out)
    (n, distance), = seen
    d = [[distance(min(i, k), max(i, k)) * (1 + (i + k) % 3)
          for k in range(n)] for i in range(n)]
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if d[i][k] > d[i][j] + d[j][k] + 1e-9]
    assert len({j for _, j, _ in triples[:5]}) > 1
    assert report["axioms"]["triangle"] == {"ok": False, "violations": [
        f"d(#{i},#{k}) = {d[i][k]} > {d[i][j] + d[j][k]} = "
        f"d(#{i},#{j}) + d(#{j},#{k})" for i, j, k in triples[:5]]}
    assert report["triples_checked"] == n ** 3


INJECTED_AXIOM_FAILURES = {
    "nonnegativity": (lambda d, i, j: -1.0 if {i, j} == {0, 1} else d,
                      "d({A!r},{B!r}) = -1.0"),
    "symmetry": (lambda d, i, j: d + 1.0 if (i, j) == (0, 1) else d,
                 "d({A!r},{B!r}) = {d01} != {d10}"),
    "identity": (lambda d, i, j: 0.0 if {i, j} == {0, 1} else d,
                 "d({A!r},{B!r}) = 0.0"),
}


@pytest.mark.parametrize("axiom", INJECTED_AXIOM_FAILURES)
def test_validate_reports_an_injected_axiom_failure(capsys, monkeypatch,
                                                    axiom):
    # The value of the pair of the file's first two sets is changed: made
    # negative, made to differ by argument order, or made 0.
    change, message = INJECTED_AXIOM_FAILURES[axiom]
    real = setmetrics.cli.pool_distances
    seen = []

    def injected(space, penalty, pool):
        distance = real(space, penalty, pool)
        seen.append(distance)
        return lambda i, j: change(distance(i, j), i, j)

    monkeypatch.setattr(setmetrics.cli, "pool_distances", injected)
    code, out, _ = run(capsys, "validate", fx("unit_square.json"),
                       "--samples", "3")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    A, B = list(setmetrics.workspace.load_workspace(
        fx("unit_square.json")).sets.values())[:2]
    (distance,) = seen
    assert report["axioms"][axiom] == {"ok": False, "violations": [
        message.format(A=A, B=B, d01=distance(0, 1) + 1.0,
                       d10=distance(1, 0))]}


def test_validate_is_reproducible_per_seed(capsys):
    _, out1, _ = run(capsys, "validate", fx("unit_square.json"),
                     "--seed", "7", "--samples", "30")
    _, out2, _ = run(capsys, "validate", fx("unit_square.json"),
                     "--seed", "7", "--samples", "30")
    assert out1 == out2


def test_demo_incompleteness_values(capsys):
    code, out, _ = run(capsys, "demo-incompleteness", "--n-max", "4",
                       "--grid", "0.5")
    assert code == 0
    assert "MISMATCH" not in out
    assert "n=2 m=4: computed=0.25 expected=0.25" in out
    assert "n=4: computed=0.75 expected=0.75" in out
    assert "incomplete" in out


def test_demo_rejects_small_n_max(capsys):
    code, _, _ = run(capsys, "demo-incompleteness", "--n-max", "1")
    assert code == 2
    code, _, _ = run(capsys, "demo-incompleteness", "--grid", "2.5")
    assert code == 2


@pytest.mark.parametrize("argv, message", (
    (("validate", fx("hamming_small.json"), "--samples", "x"),
     "'x' is not an integer"),
    (("demo-incompleteness", "--grid", "a"),
     "'a' is not a comma-separated list"),
), ids=("samples", "grid"))
def test_malformed_numeric_option_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_matrix_into_a_closed_pipe_exits_one_without_a_traceback(tmp_path):
    # 300 sets make about 180 kB of CSV, more than a pipe buffer holds, so
    # the command is still writing when the reader goes away.
    path = tmp_path / "many.json"
    path.write_text(json.dumps({
        "space": {"kind": "hamming", "alphabet": "01", "length": 3},
        "sets": {f"s{i:03d}": [format(i % 8, "03b")] for i in range(300)}}))
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "setmetrics", "matrix",
                             str(path)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(10) == b",s000,s001"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert err == ""


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("value", ("nan", "inf", "-inf", "1e400"))
def test_non_finite_constant_override_is_usage_error(capsys, value):
    for argv in (("dist", fx("hamming_small.json"), "A", "B"),
                 ("matrix", fx("unit_square.json"))):
        code, out, err = run(capsys, *argv, "--m", f"constant:{value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


WIDE_BOXES = {
    "squared sides overflow": [[0, 1e200], [0, 1e200]],
    "side overflows": [[-1e308, 1e308]],
}
WIDE_BOX_COMMANDS = {
    "matrix": ("matrix",),
    "matrix hausdorff": ("matrix", "--metric", "hausdorff"),
    "dist": ("dist", "A", "B"),
    "dist hausdorff": ("dist", "A", "B", "--metric", "hausdorff"),
    "validate": ("validate", "--samples", "3"),
}


@pytest.mark.parametrize("bounds", WIDE_BOXES.values(), ids=WIDE_BOXES)
@pytest.mark.parametrize("variant", ("diameter", "eccentricity"))
@pytest.mark.parametrize("command", WIDE_BOX_COMMANDS.values(),
                         ids=WIDE_BOX_COMMANDS)
def test_box_too_wide_for_floats_is_one_error_line(tmp_path, capsys, bounds,
                                                   variant, command):
    corner = [lo for lo, _ in bounds]
    doc = {"space": {"kind": "euclidean_box", "bounds": bounds},
           "m_function": {"variant": variant},
           "sets": {"A": [corner], "B": [[hi for _, hi in bounds], corner]}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    name, *rest = command
    code, out, err = run(capsys, name, str(path), *rest)
    assert code in (1, 2)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too wide" in err


BAD_GRAPHS = {
    "paths overflow": ({"edges": [[0, 1, 1e308], [1, 2, 1e308]]}, "too wide"),
    "disconnected": ({"edges": [[0, 1, 1.0], [2, 3, 1.0]]}, "not connected"),
    "disconnected and wide": ({"edges": [[0, 1, 1e308], [1, 2, 1e308]],
                               "vertices": 4}, "not connected"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph, reason", BAD_GRAPHS.values(), ids=BAD_GRAPHS)
def test_bad_graph_is_one_error_line(tmp_path, capsys, graph, reason):
    doc = {"space": {"kind": "graph", **graph}, "sets": {"A": [0], "B": [1]}}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "dist", str(path), "A", "B")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert reason in err


BEYOND_THE_PARSER = {
    "integer of 5001 digits":
        '{"space": {"kind": "graph", "edges": [[0, 1, 1%s]]}, "sets": {}}'
        % ("0" * 5000),
    "arrays nested 200000 deep":
        '{"space": %s, "sets": {}}' % ("[" * 200000 + "]" * 200000),
    "vertex id past numpy's dimensions":
        json.dumps({"space": {"kind": "graph", "edges": [[0, 10 ** 400, 1.0]]},
                    "sets": {}}),
}


@pytest.mark.parametrize("doc", BEYOND_THE_PARSER.values(),
                         ids=BEYOND_THE_PARSER)
def test_documents_past_the_loader_limits_are_one_error_line(tmp_path, capsys,
                                                             doc):
    path = tmp_path / "limits.json"
    path.write_text(doc)
    code, out, err = run(capsys, "matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


OVERFLOWING_DISTANCE_COMMANDS = {
    "dist": ("dist", "A", "B"),
    "matrix": ("matrix",),
    "matrix json": ("matrix", "--format", "json"),
    "validate": ("validate", "--samples", "3"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", OVERFLOWING_DISTANCE_COMMANDS.values(),
                         ids=OVERFLOWING_DISTANCE_COMMANDS)
def test_distance_overflowing_a_float_is_one_error_line(tmp_path, capsys,
                                                        command):
    # The graph's diameter is finite, but A's two unmatched penalties
    # against the empty set add up past the largest float.
    doc = {"space": {"kind": "graph", "edges": [[0, 1, 1e308]]},
           "sets": {"A": [0, 1], "B": []}}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    name, *rest = command
    code, out, err = run(capsys, name, str(path), *rest)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ("dist", "matrix"))
@pytest.mark.parametrize("metric", ("md", "link"))
def test_comparison_overflowing_a_float_is_one_error_line(tmp_path, capsys,
                                                          metric, command):
    # Five leaves 8e307 from the center of a star: md is 2.4e308 and link
    # 4e308, past the largest float, though every distance is below it.
    doc = {"space": {"kind": "graph",
                     "edges": [[0, leaf, 8e307] for leaf in range(1, 6)]},
           "sets": {"A": [1, 2, 3, 4, 5], "B": [0]}}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    args = ("A", "B") if command == "dist" else ()
    code, out, err = run(capsys, command, str(path), *args, "--metric", metric)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ("dist", "matrix"))
@pytest.mark.parametrize("metric", ("md", "link"))
def test_comparison_summing_past_the_largest_float_on_its_way(tmp_path, capsys,
                                                              metric, command):
    # Both metrics are 1e308 here, though their two one-sided sums add up
    # to 2e308 before md halves them and link subtracts its correction.
    doc = {"space": {"kind": "graph", "edges": [[0, 1, 1e308]]},
           "sets": {"A": [0], "B": [1]}}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    args = ("A", "B") if command == "dist" else ()
    code, out, err = run(capsys, command, str(path), *args, "--metric", metric)
    assert code == 0
    assert err == ""
    if command == "dist":
        assert json.loads(out)["value"] == 1e308
    assert "1e+308" in out
