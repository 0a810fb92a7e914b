"""End-to-end command-line behavior via main(argv)."""

import json
import math
from pathlib import Path

import pytest

import setmetrics.workspace
from setmetrics.cli import main

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
    assert (code, out) == (0, ",\n")
    assert len(calls) == 1


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


def test_no_command_is_usage_error(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
