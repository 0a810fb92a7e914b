"""Golden CLI output over the files in ``fixtures/``.

Each case is one argv; ``cli_golden.json`` stores ``[exit code, stdout,
stderr]`` for it, keyed by the argv joined with spaces, with fixture
files named relative to ``fixtures/``.  The test runs every case
in-process through ``setmetrics.cli.main`` and compares all three
byte for byte, so any change to printed values, messages or exit codes
shows up here.

The golden file was generated before the validation-boundary refactor
that introduced it, so it pins the output that refactor had to keep.
Commands whose output changed on purpose then (non-finite ``--m
constant:`` values) are not in it.  To regenerate after an intended
output change, from the repository root:

    PYTHONPATH=src python3 tests/test_cli_golden.py

and review the diff of ``tests/cli_golden.json``.
"""

import contextlib
import functools
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from setmetrics.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "cli_golden.json"

METRICS = ("subset", "hausdorff", "md", "surjective", "fair", "link")
JSON_FIXTURES = {
    "bad_mtable.json": ("P", "Q"),
    "dna.json": ("ref", "mut1", "dropout", "scrambled"),
    "graph_path.json": ("ends", "middle", "left"),
    "hamming_small.json": ("A", "B", "C"),
    "unit_interval.json": ("An", "A", "O"),
    "unit_square.json": ("center", "corners", "edge_pair"),
}
TEXT_FIXTURE = ("dna_sequences.txt", ("set_1", "set_2", "set_3"))


def cases():
    """Every golden argv, fixture files relative to ``fixtures/``."""
    files = [(name, sets, ()) for name, sets in JSON_FIXTURES.items()]
    files.append((TEXT_FIXTURE[0], TEXT_FIXTURE[1], ("--text",)))
    out = []
    for name, sets, mode in files:
        for metric in METRICS:
            for fmt in ("csv", "json"):
                out.append(("matrix", name, *mode, "--metric", metric,
                            "--format", fmt))
        for seed in ("0", "3"):
            out.append(("validate", name, *mode, "--samples", "50",
                        "--seed", seed))
        for a, b in itertools.permutations(sets, 2):
            for metric in ("subset", "link"):
                out.append(("dist", name, a, b, *mode, "--metric", metric,
                            "--oracle"))
    # Penalty overrides whose output stays fixed: admissible specs, a
    # constant below the diameter (exit 1) and malformed specs (exit 2).
    for spec in ("diameter", "eccentricity", "constant:5", "constant:1",
                 "constant:abc", "gaussian"):
        out.append(("dist", "hamming_small.json", "A", "B", "--m", spec))
        out.append(("matrix", "unit_square.json", "--m", spec))
    return out


def resolve(argv):
    return [str(FIXTURES / a) if (FIXTURES / a).is_file() else a
            for a in argv]


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(argv, capsys):
    code = main(resolve(argv))
    captured = capsys.readouterr()
    assert [code, captured.out, captured.err] == _golden()[" ".join(argv)]


def test_golden_file_has_exactly_the_cases():
    assert sorted(_golden()) == sorted(" ".join(argv) for argv in cases())


def _regenerate():
    golden = {}
    for argv in cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(resolve(argv))
        golden[" ".join(argv)] = [code, out.getvalue(), err.getvalue()]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
