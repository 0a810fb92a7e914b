"""The package needs only numpy at run time.

scipy, hypothesis and pytest serve the tests alone.  This runs the CLI
on the fixtures in a fresh interpreter, with only ``src`` on the path,
and checks that none of them was imported on the way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["dist", "fixtures/hamming_small.json", "A", "B", "--oracle"],
    ["matrix", "fixtures/unit_square.json", "--metric", "link"],
    ["validate", "fixtures/graph_path.json", "--samples", "3"],
    ["dist", "fixtures/dna_sequences.txt", "set_1", "set_3", "--text"],
)

SCRIPT = """
import contextlib, io, json, sys
from setmetrics.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_cli_imports_no_test_only_module():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(COMMANDS)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)
    report = json.loads(done.stdout)
    assert report["codes"] == [0] * len(COMMANDS)
    assert [name for name in report["modules"]
            if name.split(".")[0] in ("scipy", "hypothesis", "pytest")] == []
