"""Every module-level import of the package is used where it is made.

A name counts as used when the module reads it or lists it in
``__all__``.  Two bindings are kept unused on purpose: ``solve_assignment``
in ``subset_distance`` and in ``comparisons``, which the benchmark's
tracer (``perfbench/tracing.py``) wraps by name in each module.
"""

import ast
from pathlib import Path

import setmetrics

PACKAGE = Path(setmetrics.__file__).resolve().parent

KEPT_FOR_THE_TRACER = {("subset_distance", "solve_assignment"),
                       ("comparisons", "solve_assignment")}


def unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.add(name)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return {(path.stem, name) for name in imported if name not in read}


def test_no_module_level_import_goes_unused():
    unused = set().union(*(unused_imports(path)
                           for path in sorted(PACKAGE.glob("*.py"))))
    assert unused == KEPT_FOR_THE_TRACER
