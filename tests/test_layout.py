from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etasphere"

# definitions that nothing in the library calls, each kept for a stated reason
NO_LIBRARY_CALLER = {
    "homology_at_degree": "a perfbench tracer layer",
    "tau_monomial_homology_dims": "the perfbench oracle for the pages E2 cells",
    "cell_homology_dim": "acceptance criterion 5 calls it",
}


def definitions():
    """(name, file, first line, last line) of every function, class and non-dunder method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno, node.end_lineno


def test_every_definition_has_a_library_caller():
    sources = {path: path.read_text().splitlines() for path in sorted(SRC.glob("*.py"))}
    orphans = set()
    for name, path, first, last in definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # every library line except the definition's own body
        elsewhere = (line for p, lines in sources.items() for i, line in enumerate(lines, 1)
                     if p != path or not first <= i <= last)
        if not any(word.search(line) for line in elsewhere):
            orphans.add(name)
    assert orphans == set(NO_LIBRARY_CALLER)
