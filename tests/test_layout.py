from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "etasphere"

# definitions that nothing in the library calls, each kept for a stated reason
NO_LIBRARY_CALLER = {
    "homology_at_degree": "a perfbench tracer layer",
    "tau_monomial_homology_dims": "the perfbench oracle for the pages E2 cells",
}


def definitions():
    """(name, file, first line, last line) of every function, class and non-dunder method."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno, node.end_lineno


def references():
    """(name, file, line) of every Name, Attribute and import alias in the library."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, node.lineno
            elif isinstance(node, ast.alias):
                yield node.name, path, node.lineno


def test_every_definition_has_a_library_caller():
    # a definition has a caller when the library refers to its name in code
    # outside the definition's own lines; comments and strings do not count,
    # and neither does another definition of the same name
    used: dict = {}
    for name, path, line in references():
        used.setdefault(name, []).append((path, line))
    orphans = {name for name, path, first, last in definitions()
               if all(p == path and first <= line <= last for p, line in used.get(name, ()))}
    assert orphans == set(NO_LIBRARY_CALLER)


def test_every_module_stays_below_8192_tokens():
    # with bytecode caching off each module is compiled at import, and past 8192
    # tokens CPython 3.11's parser doubles its token buffer: about 0.5 MiB more
    # peak memory on every benchmark workload.  Comments and blank lines do not count.
    sizes = {}
    for path in sorted(SRC.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        sizes[path.name] = sum(tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokens)
    assert max(sizes.values()) < 8192, sizes
