from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
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


def test_every_definition_has_a_library_caller():
    # each library line is split into words once; a definition has a caller
    # when its name occurs more often in the library than inside its own lines.
    # Blind spot: a name that two definitions share is never flagged, because
    # each definition's own line counts as a use of the other; nor is one that
    # a comment elsewhere uses as a word.
    lines = {path: [Counter(re.findall(r"\w+", line)) for line in path.read_text().splitlines()]
             for path in sorted(SRC.glob("*.py"))}
    total = Counter()
    for per_line in lines.values():
        for words in per_line:
            total.update(words)
    orphans = {name for name, path, first, last in definitions()
               if total[name] == sum(words[name] for words in lines[path][first - 1:last])}
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
