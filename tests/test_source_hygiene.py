"""Source hygiene of the package: no private definition without a caller,
no unused import, and the series kernel within its line budget; and of
the tests: only ``tests/corpora.py`` imports ``random``.

Parsed with the stdlib ``ast``; nothing is imported or executed.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "puiseux"


def _modules():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _used_names(tree):
    """Names read in ``tree``: bare names and attribute names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_private_definition_has_a_caller():
    modules = _modules()
    used = set().union(*(_used_names(tree) for tree in modules.values()))
    unused = [
        f"{name}: {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in used
    ]
    assert unused == []


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue  # re-exports its imports through __all__
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_series_kernel_stays_within_its_line_budget():
    # the series kernel and its coefficient domains together; a change
    # that needs more lines must first take some out
    total = sum(len((SRC / name).read_text().splitlines())
                for name in ("series.py", "coefficients.py"))
    assert total <= 1250, total


def test_only_the_corpora_module_imports_random():
    # every seeded generator of the tests lives in tests/corpora.py
    def imports_random(text):
        return any(isinstance(n, ast.Import) and any(a.name.split(".")[0] == "random"
                                                     for a in n.names)
                   or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "random"
                   for n in ast.walk(ast.parse(text)))

    # a file that never says "import random" or "from random" is not parsed
    candidates = [p for p in sorted(TESTS.glob("*.py"))
                  if re.search(r"\b(import|from)\s[^\n]*\brandom\b", p.read_text())]
    assert [p.name for p in candidates if imports_random(p.read_text())] == ["corpora.py"]
