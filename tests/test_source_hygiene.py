"""Source hygiene of the package: no private definition without a caller,
no unused import, and the series kernel within its line budget.

Parsed with the stdlib ``ast``; nothing is imported or executed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "puiseux"


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
