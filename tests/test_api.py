"""Every public name has a caller: no library code that only tests call."""

import ast
import inspect
from pathlib import Path

import mgonal

ROOT = Path(__file__).resolve().parents[1]

#: Pinned by their regime labels in tests/golden/stability_depths.json.
ALLOWED = {"k_stability_exponent", "StabilityExponent"}


def _sources():
    package = Path(mgonal.__file__).resolve().parent
    for path in sorted(package.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py")):
        if path.name != "__init__.py":
            yield ast.parse(path.read_text(), filename=str(path))


def _references(tree, counts):
    """Count each Name load, Attribute and identifier string in ``tree``,
    skipping the body of a def or class whose name it would count."""
    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if node.value.isidentifier() else None
        if name is not None and name not in inside:
            counts[name] = counts.get(name, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())


def test_every_public_name_has_a_library_or_benchmark_caller():
    counts = {}
    for tree in _sources():
        _references(tree, counts)
    public = [name for name in mgonal.__all__
              if not inspect.ismodule(getattr(mgonal, name))]
    unused = sorted(name for name in public
                    if name not in ALLOWED and not counts.get(name))
    assert unused == []
