"""Every public name has a caller: no library code that only tests call; and
the eq2 verdict and the traced names keep what the benchmark reads."""

import ast
import dataclasses
import inspect
from pathlib import Path

import mgonal
import mgonal.quadratic as quadratic
from mgonal.quadratic import Eq2Verdict

ROOT = Path(__file__).resolve().parents[1]

#: k_stability_exponent and StabilityExponent are pinned by their regime
#: labels in tests/golden/stability_depths.json.  eq2_residual is how
#: acceptance criterion 2 and the witness checks read the library's reduction
#: of the equation (benchmarks/checks.py defines its own).
ALLOWED = {"k_stability_exponent", "StabilityExponent", "eq2_residual"}


def _sources():
    """(module name, syntax tree) of each library and benchmark file; the
    module name is None outside the library."""
    package = Path(mgonal.__file__).resolve().parent
    for path in sorted(package.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py")):
        if path.name != "__init__.py":
            module = f"mgonal.{path.stem}" if path.parent == package else None
            yield module, ast.parse(path.read_text(), filename=str(path))


def _homonyms(tree, module) -> set[str]:
    """The names that ``tree`` defines or imports from outside ``mgonal``,
    except those of the public objects that ``module`` defines: there such a
    name is not the library's."""
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if getattr(getattr(mgonal, node.name, None), "__module__", None) != module:
                own.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] != "mgonal":
            own.update(alias.asname or alias.name for alias in node.names)
    return own


def _references(tree, module, counts):
    """Count each Name load, Attribute and identifier string in ``tree``,
    skipping the body of a def or class whose name it would count and the
    homonyms of library names."""
    skip = _homonyms(tree, module)

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
        if name is not None and name not in inside and name not in skip:
            counts[name] = counts.get(name, 0) + 1
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())


def test_every_public_name_has_a_library_or_benchmark_caller():
    counts = {}
    for module, tree in _sources():
        _references(tree, module, counts)
    public = [name for name in mgonal.__all__
              if not inspect.ismodule(getattr(mgonal, name))]
    unused = sorted(name for name in public
                    if name not in ALLOWED and not counts.get(name))
    assert unused == []


def test_eq2_verdicts_keep_what_the_benchmark_reads():
    """benchmarks/tracing.py counts verdicts by status and budget flag, and
    benchmarks/checks.py reads the status, witness and precision of the
    evidence.  So Eq2Verdict keeps those fields, and every verdict that
    solvable_eq2_at builds carries one of the three statuses the trace
    counts."""
    fields = {f.name for f in dataclasses.fields(Eq2Verdict)}
    assert {"status", "witness", "precision", "budget_exhausted"} <= fields
    allowed = {"EQ2_PRIMITIVE", "EQ2_UNSOLVABLE", "EQ2_UNKNOWN"}
    tree = ast.parse(inspect.getsource(quadratic.solvable_eq2_at))
    statuses = [kw.value for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Eq2Verdict"
                for kw in node.keywords if kw.arg == "status"]
    assert statuses
    assert all(isinstance(s, ast.Name) and s.id in allowed for s in statuses)
    traced = next(
        ast.literal_eval(node.value)
        for node in ast.parse((ROOT / "benchmarks" / "tracing.py").read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "EQ2_STATUSES"
    )
    assert {getattr(quadratic, name) for name in allowed} <= set(traced)


def _mgonal_module(node):
    """The ``mgonal`` submodule that ``mgonal.<name>`` in the AST names, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "mgonal"):
        return getattr(mgonal, node.attr)
    return None


def test_trace_reads_names_that_exist():
    """benchmarks/tracing.py rebinds functions by module and name, and reads
    ``cache_info()`` of cached ones; a name missing from the library breaks
    ``--trace 1``, which no test runs.  So every ``tracer.wrap`` or
    ``tracer.count`` target must be a function of its module (the modules of
    a ``for`` loop over ``mgonal.<module>`` each), and every
    ``mgonal.<module>.<name>.cache_info()`` must exist."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            loops[node.target.id] = [_mgonal_module(e) for e in node.iter.elts]
    patched, cached = set(), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr in ("wrap", "count"):
            target, attr = node.args[0], node.args[1].value
            modules = loops[target.id] if isinstance(target, ast.Name) \
                else [_mgonal_module(target)]
            for module in modules:
                assert module is not None, ast.unparse(node)
                assert callable(getattr(module, attr, None)), (module.__name__, attr)
                patched.add((module.__name__, attr))
        elif node.func.attr == "cache_info":
            owner = node.func.value
            module = _mgonal_module(owner.value)
            assert module is not None, ast.unparse(node)
            assert callable(getattr(getattr(module, owner.attr, None), "cache_info", None)), \
                (module.__name__, owner.attr)
            cached.add((module.__name__, owner.attr))
    assert {("mgonal.census", "locally_represents"),
            ("mgonal.theorem", "locally_represents"),
            ("mgonal.localrep", "locally_represents"),
            ("mgonal.polygonal", "invert_polygonal")} <= patched
    assert {("mgonal.quadratic", "_diagonal_solvable"),
            ("mgonal.quadratic", "_unit_reachable"),
            ("mgonal.census", "_value_table"),
            ("mgonal.polygonal", "_term_table")} <= cached
