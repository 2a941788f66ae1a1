"""Guards for the benchmark harness that lives next to the package, and for
the package's own source.

``perfbench/spans.py`` patches its probes into ``dirdense`` through
``owner.__dict__[attr]``, so a probed callable must be defined directly on
the module or class it is looked up on. A refactor that moves one into a
base class or renames it breaks traced benchmark runs without failing any
package test; this test makes that visible. Another runs the full probe
set over small command-line sweeps, so a runner result that the probes'
hooks can no longer read fails here too.
"""

import ast
import contextlib
import importlib
import io
from pathlib import Path

import pytest

from tests.support import load_perfbench_module

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirdense"


def test_every_probe_is_defined_on_its_owner():
    probes = load_perfbench_module("spans")._probes()
    assert probes
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in probes if attr not in owner.__dict__]
    assert not missing, f"probed callables not defined on their owner: {missing}"


@pytest.mark.parametrize("algo", ["single-pass", "mpc-super", "mpc-near"])
def test_full_trace_of_a_cli_sweep_reads_every_runner_result(algo, tmp_path):
    """The traced benchmark's hooks read what the runners return: the MPC
    ledgers' rounds and phase logs, and each single-pass cell's stream."""
    from dirdense import cli

    spans = load_perfbench_module("spans")
    tracer = spans.Tracer()
    argv = ["--gen", "pref:n=200,k=20", "--algo", algo, "--f", "0.001", "--seed", "2",
            "--out", str(tmp_path / "report.csv")]
    if algo == "mpc-near":
        argv += ["--mpc-budget", "2"]
    with tracer.installed(full=True), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    layers = tracer.layer_metrics()
    assert set(layers) | {"trace.overhead_s"} == set(spans.LAYER_UNITS)
    rows = tracer.sweep_result.rows
    assert rows and all(row.error is None for row in rows)
    assert layers["csweep.cells"] == len(rows)
    assert layers["streaming.peak_edges"] == max(row.peak_edges for row in rows)
    if algo == "single-pass":
        assert set(tracer.cells) == {row.c for row in rows}
        assert layers["streaming.edges_read"] == sum(read for _, read, _ in tracer.cells.values())
        assert layers["streaming.resets"] == 0
        assert layers["streaming.take_qualifying_calls"] > 0  # the cells sampled
    else:
        assert layers["mpc.rounds"] == sum(row.passes_or_rounds for row in rows)
        assert layers["mpc.phases"] > len(rows)  # some cell ran more than one phase
        assert layers["mpc.edges_fetched"] == layers["mpc.edges_drawn"] > 0
        assert (layers["mpc.flip_peels"] > 0) == (algo == "mpc-near")


def _unused_imports(tree):
    """Names a module imports but never reads, outside ``__future__`` and ``__all__``."""
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unused_imports(tree)]
    assert not found, f"unused imports: {found}"


def _private_definitions(tree):
    """Module-level ``_name`` functions, classes and constants, with their lines."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _loaded_names(tree):
    """Names a module reads or imports."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return loaded


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_dead_private_helpers():
    trees = _package_trees()
    loaded = set().union(*map(_loaded_names, trees.values()))
    dead = [f"{name}:{line} {helper}" for name, tree in trees.items()
            for helper, line in _private_definitions(tree).items() if helper not in loaded]
    assert not dead, f"private helpers nothing in the package reads: {dead}"


def _private_methods(tree):
    """(class, method, line) of every ``_name`` method a module's classes define."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name.startswith("_") and not item.name.startswith("__")):
                    yield node.name, item.name, item.lineno


def _read_attributes(tree):
    """Attribute names a module reads, as in ``obj.name``."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_no_dead_private_methods():
    trees = _package_trees()
    read = set().union(*map(_read_attributes, trees.values()))
    methods = [(name, *method) for name, tree in trees.items() for method in _private_methods(tree)]
    assert methods
    dead = [f"{name}:{line} {owner}.{method}" for name, owner, method, line in methods
            if method not in read]
    assert not dead, f"private methods nothing in the package reads: {dead}"


def test_every_exported_name_resolves():
    modules = [importlib.import_module("dirdense")]
    modules += [importlib.import_module(f"dirdense.{path.stem}")
                for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not stale, f"__all__ names that do not resolve: {stale}"


# public names the package may export without reading them itself, each with
# the reason it stays public
_UNREAD_EXPORTS = {
    "parse_report_csv": "the reader of the report CSV the command line writes",
}


def _exports(tree):
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _readers(tree):
    """(reader, name) for every name a module reads: the reader is the
    module-level definition the read sits in (None outside any), and no
    definition counts as reading its own name."""
    for node in tree.body:
        own = getattr(node, "name", None)
        yield from ((own, sub.id) for sub in ast.walk(node) if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load) and sub.id != own)


def test_no_public_name_only_tests_reach():
    """Every exported name is read in the package by code that is itself
    reached: a name read only inside unread exports is unread too."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    exported = set().union(*map(_exports, trees))
    assert set(_UNREAD_EXPORTS) <= exported
    readers = {}
    for tree in trees:
        for reader, name in _readers(tree):
            readers.setdefault(name, set()).add(reader)
    unread = set()
    while True:
        newly = {name for name in exported - unread - set(_UNREAD_EXPORTS)
                 if not readers.get(name, set()) - unread}
        if not newly:
            break
        unread |= newly
    assert not unread, f"exported names nothing in the package reads: {sorted(unread)}"


# public methods and properties of package classes that the package may
# define without reading them itself, each with the reason it stays
_UNREAD_METHODS = {
    "RoundLedger.phases": "read by the benchmark's trace of MPC ledgers",
    "SweepResult.best_density": "read by the benchmark's correctness gate",
    "VertexSetPair.of": "the one entry point from vertex ids to a pair",
}


def _public_methods(tree):
    """(class, method, line) of every public method a module's classes
    define, properties included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield node.name, item.name, item.lineno


def test_no_public_method_only_tests_reach():
    """Every public method of a package class is read in the package, as
    ``obj.name``, unless it is a stated exemption."""
    trees = _package_trees()
    read = set().union(*map(_read_attributes, trees.values()))
    methods = {f"{owner}.{method}": f"{name}:{line}" for name, tree in trees.items()
               for owner, method, line in _public_methods(tree)}
    assert set(_UNREAD_METHODS) <= set(methods)
    stale = [qualified for qualified in _UNREAD_METHODS if qualified.split(".")[1] in read]
    assert not stale, f"exempt methods the package now reads: {stale}"
    unread = [f"{where} {qualified}" for qualified, where in methods.items()
              if qualified.split(".")[1] not in read and qualified not in _UNREAD_METHODS]
    assert not unread, f"public methods nothing in the package reads: {unread}"


def _membership_tests(node, scope):
    """The qualified name of the definition around each ``a[x] & b[y]``
    under ``node``: two subscripts joined by ``&``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
          and isinstance(node.left, ast.Subscript) and isinstance(node.right, ast.Subscript)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _membership_tests(child, scope)


def test_every_bag_filter_is_inside():
    """A membership test of edges, ``s_mask[src] & t_mask[dst]``, is written
    only in ``graph._inside_mask``: every filter, count and scan of edges
    by a pair gets its mask from there."""
    found = {scope for name, tree in _package_trees().items()
             for scope in _membership_tests(tree, name.removesuffix(".py"))}
    assert found == {"graph._inside_mask"}, (
        f"membership tests outside graph._inside_mask: {sorted(found - {'graph._inside_mask'})}")


def _calls_of(name, node, scope):
    """The qualified name of the definition around each call of ``name``,
    as ``name(...)`` or ``obj.name(...)``, under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    elif isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                  getattr(node.func, "attr", None)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from _calls_of(name, child, scope)


def test_the_peel_kernel_has_four_callers():
    """The kernel ``_exact_bag_peels`` is called once in each of four
    places: a shared peel's walk, each multi-pass step's sample, each
    sampled single-pass step's sample, and the finishing peel away from
    (V, V). Every other exact peel reads a ``SharedPeel``."""
    found = sorted(scope for name, tree in _package_trees().items()
                   for scope in _calls_of("_exact_bag_peels", tree, name.removesuffix(".py")))
    assert found == ["peeling.SharedPeel.steps", "streaming.SinglePassEngine._local_peel",
                     "streaming.SinglePassEngine.run", "streaming.multi_pass_run"]


def test_one_fill_step_fetches_installments():
    """An installment source's ``fetch()`` is called in one place, the fill
    step ``EdgeStream._unread``, so no other read can start an MPC phase."""
    found = sorted(scope for name, tree in _package_trees().items()
                   for scope in _calls_of("fetch", tree, name.removesuffix(".py")))
    assert found == ["streaming.EdgeStream._unread"]
