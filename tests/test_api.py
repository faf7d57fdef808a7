"""The shape of the public API: builders and searches take no option that
no caller sets, library invariants never rest on `assert`, no module of
the package imports itself back, and the CLI has one error path."""
import ast
import importlib
import inspect
import pathlib
import pkgutil
import types

import pytest

import campana
from campana import cli, formulas as fm, parametrize, places


def _parameters(fn):
    return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]


@pytest.mark.parametrize("name", sorted(fm.TARGETS))
def test_each_builder_takes_only_n_and_real_embedded(name):
    target = fm.TARGETS[name]
    want = [("n", inspect.Parameter.empty)] * target.takes_n
    want += [("real_embedded", False)] * target.has_real
    assert _parameters(target.builder) == want


def test_searches_and_substitution_take_no_knobs():
    empty = inspect.Parameter.empty
    assert _parameters(fm.substitute_form) == [("base", empty), ("F", empty)]
    assert _parameters(places.find_local_counterexample) == [("a", empty), ("v", empty)]
    config = list(inspect.signature(parametrize.SearchConfig).parameters)
    assert config == ["candidate_cap"]


def test_memo_counters_are_read_only_through_memos():
    # a memo's counts and clearing go through campana.memos() and
    # clear_memos(), not through accessors that a public callable carries,
    # whether grafted onto a function or a functools cache itself, nor
    # through accessors grafted onto a private plain function
    counters = ("cache_info", "cache_clear")
    public = {f"campana.{name}": getattr(campana, name) for name in campana.__all__}
    grafted = []
    for info in pkgutil.iter_modules(campana.__path__):
        module = importlib.import_module(f"campana.{info.name}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_"):
                public[f"{info.name}.{attr}"] = obj
            elif isinstance(obj, types.FunctionType) and any(
                    hasattr(obj, accessor) for accessor in counters):
                grafted.append(f"{info.name}.{attr}")
    grafted += [name for name, obj in public.items() if callable(obj) and any(
        hasattr(obj, accessor) for accessor in counters + ("__wrapped__",))]
    assert sorted(grafted) == []


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(campana.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_code_has_no_assert(path):
    # python -O strips assert statements, so an invariant must raise
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == []


def _package_imports(path, modules):
    """The package modules that the module at path imports relatively,
    function-level imports included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found & modules


def test_the_package_import_graph_has_no_cycle():
    paths = list(pathlib.Path(campana.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    graph = {path.stem: _package_imports(path, modules) for path in paths}
    # peel off modules whose imports are all peeled; a cycle never peels
    done = set()
    while done != graph.keys():
        ready = {m for m, deps in graph.items() if m not in done and deps <= done}
        assert ready, {m: sorted(graph[m] - done) for m in sorted(graph.keys() - done)}
        done |= ready


def _catches_value_error(handler):
    """Whether an except clause catches ValueError: bare, or naming it, a
    base of it, or a tuple holding one of those."""
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id in ("ValueError", "Exception", "BaseException")
               for t in caught)


def test_the_cli_has_one_error_path():
    # every refusal is a ValueError, which main alone turns into exit 2
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    exceptions = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  and any(isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception"))
                          for b in node.bases)]
    assert exceptions == []
    handling = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for h in ast.walk(fn) if isinstance(h, ast.ExceptHandler)
                and _catches_value_error(h)
                and not any(isinstance(node, ast.Raise) for node in ast.walk(h))}
    assert handling == {"main"}


def _callers(tree, callee):
    """The top-level functions of a module that call callee, by its bare
    name or as an attribute."""
    return {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_one_routine_builds_every_ramified_pair():
    # a second construction would call find_b, or search primes, on its own
    tree = ast.parse(pathlib.Path(parametrize.__file__).read_text())
    builders = _callers(tree, "find_b")
    assert len(builders) == 1
    assert _callers(tree, "next_prime") <= builders | {"find_b"}
