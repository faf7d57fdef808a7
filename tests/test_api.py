"""The shape of the public API: builders and searches take no option that
no caller sets, and library invariants never rest on `assert`."""
import ast
import inspect
import pathlib

import pytest

import campana
from campana import formulas as fm, parametrize, places


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


@pytest.mark.parametrize("path", sorted(
    pathlib.Path(campana.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_library_code_has_no_assert(path):
    # python -O strips assert statements, so an invariant must raise
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert lines == []
