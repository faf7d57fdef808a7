import itertools
import time

import pytest

from campana import cli, formulas, places, semantics, verify
from campana.circuits import Circuit
from campana.errors import InvariantError


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_each_suite_passes(suite):
    ok, table = verify.run(suite, seed=7, samples=100)
    assert ok, table
    assert "FAIL" not in table


def test_all_runs_every_suite():
    ok, table = verify.run("all", seed=7, samples=50)
    assert ok, table
    lines = [ln for ln in table.splitlines() if ln.startswith("PASS")]
    assert len(lines) >= len(verify.SUITES)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run("nosuch")


@pytest.mark.parametrize("args", [
    {"suite": ["hilbert"]}, {"suite": ("all",)}, {"suite": None},
    {"suite": "hilbert", "samples": "5"}, {"suite": "hilbert", "samples": 2.5},
    {"suite": "hilbert", "samples": None},
    {"suite": "hilbert", "seed": "x"}, {"suite": "hilbert", "seed": None},
    {"suite": "hilbert", "seed": 1.0},
])
def test_a_suite_that_is_not_a_str_or_a_non_integer_seed_or_samples_is_refused(args):
    with pytest.raises(ValueError):
        verify.run(**args)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_deterministic_for_fixed_seed(monkeypatch, suite):
    # the table is a function of seed and samples: a clock that runs ever
    # faster, so that no two runs see the same intervals, shows in no row
    ticks = itertools.count()
    for clock in ("monotonic", "perf_counter", "time"):
        monkeypatch.setattr(time, clock, lambda: float(next(ticks)) ** 2)
    assert verify.run(suite, seed=3, samples=60) == verify.run(suite, seed=3, samples=60)


@pytest.mark.parametrize("samples", [0, -3])
def test_samples_below_one_rejected(samples):
    # a run with no samples would report PASS without testing anything
    with pytest.raises(ValueError):
        verify.run("semantics", samples=samples)


def test_formulas_fails_a_norm_form_with_a_nonzero_zero(monkeypatch):
    # y1^n is homogeneous of degree n but vanishes at (0, 1, ...), and it
    # is not the norm form: the anisotropy row must evaluate it
    monkeypatch.setattr(formulas, "norm_form", lambda n: Circuit.var("y1")**n)
    ok, table = verify.run("formulas", seed=7, samples=50)
    assert not ok
    assert "FAIL  formulas: norm forms anisotropic + homogeneous" in table


def test_formulas_fails_a_wrong_n_family_template(monkeypatch):
    # the cold and warm row compares one splice with another, and a JSON
    # document with a trailing space still parses, so only the row that
    # renders afresh can see a wrong template
    template = formulas._n_template

    def wrong(target, real_embedded):
        return {fmt: (head, tail + b" ")
                for fmt, (head, tail) in template(target, real_embedded).items()}

    monkeypatch.setattr(formulas, "_n_template", wrong)
    ok, table = verify.run("formulas", seed=7, samples=50)
    assert not ok
    assert "FAIL  formulas: n-family emits equal a fresh render" in table
    assert "PASS  formulas: cold and warm builds agree" in table


def test_formulas_fails_a_wrong_n_family_template_read(monkeypatch):
    # a template read that builds the member one n too far: the row that
    # reads each family document afresh must see it
    def wrong(data):
        for (target, real), parts in list(formulas._templates.items()):
            head, tail = parts["json"]
            if type(data) is bytes and data.startswith(head) and data.endswith(tail):
                k = int(data[len(head):len(data) - len(tail)])
                return formulas.TARGETS[target].build(k + 2, real)
        return None

    monkeypatch.setattr(formulas, "_template_member", wrong)
    ok, table = verify.run("formulas", seed=7, samples=50)
    assert not ok
    assert "FAIL  formulas: n-family parses equal a fresh read" in table
    assert "PASS  formulas: n-family emits equal a fresh render" in table


def test_formulas_fails_a_wrong_pow_degree_rule(monkeypatch):
    # pow read as its base's degree, in the fold over each document only:
    # no circuit is interned with a wrong degree, so the ledger row passes
    fold_nodes = verify.fold_nodes

    def wrong(nodes, rules, env, q=None):
        return fold_nodes(nodes, {**rules, "pow": lambda nd, v, env, q: v[nd[1]]}, env, q)

    monkeypatch.setattr(verify, "fold_nodes", wrong)
    ok, table = verify.run("formulas", seed=7, samples=50)
    assert not ok
    assert "FAIL  formulas: documents fold to the ledger degree (23 builds)" in table
    assert "PASS  formulas: quantifier/atom/degree ledger" in table


def test_all_prints_every_row_in_order():
    ok, table = verify.run("all", seed=7, samples=50)
    rows = [line.split("  ", 1)[1].split(" -- ")[0] for line in table.splitlines()[:-1]]
    assert rows == [
        "hilbert: symbol vs oracle (50 trials)",
        "hilbert: reciprocity (50 pairs)",
        "hilbert: local counterexamples ramify",
        "construct: round trip (66 sets)",
        "semantics: coordinate equivalence (50 samples)",
        "semantics: filtration (50 samples)",
        "semantics: trace witnesses on the conic",
        "formulas: quantifier/atom/degree ledger (23 builds)",
        "formulas: emit/parse round trip (23 builds)",
        "formulas: documents fold to the ledger degree (23 builds)",
        "formulas: n-family emits equal a fresh render (12 builds)",
        "formulas: n-family parses equal a fresh read (12 builds)",
        "formulas: cold and warm builds agree (23 builds)",
        "formulas: combine_pair zero set",
        "formulas: norm forms anisotropic + homogeneous",
    ]


def test_a_row_stops_at_its_first_counterexample(monkeypatch):
    # the rows after it draw from the same generator of random numbers, so
    # one more check here would move every draw they make
    calls = []

    def refuted(a, b):
        calls.append((a, b))
        return False

    monkeypatch.setattr(places, "reciprocity_check", refuted)
    ok, table = verify.run("hilbert", seed=7, samples=50)
    a, b = calls[0]
    assert not ok and len(calls) == 1
    assert (f"FAIL  hilbert: reciprocity (50 pairs) -- product formula fails "
            f"for a={a}, b={b}") in table.splitlines()


@pytest.mark.parametrize("module, name, error, suite, row", [
    (places, "hilbert_oracle", InvariantError, "hilbert", "symbol vs oracle (1000 trials)"),
    (places, "find_local_counterexample", InvariantError, "hilbert",
     "local counterexamples ramify"),
    (semantics, "campana_via_coordinates", ValueError, "semantics",
     "coordinate equivalence (1000 samples)"),
], ids=["hilbert_oracle", "find_local_counterexample", "campana_via_coordinates"])
def test_a_check_that_raises_fails_its_row_and_the_other_rows_run(
        module, name, error, suite, row, monkeypatch, capsys):
    # an InvariantError ended the command with a traceback, and a
    # ValueError left it as a usage error, "error: planted" and exit 2
    def planted(*args):
        raise error("planted")

    monkeypatch.setattr(module, name, planted)
    code = cli.main(["verify", suite])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (code, err, lines[-1]) == (1, "", "FAILURES above")
    assert f"FAIL  {suite}: {row} -- raised {error.__name__}('planted')" in lines
    assert sum(line.startswith(f"PASS  {suite}: ") for line in lines) == 2


def test_a_suite_whose_set_up_raises_is_one_failing_row(monkeypatch):
    def planted(seed, samples):
        raise InvariantError("planted")

    monkeypatch.setitem(verify.SUITES, "construct", planted)
    ok, table = verify.run("all", seed=7, samples=50)
    lines = table.splitlines()
    assert not ok and len(lines) == 16
    assert "FAIL  construct: set-up -- raised InvariantError('planted')" in lines
    assert sum(line.startswith("PASS") for line in lines) == 14
