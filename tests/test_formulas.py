import gc
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from campana import formulas as fm, kernels, semantics
from campana.circuits import Circuit
from campana.forms import BinaryForm, X_FORM


def _stat(f):
    s = fm.stats(f)
    return (s.universals, s.existentials, s.atoms, s.degree_bound)


# quantifier/atom/degree ledger, frozen after independent recomputation
def test_tower_ledger():
    assert _stat(fm.build_S()) == (0, 3, 1, 4)
    assert _stat(fm.build_T()) == (0, 7, 2, 4)
    assert _stat(fm.build_T_unit()) == (0, 15, 5, 4)
    assert _stat(fm.build_I()) == (0, 34, 12, 4)
    assert _stat(fm.build_J()) == (0, 138, 48, 4)
    assert _stat(fm.build_Jabcd()) == (0, 277, 96, 4)
    assert _stat(fm.build_inv_J()) == (0, 278, 97, 4)
    assert _stat(fm.build_disjoint()) == (0, 556, 193, 9)
    assert _stat(fm.build_premise()) == (0, 834, 290, 9)
    for n in (2, 3, 10, 100):
        assert _stat(fm.build_Jn(n)) == (0, 556, 193, max(n, 4))
        assert _stat(fm.build_inv_Jn(n)) == (0, 557, 194, max(n, 4))


def test_headline_ledger():
    for n in (2, 3, 10, 100):
        assert _stat(fm.build_campana(n)) == \
            (838, 558, 1, max(194 * n + 2611, 3387))
        assert _stat(fm.build_campana(n, real_embedded=True)) == \
            (838, 558, 1, max(2 * n + 19, 27))
    assert _stat(fm.build_integrality()) == (838, 278, 1, 2995)
    assert _stat(fm.build_integrality(real_embedded=True)) == (838, 278, 1, 27)
    with pytest.raises(ValueError):
        fm.build_campana(1)


def test_build_S_prefix_and_witness():
    f = fm.build_S()
    assert f.prefix[0] == ("exists", "x2")
    assert f.free == ("a", "b", "r")
    # r = 2 with x2 = x3 = x4 = 0 satisfies r^2 - 4 = 0 for any a, b
    env = {"a": 1, "b": 1, "r": 2, "x2": 0, "x3": 0, "x4": 0}
    assert fm.evaluate_matrix(f, env)
    env["r"] = 3
    assert not fm.evaluate_matrix(f, env)
    # exact values only: a float that happens to be whole is still refused
    assert fm.evaluate_matrix(f, {**env, "r": np.int64(2), "a": Fraction(1, 3)})
    with pytest.raises(ValueError):
        fm.evaluate_matrix(f, {**env, "r": 2.0})


def test_and_and_or_stop_at_the_first_child_that_decides_them():
    # y is unbound: evaluating the second atom would raise
    x, y = Circuit.var("x"), Circuit.var("y")
    conj = fm.Formula([], ("and", (("eq", x - 1), ("eq", y))), ["x", "y"])
    disj = fm.Formula([], ("or", (("eq", x), ("eq", y))), ["x", "y"])
    assert fm.evaluate_matrix(conj, {"x": 0}) is False
    assert fm.evaluate_matrix(disj, {"x": 0}) is True
    with pytest.raises(ValueError, match="unbound variable 'y'"):
        fm.evaluate_matrix(conj, {"x": 1})


@pytest.mark.parametrize("depth", [300, 3000])
def test_a_matrix_nested_too_deeply_is_a_value_error(depth):
    # one eq atom under depth and-levels: past the recursion limit, Formula
    # and evaluate_matrix raise ValueError, never RecursionError
    x = Circuit.var("x")
    m = ("eq", x)
    for _ in range(depth):
        m = ("and", (m,))
    try:
        f = fm.Formula([], m, ["x"])
        assert fm.evaluate_matrix(f, {"x": 0}) is True
    except ValueError as e:
        assert "nested too deeply" in str(e)
    if depth == 3000:
        with pytest.raises(ValueError, match="nested too deeply"):
            fm.Formula([], m, ["x"])


def test_build_T_witness():
    f = fm.build_T()
    # r = 4 = 2 + 2; both summands carry the trivial witness
    env = {n: 0 for _, n in f.prefix}
    env.update({"a": 1, "b": 1, "r": 4})
    x = f.prefix[0][1]
    env[x] = 2  # the split point
    assert fm.evaluate_matrix(f, env)


def test_combine_pair_zero_set():
    x, y = Circuit.var("x"), Circuit.var("y")
    h = fm.combine_pair(x, y)
    rng = random.Random(21)
    for _ in range(300):
        vx = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        vy = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        val = h.evaluate({"x": vx, "y": vy})
        assert (val == 0) == (vx == 0 and vy == 0)


def test_combine_many_zero_set_and_degree():
    xs = [Circuit.var(f"v{i}") for i in range(4)]
    h = fm.combine_many([x**2 + 1 if i == 0 else x for i, x in enumerate(xs)])
    assert h.degree() == 4 * 2
    rng = random.Random(22)
    for _ in range(200):
        env = {f"v{i}": Fraction(rng.randint(-9, 9), rng.randint(1, 4))
               for i in range(4)}
        vals = [env["v0"]**2 + 1, env["v1"], env["v2"], env["v3"]]
        assert (h.evaluate(env) == 0) == all(v == 0 for v in vals)
    assert fm.combine_many([xs[0]]) is xs[0]
    # a number is lifted to a circuit, as the norm node lifts two or more
    assert fm.combine_many([1]) is Circuit.const(1)
    assert fm.combine_many([Fraction(-2, 3)]) is Circuit.const(Fraction(-2, 3))


def test_combine_sos_zero_set():
    x, y, z = (Circuit.var(n) for n in "xyz")
    h = fm.combine_sos([x, y - 1, z])
    assert h.evaluate({"x": 0, "y": 1, "z": 0}) == 0
    assert h.evaluate({"x": 0, "y": 0, "z": 0}) > 0


def test_combine_sos_lifts_numbers_to_circuits():
    h = fm.combine_sos([1, 2])
    assert h is Circuit.const(1) ** 2 + Circuit.const(2) ** 2
    assert h.evaluate({}) == 5
    assert fm.combine_sos([Fraction(1, 2)]).evaluate({}) == Fraction(1, 4)


def test_norm_form_closed_forms():
    f2 = fm.norm_form(2)
    assert f2.evaluate({"y1": 3, "y2": 1}) == 7  # 3^2 - 2
    f3 = fm.norm_form(3)
    rng = random.Random(23)
    for _ in range(100):
        ys = {f"y{i}": rng.randint(-30, 30) for i in (1, 2, 3)}
        want = (ys["y1"]**3 + 2 * ys["y2"]**3 + 4 * ys["y3"]**3
                - 6 * ys["y1"] * ys["y2"] * ys["y3"])
        assert f3.evaluate(ys) == want


def test_norm_form_matches_kernel():
    rng = random.Random(24)
    for n in range(1, 7):
        f = fm.norm_form(n)
        assert f.degree() == n
        for _ in range(30):
            w = [rng.randint(-20, 20) for _ in range(n)]
            env = {f"y{i+1}": w[i] for i in range(n)}
            assert f.evaluate(env) == kernels.norm_int(w)


def test_norm_form_matches_sympy_determinant():
    assert fm.norm_form(1).nodes == (("var", "y1"),)
    rng = random.Random(25)
    for n in range(1, 7):
        f = fm.norm_form(n)
        assert f.degree() == n
        # multiplication by sum y_j t^(j-1) in Q[t]/(t^n - 2)
        ys = sympy.symbols(f"y1:{n + 1}")
        mat = sympy.Matrix(n, n, lambda i, j: ys[i - j] if i >= j else 2 * ys[n + i - j])
        for _ in range(5):
            pt = [Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
            # the determinant of the matrix at the point, not of the symbolic matrix
            want = mat.subs(dict(zip(ys, map(sympy.Rational, pt)))).det()
            assert f.evaluate({f"y{i + 1}": x for i, x in enumerate(pt)}) == want


@pytest.mark.parametrize("n", [2.0, "3", None, True, False, 0, -1, Fraction(2)])
def test_norm_form_refuses_a_non_integer_or_nonpositive_n(n):
    with pytest.raises(ValueError, match="n must be"):
        fm.norm_form(n)


@pytest.mark.parametrize("build", [fm.build_Jn, fm.build_inv_Jn, fm.build_campana])
def test_jn_builders_refuse_a_non_integer_n(build):
    for n in ("3", None, 2.0, True):
        with pytest.raises(ValueError, match="n must be"):
            build(n)
    assert build(np.int64(3)) == build(3)


def test_prenex_or_trivial_example():
    # forall x: x != 0  OR  exists z: z - 1 = 0
    x, z = Circuit.var("x"), Circuit.var("z")
    uni = fm.Formula([("forall", "x")], ("neq", x), ())
    exi = fm.Formula([("exists", "z")], ("eq", z - 1), ())
    g = fm.prenex_or(uni, exi)
    assert _stat(g) == (1, 2, 1, 3)
    assert [q for q, _ in g.prefix] == ["forall", "exists", "exists"]
    # (y x - 1)(z - 1): at x = 5 take y = 1/5; at x = 0 take z = 1
    y = g.prefix[1][1]
    assert fm.evaluate_matrix(g, {"x": 5, y: Fraction(1, 5), "z": 7})
    assert fm.evaluate_matrix(g, {"x": 0, y: 3, "z": 1})
    assert not fm.evaluate_matrix(g, {"x": 0, y: 3, "z": 2})
    assert not g.real_embedded
    assert fm.prenex_or(uni, exi, real_embedded=True) == fm.Formula(
        g.prefix, g.matrix, g.free, real_embedded=True)


def test_prenex_or_refuses_to_capture_a_free_universal_name():
    # "x != 0" OR "exists x: x^2 + 1 = 0" is false at x = 0; merged with
    # the exists over x it became a true sentence with no free names
    x, u = Circuit.var("x"), Circuit.var("u")
    uni = fm.Formula([("forall", "u")], ("neq", x), ["x"])
    with pytest.raises(ValueError, match=r"binds \['x'\], free in the universal"):
        fm.prenex_or(uni, fm.Formula([("exists", "x")], ("eq", x**2 + 1), []))
    # a name free in the existential part is bound by the universal forall
    g = fm.prenex_or(fm.Formula([("forall", "u")], ("neq", u), []),
                     fm.Formula([("exists", "z")], ("eq", Circuit.var("z") - u), ["u"]))
    assert g.free == () and g.prefix == (("forall", "u"), ("exists", "x1"), ("exists", "z"))


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n", [2, 7])
def test_the_headline_is_prenex_or_of_its_two_parts(n, real):
    # build_campana makes the merge directly; prenex_or of the universal
    # premise and the existential conclusion is the same formula
    abcdr = [Circuit.var(nm) for nm in fm._ABCDR]
    gs = fm.Gensym()
    second = gs.take(4)
    prem = fm._premise_block(*abcdr[:4], *second, abcdr[4], gs)
    split = len(gs.names)
    concl = fm._inv_jn_block(*second, n, abcdr[4], gs)
    combine = fm.combine_sos if real else fm.combine_many
    uni = fm.Formula([("forall", nm) for nm in gs.names[:split]],
                     ("neq", combine(prem)), fm._ABCDR)
    exi = fm.Formula([("exists", nm) for nm in gs.names[split:]],
                     ("eq", combine(concl)), fm._ABCDR + tuple(gs.names[:4]))
    assert fm.prenex_or(uni, exi, real) == fm.build_campana(n, real)


_BUILDS = [(name, real) for name, t in sorted(fm.TARGETS.items())
           for real in ((False, True) if t.has_real else (False,))]


@pytest.mark.parametrize("name, real", _BUILDS)
def test_a_cold_build_makes_one_formula(monkeypatch, name, real):
    # build_campana and build_integrality made three: a universal and an
    # existential part, and their prenex_or merge, which checked both again
    import campana

    campana.clear_memos()
    made = []
    init = fm.Formula.__init__
    monkeypatch.setattr(fm.Formula, "__init__",
                        lambda self, *a, **k: made.append(1) or init(self, *a, **k))
    assert fm.TARGETS[name].build(3, real).real_embedded == real
    assert len(made) == 1


def test_substitute_form_degree():
    # r meets no top-degree term of campana's atom, so a quadratic F leaves
    # its degree as it was
    base = fm.build_campana(2)
    F = BinaryForm({(2, 0): 1, (0, 2): 1})
    g = fm.substitute_form(base, F)
    assert fm.stats(g).degree_bound == 3387
    assert "lam" in g.free and "r" not in g.free
    gx = fm.substitute_form(base, X_FORM)
    assert fm.stats(gx).degree_bound == 3387


#: The form pinned by test_emit_pins, and a cubic.
QUADRATIC = BinaryForm({(2, 0): 1, (1, 1): -3, (0, 2): 5})
CUBIC = BinaryForm.from_x_coeffs([2, 0, -1, 1])


def _sympy(circ):
    """circ as a sympy expression, read node by node; it has no norm node."""
    made = []
    for op, *args in circ.nodes:
        if op == "var":
            made.append(sympy.Symbol(args[0]))
        elif op == "int":
            made.append(sympy.Rational(args[0].numerator, args[0].denominator))
        elif op == "neg":
            made.append(-made[args[0]])
        elif op == "pow":
            made.append(made[args[0]] ** args[1])
        else:
            x, y = made[args[0]], made[args[1]]
            made.append(x + y if op == "add" else x * y)
    return made[circ.root]


def test_substituted_degree_is_the_degree_of_the_polynomial():
    g = fm.substitute_form(fm.build_S(), QUADRATIC)
    atom, = g.atoms()
    expr = sympy.expand(_sympy(atom))
    assert sympy.Poly(expr, *sorted(expr.free_symbols, key=str)).total_degree() == 4
    assert fm.stats(g).degree_bound == 4


@pytest.mark.parametrize("F", [QUADRATIC, CUBIC], ids=["quadratic", "cubic"])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n", [2, 7, 100])
def test_substituted_campana_keeps_the_ledger_degree(n, real, F):
    g = fm.substitute_form(fm.build_campana(n, real), F)
    assert fm.stats(g).degree_bound == fm.TARGETS["campana"].ledger(n, real)[3]


#: The emit targets with r free: every one but disjoint.
_R_TARGETS = sorted(name for name, target in fm.TARGETS.items()
                    if "r" in target.build(3).free)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_R_TARGETS), st.sampled_from([2, 3, 7]), st.booleans(),
       st.lists(st.integers(-3, 3), min_size=2, max_size=5).filter(lambda cs: any(cs[1:])))
def test_substitution_degree_lies_between_the_base_bound_and_its_multiple(
        name, n, real, coeffs):
    F = BinaryForm.from_x_coeffs(coeffs)  # degree 1-4, with x in some term
    e = max(F.dehomogenized())  # the degree of F(lam, 1), at most deg F
    base = fm.TARGETS[name].build(n, real)
    g = fm.substitute_form(base, F)
    low, sub = fm.stats(base).degree_bound, fm.stats(g).degree_bound
    assert low <= sub <= e * low <= F.degree * low
    assert sub == max(atom.degree() for atom in g.atoms())


#: Not binary forms, refused by substitute_form and campana_member_form.
NOT_FORMS = {"None": None, "int": 3, "dict": {(1, 0): 1}, "circuit": Circuit.var("x"),
             "str": "x", "function": lambda x, y: 1}


@pytest.mark.parametrize("F", [*NOT_FORMS.values(), BinaryForm({(0, 0): 3}),
                               BinaryForm({(0, 2): 1}), BinaryForm({(0, 3): 2})],
                         ids=[*NOT_FORMS, "degree 0", "y^2", "2y^3"])
def test_substitute_form_refuses_a_non_form(F):
    with pytest.raises(ValueError, match="must be a BinaryForm"):
        fm.substitute_form(fm.build_S(), F)


@pytest.mark.parametrize("F", NOT_FORMS.values(), ids=NOT_FORMS)
def test_campana_member_form_refuses_a_non_form(F):
    with pytest.raises(ValueError, match="must be a BinaryForm"):
        semantics.campana_member_form([], 2, F, 3)


def test_substitute_form_preserves_matrix_semantics():
    f = fm.build_S()
    F = BinaryForm.from_x_coeffs([1, 1])  # x + y, so r := lam + 1
    g = fm.substitute_form(f, F)
    env = {"a": 1, "b": 1, "lam": 1, "x2": 0, "x3": 0, "x4": 0}
    assert fm.evaluate_matrix(g, env)  # lam + 1 = 2 is in S
    env["lam"] = 2
    assert not fm.evaluate_matrix(g, env)


def test_emit_parse_round_trip():
    for f in (fm.build_S(), fm.build_T_unit(), fm.build_campana(2),
              fm.build_integrality(real_embedded=True),
              fm.substitute_form(fm.build_S(), BinaryForm({(2, 0): 1}))):
        blob = fm.emit(f, "json")
        g = fm.parse(blob)
        assert g == f
        assert fm.stats(g) == fm.stats(f)
        assert fm.emit(g, "json") == blob


def test_emit_other_formats():
    f = fm.build_S()
    sexpr = fm.emit(f, "sexpr").decode()
    assert sexpr.startswith("(formula (free a b r)")
    latex = fm.emit(f, "latex").decode()
    assert r"\exists x2" in latex
    with pytest.raises(ValueError):
        fm.emit(f, "xml")


@pytest.mark.parametrize("fmt", ["json", "sexpr", "latex"])
def test_emit_leaves_no_cycle_that_keeps_a_dropped_formula_alive(fmt):
    # names no other test uses, so that no other formula shares the atoms
    u, v = Circuit.var("emit cycle u"), Circuit.var("emit cycle v")
    gc.collect()
    gc.disable()
    try:
        f = fm.Formula([("exists", "emit cycle v")],
                       ("or", (("eq", u * v - 1), ("and", (("neq", u), ("eq", v + 2))))),
                       ["emit cycle u"])
        ref = weakref.ref(f.atoms()[0])
        del u, v
        fm.emit(f, fmt)
        del f
        assert ref() is None
    finally:
        gc.enable()


# every Formula parameter of a public function, as function[parameter],
# with a call that passes g there
_FORMULA_TAKERS = {
    "stats[f]": fm.stats,
    "emit[f]": fm.emit,
    "evaluate_matrix[f]": lambda g: fm.evaluate_matrix(g, {}),
    "prenex_or[universal_part]": lambda g: fm.prenex_or(g, fm.build_S()),
    "prenex_or[existential_part]": lambda g: fm.prenex_or(_forall_neq(), g),
    "substitute_form[base]": lambda g: fm.substitute_form(g, X_FORM),
}


def _forall_neq():
    return fm.Formula([(fm.FORALL, "x")], ("neq", Circuit.var("x")), [])


@pytest.mark.parametrize("bad", [None, 3, "x", [], Circuit.var("x"),
                                 ("eq", Circuit.var("x"))],
                         ids=["None", "int", "str", "list", "circuit", "matrix"])
@pytest.mark.parametrize("name", sorted(_FORMULA_TAKERS))
def test_a_non_formula_is_a_value_error(name, bad):
    with pytest.raises(ValueError, match="must be a Formula"):
        _FORMULA_TAKERS[name](bad)


def test_formula_takers_table_is_complete():
    import inspect
    takers = {f"{fn.__name__}[{p}]" for fn in vars(fm).values()
              if inspect.isfunction(fn) and fn.__module__ == fm.__name__
              and not fn.__name__.startswith("_")
              for p, par in inspect.signature(fn).parameters.items()
              if par.annotation == "Formula"}
    assert takers == set(_FORMULA_TAKERS)


# every public function with a real_embedded parameter, and Formula, with a
# call that passes flag there; a flag that is not a bool was stored as given
# (build_integrality(real_embedded="no") built the sum-of-squares variant
# marked "no", and parse(emit(f)) != f)
_REAL_TAKERS = {
    "Formula": lambda flag: fm.Formula([], ("eq", Circuit.var("x")), ["x"],
                                       real_embedded=flag),
    "prenex_or": lambda flag: fm.prenex_or(_forall_neq(), fm.build_S(), real_embedded=flag),
    "build_campana": lambda flag: fm.build_campana(2, real_embedded=flag),
    "build_integrality": lambda flag: fm.build_integrality(real_embedded=flag),
}


@pytest.mark.parametrize("flag", ["no", None, 0, 1, np.bool_(True), "True"],
                         ids=["no", "None", "0", "1", "numpy bool", "str"])
@pytest.mark.parametrize("name", sorted(_REAL_TAKERS))
def test_a_real_embedded_that_is_not_a_bool_is_a_value_error(name, flag):
    with pytest.raises(ValueError, match="real_embedded must be a bool"):
        _REAL_TAKERS[name](flag)


def test_real_takers_table_is_complete():
    import inspect
    takers = {name for name, fn in vars(fm).items()
              if inspect.isfunction(fn) and fn.__module__ == fm.__name__
              and not name.startswith("_")
              and "real_embedded" in inspect.signature(fn).parameters}
    assert takers | {"Formula"} == set(_REAL_TAKERS)


# the builders that take no n: each builds its formula once per process
_CACHED = [(name, real) for name, target in fm.TARGETS.items() if not target.takes_n
           for real in ((False, True) if target.has_real else (False,))]


def test_the_cached_builders_are_those_without_n():
    for target in fm.TARGETS.values():
        assert hasattr(target.builder, "cache_clear") == (not target.takes_n)
    assert len({name for name, _ in _CACHED}) == 10


@pytest.mark.parametrize("name, real", _CACHED)
def test_a_cached_builder_returns_one_shared_formula(name, real):
    target = fm.TARGETS[name]
    f = target.build(real=real)
    assert target.build(real=real) is f
    info = target.builder.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    if target.has_real:
        # keyword and positional calls share the entry
        assert target.builder(real_embedded=real) is target.builder(real) is f


@pytest.mark.parametrize("name, real", _CACHED)
def test_a_cleared_builder_builds_the_same_bytes_again(name, real):
    target = fm.TARGETS[name]
    f = target.build(real=real)
    blobs = [fm.emit(f, fmt) for fmt in ("json", "sexpr", "latex")]
    target.builder.cache_clear()
    g = target.build(real=real)
    assert g is not f and g == f
    assert [fm.emit(g, fmt) for fmt in ("json", "sexpr", "latex")] == blobs


def test_a_cleared_builder_lets_its_circuits_leave_the_table():
    from campana import circuits

    gc.collect()
    gc.disable()
    try:
        before = len(circuits._TABLE)
        f = fm.build_premise()
        fm.emit(f)  # the layout the formula keeps holds no more circuits
        ref = weakref.ref(f.atoms()[-1])
        del f
        assert ref() is not None and len(circuits._TABLE) > before + 3000
        fm.build_premise.cache_clear()
        # the J(a,b,c,d) blocks stay in their own memo until it is cleared
        assert ref() is None and len(circuits._TABLE) > before + 3000
        fm._jabcd_record.cache_clear()
        assert len(circuits._TABLE) == before
    finally:
        gc.enable()


# the J(a,b,c,d) block memo: every target that takes n is built from it
_N_CASES = [(name, n, real) for name in ("Jn", "invJn", "campana") for n in (2, 3, 7, 100)
            for real in ((False, True) if fm.TARGETS[name].has_real else (False,))]


def _emits(f):
    return [fm.emit(f, fmt) for fmt in ("json", "sexpr", "latex")]


@pytest.mark.parametrize("name, n, real", _N_CASES)
def test_a_build_from_cold_memos_emits_what_a_warm_build_emits(name, n, real):
    import campana

    campana.clear_memos()
    cold = _emits(fm.TARGETS[name].build(n, real))
    for other, m, flag in _N_CASES:
        fm.TARGETS[other].build(m, flag)
    hits = fm._jabcd_record.cache_info().hits
    assert _emits(fm.TARGETS[name].build(n, real)) == cold
    assert fm._jabcd_record.cache_info().hits > hits


def test_n_never_enters_a_block_memo_key():
    def build_all(n):
        for name in ("Jn", "invJn", "campana"):
            for real in (False, True):
                fm.TARGETS[name].build(n, real)

    build_all(2)
    entries = fm._jabcd_record.cache_info().currsize
    for n in range(3, 41):
        build_all(n)
    info = fm._jabcd_record.cache_info()
    assert info.currsize == entries and info.misses == entries


def test_the_block_memo_keeps_every_key_of_the_targets():
    for target in fm.TARGETS.values():
        for n in (2, 3, 7, 100):
            for real in (False, True):
                target.build(n, real)
    info = fm._jabcd_record.cache_info()
    assert info.currsize == info.misses == 15 < info.maxsize == fm.JABCD_MEMO_SIZE


# Formula refuses what parse would refuse in a document, and a matrix node
# that emit could not write so that parse reads it back as the same node
_X = Circuit.var("x")
_BAD_FORMULAS = {
    "name None": lambda: fm.Formula([("exists", None)], ("eq", _X), ["x"]),
    "bound name int": lambda: fm.Formula([("forall", 3)], ("eq", _X), ["x"]),
    "free name int": lambda: fm.Formula([], ("eq", _X), ["x", 3]),
    "free bare str": lambda: fm.Formula([], ("eq", _X), "x"),
    "free set": lambda: fm.Formula([], ("eq", _X), {"x"}),
    "free None": lambda: fm.Formula([], ("eq", _X), None),
    "prefix None": lambda: fm.Formula(None, ("eq", _X), ["x"]),
    "prefix dict": lambda: fm.Formula({}, ("eq", _X), ["x"]),
    "pair of one": lambda: fm.Formula([("exists",)], ("eq", _X), ["x"]),
    "pair of three": lambda: fm.Formula([("exists", "y", "z")], ("eq", _X), ["x"]),
    "pair a str": lambda: fm.Formula(["ey"], ("eq", _X), ["x"]),
    "pair a dict": lambda: fm.Formula([{"exists": 0, "y": 0}], ("eq", _X), ["x"]),
    "bad quantifier": lambda: fm.Formula([("some", "y")], ("eq", _X), ["x"]),
    "quantifier a list": lambda: fm.Formula([(["exists"], "y")], ("eq", _X), ["x"]),
    "atom an int": lambda: fm.Formula([], ("eq", 5), ["x"]),
    "atom a str": lambda: fm.Formula([], ("eq", "x"), ["x"]),
    "atom None": lambda: fm.Formula([], ("neq", None), ["x"]),
    "empty and": lambda: fm.Formula([], ("and", ()), ["x"]),
    "empty or": lambda: fm.Formula([], ("or", ()), ["x"]),
    "children a list": lambda: fm.Formula([], ("and", [("eq", _X)]), ["x"]),
    "children one node": lambda: fm.Formula([], ("or", ("eq", _X)), ["x"]),
    "node a list": lambda: fm.Formula([], ["eq", _X], ["x"]),
    "node of three": lambda: fm.Formula([], ("eq", _X, _X), ["x"]),
    "node None": lambda: fm.Formula([], None, ["x"]),
    "unknown kind": lambda: fm.Formula([], ("xor", (("eq", _X),)), ["x"]),
    "bad child": lambda: fm.Formula([], ("and", (("eq", _X), 0)), ["x"]),
}


@pytest.mark.parametrize("case", sorted(_BAD_FORMULAS))
def test_formula_refuses_a_bad_argument_with_a_value_error(case):
    with pytest.raises(ValueError):
        _BAD_FORMULAS[case]()


# emit keeps each format's bytes on the Formula, so a Formula is read-only
_SLOTS = ("prefix", "matrix", "free", "real_embedded", "_layout", "_emitted")


@pytest.mark.parametrize("slot", _SLOTS)
def test_a_formula_refuses_assignment_and_deletion(slot):
    f = fm.Formula([("exists", "x")], ("eq", Circuit.var("x") - 1), [])
    blob = fm.emit(f)
    before = getattr(f, slot)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(f, slot, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(f, slot)
    assert getattr(f, slot) is before and fm.emit(f) is blob


def test_a_formula_refuses_a_new_attribute():
    with pytest.raises(AttributeError):
        fm.build_S().extra = 1


def test_a_formula_pickles_and_copies_to_an_equal_formula():
    import copy
    import pickle

    f = fm.build_integrality(real_embedded=True)
    for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert g == f and fm.emit(g) == fm.emit(f)


_BAD_FORMATS = {"yaml": "yaml", "None": None, "list": [], "int": 3, "bytes": b"json"}


@pytest.mark.parametrize("full", [False, True], ids=["fresh", "full cache"])
@pytest.mark.parametrize("fmt", _BAD_FORMATS.values(), ids=_BAD_FORMATS)
def test_emit_refuses_a_bad_format_and_keeps_its_cache(fmt, full):
    f = fm.Formula([("exists", "x")], ("eq", Circuit.var("x") - 1), [])
    if full:
        for good in fm.FORMATS:
            fm.emit(f, good)
    before = dict(f._emitted)
    with pytest.raises(ValueError, match="unknown format"):
        fm.emit(f, fmt)
    assert f._emitted == before and len(before) == 3 * full


_EVERY_TARGET = [(name, n, real) for name in fm.TARGETS for n in (2, 7)
                 for real in (False, True)]


@pytest.mark.parametrize("name, n, real", _EVERY_TARGET)
def test_emit_renders_once_and_a_cold_rebuild_emits_the_same_bytes(name, n, real):
    import campana

    f = fm.TARGETS[name].build(n, real)
    warm = _emits(f)
    assert all(fm.emit(f, fmt) is blob for fmt, blob in zip(fm.FORMATS, warm))
    assert [fm._render(f, fmt) for fmt in fm.FORMATS] == warm
    campana.clear_memos()
    cold = fm.TARGETS[name].build(n, real)
    assert cold is not f and not cold._emitted
    assert _emits(cold) == warm


def test_threads_that_emit_one_fresh_formula_all_get_one_bytes_object():
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            f = fm.parse(fm.emit(fm.build_T_unit()))  # a fresh Formula, nothing kept
            barrier, got = threading.Barrier(4), []

            def emit_all():
                barrier.wait(timeout=10)
                got.append([fm.emit(f, fmt) for fmt in fm.FORMATS])

            threads = [threading.Thread(target=emit_all) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and len(got) == 4
            assert all(a is b for blobs in got for a, b in zip(blobs, got[0]))
    finally:
        sys.setswitchinterval(interval)
